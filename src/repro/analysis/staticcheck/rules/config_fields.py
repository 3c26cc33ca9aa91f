"""Rule ``config-classification``: every config field is deliberately
semantic or execution-only, and the serve layer agrees.

The cache-correctness contract (docs/serving.md): ``GalaConfig`` fields
either change *what* a run computes (``SEMANTIC_FIELDS`` — serialized by
``cache_key()``), select *how* it executes (``EXECUTION_FIELDS`` — every
choice bit-identical, excluded from the key), or are ``seed`` (keyed
separately by the result cache). A new field outside the classification
would silently join the cache key, forking caches for configs that
compute the same answer — or worse, a field wrongly marked execution
would alias different answers under one key.

Checks, all static:

* ``GalaConfig`` declares both ``SEMANTIC_FIELDS`` and
  ``EXECUTION_FIELDS`` as literal sets;
* the two sets are disjoint, cover every dataclass field (modulo
  ``seed``), and contain no stale names;
* every ``Phase1Config`` field — inherited ones included — maps to a
  ``GalaConfig`` field of the same name or the one
  :data:`PHASE1_FIELD_MAP` names (modulo the declared measurement-only
  extras);
* ``serve/cache.py`` builds keys via ``.cache_key()`` (no ad-hoc
  serialization);
* ``serve/protocol.py`` keeps the unknown-config-field guard, so a
  client cannot smuggle an unclassified field past the classification.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.staticcheck.project import (
    ModuleInfo,
    Project,
    class_constant_strs,
    dataclass_fields,
    dotted_name,
    find_class,
)
from repro.analysis.staticcheck.rules import lint_finding, rule

RULE = "config-classification"

GALA_MODULE = "repro.core.gala"
PHASE1_MODULE = "repro.core.phase1"
CACHE_MODULE = "repro.serve.cache"
PROTOCOL_MODULE = "repro.serve.protocol"

#: Phase1Config fields with no GalaConfig counterpart, by design:
#: ``oracle`` is a measurement-only instrument (exhaustive pruning
#: oracle for Lemma-5 audits), never part of the public config surface.
PHASE1_EXTRA_FIELDS: Set[str] = {"oracle"}

#: Phase1Config fields that ``GalaConfig.phase1_config()`` fills from a
#: GalaConfig field of another name: ``backend`` selects the kernel.
PHASE1_FIELD_MAP: Dict[str, str] = {"kernel": "backend"}


@rule(
    RULE,
    "GalaConfig fields classified semantic/execution; serve layer agrees",
)
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    gala = project.get(GALA_MODULE)
    if gala is None:
        return findings  # nothing to check against in a partial tree

    cls = find_class(gala, "GalaConfig")
    if cls is None:
        findings.append(
            lint_finding(
                RULE,
                "missing-classification",
                "repro.core.gala defines no GalaConfig class",
                gala,
                1,
            )
        )
        return findings

    fields = dataclass_fields(cls)
    semantic = class_constant_strs(cls, "SEMANTIC_FIELDS")
    execution = class_constant_strs(cls, "EXECUTION_FIELDS")
    for const_name, value in (
        ("SEMANTIC_FIELDS", semantic),
        ("EXECUTION_FIELDS", execution),
    ):
        if value is None:
            findings.append(
                lint_finding(
                    RULE,
                    "missing-classification",
                    f"GalaConfig must declare {const_name} as a literal "
                    "set of field names",
                    gala,
                    cls.lineno,
                )
            )
    if semantic is None or execution is None:
        return findings

    overlap = semantic & execution
    for name in sorted(overlap):
        findings.append(
            lint_finding(
                RULE,
                "ambiguous-config-field",
                f"GalaConfig.{name} is listed in both SEMANTIC_FIELDS and "
                "EXECUTION_FIELDS — a field is one or the other",
                gala,
                fields.get(name, cls.lineno),
                field=name,
            )
        )
    for name, lineno in sorted(fields.items()):
        if name == "seed" or name in semantic or name in execution:
            continue
        findings.append(
            lint_finding(
                RULE,
                "unclassified-config-field",
                f"GalaConfig.{name} is neither in SEMANTIC_FIELDS nor "
                "EXECUTION_FIELDS — decide whether it changes the answer "
                "(cache key) or only the execution",
                gala,
                lineno,
                field=name,
            )
        )
    for name in sorted((semantic | execution) - set(fields)):
        findings.append(
            lint_finding(
                RULE,
                "stale-config-classification",
                f"{name!r} is classified but is not a GalaConfig field — "
                "remove it from the classification sets",
                gala,
                cls.lineno,
                field=name,
            )
        )

    findings.extend(_check_phase1(project, set(fields)))
    findings.extend(_check_cache_key_usage(project))
    findings.extend(_check_protocol_guard(project))
    return findings


def _check_phase1(project: Project, gala_fields: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    phase1 = project.get(PHASE1_MODULE)
    if phase1 is None:
        return findings
    cls = find_class(phase1, "Phase1Config")
    if cls is None:
        return findings
    for name, (module, lineno) in sorted(
        _inherited_fields(project, phase1, cls).items()
    ):
        mapped = PHASE1_FIELD_MAP.get(name, name)
        if mapped in gala_fields or name in PHASE1_EXTRA_FIELDS:
            continue
        findings.append(
            lint_finding(
                RULE,
                "unmapped-phase1-field",
                f"Phase1Config.{name} has no GalaConfig counterpart and is "
                "not a declared measurement-only extra — it would be "
                "unreachable from the public config (and invisible to "
                "cache keys)",
                module,
                lineno,
                field=name,
            )
        )
    return findings


def _inherited_fields(
    project: Project, module: ModuleInfo, cls: ast.ClassDef
) -> Dict[str, Tuple[ModuleInfo, int]]:
    """Dataclass fields of ``cls`` → (declaring module, line), including
    fields inherited from base classes defined in ``module`` or imported
    into it by name from another project module."""
    fields: Dict[str, Tuple[ModuleInfo, int]] = {}
    for base in cls.bases:
        found = _resolve_class(project, module, dotted_name(base) or "")
        if found is not None:
            fields.update(_inherited_fields(project, *found))
    for name, lineno in dataclass_fields(cls).items():
        fields[name] = (module, lineno)
    return fields


def _resolve_class(
    project: Project, module: ModuleInfo, name: str
) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
    cls = find_class(module, name)
    if cls is not None:
        return module, cls
    for node in module.tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        for alias in node.names:
            if (alias.asname or alias.name) != name:
                continue
            other = project.get(node.module)
            if other is None:
                continue
            cls = find_class(other, alias.name)
            if cls is not None:
                return other, cls
    return None


def _check_cache_key_usage(project: Project) -> List[Finding]:
    """ResultCache.key must route through ``config.cache_key()``."""
    findings: List[Finding] = []
    cache = project.get(CACHE_MODULE)
    if cache is None:
        return findings
    cls = find_class(cache, "ResultCache")
    if cls is None:
        return findings
    key_fn = next(
        (
            n
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n.name == "key"
        ),
        None,
    )
    if key_fn is None:
        return findings
    calls_cache_key = any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "cache_key"
        for n in ast.walk(key_fn)
    )
    if not calls_cache_key:
        findings.append(
            lint_finding(
                RULE,
                "cache-key-bypass",
                "ResultCache.key does not call config.cache_key() — ad-hoc "
                "key construction bypasses the semantic/execution "
                "classification",
                cache,
                key_fn.lineno,
            )
        )
    return findings


def _check_protocol_guard(project: Project) -> List[Finding]:
    """parse_detect_config must reject unknown config fields."""
    findings: List[Finding] = []
    protocol = project.get(PROTOCOL_MODULE)
    if protocol is None:
        return findings
    parse_fn = next(
        (
            n
            for n in protocol.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n.name == "parse_detect_config"
        ),
        None,
    )
    if parse_fn is None:
        findings.append(
            lint_finding(
                RULE,
                "missing-unknown-field-guard",
                "repro.serve.protocol defines no parse_detect_config — the "
                "wire boundary must validate config fields",
                protocol,
                1,
            )
        )
        return findings
    guarded = False
    for node in ast.walk(parse_fn):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        for const in ast.walk(node.exc):
            if (
                isinstance(const, ast.Constant)
                and isinstance(const.value, str)
                and "unknown config field" in const.value
            ):
                guarded = True
    if not guarded:
        findings.append(
            lint_finding(
                RULE,
                "missing-unknown-field-guard",
                "parse_detect_config does not raise on unknown config "
                "fields — clients could smuggle unclassified fields past "
                "the cache-key classification",
                protocol,
                parse_fn.lineno,
            )
        )
    return findings

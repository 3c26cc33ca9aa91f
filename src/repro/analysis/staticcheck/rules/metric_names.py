"""Rule ``metric-names``: every emitted metric name comes from the
registry, every registry entry is live, and the docs mention all of it.

The registry is :mod:`repro.obs.names` (``METRIC_NAMES`` exact names,
``METRIC_FAMILIES`` patterns with ``*`` holes, ``DOC_FILES`` the docs
that must mention each entry). Emission sites are calls whose callee
attribute is ``counter``/``gauge``/``histogram``/``inc`` with a string
(or f-string) first argument, plus the metric-name dictionary literals
handed to ``render_prometheus`` / merged via ``<dict>.update({...})``.

F-strings collapse each hole to ``*`` — except a hole referencing an
enclosing-function parameter with a string default (the bridge-method
``prefix="gpusim"`` idiom), which substitutes the default. A collapsed
pattern must equal a declared family *exactly*; an emission whose name
cannot be resolved at all (a computed variable) is its own finding
unless the parameter is a pure pass-through (checked at its callers).

Three failure directions:

* ``undeclared-metric-name`` — emitted but not in the registry;
* ``stale-metric-name`` — declared but never emitted (a rename in code
  without a registry update produces both findings, pinning the drift);
* ``undocumented-metric`` — declared but absent from the DOC_FILES.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.staticcheck.project import (
    ModuleInfo,
    Project,
    collapse_fstring,
    module_constant_strs,
    param_names,
    param_string_defaults,
)
from repro.analysis.staticcheck.rules import lint_finding, rule

RULE = "metric-names"

REGISTRY_MODULE = "repro.obs.names"

#: callee attribute names that take a metric name as first argument
_EMIT_ATTRS = {"counter", "gauge", "histogram", "inc"}

#: keyword arguments of render_prometheus whose dict keys are metric names
_RENDER_KWARGS = {
    "counters",
    "gauges",
    "histograms",
    "help_text",
}


@rule(RULE, "metric names declared in repro.obs.names, live, and documented")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    registry = project.get(REGISTRY_MODULE)
    if registry is None:
        anchor = next(iter(project), None)
        if anchor is not None:
            findings.append(
                lint_finding(
                    RULE,
                    "missing-registry",
                    f"metric-name registry module {REGISTRY_MODULE} not "
                    "found — declare METRIC_NAMES/METRIC_FAMILIES there",
                    anchor,
                    1,
                )
            )
        return findings

    names = module_constant_strs(registry, "METRIC_NAMES")
    families = module_constant_strs(registry, "METRIC_FAMILIES")
    doc_files = module_constant_strs(registry, "DOC_FILES")
    for const, value in (
        ("METRIC_NAMES", names),
        ("METRIC_FAMILIES", families),
        ("DOC_FILES", doc_files),
    ):
        if value is None:
            findings.append(
                lint_finding(
                    RULE,
                    "missing-registry",
                    f"{REGISTRY_MODULE}.{const} must be a literal "
                    "set/tuple of strings",
                    registry,
                    1,
                )
            )
    if names is None or families is None or doc_files is None:
        return findings

    family_regexes = [
        (pat, _family_regex(pat)) for pat in sorted(families)
    ]

    emitted_exact: Set[str] = set()
    emitted_patterns: Set[str] = set()
    for module in project:
        if module.name == REGISTRY_MODULE:
            continue
        for used, lineno, unresolved in _emission_sites(module):
            if unresolved:
                findings.append(
                    lint_finding(
                        RULE,
                        "unresolvable-metric-name",
                        "metric emitted with a computed name that cannot "
                        "be checked statically — use a literal, an "
                        "f-string, or a parameter with a string default",
                        module,
                        lineno,
                    )
                )
                continue
            assert used is not None
            if "*" in used:
                emitted_patterns.add(used)
                if used not in families:
                    findings.append(
                        _undeclared(module, lineno, used, family=True)
                    )
            else:
                emitted_exact.add(used)
                if used not in names and not any(
                    rx.match(used) for _, rx in family_regexes
                ):
                    findings.append(_undeclared(module, lineno, used))

    # reverse direction: any string constant in the tree counts as a
    # use (dict keys in snapshots/tests, stats mirrors, subscripts)
    all_strings = _all_string_constants(project, exclude=REGISTRY_MODULE)
    for name in sorted(names):
        if name in emitted_exact or name in all_strings:
            continue
        findings.append(
            lint_finding(
                RULE,
                "stale-metric-name",
                f"registry declares {name!r} but nothing in src/ emits or "
                "references it — remove it or restore the emission",
                registry,
                1,
                metric=name,
            )
        )
    for pattern, regex in family_regexes:
        live = pattern in emitted_patterns or any(
            regex.match(n) for n in emitted_exact | all_strings
        )
        if not live:
            findings.append(
                lint_finding(
                    RULE,
                    "stale-metric-name",
                    f"registry declares family {pattern!r} but no emission "
                    "site collapses to it",
                    registry,
                    1,
                    metric=pattern,
                )
            )

    # documentation direction
    doc_texts: List[str] = []
    for doc in sorted(doc_files):
        text = project.read_doc(doc)
        if text is None:
            findings.append(
                lint_finding(
                    RULE,
                    "missing-doc-file",
                    f"registry lists doc file {doc!r} but it does not exist",
                    registry,
                    1,
                )
            )
        else:
            doc_texts.append(text)
    corpus = "\n".join(doc_texts)
    if doc_texts:
        for entry in sorted(names | set(families)):
            needle = entry.split("*", 1)[0] if "*" in entry else entry
            if needle and needle not in corpus:
                findings.append(
                    lint_finding(
                        RULE,
                        "undocumented-metric",
                        f"registry entry {entry!r} is not mentioned in any "
                        f"of {', '.join(sorted(doc_files))}",
                        registry,
                        1,
                        metric=entry,
                    )
                )
    return findings


# --------------------------------------------------------------------- #
def _family_regex(pattern: str) -> "re.Pattern[str]":
    parts = [re.escape(p) for p in pattern.split("*")]
    return re.compile("^" + "[^/]+".join(parts) + "$")


def _undeclared(
    module: ModuleInfo, lineno: int, used: str, family: bool = False
) -> Finding:
    what = "family pattern" if family else "metric name"
    return lint_finding(
        RULE,
        "undeclared-metric-name",
        f"emits {what} {used!r} not declared in {REGISTRY_MODULE} — "
        "add it to the registry (and the docs) or fix the name",
        module,
        lineno,
        metric=used,
    )


def _emission_sites(
    module: ModuleInfo,
) -> List[Tuple[Optional[str], int, bool]]:
    """(resolved name-or-pattern, lineno, unresolvable?) per emission."""
    sites: List[Tuple[Optional[str], int, bool]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        sites.extend(_from_emit_call(module, node))
        sites.extend(_from_render_call(node))
        sites.extend(_from_dict_update(node))
    return sites


def _from_emit_call(
    module: ModuleInfo, call: ast.Call
) -> List[Tuple[Optional[str], int, bool]]:
    if not (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _EMIT_ATTRS
        and call.args
    ):
        return []
    # np.histogram(data, ...) is a numpy reduction, not an emission
    receiver = call.func.value
    if isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy"):
        return []
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [(arg.value, call.lineno, False)]
    func = module.enclosing_function(call)
    defaults = param_string_defaults(func) if func is not None else {}
    if isinstance(arg, ast.JoinedStr):
        return [(collapse_fstring(arg, defaults), call.lineno, False)]
    if isinstance(arg, ast.Name):
        if arg.id in defaults:
            return [(defaults[arg.id], call.lineno, False)]
        if func is not None and arg.id in param_names(func):
            # pure pass-through plumbing (MetricsRegistry.inc calling
            # self.counter(name)): the callers' literals are checked
            return []
        return [(None, call.lineno, True)]
    return [(None, call.lineno, True)]


def _from_render_call(
    call: ast.Call,
) -> List[Tuple[Optional[str], int, bool]]:
    name = call.func.attr if isinstance(call.func, ast.Attribute) else (
        call.func.id if isinstance(call.func, ast.Name) else None
    )
    if name != "render_prometheus":
        return []
    sites: List[Tuple[Optional[str], int, bool]] = []
    for kw in call.keywords:
        if kw.arg in _RENDER_KWARGS and isinstance(kw.value, ast.Dict):
            sites.extend(_dict_keys(kw.value))
    return sites


def _from_dict_update(
    call: ast.Call,
) -> List[Tuple[Optional[str], int, bool]]:
    """``somedict.update({"a/b": ...})`` — metric-shaped keys only."""
    if not (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "update"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Dict)
    ):
        return []
    return [
        site
        for site in _dict_keys(call.args[0])
        if site[0] is not None and "/" in site[0]
    ]


def _dict_keys(node: ast.Dict) -> List[Tuple[Optional[str], int, bool]]:
    sites: List[Tuple[Optional[str], int, bool]] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            sites.append((key.value, key.lineno, False))
    return sites


def _all_string_constants(
    project: Project, exclude: Optional[str] = None
) -> Set[str]:
    out: Set[str] = set()
    for module in project:
        if module.name == exclude:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out

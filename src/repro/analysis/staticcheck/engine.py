"""The static-check engine: parse once, run rules, apply markers, report.

:func:`run_staticcheck` is the single entry point behind the ``repro
lint`` CLI, the CI gate, and the meta-test that keeps the shipped tree
clean. It loads the source tree into a
:class:`~repro.analysis.staticcheck.project.Project`, runs the
registered rules (or a subset), strips findings waived by an inline
``# lint: allow[<rule>]`` comment, reports markers that waive nothing
as ``stale-waiver`` findings, and folds everything into a
:class:`LintReport`.

Findings are ordinary :class:`~repro.analysis.findings.Finding` records
with ``checker="staticcheck"``: the same record type, JSON form and
rendering as the runtime sanitizers' findings.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.staticcheck.project import Project
from repro.analysis.staticcheck.rules import (
    all_rules,
    get_rule,
    lint_finding,
    rule_doc,
)

#: inline waiver marker: ``# lint: allow[<rule>]``
_INLINE_RE = re.compile(r"#\s*lint:\s*allow\[([a-z0-9_*-]+)\]")


def inline_waiver(line: str, prev_line: str, rule: str) -> bool:
    """True when the line (or the one above) carries a matching
    ``# lint: allow[<rule>]`` marker."""
    return any(
        name in (rule, "*")
        for text in (line, prev_line)
        for name in _INLINE_RE.findall(text)
    )


@dataclass
class LintReport:
    """Outcome of one static-check run."""

    #: findings that fail the run (not waived by an inline marker)
    findings: List[Finding] = field(default_factory=list)
    #: count of findings suppressed by inline ``# lint: allow[...]``
    inline_waived: int = 0
    rules_run: Tuple[str, ...] = ()
    checked_modules: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def total(self) -> int:
        return len(self.findings)

    def by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            name = str(f.details.get("rule", "?"))
            out[name] = out.get(name, 0) + 1
        return out

    def summary(self) -> Dict[str, Any]:
        """Compact payload for manifests (``RunManifest.staticcheck``)."""
        kinds: Dict[str, int] = {}
        for f in self.findings:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        return {
            "total": self.total,
            "waived": self.inline_waived,
            "rules": list(self.rules_run),
            "modules": self.checked_modules,
            "by_rule": self.by_rule(),
            "by_kind": kinds,
        }

    def as_json(self) -> Dict[str, Any]:
        """Full machine-readable report (the ``--format json`` payload)."""
        return {
            "clean": self.clean,
            "summary": self.summary(),
            "findings": [f.as_dict() for f in self.findings],
        }

    def render_text(self, limit: int = 50) -> str:
        """Terminal/CI report (the ``--format text`` output)."""
        lines: List[str] = []
        n_waived = self.inline_waived
        if self.clean:
            lines.append(
                f"repro lint: clean — {self.checked_modules} modules, "
                f"{len(self.rules_run)} rules"
                + (f", {n_waived} waived finding(s)" if n_waived else "")
            )
        else:
            lines.append(
                f"repro lint: {self.total} unwaived finding(s) "
                f"({self.checked_modules} modules, "
                f"{len(self.rules_run)} rules"
                + (f", {n_waived} waived" if n_waived else "")
                + ")"
            )
            for name, count in sorted(self.by_rule().items()):
                lines.append(f"  {name:24s} {count}")
            for f in self.findings[:limit]:
                lines.append(f"  - {f}")
            if self.total > limit:
                lines.append(f"  ... and {self.total - limit} more")
        return "\n".join(lines)


def run_staticcheck(
    repo_root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[str]] = None,
    project: Optional[Project] = None,
) -> LintReport:
    """Run the AST invariant checker over the repo's source tree.

    Parameters
    ----------
    repo_root:
        Repository root (containing ``src/repro``). Defaults to the
        root this installed package was loaded from.
    rules:
        Subset of rule names to run (default: all registered rules).
    project:
        Pre-built :class:`Project` (tests build synthetic trees).
    """
    if project is None:
        if repo_root is None:
            # src/repro/analysis/staticcheck/engine.py → repo root
            repo_root = Path(__file__).resolve().parents[4]
        project = Project.from_repo(Path(repo_root))

    selected = tuple(rules) if rules else all_rules()
    findings: List[Finding] = []
    for rel_path, error in project.parse_errors:
        findings.append(
            Finding(
                checker="staticcheck",
                kind="syntax-error",
                message=f"cannot parse: {error}",
                kernel=rel_path,
                details={"rule": "parse", "path": rel_path},
            )
        )
    for name in selected:
        findings.extend(get_rule(name)(project))

    kept, inline_count = _apply_inline_waivers(project, findings, selected)
    return LintReport(
        findings=kept,
        inline_waived=inline_count,
        rules_run=selected,
        checked_modules=len(project),
    )


def _marker_comments(project: Project) -> Dict[Tuple[str, int], str]:
    """(rel_path, line) → text of each comment carrying a marker.

    Only comments count: a marker quoted in a docstring is prose.
    """
    out: Dict[Tuple[str, int], str] = {}
    for module in project:
        if "lint:" not in module.source:
            continue
        readline = io.StringIO(module.source).readline
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.COMMENT and _INLINE_RE.search(tok.string):
                out[(module.rel_path, tok.start[0])] = tok.string
    return out


def _apply_inline_waivers(
    project: Project, findings: List[Finding], rules_run: Tuple[str, ...]
) -> Tuple[List[Finding], int]:
    """Strip the findings a marker waives; return the rest plus one
    ``stale-waiver`` finding per marker that names no registered rule
    or, its rule having run, waives nothing — so markers cannot rot."""
    markers = _marker_comments(project)
    used: Set[Tuple[str, int, str]] = set()
    kept: List[Finding] = []
    stripped = 0
    for f in findings:
        path = str(f.details.get("path", ""))
        lineno = f.details.get("line")
        rule_name = str(f.details.get("rule", ""))
        if not isinstance(lineno, int) or lineno <= 0:
            kept.append(f)
            continue
        hits = [
            n for n in (lineno, lineno - 1)
            if inline_waiver(markers.get((path, n), ""), "", rule_name)
        ]
        for n in hits:
            used.update({(path, n, rule_name), (path, n, "*")})
        if hits:
            stripped += 1
        else:
            kept.append(f)

    registered = set(all_rules())
    judged = set(rules_run)
    if judged >= registered:
        judged.add("*")
    by_rel = {m.rel_path: m for m in project}
    for (path, n), text in sorted(markers.items()):
        for name in _INLINE_RE.findall(text):
            if name != "*" and name not in registered:
                problem = "names no registered rule"
            elif name in judged and (path, n, name) not in used:
                problem = "waives no finding — delete it"
            else:
                continue
            kept.append(lint_finding(
                "waivers", "stale-waiver",
                f"marker allow[{name}] {problem}", by_rel[path], n,
            ))
    return kept, stripped


def describe_rules() -> List[Tuple[str, str]]:
    """(name, description) for every registered rule, sorted."""
    return [(name, rule_doc(name)) for name in all_rules()]

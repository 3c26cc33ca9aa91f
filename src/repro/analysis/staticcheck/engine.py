"""The static-check engine: parse once, run rules, apply waivers, report.

:func:`run_staticcheck` is the single entry point behind the ``repro
lint`` CLI, the CI gate, and the meta-test that keeps the shipped tree
clean. It loads the source tree into a
:class:`~repro.analysis.staticcheck.project.Project`, runs the
registered rules (or a subset), strips findings carrying an inline
``# lint: allow[rule]`` marker, applies the structured waiver file, and
folds everything into a :class:`LintReport`.

Findings are ordinary :class:`~repro.analysis.findings.Finding` records
with ``checker="staticcheck"``: the same record type, JSON form and
rendering as the runtime sanitizers' findings.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.staticcheck.project import Project
from repro.analysis.staticcheck.rules import all_rules, get_rule, rule_doc
from repro.analysis.staticcheck.waivers import WaiverFile, inline_waiver

#: default waiver file, repo-root relative
DEFAULT_WAIVER_FILE = "lint-waivers.json"


@dataclass
class LintReport:
    """Outcome of one static-check run."""

    #: findings that fail the run (not waived anywhere)
    findings: List[Finding] = field(default_factory=list)
    #: (finding, reason) pairs suppressed by the waiver file
    waived: List[Tuple[Finding, str]] = field(default_factory=list)
    #: count of findings suppressed by inline ``# lint: allow[...]``
    inline_waived: int = 0
    rules_run: Tuple[str, ...] = ()
    checked_modules: int = 0
    waiver_file: Optional[str] = None

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
            "waived": len(self.waived) + self.inline_waived,
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
            "waived": [
                {"finding": f.as_dict(), "reason": reason}
                for f, reason in self.waived
            ],
            "waiver_file": self.waiver_file,
        }

    def render_text(self, limit: int = 50) -> str:
        """Terminal/CI report (the ``--format text`` output)."""
        lines: List[str] = []
        n_waived = len(self.waived) + self.inline_waived
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
        if self.waived:
            lines.append("waived:")
            for f, reason in self.waived[:limit]:
                lines.append(f"  ~ {f}")
                lines.append(f"    reason: {reason}")
        return "\n".join(lines)


def run_staticcheck(
    repo_root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[str]] = None,
    waiver_file: Optional[Union[str, Path]] = None,
    today: Optional[_dt.date] = None,
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
    waiver_file:
        Structured waiver file. Defaults to ``lint-waivers.json`` at
        the repo root when that file exists; pass a path explicitly to
        require it.
    today:
        Reference date for waiver expiry (tests pin this).
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

    kept, inline_count = _strip_inline_waivers(project, findings)

    waivers: Optional[WaiverFile] = None
    waiver_path: Optional[Path] = None
    if waiver_file is not None:
        waiver_path = Path(waiver_file)
        waivers = WaiverFile.load(waiver_path)
    else:
        candidate = project.repo_root / DEFAULT_WAIVER_FILE
        if candidate.exists():
            waiver_path = candidate
            waivers = WaiverFile.load(candidate)

    if waivers is not None:
        unwaived, waived, waiver_findings = waivers.apply(kept, today=today)
        unwaived.extend(waiver_findings)
    else:
        unwaived, waived = kept, []

    return LintReport(
        findings=unwaived,
        waived=waived,
        inline_waived=inline_count,
        rules_run=selected,
        checked_modules=len(project),
        waiver_file=None if waiver_path is None else str(waiver_path),
    )


def _strip_inline_waivers(
    project: Project, findings: List[Finding]
) -> Tuple[List[Finding], int]:
    by_rel = {m.rel_path: m for m in project}
    kept: List[Finding] = []
    stripped = 0
    for f in findings:
        module = by_rel.get(str(f.details.get("path", "")))
        lineno = f.details.get("line")
        rule_name = str(f.details.get("rule", ""))
        if module is not None and isinstance(lineno, int) and lineno > 0:
            line = module.line(lineno)
            prev = module.line(lineno - 1)
            if inline_waiver(line, prev, rule_name):
                stripped += 1
                continue
        kept.append(f)
    return kept, stripped


def describe_rules() -> List[Tuple[str, str]]:
    """(name, description) for every registered rule, sorted."""
    return [(name, rule_doc(name)) for name in all_rules()]

"""repro-lint: AST-based invariant checking for repo-level contracts.

The runtime sanitizers in :mod:`repro.analysis` catch contract
violations while code executes; this package catches a complementary
class *before* anything runs, by parsing ``src/`` and checking
invariants that live across files:

* ``config-classification`` — every ``GalaConfig`` field is declared
  semantic (in the cache key) or execution-only, and the serve layer
  agrees with the classification;
* ``determinism`` — no unseeded/time-seeded RNGs and no unordered-
  container iteration feeding data in the hot-path packages;
* ``metric-names`` — every emitted metric name comes from the
  :mod:`repro.obs.names` registry, every registry entry is live, and
  the docs mention all of them;
* ``protocol-coverage`` — every JSONL op has a server handler, a
  client method, and documentation (and nothing undeclared);
* ``float-accumulation`` — modules declaring ``__bitexact__ = True``
  only reduce floats through sanctioned fixed-order helpers;
* ``span-pairing`` — tracer spans are context-managed, never manually
  ``__enter__``-ed.

Findings are the same :class:`~repro.analysis.findings.Finding` records
the runtime sanitizers emit (``checker="staticcheck"``), so they flow
into :class:`~repro.analysis.findings.FindingLog`, obs metrics, run
manifests, and ``repro report`` unchanged. The one escape hatch is an
inline ``# lint: allow[<rule>]`` comment on or above the flagged line; a
marker that waives nothing is itself a ``stale-waiver`` finding. The
``repro lint`` CLI (and the CI ``lint-invariants`` job) exits 3 when
unwaived findings remain; see docs/static_analysis.md.
"""

from __future__ import annotations

from repro.analysis.staticcheck.engine import (
    LintReport,
    describe_rules,
    inline_waiver,
    run_staticcheck,
)
from repro.analysis.staticcheck.project import ModuleInfo, Project
from repro.analysis.staticcheck.rules import all_rules, get_rule, lint_finding

__all__ = [
    "LintReport",
    "ModuleInfo",
    "Project",
    "all_rules",
    "describe_rules",
    "get_rule",
    "inline_waiver",
    "lint_finding",
    "run_staticcheck",
]

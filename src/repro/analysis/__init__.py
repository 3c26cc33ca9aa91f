"""GALA-San: opt-in sanitizers for the simulated GPU stack.

``repro.analysis`` is the simulator's cuda-memcheck analog — four checkers
behind one session:

* **racecheck** — epoch-based happens-before hazard detection over the
  hashtable and warp layers (:mod:`.racecheck`);
* **memcheck** — out-of-bounds bucket indices, uninitialised-slot reads,
  shared-capacity overflow (:mod:`.memcheck`);
* **synccheck** — barrier divergence and warp-primitive mask mismatches
  (:mod:`.synccheck`);
* **invariant** — CSR well-formedness, community-weight conservation, and
  the MG-pruning Lemma-5 audit (:mod:`.invariants`).

The activation pattern mirrors :mod:`repro.obs`: instrumented code never
holds a sanitizer — it calls the module-level :func:`current` accessor,
which returns ``None`` when sanitizing is off (one global read + branch),
so the hot paths stay untouched by default. Activation is a context
manager::

    from repro import analysis

    with analysis.sanitized("strict") as san:
        result = gala(graph, GalaConfig(backend="gpusim"))
    print(san.log.render())

or driven by env/CLI: ``REPRO_SANITIZE=strict`` (read by ``gala()`` when
no sanitizer is active) or ``repro detect --sanitize=strict``. Every
checker runs whenever a sanitizer is active.

Two modes: ``fast`` runs the kernel-level checkers plus the CSR audit;
``strict`` additionally bit-compares the community-weight arrays against a
from-scratch recompute after every weight update and audits Lemma 5 with
the engine oracle. Neither mode perturbs results — a sanitized run is
bit-identical to an unsanitized one.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Union

if TYPE_CHECKING:  # only for annotations; keep the import graph light
    import numpy as np

    from repro.core.state import CommunityState
    from repro.graph.csr import CSRGraph

from .findings import CHECKERS, Finding, FindingLog
from .invariants import audit_lemma5, audit_weight_update, validate_csr
from .memcheck import MemChecker
from .racecheck import RaceChecker
from .synccheck import SyncChecker

__all__ = [
    "CHECKERS",
    "Finding",
    "FindingLog",
    "MemChecker",
    "RaceChecker",
    "SanitizerConfig",
    "Sanitizer",
    "SyncChecker",
    "active",
    "audit_lemma5",
    "audit_weight_update",
    "current",
    "resolve_sanitize",
    "sanitized",
    "validate_csr",
]

#: environment variable consulted when no explicit sanitize spec is given
ENV_VAR = "REPRO_SANITIZE"

MODES = ("fast", "strict")


@dataclass(frozen=True)
class SanitizerConfig:
    """How deep the sanitizer checks and how findings are handled.

    ``mode`` selects the depth: ``fast`` = racecheck + memcheck +
    synccheck + CSR audit; ``strict`` adds the per-iteration
    community-weight bit-compare and the Lemma-5 oracle audit. Every
    checker of the mode runs. ``on_finding`` is ``record`` (default:
    collect and report) or ``raise`` (abort on the first finding with the
    matching :class:`~repro.errors.SanitizerError` subclass).
    """

    mode: str = "fast"
    max_findings: int = 1000
    on_finding: str = "record"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"sanitize mode must be one of {MODES}, got {self.mode!r}")
        if self.on_finding not in ("record", "raise"):
            raise ValueError(
                f"on_finding must be 'record' or 'raise', got {self.on_finding!r}"
            )

    @property
    def strict(self) -> bool:
        return self.mode == "strict"


def resolve_sanitize(
    spec: Union[None, bool, str, SanitizerConfig] = None,
) -> Optional[SanitizerConfig]:
    """Normalise a sanitize spec to a config (or None = off).

    Accepts ``None`` (consult :data:`ENV_VAR`, off when unset), ``False``
    / ``"off"`` / ``""`` (off), ``True`` / ``"fast"`` / ``"strict"``, or
    an explicit :class:`SanitizerConfig`.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR) or None
        if spec is None:
            return None
    if isinstance(spec, SanitizerConfig):
        return spec
    if spec is False:
        return None
    if spec is True:
        return SanitizerConfig(mode="fast")
    text = str(spec).strip().lower()
    if text in ("", "off", "none", "0", "false"):
        return None
    if text in ("1", "true", "on"):
        return SanitizerConfig(mode="fast")
    return SanitizerConfig(mode=text)  # validates the mode name


class Sanitizer:
    """One sanitizing scope: the four checkers sharing one finding log."""

    def __init__(self, config: Optional[SanitizerConfig] = None) -> None:
        self.config = config or SanitizerConfig()
        self.log = FindingLog(
            max_stored=self.config.max_findings, on_add=self._on_finding
        )
        self.race = RaceChecker(self.log)
        self.mem = MemChecker(self.log)
        self.sync = SyncChecker(self.log)

    # ------------------------------------------------------------------ #
    def _on_finding(self, finding: Finding) -> None:
        # bridge into the observability metrics when a session is live
        from repro import obs

        obs.inc(f"sanitizer/findings/{finding.checker}")
        obs.inc(f"sanitizer/kind/{finding.kind}")
        if self.config.on_finding == "raise":
            raise finding.to_error()

    # ------------------------------------------------------------------ #
    # invariant-audit entry points (thin wrappers adding log + gating)
    # ------------------------------------------------------------------ #
    def audit_graph(self, graph: "CSRGraph", source: Optional[str] = None) -> int:
        """Run the CSR audit; record findings; return how many."""
        found = validate_csr(graph, source=source)
        self.log.extend(found)
        return len(found)

    def audit_weights(self, state: "CommunityState", iteration: Optional[int] = None) -> int:
        """Strict-mode community-weight conservation audit."""
        if not self.config.strict:
            return 0
        found = audit_weight_update(state, iteration=iteration)
        self.log.extend(found)
        return len(found)

    def audit_pruning(
        self,
        active: "np.ndarray",
        oracle_moved: "np.ndarray",
        iteration: Optional[int] = None,
        strategy: str = "mg",
    ) -> int:
        """Strict-mode Lemma-5 false-negative audit."""
        if not self.config.strict:
            return 0
        found = audit_lemma5(
            active, oracle_moved, iteration=iteration, strategy=strategy
        )
        self.log.extend(found)
        return len(found)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Manifest-ready summary: mode + finding totals."""
        out = {"mode": self.config.mode}
        out.update(self.log.summary())
        return out

    def report(self) -> Dict[str, Any]:
        """Full JSON report (summary + stored finding records)."""
        out = {"mode": self.config.mode}
        out.update(self.log.as_report())
        return out


# --------------------------------------------------------------------- #
# the active-sanitizer stack (mirrors repro.obs._session)
# --------------------------------------------------------------------- #
_lock = threading.Lock()
_stack: list = []
_current: Optional[Sanitizer] = None  # cached top-of-stack for fast reads


def current() -> Optional[Sanitizer]:
    """The innermost active sanitizer, or None when sanitizing is off.

    This is the only call instrumented hot paths make when the sanitizer
    is inactive — one module-global read.
    """
    return _current


def active() -> bool:
    return _current is not None


def push(san: Sanitizer) -> Sanitizer:
    """Activate ``san`` (innermost-wins). Prefer :func:`sanitized`."""
    global _current
    with _lock:
        _stack.append(san)
        _current = san
    return san


def pop(san: Sanitizer) -> None:
    """Deactivate ``san``; it must be the innermost active sanitizer."""
    global _current
    with _lock:
        if not _stack or _stack[-1] is not san:
            raise ValueError("sanitizer stack mismatch (pop out of order)")
        _stack.pop()
        _current = _stack[-1] if _stack else None


@contextmanager
def sanitized(
    spec: Union[None, bool, str, SanitizerConfig] = "fast",
) -> Iterator[Sanitizer]:
    """Activate the sanitizers for the enclosed code.

    Usage::

        from repro import analysis

        with analysis.sanitized("strict") as san:
            result = gala(graph, cfg)
        assert san.log.clean, san.log.render()

    ``spec`` accepts everything :func:`resolve_sanitize` does; a spec that
    resolves to *off* still yields a (never-activated) sanitizer so
    callers need no branching — its log just stays empty.
    """
    config = resolve_sanitize(spec)
    san = Sanitizer(config or SanitizerConfig())
    if config is None:
        yield san
        return
    push(san)
    try:
        yield san
    finally:
        pop(san)

"""Pruning strategy interface and the no-op strategy.

A strategy sees one :class:`IterationContext` per completed BSP iteration —
the *post-update* state plus what changed — and returns the boolean active
mask for the next iteration. Vertices outside the mask are skipped entirely
by DecideAndMove (the "filter" operation of GPU graph frameworks the paper
refers to in Section 3.1).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.state import CommunityState


@dataclass
class IterationContext:
    """Everything a strategy may consult after iteration ``t``.

    Attributes
    ----------
    state:
        The state *after* applying iteration ``t``'s moves and updating all
        aggregates (this is the consistent BSP snapshot for ``t + 1``).
    prev_comm:
        Community ids *before* iteration ``t``'s moves.
    moved:
        ``bool[n]``: vertices whose community id changed in iteration ``t``.
    active:
        ``bool[n]``: the active mask that iteration ``t`` ran with.
    iteration:
        Index of the completed iteration (0-based).
    rng:
        Shared generator (used by the probabilistic strategy).
    remove_self:
        The engine's gain convention, needed by MG to match its bound.
    runtime:
        The executor's compiled
        :class:`~repro.core.kernels.jit.JitRuntime` (None on the NumPy
        paths); MG's global bound runs its ``mg_inactive`` loop.
    """

    state: CommunityState
    prev_comm: np.ndarray
    moved: np.ndarray
    active: np.ndarray
    iteration: int
    rng: np.random.Generator
    remove_self: bool = True
    runtime: Optional[Any] = None


class PruningStrategy(ABC):
    """Base class: decides the active set of the next iteration."""

    #: short name used in configs, reports and plots
    name: str = "base"

    #: strategies that *prove* pruned vertices cannot move (Theorem 6)
    #: declare this True; the sanitizer's Lemma-5 audit only applies to
    #: them — heuristic strategies have false negatives by design
    zero_false_negatives: bool = False

    def reset(self, state: CommunityState) -> None:
        """Called once before iteration 0 (strategies may keep history)."""

    def initial_active(self, state: CommunityState) -> np.ndarray:
        """Active mask for iteration 0 — everyone, for every strategy."""
        return np.ones(state.graph.n, dtype=bool)

    @abstractmethod
    def next_active(self, ctx: IterationContext) -> np.ndarray:
        """Active mask for iteration ``ctx.iteration + 1``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class NoPruning(PruningStrategy):
    """Baseline: every vertex active every iteration (exact, no savings)."""

    name = "none"

    def next_active(self, ctx: IterationContext) -> np.ndarray:
        return np.ones(ctx.state.graph.n, dtype=bool)


def neighborhood_any(state: CommunityState, flags: np.ndarray) -> np.ndarray:
    """``out[v] = any(flags[u] for u in N(v))`` for all vertices, vectorised.

    The common building block of the movement-based strategies: one pass
    over the adjacency, a scatter-max per row.
    """
    g = state.graph
    out = np.zeros(g.n, dtype=bool)
    np.logical_or.at(out, g.row_ids, flags[g.indices])
    return out


def make_strategy(spec: "str | PruningStrategy | None", **kwargs) -> PruningStrategy:
    """Resolve a strategy spec: an instance, a name, or None (= no pruning).

    Recognised names: ``none``, ``sm``, ``rm``, ``pm``, ``mg``, ``mg+rm``.
    Keyword arguments are forwarded to the constructor (e.g. ``alpha`` for
    ``pm``). Every call returns a fresh instance: strategies carry
    per-run state.
    """
    if spec is None:
        return NoPruning()
    if isinstance(spec, PruningStrategy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"pruning must be a strategy name, got {spec!r}")
    registry = _strategy_table()
    key = spec.lower()
    if key not in registry:
        raise ValueError(
            f"unknown pruning strategy {spec!r}; expected one of "
            f"{sorted(registry)}"
        )
    return registry[key](**kwargs)


@functools.lru_cache(maxsize=None)
def _strategy_table() -> Dict[str, Callable[..., PruningStrategy]]:
    """Name → constructor, built on first use (the strategy modules
    import this one, so the table cannot be built at import time)."""
    from repro.core.pruning.strict import StrictMovementPruning
    from repro.core.pruning.relaxed import RelaxedMovementPruning
    from repro.core.pruning.probabilistic import ProbabilisticMovementPruning
    from repro.core.pruning.modularity_gain import ModularityGainPruning
    from repro.core.pruning.combined import CombinedPruning

    def mg_rm() -> PruningStrategy:
        return CombinedPruning(
            ModularityGainPruning(), RelaxedMovementPruning(), name="mg+rm"
        )

    return {
        "none": NoPruning,
        "sm": StrictMovementPruning,
        "rm": RelaxedMovementPruning,
        "pm": ProbabilisticMovementPruning,
        "mg": ModularityGainPruning,
        "mg+rm": mg_rm,
    }

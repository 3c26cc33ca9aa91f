"""Modularity gain-based pruning (MG) — GALA's strategy (Section 3.3).

Instead of guessing from movement history, MG *proves* a vertex cannot
profitably move, using states the BSP model already maintains. From Lemma 5,
``v`` is unmoved if for every neighbour ``u``::

    dQ(v -> C[v]) >= dQ(v -> C[u])

Expanding Eq. 2 and upper-bounding the two terms that would require a
neighbour scan —

* ``d_{C[u]}(v) <= d(v) - d_{C[v]}(v)``  (all non-community weight could be
  concentrated in one community), and
* ``D_V(C[u]) >= min_C D_V(C)``          (no community is lighter than the
  lightest one)

— gives the paper's Eq. 6 test, evaluable in O(1) per vertex from
maintained state::

    2 d_{C[v]}(v) - d(v) + (min_C D_V(C) - D_V(C[v]) [+ d(v)]) d(v)/(2|E|) >= 0

The ``+ d(v)`` term appears exactly when the engine removes the vertex's
own strength from ``D_V(C[v])`` when scoring "stay" (the Grappolo/standard
convention; ``remove_self=True``). With ``remove_self=False`` the formula
is Eq. 6 verbatim. Either way Theorem 6 holds: vertices proven inactive
cannot move, so the strategy has **zero false negatives** and preserves the
exact trajectory of the unpruned algorithm (a test invariant of this
repository).
"""

from __future__ import annotations

import numpy as np

from repro.core.pruning.base import IterationContext, PruningStrategy
from repro.core.state import CommunityState


class ModularityGainPruning(PruningStrategy):
    """MG: prune vertices whose gain upper bound proves they stay put."""

    name = "mg"

    #: Theorem 6 guarantee — the property the sanitizer's Lemma-5 audit
    #: verifies empirically under ``--sanitize=strict``
    zero_false_negatives = True

    def __init__(self, slack: float = 1e-12, bound: str = "global") -> None:
        #: conservative margin: the bound must clear ``slack * 2|E|`` before
        #: we prune, so floating-point noise can only create false
        #: *positives* (harmless), never false negatives.
        self.slack = slack
        if bound not in ("global", "neighborhood"):
            raise ValueError("bound must be 'global' or 'neighborhood'")
        #: which D_V lower bound to use; see _min_strength
        self.bound = bound

    def inactive_mask(
        self, state: CommunityState, remove_self: bool, runtime=None
    ) -> np.ndarray:
        """Evaluate the Eq. 6 test for every vertex at once.

        With a compiled ``runtime`` (a
        :class:`~repro.core.kernels.jit.JitRuntime`) the global bound runs
        its ``mg_inactive`` loop — the same operations in the same order,
        so the same mask — threaded on graphs of at least
        :data:`~repro.core.kernels.jit.PARALLEL_MIN_ENTRIES` adjacency
        entries. ``bound="neighborhood"`` always runs the NumPy path.

        Self-loop handling: a vertex's self-loop moves with it, so it
        cancels out of every gain comparison — the engine scores gains with
        the loop-free ``d_C(v)``. The bound must therefore also be
        loop-free: ``d_{C[u]}(v) <= (d(v) - 2 w_loop) - d_{C[v]}(v)``
        (only non-loop, non-community weight can sit in a candidate
        community). Using the loop-inclusive ``d(v)`` here would overstate
        ``d_{C[v]}(v)`` relative to the engine's scoring and produce false
        negatives on coarse graphs, where contraction creates heavy loops.
        The ``D_V`` terms keep the full strengths — those are exactly what
        Eq. 2 uses.
        """
        g = state.graph
        two_m = g.two_m
        if two_m == 0.0:
            return np.ones(g.n, dtype=bool)
        if runtime is not None and self.bound == "global":
            from repro.core.kernels.jit import loop_threads

            out = np.empty(g.n, dtype=np.bool_)
            runtime.mg_inactive(
                g.strength, g.self_weight, state.d_comm, state.comm,
                np.ascontiguousarray(state.comm_strength, dtype=np.float64),
                np.ascontiguousarray(state.comm_size, dtype=np.int64),
                float(state.resolution), float(two_m), int(remove_self),
                float(self.slack * two_m), out,
                loop_threads(runtime, len(g.indices)),
            )
            return out
        strength = g.strength
        loop_free_degree = strength - 2.0 * g.self_weight
        min_total = self._min_strength(state)
        own_total = state.comm_strength[state.comm]
        correction = strength if remove_self else 0.0
        # state.resolution scales every D_V term of the gains (see Eq. 2
        # with gamma), so it scales the whole comparison term of the bound.
        lhs = (
            2.0 * state.d_comm
            - loop_free_degree
            + state.resolution
            * (min_total - own_total + correction)
            * strength
            / two_m
        )
        # Vertices with no non-loop incident weight have no candidate
        # community at all; they are unconditionally inactive.
        return (lhs >= self.slack * two_m) | (loop_free_degree == 0.0)

    def _min_strength(self, state: CommunityState):
        """The D_V lower bound used for the unknown candidate community.

        ``bound="global"`` (paper Eq. 6) uses the single global minimum over
        all communities — O(1) per vertex. ``bound="neighborhood"`` uses,
        per vertex, the minimum over its *actual* neighbouring communities —
        a tighter bound that prunes more, at the cost of one O(E) pass per
        iteration (exactly the scan the global bound exists to avoid; kept
        as an ablation of the paper's design choice).
        """
        if self.bound == "global":
            return state.min_community_strength()
        g = state.graph
        nbr_strength = state.comm_strength[state.comm[g.indices]]
        out = np.full(g.n, np.inf)
        np.minimum.at(out, g.row_ids, nbr_strength)
        # vertices with no neighbours cannot move anywhere: any bound works
        return np.where(np.isfinite(out), out, 0.0)

    def next_active(self, ctx: IterationContext) -> np.ndarray:
        return ~self.inactive_mask(ctx.state, ctx.remove_self, ctx.runtime)

"""Mutable per-iteration state of the BSP parallel Louvain algorithm.

This is the "richer information beyond mere vertex movements" that the BSP
model exposes (paper Section 3.3) and that the MG pruning strategy feeds on:

* ``comm[v]``           — community id of ``v`` (ids live in ``[0, n)``).
* ``d_comm[v]``         — ``d_{C[v]}(v)`` *excluding* self-loops: the weight
  between ``v`` and the other members of its community. Self-loop weight is
  invariant under moves, so it is added back only where modularity needs it.
* ``comm_strength[c]``  — ``D_V(C)``: summed weighted degree of members.
* ``comm_size[c]``      — member count (drives the singleton-swap guard).

``comm_strength`` and ``comm_size`` are indexed by community id; entries of
empty communities are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass
class CommunityState:
    """State arrays for one graph during phase 1.

    ``resolution`` is the gamma at which this optimisation scores gains and
    modularity (1.0 = classic Newman modularity); it travels with the state
    so every kernel backend scores identically.
    """

    graph: CSRGraph
    comm: np.ndarray
    d_comm: np.ndarray
    comm_strength: np.ndarray
    comm_size: np.ndarray
    resolution: float = 1.0

    @classmethod
    def singletons(cls, graph: CSRGraph, resolution: float = 1.0) -> "CommunityState":
        """Initial state: every vertex is its own community.

        ``d_comm`` starts at zero because a singleton community contains no
        *other* members (self-loops are accounted separately).
        """
        n = graph.n
        return cls(
            graph=graph,
            comm=np.arange(n, dtype=np.int64),
            d_comm=np.zeros(n, dtype=np.float64),
            comm_strength=graph.strength.copy(),
            comm_size=np.ones(n, dtype=np.int64),
            resolution=resolution,
        )

    @classmethod
    def from_assignment(
        cls, graph: CSRGraph, communities: np.ndarray, resolution: float = 1.0
    ) -> "CommunityState":
        """State consistent with an arbitrary assignment (ids in [0, n))."""
        comm = np.asarray(communities, dtype=np.int64).copy()
        if len(comm) != graph.n:
            raise ValueError("assignment length must equal graph.n")
        state = cls(
            graph=graph,
            comm=comm,
            d_comm=np.zeros(graph.n, dtype=np.float64),
            comm_strength=np.bincount(comm, weights=graph.strength, minlength=graph.n),
            comm_size=np.bincount(comm, minlength=graph.n),
            resolution=resolution,
        )
        state.recompute_d_comm()
        return state

    # ------------------------------------------------------------------ #
    def recompute_d_comm(self) -> None:
        """Recompute ``d_comm`` from scratch (the naive approach the paper's
        Section 3.5 identifies as a bottleneck)."""
        g = self.graph
        row = g.row_ids
        same = self.comm[row] == self.comm[g.indices]
        self.d_comm[:] = 0.0
        if np.any(same):
            np.add.at(self.d_comm, row[same], g.weights[same])

    def refresh_community_aggregates(self) -> None:
        """Recompute ``comm_strength`` / ``comm_size`` from ``comm``."""
        self.comm_strength = np.bincount(
            self.comm, weights=self.graph.strength, minlength=self.graph.n
        )
        self.comm_size = np.bincount(self.comm, minlength=self.graph.n)

    # ------------------------------------------------------------------ #
    def internal_weights(self) -> np.ndarray:
        """``D_C(C)`` per community id, from the maintained state."""
        return np.bincount(
            self.comm,
            weights=self.d_comm + 2.0 * self.graph.self_weight,
            minlength=self.graph.n,
        )

    def modularity(self) -> float:
        """Modularity of the current assignment from maintained aggregates.

        O(n); used every iteration (Algorithm 1 lines 8-11). Consistency
        with the from-scratch :func:`repro.core.modularity.modularity` is a
        test invariant.
        """
        two_m = self.graph.two_m
        if two_m == 0.0:
            return 0.0
        internal = self.internal_weights()
        return float(
            (
                internal / two_m
                - self.resolution * (self.comm_strength / two_m) ** 2
            ).sum()
        )

    def min_community_strength(self) -> float:
        """``min_C D_V(C)`` over non-empty communities (the MG bound term)."""
        nonempty = self.comm_size > 0
        return float(self.comm_strength[nonempty].min()) if np.any(nonempty) else 0.0

    def copy(self) -> "CommunityState":
        return CommunityState(
            graph=self.graph,
            comm=self.comm.copy(),
            d_comm=self.d_comm.copy(),
            comm_strength=self.comm_strength.copy(),
            comm_size=self.comm_size.copy(),
            resolution=self.resolution,
        )


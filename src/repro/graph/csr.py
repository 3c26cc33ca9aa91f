"""Weighted undirected CSR graph.

Weight conventions (paper Section 2.1, Newman's modularity convention):

* The adjacency (``indptr``/``indices``/``weights``) stores only **non-loop**
  edges; every undirected edge ``{u, v}`` appears twice, once in each
  endpoint's row, with the same weight.
* Self-loops live in the dense ``self_weight`` array. A loop of weight ``w``
  contributes ``2 w`` to its vertex's weighted degree (``strength``), exactly
  as the contracted intra-community weight must after a phase-2 coarsening
  step (the paper: "edge weights within a community are grouped into a
  self-loop edge" and "each edge in the community is considered twice when
  D_C(C) is calculated").
* ``|E|`` (written ``total_weight`` here) is the weighted cardinality of the
  undirected edge set: each non-loop edge once, each loop once. Therefore
  ``2|E| == strength.sum()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np


@dataclass
class CSRGraph:
    """Immutable weighted undirected graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64[n + 1]`` row offsets into ``indices``/``weights``.
    indices:
        ``int64[2 * m_nonloop]`` neighbour ids; each undirected non-loop edge
        is stored in both endpoint rows. Rows are sorted by neighbour id.
    weights:
        ``float64`` edge weights aligned with ``indices``.
    self_weight:
        ``float64[n]`` self-loop weight per vertex (0 when absent).
    name:
        Optional human-readable label used by the benchmark reporting.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    self_weight: np.ndarray
    name: str = "graph"
    _strength: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _degrees: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _row_ids: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _total_weight: Optional[float] = field(default=None, repr=False, compare=False)
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def num_directed_edges(self) -> int:
        """Number of stored adjacency entries (2x each non-loop edge)."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, self-loops included once each."""
        return self.num_directed_edges // 2 + int(np.count_nonzero(self.self_weight))

    @property
    def total_weight(self) -> float:
        """``|E|``: weighted cardinality of the undirected edge set.

        Computed lazily once and cached; the graph is treated as immutable.
        The phase-1 gain arithmetic reads this (via ``two_m``) many times
        per iteration — recomputing the O(E) sum per access was measurable.
        """
        if self._total_weight is None:
            object.__setattr__(
                self,
                "_total_weight",
                float(self.weights.sum()) / 2.0 + float(self.self_weight.sum()),
            )
        return self._total_weight

    @property
    def two_m(self) -> float:
        """``2|E|`` — equals the sum of all weighted degrees."""
        return 2.0 * self.total_weight

    @property
    def strength(self) -> np.ndarray:
        """Weighted degree ``d(v)`` per vertex (self-loops counted twice).

        Computed lazily once and cached; the graph is treated as immutable.
        """
        if self._strength is None:
            row_sums = np.zeros(self.n, dtype=np.float64)
            if len(self.weights):
                # reduceat misbehaves on empty rows (it returns
                # values[start], or rejects an out-of-range trailing
                # start), so reduce only the non-empty rows: their starts
                # are strictly increasing and in range, making consecutive
                # starts valid segment boundaries.
                nonempty = self.indptr[1:] > self.indptr[:-1]
                starts = self.indptr[:-1][nonempty]
                row_sums[nonempty] = np.add.reduceat(
                    self.weights, starts, dtype=np.float64
                )
            object.__setattr__(self, "_strength", row_sums + 2.0 * self.self_weight)
        return self._strength

    @property
    def degrees(self) -> np.ndarray:
        """Unweighted adjacency-row lengths (self-loops not counted).

        Computed lazily once and cached; the graph is treated as immutable.
        The phase-1 engine indexes this every iteration — recomputing
        ``np.diff(indptr)`` per call was measurable overhead.
        """
        if self._degrees is None:
            object.__setattr__(self, "_degrees", np.diff(self.indptr))
        return self._degrees

    @property
    def fingerprint(self) -> str:
        """Full sha256 hex digest of the CSR payload arrays.

        Computed lazily once and cached; the graph is treated as
        immutable, so no invalidation is ever needed. Run manifests, the
        serving layer's graph registry, and the result cache all key on
        this digest — before the cache, every manifest build re-hashed
        the same arrays (O(E) per run on a graph that never changes).
        """
        if self._fingerprint is None:
            from repro.graph.fingerprint import compute_csr_sha256

            object.__setattr__(self, "_fingerprint", compute_csr_sha256(self))
        return self._fingerprint

    @property
    def row_ids(self) -> np.ndarray:
        """Row (source-vertex) id of every stored adjacency entry.

        The expansion ``np.repeat(np.arange(n), degrees)`` that every
        whole-graph edge scan needs; cached because it is O(E) to build and
        several hot paths (full-set DecideAndMove, d_comm recomputation)
        want it each iteration.
        """
        if self._row_ids is None:
            object.__setattr__(
                self,
                "_row_ids",
                np.repeat(np.arange(self.n, dtype=np.int64), self.degrees),
            )
        return self._row_ids

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def neighbors(self, v: int) -> np.ndarray:
        """View of vertex ``v``'s neighbour ids (no copy)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of vertex ``v``'s incident edge weights (no copy)."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u <= v``.

        Self-loops are yielded as ``(v, v, self_weight[v])``. Intended for
        tests and I/O, not hot paths.
        """
        for v in range(self.n):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            for j in range(lo, hi):
                u = int(self.indices[j])
                if v <= u:
                    yield v, u, float(self.weights[j])
            if self.self_weight[v] != 0.0:
                yield v, v, float(self.self_weight[v])

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check all structural invariants; raise
        :class:`~repro.errors.GraphValidationError`.

        The checks are :func:`repro.analysis.validate_csr`'s, raised by
        :func:`repro.graph.builder.validate_graph` with their findings.
        """
        from repro.graph.builder import validate_graph

        validate_graph(self)

    # ------------------------------------------------------------------ #
    # Conversion helper (tests / examples)
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (weights on the ``weight`` key)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for u, v, w in self.iter_edges():
            g.add_edge(u, v, weight=w)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, n={self.n}, "
            f"edges={self.num_edges}, |E|={self.total_weight:.1f})"
        )

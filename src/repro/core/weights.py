"""Community weight updating — paper Section 3.5.

After the BSP move step, every vertex's ``d_{C[v]}(v)`` (the weight between
the vertex and its — possibly new — community) must be brought up to date
for the next iteration. Two implementations:

* :func:`recompute_all` — the naive approach (Algorithm 1 lines 6-7): scan
  every vertex's neighbourhood. Same complexity as DecideAndMove itself;
  once MG pruning shrinks DecideAndMove, this becomes the bottleneck
  (Figure 8, bar P1: 45.7% of runtime).
* :func:`delta_update` — GALA's scheme: moved vertices recompute their own
  weight from scratch; every *moved* vertex additionally "informs its
  neighbours", i.e. pushes ``±w(u, v)`` deltas to unmoved neighbours whose
  community it left or joined. Cost is proportional to the degree sum of
  the moved set, which shrinks rapidly in late iterations (Figure 8 bar P2
  reports a 7.3x weight-update speedup).

Both leave the state bit-equivalent (a hypothesis-tested invariant).

Updaters return the **movement frontier** — the boolean mask of vertices
with at least one moved neighbour — when they derive it anyway (the delta
scheme scans exactly those incidences), or ``None`` when they don't. The
frontier is precisely the set of rows whose ``(vertex, neighbour-community)``
pair table changed; :func:`movement_frontier` computes it standalone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.state import CommunityState
from repro.graph.csr import CSRGraph
from repro.utils.arrays import repeat_by_counts

#: the delta/recompute equivalence is a bit-exact contract — float
#: accumulation order here is pinned (lint rule float-accumulation)
__bitexact__ = True


def movement_frontier(
    graph: CSRGraph, moved: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of vertices with at least one moved neighbour.

    A vertex's DecideAndMove pair table depends only on the communities of
    its neighbours, so this mask is exactly the set of rows invalidated by a
    BSP apply step. The adjacency is symmetric, so scanning the movers' rows
    enumerates every affected vertex.

    ``out``, when given, is the flag array to fill (must be zeroed, length
    ``graph.n``), e.g. an arena-backed buffer so no frontier is
    heap-allocated in the steady state.
    """
    frontier = out if out is not None else np.zeros(graph.n, dtype=bool)
    movers = np.flatnonzero(moved)
    if len(movers) == 0:
        return frontier
    counts = graph.degrees[movers]
    eidx = repeat_by_counts(graph.indptr[movers], counts)
    frontier[graph.indices[eidx]] = True
    return frontier


def recompute_all(
    state: CommunityState, prev_comm: np.ndarray, moved: np.ndarray
) -> Optional[np.ndarray]:
    """Naive full recomputation of ``d_comm`` (baseline; args unused)."""
    state.recompute_d_comm()
    return None


def delta_update(
    state: CommunityState,
    prev_comm: np.ndarray,
    moved: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Delta-update ``d_comm`` from the moved-vertex set.

    Must be called *after* ``state.comm`` holds the new assignment, with
    ``prev_comm``/``moved`` describing what changed. Returns the movement
    frontier (see the module docstring), derived from the single gather of
    the movers' adjacency rows that both halves of the scheme share.
    ``out`` is an optional pre-zeroed flag array for the frontier (see
    :func:`movement_frontier`).
    """
    g = state.graph
    frontier = out if out is not None else np.zeros(g.n, dtype=bool)
    movers = np.flatnonzero(moved)
    if len(movers) == 0:
        return frontier

    counts = g.degrees[movers]
    # integer degree count — exact in any order  # lint: allow[float-accumulation]
    if counts.sum() == 0:
        return frontier
    eidx = repeat_by_counts(g.indptr[movers], counts)
    u = np.repeat(movers, counts)  # the mover
    v = g.indices[eidx]  # its neighbour
    w = g.weights[eidx]
    frontier[v] = True

    # (1) moved vertices: their community changed, recompute from scratch —
    # reusing the gather above instead of a second row scan.
    cv = state.comm[v]
    joined = state.comm[u] == cv  # u now shares v's community
    state.d_comm[movers] = 0.0
    if np.any(joined):
        np.add.at(state.d_comm, u[joined], w[joined])

    # (2) unmoved neighbours of moved vertices: apply +/- deltas. The
    # adjacency is symmetric, so the movers' rows enumerate every
    # (mover u -> neighbour v) incidence exactly once. An edge matters only
    # when exactly one of "u left v's community" / "u joined it" holds (for
    # unmoved v, whose current community equals its previous one); the
    # ``joined`` mask from step 1 is that second condition.
    left = prev_comm[u] == cv
    rel = np.flatnonzero((joined != left) & ~moved[v])
    if len(rel):
        delta = np.where(joined[rel], w[rel], -w[rel])
        np.add.at(state.d_comm, v[rel], delta)
    return frontier


def delta_update_chunked(
    state: CommunityState,
    prev_comm: np.ndarray,
    moved: np.ndarray,
    chunk_edges: int,
    out: Optional[np.ndarray] = None,
    release=None,
) -> Optional[np.ndarray]:
    """:func:`delta_update` in degree-bounded mover chunks.

    Transient allocations (the gathered adjacency rows of the movers) stay
    O(``chunk_edges``) instead of O(moved-degree-sum) — the difference
    between "fits" and "not" when the graph is memory-mapped at 10⁷+
    edges. Bit-identical to the one-shot path: step 1 targets only moved
    vertices and step 2 only unmoved ones, so any single ``d_comm`` entry
    receives all its contributions from one step, in mover-major adjacency
    order — which ascending mover chunks preserve exactly. ``release``
    (e.g. ``MmapCSRGraph.release_pages``) is called after each chunk so
    resident file pages track the chunk size too.
    """
    g = state.graph
    frontier = out if out is not None else np.zeros(g.n, dtype=bool)
    movers = np.flatnonzero(moved)
    if len(movers) == 0:
        return frontier
    from repro.graph.mmap_store import split_by_edges

    degrees = g.degrees
    mover_deg = degrees[movers]
    # integer degree count — exact in any order  # lint: allow[float-accumulation]
    if mover_deg.sum() == 0:
        return frontier
    for sub in split_by_edges(movers, degrees[movers], chunk_edges, release=release):
        _delta_apply(state, prev_comm, moved, sub, degrees[sub], frontier)
    return frontier


def _delta_apply(
    state: CommunityState,
    prev_comm: np.ndarray,
    moved: np.ndarray,
    movers: np.ndarray,
    counts: np.ndarray,
    frontier: np.ndarray,
) -> None:
    """Both halves of the delta scheme for one mover subset (see
    :func:`delta_update` for the algorithm; identical statement order)."""
    g = state.graph
    eidx = repeat_by_counts(g.indptr[movers], counts)
    u = np.repeat(movers, counts)
    v = np.asarray(g.indices[eidx])
    w = np.asarray(g.weights[eidx])
    frontier[v] = True
    cv = state.comm[v]
    joined = state.comm[u] == cv
    state.d_comm[movers] = 0.0
    if np.any(joined):
        np.add.at(state.d_comm, u[joined], w[joined])
    left = prev_comm[u] == cv
    rel = np.flatnonzero((joined != left) & ~moved[v])
    if len(rel):
        delta = np.where(joined[rel], w[rel], -w[rel])
        np.add.at(state.d_comm, v[rel], delta)


def make_chunked_weight_updater(spec: str, chunk_edges: int, release=None):
    """A weight updater with O(``chunk_edges``) transient allocations.

    ``delta`` maps to :func:`delta_update_chunked`; ``recompute`` keeps the
    plain full recomputation (its ``row_ids`` scratch is inherently O(E) —
    out-of-core runs should use ``delta``).
    """
    if spec == "delta":

        def updater(
            state: CommunityState, prev_comm: np.ndarray, moved: np.ndarray
        ) -> Optional[np.ndarray]:
            return delta_update_chunked(
                state, prev_comm, moved, chunk_edges, release=release
            )

        return updater
    return make_weight_updater(spec)


def make_jit_delta_updater(runtime, arena):
    """A compiled drop-in for :func:`delta_update` (same signature/results).

    ``runtime`` is a probed :class:`~repro.core.kernels.jit.JitRuntime`;
    its fused mover-major pass applies both halves of the scheme in one
    sweep over the movers' rows — bit-identical to the NumPy path because
    moved and unmoved vertices receive contributions to *disjoint*
    ``d_comm`` entries, each in the same mover-major adjacency order. The
    frontier flag array comes from ``arena`` and is valid until the next
    call.
    """

    def jit_delta(
        state: CommunityState, prev_comm: np.ndarray, moved: np.ndarray
    ) -> np.ndarray:
        g = state.graph
        frontier = arena.zeros(("weights", "frontier"), g.n, np.bool_)
        runtime.delta(
            g.indptr,
            g.indices,
            g.weights,
            state.comm,
            np.ascontiguousarray(prev_comm, dtype=np.int64),
            np.ascontiguousarray(moved, dtype=np.bool_),
            state.d_comm,
            frontier,
        )
        return frontier

    return jit_delta


def refresh_aggregates(state: CommunityState, arena=None, runtime=None) -> None:
    """Rebuild ``comm_strength``/``comm_size`` after a BSP apply step.

    The plain path allocates two fresh ``np.bincount`` outputs per
    iteration; with an arena *and* a jit runtime the rebuild instead runs
    the compiled sequential loop into pooled buffers (``np.bincount``
    summation order, so bit-identical), making the refresh allocation-free
    in the steady state. Without a runtime the NumPy path is kept as-is —
    ``np.add.at`` into a reused buffer would be far slower than
    ``np.bincount``.
    """
    if arena is not None and runtime is not None:
        n = state.graph.n
        comm_strength = arena.request(("weights", "comm_strength"), n, np.float64)
        comm_size = arena.request(("weights", "comm_size"), n, np.int64)
        runtime.aggregates(state.comm, state.graph.strength, comm_strength, comm_size)
        state.comm_strength = comm_strength
        state.comm_size = comm_size
    else:
        state.refresh_community_aggregates()


WEIGHT_UPDATERS = {
    "recompute": recompute_all,
    "delta": delta_update,
}


def make_weight_updater(spec: str):
    """Resolve a weight-update mode name to its implementation."""
    try:
        return WEIGHT_UPDATERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown weight update mode {spec!r}; expected one of "
            f"{sorted(WEIGHT_UPDATERS)}"
        ) from None

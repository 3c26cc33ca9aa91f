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
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from repro.core.state import CommunityState
from repro.graph.mmap_store import split_by_edges
from repro.utils.arrays import repeat_by_counts

#: the delta/recompute equivalence is a bit-exact contract — float
#: accumulation order here is pinned (lint rule float-accumulation)
__bitexact__ = True


def recompute_all(
    state: CommunityState, prev_comm: np.ndarray, moved: np.ndarray
) -> None:
    """Naive full recomputation of ``d_comm`` (baseline; args unused)."""
    state.recompute_d_comm()


def delta_update(
    state: CommunityState,
    prev_comm: np.ndarray,
    moved: np.ndarray,
    runtime=None,
    chunk_edges: int | None = None,
    release=None,
) -> None:
    """Delta-update ``d_comm`` from the moved-vertex set.

    Must be called *after* ``state.comm`` holds the new assignment, with
    ``prev_comm``/``moved`` describing what changed.

    ``runtime`` (a probed :class:`~repro.core.kernels.jit.JitRuntime`)
    runs the compiled mover-list pass, which applies both halves of the
    scheme in one sweep over the movers' rows. ``chunk_edges`` splits the
    ascending mover list into degree-bounded chunks, keeping transient
    allocations O(``chunk_edges``) instead of O(moved-degree-sum) — the
    difference between "fits" and "not" when the graph is memory-mapped
    at 10⁷+ edges; ``release`` (e.g. ``MmapCSRGraph.release_pages``) is
    called after each chunk so resident file pages track the chunk size
    too. Every combination is bit-identical: step 1 targets only moved
    vertices and step 2 only unmoved ones, so any single ``d_comm`` entry
    receives all its contributions from one step, in mover-major
    adjacency order — which ascending mover chunks preserve exactly.
    """
    degrees = state.graph.degrees
    movers = np.flatnonzero(moved)
    counts = degrees[movers]
    # integer degree count — exact in any order  # lint: allow[float-accumulation]
    if counts.sum() == 0:
        return
    if chunk_edges is None:
        chunks: Iterable[np.ndarray] = (movers,)
    else:
        chunks = split_by_edges(movers, counts, chunk_edges, release=release)
    if runtime is None:
        for sub in chunks:
            _delta_apply(state, prev_comm, moved, sub, degrees[sub])
        return
    g = state.graph
    prev_comm = np.ascontiguousarray(prev_comm, dtype=np.int64)
    moved = np.ascontiguousarray(moved, dtype=np.bool_)
    for sub in chunks:
        runtime.delta(
            sub, g.indptr, g.indices, g.weights, state.comm, prev_comm, moved,
            state.d_comm,
        )


def _delta_apply(
    state: CommunityState,
    prev_comm: np.ndarray,
    moved: np.ndarray,
    movers: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Both halves of the delta scheme for one mover subset (``counts``
    are the movers' degrees); they share a single gather of the movers'
    adjacency rows."""
    g = state.graph
    eidx = repeat_by_counts(g.indptr[movers], counts)
    u = np.repeat(movers, counts)  # the mover
    v = np.asarray(g.indices[eidx])  # its neighbour
    w = np.asarray(g.weights[eidx])

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


def refresh_aggregates(state: CommunityState, runtime=None) -> None:
    """Rebuild ``comm_strength``/``comm_size`` after a BSP apply step.

    With a jit runtime the rebuild runs the compiled sequential loop in
    place into the state's own arrays (``np.bincount`` summation order, so
    bit-identical), as the delta update writes ``d_comm`` in place.
    Without one the plain path allocates two fresh ``np.bincount``
    outputs — ``np.add.at`` into the existing arrays would be far slower.
    """
    if runtime is not None:
        runtime.aggregates(state.comm, state.graph.strength,
                           state.comm_strength, state.comm_size)
    else:
        state.refresh_community_aggregates()


WEIGHT_UPDATERS = {
    "recompute": recompute_all,
    "delta": delta_update,
}


def make_weight_updater(
    spec: str, runtime=None, chunk_edges: int | None = None, release=None
):
    """Resolve a weight-update mode name to its implementation.

    For ``delta``, ``runtime``/``chunk_edges``/``release`` select the
    compiled and/or chunked pass of :func:`delta_update`. The registry
    lookup stays authoritative: they only apply to the *stock*
    ``delta_update`` — a patched registry entry (the sanitizer mutation
    tests) is used as-is, as is ``recompute`` (whose ``row_ids`` scratch
    is inherently O(E) — out-of-core runs should use ``delta``).
    """
    try:
        base = WEIGHT_UPDATERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown weight update mode {spec!r}; expected one of "
            f"{sorted(WEIGHT_UPDATERS)}"
        ) from None
    if base is delta_update and (runtime is not None or chunk_edges is not None):
        return functools.partial(
            delta_update, runtime=runtime, chunk_edges=chunk_edges, release=release
        )
    return base

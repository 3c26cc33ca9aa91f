"""Vectorised (NumPy) DecideAndMove — the reference kernel backend.

Implements lines 14-16 of the paper's Algorithm 1 for a whole active set at
once using segmented reductions:

1. gather all adjacency entries of the active vertices;
2. aggregate edge weights per ``(vertex, neighbour-community)`` pair (this
   is ``d_C(v)`` for every neighbouring ``C``) — see :func:`_aggregate_pairs`
   for the exactness convention every backend shares;
3. evaluate the modularity gain of every candidate pair (Eq. 2);
4. per-vertex segmented argmax picks the best target community, with ties
   broken toward the smaller community id (Grappolo's determinism rule);
5. apply the movement guards (strictly-positive improvement over staying,
   and the singleton-swap guard that prevents BSP oscillation).

The compiled ``jit`` backend (:mod:`repro.core.kernels.jit`) replicates
this arithmetic loop for loop — the common summation convention of step 2
is what makes the cross-backend bit-exactness contract hold exactly.

:func:`make_kernel` resolves the host backend names of
:data:`KERNEL_NAMES`: ``"vectorized"`` is this module, ``"jit"`` the
compiled loop, and ``"auto"`` the compiled loop when a compile provider
passed its probe on the host, else this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import CommunityState
from repro.utils.arrays import repeat_by_counts, segment_argmax

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class DecideResult:
    """Outcome of DecideAndMove over an active set.

    All arrays align with ``active_idx`` (the sorted active vertex ids).
    """

    active_idx: np.ndarray
    best_comm: np.ndarray  # best target community per active vertex
    best_gain: np.ndarray  # gain of moving there (-inf if no candidate)
    stay_gain: np.ndarray  # gain of remaining in the current community
    move: np.ndarray  # final movement decision (guards applied)

    def next_comm(self, comm: np.ndarray) -> np.ndarray:
        """Materialise the next-iteration assignment (BSP delayed update)."""
        nxt = comm.copy()
        movers = self.active_idx[self.move]
        nxt[movers] = self.best_comm[self.move]
        return nxt

    @property
    def num_moved(self) -> int:
        return int(self.move.sum())

    def restrict(self, active_idx: np.ndarray) -> "DecideResult":
        """Project this result onto a sorted subset of its active set.

        Every DecideAndMove quantity is row-local — a vertex's best target,
        gains and movement guards depend only on its own adjacency row and
        the shared community aggregates — so slicing a full-set result is
        bit-identical to running the kernel on the subset directly (a test
        invariant). The oracle path uses this to derive the pruned-set
        result from the full-set run instead of running the kernel twice.
        """
        active_idx = np.asarray(active_idx, dtype=np.int64)
        pos = np.searchsorted(self.active_idx, active_idx)
        if np.any(pos >= len(self.active_idx)) or not np.array_equal(
            self.active_idx[pos], active_idx
        ):
            raise ValueError("active_idx is not a subset of this result")
        return DecideResult(
            active_idx=active_idx,
            best_comm=self.best_comm[pos],
            best_gain=self.best_gain[pos],
            stay_gain=self.stay_gain[pos],
            move=self.move[pos],
        )


def _apply_guards(
    state: CommunityState,
    active_idx: np.ndarray,
    best_comm: np.ndarray,
    best_gain: np.ndarray,
    stay_gain: np.ndarray,
    valid: np.ndarray,
) -> np.ndarray:
    """Movement guards shared by every kernel backend.

    * move only on a strictly better gain than staying (equal-gain vertices
      stay put, which both matches Lemma 5's "no more gain" condition and
      prevents equal-gain oscillation);
    * Grappolo's singleton-swap guard: two singleton communities may only
      merge in the direction of the smaller community id, else the BSP
      update would swap them forever.
    """
    cur = state.comm[active_idx]
    move = valid & (best_gain > stay_gain)
    both_singleton = (state.comm_size[cur] == 1) & (
        state.comm_size[np.where(valid, best_comm, 0)] == 1
    )
    move &= ~(both_singleton & (best_comm > cur))
    return move


def _trivial_result(
    state: CommunityState, active_idx: np.ndarray, stay_gain: np.ndarray
) -> DecideResult:
    """Nobody-can-move result (edgeless graphs, isolated actives)."""
    cur = state.comm[active_idx]
    n_act = len(active_idx)
    return DecideResult(
        active_idx=active_idx,
        best_comm=cur.copy(),
        best_gain=np.full(n_act, -np.inf),
        stay_gain=stay_gain,
        move=np.zeros(n_act, dtype=bool),
    )


def _pair_runs(
    rows: np.ndarray, comm: np.ndarray, n_rows: int, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group ``(row, community)`` entries into runs: ``(order, new_run)``.

    ``order`` sorts the entries by ``(row, community)`` stably, so each
    run's entries stay in input order (the summation order the
    cross-backend bit-exactness relies on); ``new_run[i]`` is whether
    sorted entry ``i`` starts a run. Rows lie in ``[0, n_rows)`` and
    community ids in ``[0, span)`` — ``len(state.comm_strength)`` exceeds
    every id. ``rows`` must not be empty.
    """
    new_run = np.empty(len(rows), dtype=bool)
    new_run[0] = True
    # One stable sort of the packed key row*span + C — equivalent to
    # lexsort((comm, rows)) but ~15x faster (single radix pass). Guard the
    # key overflow (only reachable beyond ~3e9 vertices).
    if int(n_rows) * int(span) <= _INT64_MAX:
        key = rows * np.int64(span) + comm
        order = np.argsort(key, kind="stable")
        kord = key[order]
        new_run[1:] = kord[1:] != kord[:-1]
    else:  # pragma: no cover - beyond any laptop-scale graph
        order = np.lexsort((comm, rows))
        sr, sc = rows[order], comm[order]
        new_run[1:] = (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1])
    return order, new_run


def _aggregate_pairs(
    state: CommunityState,
    active_idx: np.ndarray,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``d_C(v)`` pair tables for the rows of ``active_idx`` (sorted ids).

    Returns ``(pair_c, d_vc, pair_counts, pair_rows)``: for each active row
    in order, its neighbouring community ids ascending and the summed edge
    weight into each, concatenated; ``pair_counts[i]`` pairs belong to
    ``active_idx[i]`` and ``pair_rows`` is the local row index of every
    pair (what ``np.repeat(arange, pair_counts)`` would rebuild — handed to
    :func:`_evaluate_pairs` so the hot path skips that expansion).

    Exactness convention (shared by every backend, documented in
    docs/algorithm.md): each ``(v, C)`` group's weights are summed
    **sequentially in adjacency order** (``np.bincount`` semantics). Any
    aggregation strategy that preserves this order — a stable sort plus
    per-group sum, a dense per-community scatter-add, or a cached copy of a
    previous identical aggregation — produces bit-identical ``d_vc``.

    Returned arrays may alias graph internals on the fast paths; callers
    must treat them as read-only.
    """
    g = state.graph
    comm = state.comm
    n_act = len(active_idx)
    if counts is None:
        counts = g.degrees[active_idx]
    total = int(counts.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.zeros(n_act, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    if n_act == g.n:
        # Full active set: the gather is the identity — use the adjacency
        # (and the cached row-id expansion) directly.
        u = g.indices
        w = g.weights
        row_local = g.row_ids
    else:
        eidx = repeat_by_counts(g.indptr[active_idx], counts)
        u = g.indices[eidx]
        w = g.weights[eidx]
        row_local = np.repeat(np.arange(n_act, dtype=np.int64), counts)
    cu = comm[u]
    if np.array_equal(cu, u):
        # Singleton fast path (every gathered neighbour is its own
        # community — true for iteration 0 of every level): adjacency rows
        # are already sorted by neighbour id with no duplicates, so they
        # ARE the pair table. No sort, no summation.
        return cu, w, np.asarray(counts, dtype=np.int64), row_local

    order, new_run = _pair_runs(row_local, cu, n_act, len(state.comm_strength))
    pair_id = np.cumsum(new_run, dtype=np.int64) - 1
    d_vc = np.bincount(pair_id, weights=w[order])
    starts = order[np.flatnonzero(new_run)]
    pair_c = cu[starts]
    pair_rows = row_local[starts]
    pair_counts = np.bincount(pair_rows, minlength=n_act).astype(np.int64)
    return pair_c, d_vc, pair_counts, pair_rows


def _evaluate_pairs(
    state: CommunityState,
    active_idx: np.ndarray,
    pair_c: np.ndarray,
    d_vc: np.ndarray,
    pair_counts: np.ndarray,
    remove_self: bool,
    seg_of: np.ndarray | None = None,
) -> DecideResult:
    """Steps 3-5 of DecideAndMove from a pair table: gains, argmax, guards.

    Shared verbatim by every backend so that identical pair tables yield
    bit-identical :class:`DecideResult`\\ s. ``seg_of`` is the local row
    index of every pair; backends that already hold it (the sorted and
    dense aggregations) pass it to skip the ``np.repeat`` rebuild.
    """
    g = state.graph
    comm = state.comm
    strength = g.strength
    m = g.total_weight
    two_m = g.two_m
    gamma = state.resolution
    n_act = len(active_idx)

    cur = comm[active_idx]
    act_strength = strength[active_idx]
    cur_total = state.comm_strength[cur]
    if remove_self:
        cur_total = cur_total - act_strength
    # Default stay gain: no neighbours inside the current community
    # (overwritten below from the own-community pair where present).
    stay_gain = (0.0 - gamma * cur_total * act_strength / two_m) / m

    if len(pair_c) == 0:
        return _trivial_result(state, active_idx, stay_gain)

    # (3) candidate gains
    if seg_of is None:
        seg_of = np.repeat(np.arange(n_act, dtype=np.int64), pair_counts)
    pair_strength = act_strength[seg_of]
    pair_total = state.comm_strength[pair_c]
    is_own = pair_c == cur[seg_of]
    if remove_self:
        pair_total = np.where(is_own, pair_total - pair_strength, pair_total)
    gain = (d_vc - gamma * pair_total * pair_strength / two_m) / m

    own_pairs = np.flatnonzero(is_own)
    stay_gain[seg_of[own_pairs]] = gain[own_pairs]

    # (4) per-vertex argmax over *other* communities
    cand_gain = np.where(is_own, -np.inf, gain)
    offsets = np.concatenate([[0], np.cumsum(pair_counts)]).astype(np.int64)
    arg, valid = segment_argmax(cand_gain, offsets, seg_of=seg_of, check=False)
    best_comm = np.where(valid, pair_c[arg], cur)
    best_gain = np.where(valid, cand_gain[arg], -np.inf)
    # A vertex whose only neighbours are in its own community has no
    # candidate (its single pair is masked to -inf): treat as invalid.
    valid &= np.isfinite(best_gain)
    best_comm = np.where(valid, best_comm, cur)

    # (5) guards
    move = _apply_guards(state, active_idx, best_comm, best_gain, stay_gain, valid)
    return DecideResult(
        active_idx=active_idx,
        best_comm=best_comm,
        best_gain=best_gain,
        stay_gain=stay_gain,
        move=move,
    )


def _decide_runs(
    state: CommunityState,
    seg: np.ndarray,
    keys: np.ndarray,
    d_c: np.ndarray,
    cur_sel: np.ndarray,
    sv: np.ndarray,
    remove_self: bool,
    sel: np.ndarray,
    best_comm: np.ndarray,
    best_gain: np.ndarray,
    stay_gain: np.ndarray,
) -> np.ndarray:
    """Gain phase of the batched GPU-sim shuffle and hash kernels, once per
    ``(vertex, community)`` run: Algorithm 2 lines 7-8, Algorithm 3 lines
    11-14.

    Run ``r`` holds community ``keys[r]`` of local vertex ``seg[r]``
    (ascending; every vertex has at least one run) with ``d_C(v)`` equal
    to ``d_c[r]``. Writes the stay gain of vertices with an own run, and
    the best candidate community (the smallest id among maximal gains)
    and its gain of vertices with a finite one, at ``sel``; returns that
    per-vertex finite mask.
    """
    g = state.graph
    m = g.total_weight
    totals = state.comm_strength[keys]
    is_own = keys == cur_sel[seg]
    eff_totals = np.where(is_own & remove_self, totals - sv[seg], totals)
    gains = (d_c - state.resolution * eff_totals * sv[seg] / g.two_m) / m

    own = np.flatnonzero(is_own)  # at most one own run per vertex
    stay_gain[sel[seg[own]]] = gains[own]

    cand = np.where(is_own, -np.inf, gains)
    offs = np.flatnonzero(np.concatenate([[True], seg[1:] != seg[:-1]]))
    best = np.maximum.reduceat(cand, offs)
    finite = np.isfinite(best)
    bc = np.minimum.reduceat(
        np.where(cand == best[seg], keys, _INT64_MAX), offs
    )
    best_comm[sel[finite]] = bc[finite]
    best_gain[sel[finite]] = best[finite]
    return finite


def decide_moves(
    state: CommunityState,
    active_idx: np.ndarray,
    remove_self: bool = True,
) -> DecideResult:
    """Run DecideAndMove for every vertex in ``active_idx`` (must be sorted).

    Parameters
    ----------
    state:
        Current BSP iteration state (consistent snapshot).
    active_idx:
        Sorted vertex ids to process.
    remove_self:
        When True (default, Grappolo/standard Louvain), a vertex's own
        strength is removed from its community's ``D_V`` when evaluating the
        gain of staying. When False, Eq. 2 is applied verbatim as printed in
        the paper.
    """
    g = state.graph
    active_idx = np.asarray(active_idx, dtype=np.int64)
    n_act = len(active_idx)

    if g.total_weight == 0.0 or n_act == 0:
        # Edgeless graph (or empty active set): nobody can move.
        return _trivial_result(state, active_idx, np.zeros(n_act))

    counts = g.degrees[active_idx]
    pair_c, d_vc, pair_counts, pair_rows = _aggregate_pairs(
        state, active_idx, counts
    )
    return _evaluate_pairs(
        state, active_idx, pair_c, d_vc, pair_counts, remove_self,
        seg_of=pair_rows,
    )


#: the host DecideAndMove backend names — the single list
#: :data:`repro.core.gala.BACKENDS` (the CLI choices and ``GalaConfig``
#: validation), the rank runtime and :func:`make_kernel` share
KERNEL_NAMES = ("auto", "vectorized", "jit")


class VectorizedKernel:
    """:func:`decide_moves` behind the host kernel-backend protocol."""

    name = "vectorized"
    #: backend that ran on the last call (recorded in ``IterationTrace``)
    last_backend = name

    def __call__(
        self,
        state: CommunityState,
        active_idx: np.ndarray,
        remove_self: bool = True,
    ) -> DecideResult:
        return decide_moves(state, active_idx, remove_self)


def make_kernel(spec: str):
    """Instantiate the host kernel backend named ``spec``.

    An explicit ``"jit"`` raises
    :class:`~repro.errors.KernelUnavailableError` when the compiled
    library cannot run here; ``"auto"`` picks ``jit`` when it passed its
    warm-up probe and ``vectorized`` otherwise — a choice fixed by the
    platform, and bit-identical either way.
    """
    if spec == "vectorized":
        return VectorizedKernel()
    if spec in ("auto", "jit"):
        # lazy: the jit module imports this one
        from repro.core.kernels.jit import JitKernel, get_runtime

        if spec == "jit":
            return JitKernel()
        runtime = get_runtime()
        if runtime is not None:
            return JitKernel(runtime=runtime)
        return VectorizedKernel()
    raise ValueError(
        f"unknown kernel backend {spec!r}; expected one of "
        f"{list(KERNEL_NAMES)} or a callable"
    )


def compiled_runtime(kernel):
    """The compiled :class:`~repro.core.kernels.jit.JitRuntime` behind a
    host kernel (or the kernel a name resolves to), for the executor's
    delta weight update and aggregate refresh; None for a NumPy kernel."""
    if isinstance(kernel, str):
        kernel = make_kernel(kernel)
    return getattr(kernel, "runtime", None)

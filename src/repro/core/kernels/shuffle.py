"""Warp-level shuffle-based DecideAndMove kernel (paper Algorithm 2).

One warp handles one small-degree vertex: lane ``i`` loads neighbour
``u_i``'s community and edge weight into registers, ``__match_any_sync``
groups lanes by community, ``__reduce_add_sync`` produces ``d_C(v)`` per
group, each lane evaluates its community's modularity gain, and a final
``__reduce_max_sync`` elects the winner. All intermediate state lives in
registers — the fastest memory — which is the kernel's entire advantage
(Figure 9(a): 1.9x over a global-memory hashtable, 1.2x over shared).

Execution is functional: decisions are bit-identical to the vectorised
backend (tested); the cost model is charged for every simulated load
(adjacency rows coalesced, community/aggregate lookups scattered) and warp
primitive.

Two engines execute the same semantics:

* ``"batched"`` (default) — all active vertices of one launch decided
  in chunks of at most ``chunk_vertices`` warps, over each chunk's real
  lanes only. One sort of the packed ``(vertex, community)`` key gives
  the ``__match_any_sync`` groups as runs; each run's
  ``__reduce_add_sync`` scatters its weights to their lane positions in
  a zeroed 32-lane row and sums it; gains, the warp max and the tie rule
  are evaluated once per run, by the gain phase the batched hash kernel
  shares (``vectorized._decide_runs``). Warp-primitive and load charges are the
  scalar ones in closed form. Decisions and every profiler counter are
  bit-exact with the scalar engine (tested) — each float reduction sums
  32 contiguous lane registers as the scalar primitive does, and all
  cycle charges are integer-valued, so bulk accounting equals the
  per-vertex sums exactly.
* ``"scalar"`` — the original one-warp-at-a-time reference interpreter.

The only intended divergence: on an edgeless graph (``m == 0``) the
batched engine returns the canonical nobody-moves result (matching
``decide_moves``) where the scalar loop would divide by zero.
"""

from __future__ import annotations

import numpy as np

from repro import analysis
from repro.core.kernels.vectorized import (
    DecideResult,
    _apply_guards,
    _decide_runs,
    _pair_runs,
    _trivial_result,
)
from repro.core.state import CommunityState
from repro.errors import DeviceError
from repro.gpusim import resolve_engine
from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.device import Device
from repro.gpusim.warp import WarpContext, _san_primitive
from repro.obs import _session as obs


class ShuffleKernel:
    """Callable kernel backend: ``kernel(state, active_idx, remove_self)``."""

    name = "shuffle"

    #: vertices decided per batched step; bounds the flat lane arrays
    #: and the (runs, 32) reduction rows of one step
    chunk_vertices = 2048

    def __init__(self, device: Device | None = None, engine: str | None = None):
        self.device = device or Device()
        self.engine = resolve_engine(engine)

    # ------------------------------------------------------------------ #
    def decide_vertex(
        self, state: CommunityState, v: int, remove_self: bool
    ) -> tuple[int, float, float]:
        """One vertex on one warp; returns (best_comm, best_gain, stay_gain)."""
        g = state.graph
        cost = self.device.config.cost
        prof = self.device.profiler
        w = self.device.config.warp_size

        lo, hi = g.indptr[v], g.indptr[v + 1]
        deg = hi - lo
        if deg > w:
            raise DeviceError(
                f"shuffle kernel handles degree <= {w}, vertex {v} has {deg}"
            )
        cur = int(state.comm[v])
        strength_v = float(g.strength[v])
        m = g.total_weight
        two_m = g.two_m
        gamma = state.resolution
        cur_total = float(state.comm_strength[cur])
        if remove_self:
            cur_total -= strength_v
        stay_gain = (0.0 - gamma * cur_total * strength_v / two_m) / m

        if deg == 0 or m == 0.0:
            return cur, -np.inf, stay_gain

        active = np.zeros(w, dtype=bool)
        active[:deg] = True
        warp = WarpContext(self.device, active=active)

        # Lane registers: neighbour id, community, weight (lines 2-4).
        my_u = np.zeros(w, dtype=np.int64)
        my_c = np.full(w, -1, dtype=np.int64)
        my_w = np.zeros(w, dtype=np.float64)
        my_u[:deg] = g.indices[lo:hi]
        my_w[:deg] = g.weights[lo:hi]
        # Adjacency row: consecutive addresses -> coalesced transactions.
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, deg, coalesced=True) * 2)
        # Community lookups are scattered gathers.
        my_c[:deg] = state.comm[my_u[:deg]]
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, deg))

        # Lines 5-6: group lanes by community and sum weights per group.
        mask = warp.match_any_sync(my_c)
        d_c = warp.reduce_add_sync(mask, my_w)

        # Line 7: per-lane gain. D_V(C) lookups are scattered global loads,
        # one per *distinct* community (the leader lane broadcasts it).
        totals = np.zeros(w, dtype=np.float64)
        totals[:deg] = state.comm_strength[my_c[:deg]]
        leader = np.zeros(w, dtype=bool)
        seen: set[int] = set()
        for lane in range(deg):
            if int(my_c[lane]) not in seen:
                seen.add(int(my_c[lane]))
                leader[lane] = True
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, int(leader.sum())))
        prof.charge("decide_alu", cost.alu(deg * 4))

        is_own = my_c == cur
        eff_totals = np.where(
            is_own & remove_self, totals - strength_v, totals
        )
        gains = (d_c - gamma * eff_totals * strength_v / two_m) / m

        # Stay gain from own-community lanes (if any neighbour is inside).
        own_lanes = np.flatnonzero(is_own[:deg])
        if len(own_lanes):
            stay_gain = float(gains[own_lanes[0]])

        # Line 8: warp max over *candidate* lanes.
        cand = np.where(is_own, -np.inf, gains)
        cand[deg:] = -np.inf
        best_gain = warp.reduce_max_sync(cand)
        if not np.isfinite(best_gain):
            return cur, -np.inf, stay_gain
        # Ties: smallest community id among maximal lanes (one more
        # reduction in hardware; ballot + min here).
        winners = np.flatnonzero(cand[:deg] == best_gain)
        warp.ballot_sync(cand == best_gain)
        best_comm = int(my_c[winners].min())
        return best_comm, float(best_gain), stay_gain

    # ------------------------------------------------------------------ #
    def _decide_warp_chunk(
        self,
        state: CommunityState,
        verts: np.ndarray,
        d: np.ndarray,
        cur_sel: np.ndarray,
        sv: np.ndarray,
        remove_self: bool,
        sel: np.ndarray,
        best_comm: np.ndarray,
        best_gain: np.ndarray,
        stay_gain: np.ndarray,
    ) -> None:
        """Decide one chunk of deg>0 vertices, one simulated warp each,
        over the chunk's real lanes grouped into ``(vertex, community)``
        runs."""
        g = state.graph
        cost = self.device.config.cost
        prof = self.device.profiler
        w = self.device.config.warp_size
        n = len(verts)

        # Lane registers of every warp, flattened (lines 2-4).
        total = int(d.sum())
        row_of = np.repeat(np.arange(n, dtype=np.int64), d)
        lane_of = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(d) - d, d
        )
        eidx = g.indptr[verts].astype(np.int64)[row_of] + lane_of
        comm = state.comm[g.indices[eidx]].astype(np.int64)
        # Coalesced row loads (deg <= 32: one transaction per array per
        # vertex), then scattered C[u] gathers — same charges as the
        # scalar per-vertex ones, summed.
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, n) * 2)
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, total))

        # Line 5, __match_any_sync: the match groups are the distinct
        # (warp, community) runs.
        order, new_run = _pair_runs(row_of, comm, n, len(state.comm_strength))
        run_start = np.flatnonzero(new_run)
        n_runs = len(run_start)
        run_of = np.empty(total, dtype=np.int64)
        run_of[order] = np.cumsum(new_run) - 1
        san = analysis.current()
        active = lane_masks = None
        if san is not None:
            active = np.arange(w, dtype=np.int64)[None, :] < d[:, None]
            run_bits = np.bitwise_or.reduceat(
                np.int64(1) << lane_of[order], run_start
            )
            lane_masks = np.zeros((n, w), dtype=np.int64)
            lane_masks[row_of, lane_of] = run_bits[run_of]
        _san_primitive("match_any_sync", active)
        self._charge_primitive(n)

        # Line 6, __reduce_add_sync: each run's weights at their lane
        # positions in a zeroed 32-lane row, summed by the scalar
        # primitive's contiguous 32-lane reduction, so the bits match.
        lanes = np.zeros((n_runs, w), dtype=np.float64)
        lanes[run_of, lane_of] = g.weights[eidx]
        d_c = lanes.sum(axis=1)
        _san_primitive("reduce_add_sync", active, masks=lane_masks)
        self._charge_primitive(n)

        # Line 7: one leader lane per run loads D_V(C) (scattered).
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, n_runs))
        prof.charge("decide_alu", cost.alu(total * 4))
        first = order[run_start]
        finite = _decide_runs(
            state, row_of[first], comm[first], d_c, cur_sel, sv,
            remove_self, sel, best_comm, best_gain, stay_gain,
        )

        # Line 8: __reduce_max_sync, then a ballot of the maximal lanes
        # (the tie rule) in the warps that found a finite winner.
        _san_primitive("reduce_max_sync", active)
        self._charge_primitive(n)
        n_finite = int(finite.sum())
        if n_finite:
            _san_primitive(
                "ballot_sync", None if active is None else active[finite]
            )
            self._charge_primitive(n_finite)

    def _charge_primitive(self, invocations: int) -> None:
        """``invocations`` warp-primitive calls, one bulk charge."""
        self.device.profiler.charge(
            "warp_primitives", self.device.config.cost.warp_primitive(invocations)
        )
        self.device.profiler.count("warp_primitive_ops", invocations)

    def _call_batched(
        self, state: CommunityState, active_idx: np.ndarray, remove_self: bool
    ) -> DecideResult:
        g = state.graph
        prof = self.device.profiler
        w = self.device.config.warp_size
        n_act = len(active_idx)
        if g.total_weight == 0.0:
            return _trivial_result(state, active_idx, np.zeros(n_act))
        deg = g.degrees[active_idx].astype(np.int64)
        over = np.flatnonzero(deg > w)
        if len(over):
            i = int(over[0])
            raise DeviceError(
                f"shuffle kernel handles degree <= {w}, vertex "
                f"{int(active_idx[i])} has {int(deg[i])}"
            )
        m = g.total_weight
        two_m = g.two_m
        gamma = state.resolution
        cur = state.comm[active_idx].astype(np.int64)
        strength_v = g.strength[active_idx].astype(np.float64)
        cur_total = state.comm_strength[cur].astype(np.float64)
        if remove_self:
            cur_total = cur_total - strength_v
        stay_gain = (0.0 - gamma * cur_total * strength_v / two_m) / m
        best_comm = cur.copy()
        best_gain = np.full(n_act, -np.inf)

        work = np.flatnonzero(deg > 0)
        for start in range(0, len(work), self.chunk_vertices):
            sub = work[start:start + self.chunk_vertices]
            with obs.span("kernel/shuffle_chunk", vertices=len(sub)):
                self._decide_warp_chunk(
                    state,
                    active_idx[sub],
                    deg[sub],
                    cur[sub],
                    strength_v[sub],
                    remove_self,
                    sub,
                    best_comm,
                    best_gain,
                    stay_gain,
                )
        prof.count("shuffle_vertices", n_act)
        valid = np.isfinite(best_gain)
        best_comm = np.where(valid, best_comm, cur)
        move = _apply_guards(state, active_idx, best_comm, best_gain, stay_gain, valid)
        return DecideResult(
            active_idx=active_idx,
            best_comm=best_comm,
            best_gain=best_gain,
            stay_gain=stay_gain,
            move=move,
        )

    # ------------------------------------------------------------------ #
    def __call__(
        self, state: CommunityState, active_idx: np.ndarray, remove_self: bool = True
    ) -> DecideResult:
        active_idx = np.asarray(active_idx, dtype=np.int64)
        if self.engine == "batched":
            return self._call_batched(state, active_idx, remove_self)
        n_act = len(active_idx)
        best_comm = np.empty(n_act, dtype=np.int64)
        best_gain = np.empty(n_act, dtype=np.float64)
        stay_gain = np.empty(n_act, dtype=np.float64)
        for i, v in enumerate(active_idx):
            bc, bg, sg = self.decide_vertex(state, int(v), remove_self)
            best_comm[i], best_gain[i], stay_gain[i] = bc, bg, sg
        self.device.profiler.count("shuffle_vertices", n_act)
        valid = np.isfinite(best_gain)
        best_comm = np.where(valid, best_comm, state.comm[active_idx])
        move = _apply_guards(state, active_idx, best_comm, best_gain, stay_gain, valid)
        return DecideResult(
            active_idx=active_idx,
            best_comm=best_comm,
            best_gain=best_gain,
            stay_gain=stay_gain,
            move=move,
        )

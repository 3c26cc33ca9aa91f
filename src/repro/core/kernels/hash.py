"""Block-level hash-based DecideAndMove kernel (paper Algorithm 3).

One thread block handles one large-degree vertex. Threads stream the
adjacency row in block-sized strides; each thread find-or-inserts its
neighbour's community into the per-block hashtable (atomicCAS to claim a
bucket, atomicAdd to accumulate ``d_C(v)``), loading ``D_V(C)`` on first
insert. A final reduction over the table entries elects the best community.

The hashtable design is pluggable (``global`` / ``unified`` /
``hierarchical`` — Section 4.2); the cost difference between them is the
whole point of Figure 9(b), and the shared-memory maintenance/access rates
they report drive Figure 4.

Two engines execute the same semantics:

* ``"batched"`` (default) — all active vertices of one launch are
  decided in one pass through one
  :class:`~repro.gpusim.hashtable.batched.BatchedTables`, one table per
  vertex with its global region sized from the vertex's degree. It
  replays every per-vertex table's find-or-insert protocol in vectorised
  probe rounds; the kernel then evaluates the gains once per
  ``(vertex, community)`` run (``vectorized._decide_runs``, the gain
  phase the batched shuffle kernel shares). The bank conflicts of every
  warp step of the launch are counted with one sort and one bincount.
  Bucket layouts, probe/conflict counts, Figure 4 rates and every
  profiler counter are bit-exact with the scalar engine (tested).
* ``"scalar"`` — the original one-block-at-a-time reference interpreter.

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
    _trivial_result,
)
from repro.core.state import CommunityState
from repro.gpusim import resolve_engine
from repro.gpusim.costmodel import MemoryKind, shared_bank_conflict_factor
from repro.gpusim.device import Device
from repro.gpusim.hashtable import make_table
from repro.gpusim.hashtable.base import SimHashTable, hash0_vec
from repro.gpusim.hashtable.batched import BatchedTables

_BANKS = 32  # shared_bank_conflict_factor's default bank count


def _next_pow2(x: int) -> int:
    return 1 << max(int(x) - 1, 0).bit_length()


class HashKernel:
    """Callable kernel backend using a per-block simulated hashtable."""

    name = "hash"

    def __init__(
        self,
        device: Device | None = None,
        table_kind: str = "hierarchical",
        shared_buckets: int = 1024,
        block_size: int = 128,
        load_factor: float = 0.5,
        fixed_global_buckets: int | None = None,
        engine: str | None = None,
    ):
        """``fixed_global_buckets`` preallocates the global region at a
        fixed size (e.g. sized for the graph's maximum degree, as a real
        implementation must when blocks are assigned to vertices
        dynamically) instead of per-vertex sizing. This is what makes the
        unified design's shared fraction ``s/(s+g)`` small on skewed
        graphs — the effect Figure 4 measures."""
        self.device = device or Device()
        self.device.config.validate_block(block_size)
        self.table_kind = table_kind
        self.shared_buckets = min(
            shared_buckets, self.device.config.max_shared_buckets()
        )
        self.block_size = block_size
        self.load_factor = load_factor
        self.fixed_global_buckets = fixed_global_buckets
        self.engine = resolve_engine(engine)
        #: per-iteration Figure 4 statistics appended by flush_rates()
        self.rate_log: list[dict] = []
        self._iter_maintained = [0, 0]  # [shared, total]
        self._iter_accessed = [0, 0]

    # ------------------------------------------------------------------ #
    def _global_buckets_for(self, degree: int) -> int:
        sized = _next_pow2(max(int(degree / self.load_factor), 4))
        if self.fixed_global_buckets is not None:
            return max(self.fixed_global_buckets, sized)
        return sized

    def _make_table(self, degree: int) -> SimHashTable:
        return make_table(
            self.table_kind,
            self.device,
            self.shared_buckets,
            self._global_buckets_for(degree),
        )

    def _block_sync(self, san) -> None:
        """Simulated ``__syncthreads()`` between the accumulate phase and
        the gain-evaluation reads.

        Closes the racecheck epoch (the accumulate phase's atomics become
        ordered before the reads) and checks full-block barrier
        participation. This is the seam the mutation tests no-op to prove
        a skipped barrier is flagged: without the epoch flush, the gain
        phase's plain reads land in the same epoch as the atomic writes —
        a read-write hazard.
        """
        if san is None:
            return
        san.race.barrier(kernel=self.name)
        san.sync.barrier(np.ones(self.block_size, dtype=bool), kernel=self.name)

    def decide_vertex(
        self, state: CommunityState, v: int, remove_self: bool
    ) -> tuple[int, float, float]:
        """One vertex on one block; returns (best_comm, best_gain, stay_gain)."""
        g = state.graph
        cost = self.device.config.cost
        prof = self.device.profiler
        lo, hi = g.indptr[v], g.indptr[v + 1]
        deg = hi - lo
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

        table = self._make_table(deg)
        nbrs = g.indices[lo:hi]
        ws = g.weights[lo:hi]
        comms = state.comm[nbrs]

        # Strided streaming (Algorithm 3 line 4): each chunk is one
        # simultaneous block step.
        for start in range(0, deg, self.block_size):
            chunk = slice(start, min(start + self.block_size, deg))
            n_chunk = chunk.stop - chunk.start
            # coalesced row loads (indices + weights), scattered C[u] loads
            prof.charge(
                "decide_load",
                cost.access(MemoryKind.GLOBAL, n_chunk, coalesced=True) * 2,
            )
            prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, n_chunk))
            # Bank conflicts: the chunk's lanes hit their shared-memory
            # buckets simultaneously; distinct addresses in one bank
            # serialise (same-address lanes broadcast). Charged once per
            # warp-step of the chunk.
            if table.s > 0:
                from repro.gpusim.hashtable.base import hash0

                warp_size = self.device.config.warp_size
                shared_addr = np.array(
                    [hash0(int(c), table.s) for c in comms[chunk]],
                    dtype=np.int64,
                )
                for w_start in range(0, n_chunk, warp_size):
                    factor = shared_bank_conflict_factor(
                        shared_addr[w_start:w_start + warp_size]
                    )
                    if factor > 1:
                        prof.charge(
                            "bank_conflicts",
                            cost.access(MemoryKind.SHARED, factor - 1),
                        )
                        prof.count("bank_conflict_steps")
            before = table.num_entries
            for j, (c, wgt) in enumerate(zip(comms[chunk], ws[chunk])):
                table.san_lane = j  # lane-in-block for sanitizer findings
                table.accumulate(int(c), float(wgt))
            # D_V(C) loaded once per fresh insert (line 9)
            fresh = table.num_entries - before
            if fresh:
                prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, fresh))

        # __syncthreads(): the accumulate atomics must be ordered before
        # the gain-evaluation reads of the table memory.
        san = analysis.current()
        self._block_sync(san)

        # Gain evaluation over the table entries (lines 11-14): one value
        # read per entry from wherever it resides.
        keys, sums = table.items()
        if san is not None:
            san.race.end_launch(kernel=self.name)
        prof.charge(
            "decide_alu", cost.alu(len(keys) * 4)
        )
        prof.charge(
            "hashtable",
            cost.access(MemoryKind.SHARED, table.maintained_shared)
            + cost.access(MemoryKind.GLOBAL, table.maintained_global),
        )
        totals = state.comm_strength[keys]
        is_own = keys == cur
        eff_totals = np.where(is_own & remove_self, totals - strength_v, totals)
        gains = (sums - gamma * eff_totals * strength_v / two_m) / m

        own = np.flatnonzero(is_own)
        if len(own):
            stay_gain = float(gains[own[0]])
        cand = np.where(is_own, -np.inf, gains)
        best = float(cand.max())
        if not np.isfinite(best):
            self._log_table(table)
            return cur, -np.inf, stay_gain
        best_comm = int(keys[cand == best].min())
        self._log_table(table)
        return best_comm, best, stay_gain

    # ------------------------------------------------------------------ #
    def _decide_block_group(
        self,
        state: CommunityState,
        verts: np.ndarray,
        d: np.ndarray,
        cur_sel: np.ndarray,
        sv: np.ndarray,
        global_buckets: np.ndarray,
        remove_self: bool,
        sel: np.ndarray,
        best_comm: np.ndarray,
        best_gain: np.ndarray,
        stay_gain: np.ndarray,
    ) -> None:
        """Decide a launch's deg>0 vertices, one simulated block (= one
        table of ``global_buckets[i]`` global buckets) per vertex."""
        g = state.graph
        cost = self.device.config.cost
        prof = self.device.profiler
        wsz = self.device.config.warp_size
        bs = self.block_size
        n = len(verts)

        lo = g.indptr[verts].astype(np.int64)
        total = int(d.sum())
        row_of = np.repeat(np.arange(n, dtype=np.int64), d)
        starts = np.concatenate([[0], np.cumsum(d)]).astype(np.int64)
        pos = np.arange(total, dtype=np.int64) - starts[row_of]
        eidx = lo[row_of] + pos
        comms = state.comm[g.indices[eidx]].astype(np.int64)
        ws = g.weights[eidx].astype(np.float64)

        # Row streaming loads, summed over every vertex's block-sized
        # chunks: coalesced (indices + weights) transactions, then
        # scattered C[u] gathers — identical totals to the scalar chunks.
        # A row's transactions are also its warp steps.
        full_steps = -(-bs // wsz)  # warp transactions per full chunk
        n_full = d // bs
        rem = d - n_full * bs
        trans = n_full * full_steps + -(-rem // wsz)
        n_steps = int(trans.sum())
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, n_steps) * 2)
        prof.charge("decide_load", cost.access(MemoryKind.GLOBAL, total))

        tables = BatchedTables(
            self.table_kind, self.device, self.shared_buckets, global_buckets
        )

        # Bank conflicts, vectorised over every warp step of every chunk:
        # the conflict factor is a pure function of the step's shared
        # bucket addresses (independent of table state). Steps get dense
        # ids; one sort gives the distinct (step, address) pairs and one
        # bincount the distinct addresses per (step, bank).
        if tables.s > 0:
            step = (
                (np.cumsum(trans) - trans)[row_of]
                + (pos // bs) * full_steps
                + (pos % bs) // wsz
            )
            pair = np.sort(step * tables.s + hash0_vec(comms, tables.s))
            pair = pair[np.concatenate([[True], pair[1:] != pair[:-1]])]
            per_bank = np.bincount(
                (pair // tables.s) * _BANKS + pair % tables.s % _BANKS,
                minlength=n_steps * _BANKS,
            ).reshape(n_steps, _BANKS)
            factor = per_bank.max(axis=1)
            conflicted = factor > 1
            if np.any(conflicted):
                prof.charge(
                    "bank_conflicts",
                    cost.access(MemoryKind.SHARED, int((factor - 1).sum())),
                )
                prof.count("bank_conflict_steps", int(conflicted.sum()))

        # Find-or-insert the whole neighbourhood stream (Algorithm 3
        # lines 6-10); the batched tables replay each vertex's sequential
        # protocol and charge identical probe/atomic totals.
        san = analysis.current()
        runs = tables.accumulate_stream(
            row_of, comms, ws,
            lanes=(pos % bs) if san is not None else None,
        )
        # D_V(C) loaded once per fresh insert (line 9); the tables start
        # empty, so every distinct (vertex, community) run is one insert.
        if len(runs):
            prof.charge(
                "decide_load", cost.access(MemoryKind.GLOBAL, len(runs))
            )

        # __syncthreads() before the gain-phase reads (same seam as the
        # scalar engine — the mutation tests no-op it on both).
        self._block_sync(san)
        if san is not None:
            tables.san_read_entries(san)
            san.race.end_launch(kernel=self.name)

        # Gain evaluation (lines 11-14) over per-table entry runs.
        prof.charge("decide_alu", cost.alu(len(runs) * 4))
        prof.charge(
            "hashtable",
            cost.access(MemoryKind.SHARED, int(tables.maintained_shared.sum()))
            + cost.access(MemoryKind.GLOBAL, int(tables.maintained_global.sum())),
        )
        # every table has >= 1 run (deg > 0), listed in ascending order
        _decide_runs(
            state, runs.table, runs.key, runs.value, cur_sel, sv,
            remove_self, sel, best_comm, best_gain, stay_gain,
        )

        self._iter_maintained[0] += int(tables.maintained_shared.sum())
        self._iter_maintained[1] += int(tables.num_entries.sum())
        self._iter_accessed[0] += int(tables.accesses_shared.sum())
        self._iter_accessed[1] += int(
            (tables.accesses_shared + tables.accesses_global).sum()
        )

    def _call_batched(
        self, state: CommunityState, active_idx: np.ndarray, remove_self: bool
    ) -> DecideResult:
        g = state.graph
        prof = self.device.profiler
        n_act = len(active_idx)
        if g.total_weight == 0.0:
            return _trivial_result(state, active_idx, np.zeros(n_act))
        m = g.total_weight
        two_m = g.two_m
        gamma = state.resolution
        deg = g.degrees[active_idx].astype(np.int64)
        cur = state.comm[active_idx].astype(np.int64)
        strength_v = g.strength[active_idx].astype(np.float64)
        cur_total = state.comm_strength[cur].astype(np.float64)
        if remove_self:
            cur_total = cur_total - strength_v
        stay_gain = (0.0 - gamma * cur_total * strength_v / two_m) / m
        best_comm = cur.copy()
        best_gain = np.full(n_act, -np.inf)

        work = np.flatnonzero(deg > 0)
        if len(work):
            # every vertex's table sized from its degree
            uniq_deg, inv = np.unique(deg[work], return_inverse=True)
            gb = np.array(
                [self._global_buckets_for(int(dv)) for dv in uniq_deg],
                dtype=np.int64,
            )[inv]
            self._decide_block_group(
                state,
                active_idx[work],
                deg[work],
                cur[work],
                strength_v[work],
                gb,
                remove_self,
                work,
                best_comm,
                best_gain,
                stay_gain,
            )
        prof.count("hash_vertices", n_act)
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
    def _log_table(self, table: SimHashTable) -> None:
        self._iter_maintained[0] += table.maintained_shared
        self._iter_maintained[1] += table.num_entries
        self._iter_accessed[0] += table.accesses_shared
        self._iter_accessed[1] += table.accesses_shared + table.accesses_global

    def flush_rates(self) -> dict:
        """Pop the maintenance/access rates accumulated since last flush
        (one call per iteration gives the Figure 4 series)."""
        ms, mt = self._iter_maintained
        as_, at = self._iter_accessed
        entry = {
            "maintenance_rate": ms / mt if mt else 0.0,
            "access_rate": as_ / at if at else 0.0,
        }
        self.rate_log.append(entry)
        self._iter_maintained = [0, 0]
        self._iter_accessed = [0, 0]
        return entry

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
        self.device.profiler.count("hash_vertices", n_act)
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

"""Batched structure-of-arrays hashtables: many per-block tables at once.

The scalar tables (:mod:`repro.gpusim.hashtable.base`) execute one
find-or-insert at a time through a Python probe generator — faithful, but
the per-key interpreter overhead makes simulator-backed experiments
100-1000x slower than the host kernels. :class:`BatchedTables` keeps the
*semantics* of N independent scalar tables of one geometry while resolving
whole key vectors per NumPy step:

* **bit-exact contents and statistics** — each table's keys are inserted
  in stream (first-occurrence) order exactly as the scalar protocol would,
  so bucket layouts, per-key probe paths, maintenance/access statistics and
  every profiler charge match the scalar tables bit for bit (pinned by
  tests);
* **fixed-point probe resolution** — the hashes of every distinct key
  are computed once; each sweep then walks every key's probe path in
  parallel (one Python round per probe position) and stops it at the
  first bucket that is neither held by another key nor claimed, in the
  previous sweep, by a key inserted earlier into the same table. The
  sweeps repeat until no claim moves, which is exactly the sequential
  insertion order (see :meth:`BatchedTables._resolve`), so a stream
  costs sweeps times probe depth Python rounds rather than one round per
  probe of every key of the fullest table. Duplicate keys never re-enter
  the probe loop: an occurrence of an already-resolved key replays a
  *fixed* probe path (buckets only ever transition empty -> claimed), so
  its probes, atomics and accesses are accounted for arithmetically via
  occurrence counts, and each key's probe count follows in closed form
  from the position where its path stops;
* **bulk accounting** — probes/atomics are charged through single
  ``profiler.charge``/``count`` calls with event totals; all per-event
  costs are integer-valued cycles, so bulk totals equal the scalar
  charge-per-event sums exactly (no float drift).

Capacity exhaustion raises :class:`~repro.errors.HashTableFullError`
exactly when the scalar tables would, before any bucket of the stream
is written (the scalar tables keep the keys inserted before the failing
one). The reported key is the stream-first key left without a bucket;
it is not promised to be the scalar error's key — the raise/no-raise
behaviour itself is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import analysis
from repro.errors import HashTableFullError
from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.device import Device
from repro.gpusim.hashtable.base import (
    _EMPTY,
    _table_serial,
    hash0_vec,
    hash1_vec,
)

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class StreamRuns:
    """Per-distinct-key outcome of :meth:`BatchedTables.accumulate_stream`.

    One entry ("run") per distinct ``(table, key)`` pair of the stream,
    sorted by table id and, within a table, by insertion (first-occurrence)
    order. ``value`` is the weight total accumulated into the bucket by
    this stream (summed in stream order, ``np.bincount`` semantics).
    """

    table: np.ndarray  #: int64, owning table id
    key: np.ndarray  #: int64, the distinct key
    value: np.ndarray  #: float64, weight accumulated by this stream
    occ: np.ndarray  #: int64, occurrences in the stream
    resident_shared: np.ndarray  #: bool, key resolved to a shared bucket
    probes_shared: np.ndarray  #: int64, shared probes of one traversal
    probes_global: np.ndarray  #: int64, global probes of one traversal

    def __len__(self) -> int:
        return len(self.key)


def _empty_runs() -> StreamRuns:
    z = np.empty(0, dtype=np.int64)
    return StreamRuns(
        table=z,
        key=z.copy(),
        value=np.empty(0, dtype=np.float64),
        occ=z.copy(),
        resident_shared=np.empty(0, dtype=bool),
        probes_shared=z.copy(),
        probes_global=z.copy(),
    )


class BatchedTables:
    """``n_tables`` independent simulated hashtables of one geometry.

    The geometry normalisation mirrors the scalar classes exactly
    (``global`` folds the shared budget into global memory, ``unified`` /
    ``hierarchical`` clamp empty regions), so ``BatchedTables(kind, ...)``
    has the same ``s``/``g`` and the same probe sequences as
    ``make_table(kind, ...)``.
    """

    def __init__(
        self,
        kind: str,
        device: Device,
        shared_buckets: int,
        global_buckets: int,
        n_tables: int,
    ):
        if n_tables < 0:
            raise ValueError("n_tables must be non-negative")
        # Geometry rules copied from GlobalOnlyHashTable / UnifiedHashTable
        # / HierarchicalHashTable __init__ — one place per design.
        if kind == "global":
            s, g = 0, max(global_buckets + shared_buckets, 1)
        elif kind == "unified":
            s, g = shared_buckets, max(global_buckets, 1)
        elif kind == "hierarchical":
            s, g = max(shared_buckets, 1), max(global_buckets, 1)
        else:
            raise ValueError(
                f"unknown hashtable kind {kind!r}; expected one of "
                "['global', 'hierarchical', 'unified']"
            )
        if s < 0 or g < 0:
            raise ValueError("bucket counts must be non-negative")
        max_shared = device.config.max_shared_buckets()
        if s > max_shared:
            raise HashTableFullError(
                f"{s} shared buckets exceed the device budget of {max_shared}"
            )
        self.kind = kind
        self.device = device
        self.n_tables = n_tables
        self.s = s
        self.g = g
        self.shared_keys = np.full((n_tables, s), _EMPTY, dtype=np.int64)
        self.shared_vals = np.zeros((n_tables, s), dtype=np.float64)
        self.global_keys = np.full((n_tables, g), _EMPTY, dtype=np.int64)
        self.global_vals = np.zeros((n_tables, g), dtype=np.float64)
        # Figure 4 statistics, one entry per table
        self.maintained_shared = np.zeros(n_tables, dtype=np.int64)
        self.maintained_global = np.zeros(n_tables, dtype=np.int64)
        self.accesses_shared = np.zeros(n_tables, dtype=np.int64)
        self.accesses_global = np.zeros(n_tables, dtype=np.int64)
        # Sanitizer wiring: the N tables share two flat regions (one per
        # space) with addresses encoded as ``table * buckets + slot`` so
        # distinct tables never alias in the happens-before model; the
        # per-run resolution of the last accumulate_stream is kept so the
        # kernel can replay the gain-phase reads after its block barrier.
        self._san_tag = f"btables{next(_table_serial)}"
        self._last_resolution: tuple | None = None
        self._san_reset_shadow(analysis.current())

    def _san_reset_shadow(self, san) -> None:
        if san is not None:
            san.mem.reset_shadow(
                (self._san_tag, "shared"), self.n_tables * self.s
            )
            san.mem.reset_shadow(
                (self._san_tag, "global"), self.n_tables * self.g
            )

    def _san_flat_addr(
        self, tables: np.ndarray, is_shared: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Region-flat addresses: ``table * buckets(space) + slot``."""
        return np.where(
            is_shared, tables * self.s + slots, tables * self.g + slots
        )

    # ------------------------------------------------------------------ #
    @property
    def max_probes(self) -> int:
        """Length of every table's probe sequence (same as scalar)."""
        if self.kind == "global":
            return self.g
        if self.kind == "unified":
            return self.s + self.g
        return 1 + self.g  # hierarchical: one shared probe, then global

    @property
    def num_entries(self) -> np.ndarray:
        return self.maintained_shared + self.maintained_global

    def _homes(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's hashed start(s) — all its probe sequence depends on.

        ``global`` / ``unified``: the start of the linear probe over the
        global / concatenated bucket array (second entry unused);
        ``hierarchical``: the ``h0`` shared bucket and the ``h1`` start of
        the global probe.
        """
        if self.kind == "global":
            return hash0_vec(keys, self.g), keys
        if self.kind == "unified":
            return hash0_vec(keys, self.s + self.g), keys
        return hash0_vec(keys, self.s), hash1_vec(keys, self.g)

    def _probe_at(
        self, homes: tuple[np.ndarray, np.ndarray], p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe ``p`` of the keys with hashed starts ``homes``."""
        first, second = homes
        if self.kind == "global":
            return np.zeros(p.shape, dtype=bool), (first + p) % self.g
        if self.kind == "unified":
            idx = (first + p) % (self.s + self.g)
            is_shared = idx < self.s
            return is_shared, np.where(is_shared, idx, idx - self.s)
        is_shared = p == 0
        return is_shared, np.where(
            is_shared, first, (second + p - 1) % self.g
        )

    def _probe_split(
        self, homes: tuple[np.ndarray, np.ndarray], n_probes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(shared, global)`` probe counts of the first ``n_probes``
        (>= 1) probes of each key, in closed form per kind."""
        if self.kind == "global":
            return np.zeros_like(n_probes), n_probes
        if self.kind == "hierarchical":
            return np.ones_like(n_probes), n_probes - 1
        # unified: shared indices among (start + i) % total, i < n_probes;
        # below(x) counts the shared indices of the unrolled range [0, x)
        total = self.s + self.g

        def below(x):
            return (x // total) * self.s + np.minimum(x % total, self.s)

        first = homes[0]
        shared = below(first + n_probes) - below(first)
        return shared, n_probes - shared

    # ------------------------------------------------------------------ #
    def _occupants(
        self, tables: np.ndarray, is_shared: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        out = np.empty(len(tables), dtype=np.int64)
        sh = is_shared
        out[sh] = self.shared_keys[tables[sh], slots[sh]]
        out[~sh] = self.global_keys[tables[~sh], slots[~sh]]
        return out

    def _charge_probes(self, n_shared: int, n_global: int) -> None:
        cost = self.device.config.cost
        prof = self.device.profiler
        if n_shared:
            prof.charge("hashtable", cost.access(MemoryKind.SHARED, n_shared))
            prof.count("shared_probes", n_shared)
        if n_global:
            prof.charge("hashtable", cost.access(MemoryKind.GLOBAL, n_global))
            prof.count("global_probes", n_global)

    # ------------------------------------------------------------------ #
    def accumulate_stream(
        self,
        table_of: np.ndarray,
        keys: np.ndarray,
        weights: np.ndarray,
        lanes: np.ndarray | None = None,
    ) -> StreamRuns:
        """Find-or-insert a ``(table, key, weight)`` stream, in stream order.

        Equivalent to calling ``table[t].accumulate(k, w)`` for the stream
        entries one by one: per-table bucket layouts, probe/atomic charges
        and Figure 4 statistics are bit-identical. Weight totals follow the
        repo-wide exactness convention — each ``(table, key)`` group is
        summed sequentially in stream order — so fresh buckets end up
        bit-equal to the scalar's one-at-a-time accumulation. (A bucket
        that already held weight from a *previous* call receives this
        stream's pre-summed total in one addition instead.)

        ``lanes`` optionally supplies the simulated lane (thread-in-block)
        id of every stream element; it is used only to tag sanitizer
        racecheck events (defaults to the stream position) and does not
        affect execution or accounting.
        """
        table_of = np.asarray(table_of, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        n = len(keys)
        if len(table_of) != n or len(weights) != n:
            raise ValueError("table_of, keys and weights must align")
        if n == 0:
            return _empty_runs()
        if np.any((table_of < 0) | (table_of >= self.n_tables)):
            raise ValueError("table id out of range")

        # Distinct (table, key) runs, stably grouped so each run's weights
        # stay in stream order and first_flat is its first occurrence.
        order = np.lexsort((keys, table_of))
        st, sk = table_of[order], keys[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = (st[1:] != st[:-1]) | (sk[1:] != sk[:-1])
        run_of_sorted = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        run_table = st[starts]
        run_key = sk[starts]
        first_flat = np.minimum.reduceat(order, starts)
        occ = np.bincount(run_of_sorted).astype(np.int64)
        value = np.bincount(run_of_sorted, weights=weights[order])

        # Insertion order: per table, by first occurrence in the stream.
        ord2 = np.lexsort((first_flat, run_table))
        run_table = run_table[ord2]
        run_key = run_key[ord2]
        occ = occ[ord2]
        value = value[ord2]
        first_flat = first_flat[ord2]

        homes = self._homes(run_key)
        stop, depth = self._resolve(run_table, run_key, homes)
        exhausted = stop < 0
        san = analysis.current()
        if san is not None:
            self._san_check_paths(
                san, homes, np.where(exhausted, self.max_probes, depth + 1)
            )
        if np.any(exhausted):
            bad = np.flatnonzero(exhausted)
            worst = bad[np.argmin(first_flat[bad])]
            raise HashTableFullError(
                f"no free bucket for key {int(run_key[worst])} "
                f"(s={self.s}, g={self.g})"
            )
        shared_size = self.n_tables * self.s
        res_shared = stop < shared_size
        res_slot = stop - np.where(
            res_shared, run_table * self.s, shared_size + run_table * self.g
        )
        # claim the empty buckets (atomicCAS); found keys were inserted
        # by an earlier call and are plain hits
        claimed = self._occupants(run_table, res_shared, res_slot) == _EMPTY
        sh_claim = claimed & res_shared
        gl_claim = claimed & ~res_shared
        self.shared_keys[run_table[sh_claim], res_slot[sh_claim]] = run_key[
            sh_claim
        ]
        self.global_keys[run_table[gl_claim], res_slot[gl_claim]] = run_key[
            gl_claim
        ]
        probes_sh, probes_gl = self._probe_split(homes, depth + 1)

        # Accumulate values (stream-ordered group sums; fresh buckets held
        # exactly 0.0, so += reproduces the scalar running sums bit-exactly).
        sh = res_shared
        self.shared_vals[run_table[sh], res_slot[sh]] += value[sh]
        self.global_vals[run_table[~sh], res_slot[~sh]] += value[~sh]

        # Bulk accounting: every occurrence of a run replays its probe
        # path and does one atomicAdd; first occurrences of claimed runs
        # add the atomicCAS.
        self._charge_probes(
            int((probes_sh * occ).sum()), int((probes_gl * occ).sum())
        )
        cost = self.device.config.cost
        prof = self.device.profiler
        n_at_sh = int(occ[sh].sum() + (claimed & sh).sum())
        n_at_gl = int(occ[~sh].sum() + (claimed & ~sh).sum())
        if n_at_sh:
            prof.charge("hashtable", cost.atomic(MemoryKind.SHARED, n_at_sh))
        if n_at_gl:
            prof.charge("hashtable", cost.atomic(MemoryKind.GLOBAL, n_at_gl))

        self.maintained_shared += np.bincount(
            run_table[claimed & sh], minlength=self.n_tables
        )
        self.maintained_global += np.bincount(
            run_table[claimed & ~sh], minlength=self.n_tables
        )
        self.accesses_shared += np.bincount(
            run_table[sh], weights=occ[sh], minlength=self.n_tables
        ).astype(np.int64)
        self.accesses_global += np.bincount(
            run_table[~sh], weights=occ[~sh], minlength=self.n_tables
        ).astype(np.int64)

        self._last_resolution = (run_table, res_shared, res_slot)
        if san is not None:
            self._san_after_stream(
                san, table_of, lanes, order, run_of_sorted, ord2,
                run_table, res_shared, res_slot, claimed,
            )

        return StreamRuns(
            table=run_table,
            key=run_key,
            value=value,
            occ=occ,
            resident_shared=res_shared,
            probes_shared=probes_sh,
            probes_global=probes_gl,
        )

    def _resolve(
        self,
        run_table: np.ndarray,
        run_key: np.ndarray,
        homes: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Where the sequential protocol stops each run: ``(bucket, probe)``.

        ``bucket`` is the flat address of the bucket holding the run's
        key once it is inserted or found — shared ``table * s + slot``,
        then global ``n_tables * s + table * g + slot`` — or -1 when the
        run finds no free bucket; ``probe`` is that bucket's position in
        the run's probe sequence.

        The runs of a table come in insertion order, so a run's index is
        its rank. The stops are a fixed point over rank: each sweep walks
        every run's probe path in parallel and stops it at the first
        bucket that is neither held by another key nor claimed, in the
        previous sweep, by a lower-rank run of the same table (the
        per-bucket minimum claiming rank). A run's stop depends only on
        lower ranks' claims, so rank k is final after sweep k + 1, and
        the first sweep that moves no stop has reproduced the sequential
        insertion order exactly. Python rounds: sweeps times probe depth.
        """
        n_runs = len(run_key)
        held = np.concatenate(
            [self.shared_keys.reshape(-1), self.global_keys.reshape(-1)]
        )
        base_sh = run_table * self.s
        base_gl = self.n_tables * self.s + run_table * self.g
        rank = np.arange(n_runs, dtype=np.int64)
        claimer = np.full(len(held), _INT64_MAX, dtype=np.int64)
        stop = np.full(n_runs, -1, dtype=np.int64)
        while True:
            new_stop = np.full(n_runs, -1, dtype=np.int64)
            depth = np.zeros(n_runs, dtype=np.int64)
            walking = rank
            p = np.zeros(n_runs, dtype=np.int64)
            while len(walking):
                is_sh, slot = self._probe_at(
                    (homes[0][walking], homes[1][walking]), p
                )
                addr = np.where(is_sh, base_sh[walking], base_gl[walking]) + slot
                occupant = held[addr]
                free = (
                    (occupant == _EMPTY) | (occupant == run_key[walking])
                ) & (claimer[addr] >= walking)
                new_stop[walking[free]] = addr[free]
                depth[walking[free]] = p[free]
                walking, p = walking[~free], p[~free] + 1
                walking, p = walking[p < self.max_probes], p[p < self.max_probes]
            if np.array_equal(new_stop, stop):
                return stop, depth
            stop = new_stop
            claims = stop >= 0
            claims[claims] = held[stop[claims]] == _EMPTY
            claimer.fill(_INT64_MAX)
            np.minimum.at(claimer, stop[claims], rank[claims])

    def _san_check_paths(
        self, san, homes: tuple[np.ndarray, np.ndarray], n_probed: np.ndarray
    ) -> None:
        """Bounds-check every bucket the runs probe: the first
        ``n_probed[r]`` probes of run ``r``, each once."""
        run_of = np.repeat(np.arange(len(n_probed), dtype=np.int64), n_probed)
        p = np.arange(len(run_of), dtype=np.int64) - np.repeat(
            np.cumsum(n_probed) - n_probed, n_probed
        )
        is_sh, slot = self._probe_at((homes[0][run_of], homes[1][run_of]), p)
        if bool(is_sh.any()):
            san.mem.check_bounds(
                (self._san_tag, "shared"), slot[is_sh], self.s, kernel="hash"
            )
        if not bool(is_sh.all()):
            san.mem.check_bounds(
                (self._san_tag, "global"), slot[~is_sh], self.g, kernel="hash"
            )

    # ------------------------------------------------------------------ #
    def _san_after_stream(
        self,
        san,
        table_of: np.ndarray,
        lanes: np.ndarray | None,
        order: np.ndarray,
        run_of_sorted: np.ndarray,
        ord2: np.ndarray,
        run_table: np.ndarray,
        res_shared: np.ndarray,
        res_slot: np.ndarray,
        claimed: np.ndarray,
    ) -> None:
        """Post-resolution sanitizer events for one accumulate_stream.

        Every stream occurrence replays its run's resolved bucket as one
        atomic racecheck event (claim + add are both atomics); claimed
        buckets are marked initialised; a table whose shared level filled
        completely while it still spilled to global is a capacity
        overflow.
        """
        n = len(table_of)
        n_runs = len(run_table)
        flat_addr = self._san_flat_addr(run_table, res_shared, res_slot)
        if n:
            # map each stream element to its run (post-ord2 numbering)
            new_of_old = np.empty(n_runs, dtype=np.int64)
            new_of_old[ord2] = np.arange(n_runs, dtype=np.int64)
            run_flat = np.empty(n, dtype=np.int64)
            run_flat[order] = new_of_old[run_of_sorted]
            lane_of = (
                np.arange(n, dtype=np.int64)
                if lanes is None
                else np.asarray(lanes, dtype=np.int64)
            )
            e_sh = res_shared[run_flat]
            for space, mask in (("shared", e_sh), ("global", ~e_sh)):
                if bool(mask.any()):
                    san.race.access(
                        (self._san_tag, space),
                        flat_addr[run_flat][mask],
                        lane_of[mask],
                        "atomic",
                        kernel="hash",
                    )
        for space, mask in (
            ("shared", claimed & res_shared),
            ("global", claimed & ~res_shared),
        ):
            if bool(mask.any()):
                san.mem.mark_init((self._san_tag, space), flat_addr[mask])
        if self.s > 0:
            overflow = np.flatnonzero(
                (self.maintained_shared >= self.s) & (self.maintained_global > 0)
            )
            for t in overflow[:8]:
                san.mem.check_capacity(
                    (self._san_tag, "shared"),
                    int(self.maintained_shared[t]),
                    self.s,
                    kernel="hash",
                )

    def san_read_entries(self, san) -> None:
        """Record the gain-phase entry reads for the sanitizer.

        Called by the kernel *after* its block barrier: one plain read
        event per resident entry (the reduction lane that evaluates it),
        plus the shadow-init check — mirroring what
        :meth:`SimHashTable.items` records on the scalar engine.
        """
        for space, keys_arr, buckets in (
            ("shared", self.shared_keys, self.s),
            ("global", self.global_keys, self.g),
        ):
            tv, ts = np.nonzero(keys_arr != _EMPTY)
            if not len(tv):
                continue
            addr = tv * buckets + ts
            san.mem.check_init((self._san_tag, space), addr, kernel="hash")
            # entry index within its table = the reading lane
            starts = np.flatnonzero(np.concatenate([[True], tv[1:] != tv[:-1]]))
            offsets = np.zeros(len(tv), dtype=np.int64)
            offsets[starts] = np.arange(len(tv), dtype=np.int64)[starts]
            lane = np.arange(len(tv), dtype=np.int64) - np.maximum.accumulate(
                offsets
            )
            san.race.access(
                (self._san_tag, space), addr, lane, "read", kernel="hash"
            )

    # ------------------------------------------------------------------ #
    def items_flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All entries as ``(table, key, value)``, shared slots first per
        table then global — the concatenation of every table's ``items()``."""
        sv, ss = np.nonzero(self.shared_keys != _EMPTY)
        gv, gs = np.nonzero(self.global_keys != _EMPTY)
        tb = np.concatenate([sv, gv])
        ky = np.concatenate(
            [self.shared_keys[sv, ss], self.global_keys[gv, gs]]
        )
        vl = np.concatenate(
            [self.shared_vals[sv, ss], self.global_vals[gv, gs]]
        )
        order = np.argsort(tb, kind="stable")
        return tb[order], ky[order], vl[order]

    def reset(self) -> None:
        """Clear contents and statistics of every table."""
        self.shared_keys.fill(_EMPTY)
        self.shared_vals.fill(0.0)
        self.global_keys.fill(_EMPTY)
        self.global_vals.fill(0.0)
        self.maintained_shared.fill(0)
        self.maintained_global.fill(0)
        self.accesses_shared.fill(0)
        self.accesses_global.fill(0)
        self._last_resolution = None
        self._san_reset_shadow(analysis.current())

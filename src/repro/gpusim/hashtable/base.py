"""Common machinery of the simulated per-block hashtables.

A table lives for the duration of one vertex's DecideAndMove: it maps each
neighbouring community id to the accumulated edge weight ``d_C(v)``.
Concrete subclasses define only the probe sequence — which bucket (in which
memory space) to try for a given key — while this base class executes the
find-or-insert protocol, charges the cost model per probe (including the
atomicCAS claim and atomicAdd accumulate, as in the paper's Algorithm 3),
and maintains the Figure 4 statistics.

The protocol processes one key at a time, a legal serialisation of the
block's concurrent execution; simultaneous-conflict *costs* are charged by
the kernel layer, which knows which accesses share a warp step.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np

from repro import analysis
from repro.errors import HashTableFullError
from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.device import Device

_EMPTY = -1
#: distinguishes concurrent tables' racecheck/memcheck regions — every
#: simulated block owns a private table, so slot 3 of two different
#: tables must never alias in the happens-before model
_table_serial = itertools.count()
# Knuth multiplicative constants for the two hash functions.
_MULT0 = 2654435761
_MULT1 = 2246822519


def hash0(key: int, size: int) -> int:
    return int((key * _MULT0) & 0xFFFFFFFF) % size


def hash1(key: int, size: int) -> int:
    return int((key * _MULT1) & 0xFFFFFFFF) % size


def hash0_vec(keys: np.ndarray, size: int) -> np.ndarray:
    """Vectorised :func:`hash0` (identical values for int64 community ids)."""
    prod = np.asarray(keys, dtype=np.uint64) * np.uint64(_MULT0)
    return ((prod & np.uint64(0xFFFFFFFF)) % np.uint64(size)).astype(np.int64)


def hash1_vec(keys: np.ndarray, size: int) -> np.ndarray:
    """Vectorised :func:`hash1` (identical values for int64 community ids)."""
    prod = np.asarray(keys, dtype=np.uint64) * np.uint64(_MULT1)
    return ((prod & np.uint64(0xFFFFFFFF)) % np.uint64(size)).astype(np.int64)


class SimHashTable(ABC):
    """Community-id -> accumulated-weight map split over shared/global."""

    kind: str = "base"

    def __init__(self, device: Device, shared_buckets: int, global_buckets: int):
        if shared_buckets < 0 or global_buckets < 0:
            raise ValueError("bucket counts must be non-negative")
        max_shared = device.config.max_shared_buckets()
        if shared_buckets > max_shared:
            raise HashTableFullError(
                f"{shared_buckets} shared buckets exceed the device budget "
                f"of {max_shared}"
            )
        self.device = device
        self.s = shared_buckets
        self.g = global_buckets
        self.shared_keys = np.full(self.s, _EMPTY, dtype=np.int64)
        self.shared_vals = np.zeros(self.s, dtype=np.float64)
        self.global_keys = np.full(self.g, _EMPTY, dtype=np.int64)
        self.global_vals = np.zeros(self.g, dtype=np.float64)
        # Figure 4 statistics
        self.maintained_shared = 0
        self.maintained_global = 0
        self.accesses_shared = 0
        self.accesses_global = 0
        #: the lane (thread-in-block) performing the next access; the
        #: kernel layer sets this per key so sanitizer findings carry the
        #: offending lane id
        self.san_lane = 0
        self._san_tag = f"table{next(_table_serial)}"
        self._san_reset_shadow(analysis.current())

    def _san_reset_shadow(self, san) -> None:
        if san is not None:
            san.mem.reset_shadow((self._san_tag, "shared"), self.s)
            san.mem.reset_shadow((self._san_tag, "global"), self.g)

    # ------------------------------------------------------------------ #
    @abstractmethod
    def probe_sequence(self, key: int) -> Iterator[tuple[MemoryKind, int]]:
        """Yield ``(space, slot)`` candidates for ``key``, in probe order."""

    def _arrays(self, space: MemoryKind):
        if space is MemoryKind.SHARED:
            return self.shared_keys, self.shared_vals
        return self.global_keys, self.global_vals

    def _charge_probe(self, space: MemoryKind) -> None:
        self.device.profiler.charge(
            "hashtable", self.device.config.cost.access(space)
        )
        self.device.profiler.count(f"{space.value}_probes")

    def _charge_atomic(self, space: MemoryKind) -> None:
        self.device.profiler.charge(
            "hashtable", self.device.config.cost.atomic(space)
        )

    # ------------------------------------------------------------------ #
    def accumulate(self, key: int, weight: float) -> float:
        """Find-or-insert ``key`` and add ``weight``; return the running sum.

        Mirrors Algorithm 3 lines 6-10: probe (atomicCAS to claim an empty
        bucket), then atomicAdd the weight.

        Under an active sanitizer every probe is an atomic racecheck event
        (the probe *is* the atomicCAS on hardware) tagged with the lane
        the kernel stored in ``san_lane``; out-of-bounds probe candidates
        are reported and skipped (cuda-memcheck style) so execution
        continues to collect further findings.
        """
        key = int(key)
        san = analysis.current()
        for space, slot in self.probe_sequence(key):
            keys, vals = self._arrays(space)
            if san is not None:
                region = (self._san_tag, space.value)
                if not san.mem.check_bounds(
                    region, slot, len(keys), kernel="hash", lanes=self.san_lane
                ):
                    continue
                san.race.access(
                    region, slot, self.san_lane, "atomic", kernel="hash"
                )
            self._charge_probe(space)
            if keys[slot] == _EMPTY:
                keys[slot] = key  # atomicCAS claim
                self._charge_atomic(space)
                if space is MemoryKind.SHARED:
                    self.maintained_shared += 1
                else:
                    self.maintained_global += 1
                if san is not None:
                    san.mem.mark_init((self._san_tag, space.value), slot)
                    if (
                        space is MemoryKind.GLOBAL
                        and self.s > 0
                        and self.maintained_shared >= self.s
                    ):
                        san.mem.check_capacity(
                            (self._san_tag, "shared"),
                            self.maintained_shared,
                            self.s,
                            kernel="hash",
                        )
            if keys[slot] == key:
                vals[slot] += weight  # atomicAdd
                self._charge_atomic(space)
                if space is MemoryKind.SHARED:
                    self.accesses_shared += 1
                else:
                    self.accesses_global += 1
                return float(vals[slot])
        raise HashTableFullError(
            f"no free bucket for key {key} (s={self.s}, g={self.g})"
        )

    def lookup(self, key: int) -> float | None:
        """Current accumulated weight of ``key`` (None if absent)."""
        key = int(key)
        for space, slot in self.probe_sequence(key):
            keys, vals = self._arrays(space)
            self._charge_probe(space)
            if keys[slot] == _EMPTY:
                return None
            if keys[slot] == key:
                if space is MemoryKind.SHARED:
                    self.accesses_shared += 1
                else:
                    self.accesses_global += 1
                return float(vals[slot])
        return None

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (community, weight) entries, shared first.

        This is the gain-evaluation read phase: under an active sanitizer
        each occupied slot records a *plain* read event (one reading lane
        per entry, as in the reduction kernel) and is checked against the
        shadow-init bitmap — a slot populated without going through the
        claim protocol reads as uninitialised.
        """
        occ_s = self.shared_keys != _EMPTY
        occ_g = self.global_keys != _EMPTY
        san = analysis.current()
        if san is not None:
            slots_s = np.flatnonzero(occ_s)
            slots_g = np.flatnonzero(occ_g)
            san.mem.check_init((self._san_tag, "shared"), slots_s, kernel="hash")
            san.mem.check_init((self._san_tag, "global"), slots_g, kernel="hash")
            if len(slots_s):
                san.race.access(
                    (self._san_tag, "shared"),
                    slots_s,
                    np.arange(len(slots_s)),
                    "read",
                    kernel="hash",
                )
            if len(slots_g):
                san.race.access(
                    (self._san_tag, "global"),
                    slots_g,
                    len(slots_s) + np.arange(len(slots_g)),
                    "read",
                    kernel="hash",
                )
        ks = self.shared_keys[occ_s]
        vs = self.shared_vals[occ_s]
        kg = self.global_keys[occ_g]
        vg = self.global_vals[occ_g]
        return np.concatenate([ks, kg]), np.concatenate([vs, vg])

    @property
    def num_entries(self) -> int:
        return self.maintained_shared + self.maintained_global

    def maintenance_rate(self) -> float:
        """Fraction of communities resident in shared memory (Figure 4)."""
        total = self.num_entries
        return self.maintained_shared / total if total else 0.0

    def access_rate(self) -> float:
        """Fraction of value accesses served from shared memory (Figure 4)."""
        total = self.accesses_shared + self.accesses_global
        return self.accesses_shared / total if total else 0.0

    def reset(self) -> None:
        """Clear contents and statistics for the next vertex."""
        self.shared_keys.fill(_EMPTY)
        self.shared_vals.fill(0.0)
        self.global_keys.fill(_EMPTY)
        self.global_vals.fill(0.0)
        self.maintained_shared = self.maintained_global = 0
        self.accesses_shared = self.accesses_global = 0
        self._san_reset_shadow(analysis.current())

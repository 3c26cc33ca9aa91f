"""Warp-level primitives (paper Algorithm 2's building blocks).

A :class:`WarpContext` models one warp: up to 32 lanes, each holding
register values, exchanging them with the CUDA warp primitives the
shuffle-based kernel relies on:

* ``match_any_sync(values)``    — per-lane bitmask of lanes holding the
  same value (CUDA ``__match_any_sync``);
* ``reduce_add_sync(mask, v)``  — per-lane sum of ``v`` over the lane's
  mask group (``__reduce_add_sync`` over a match mask);
* ``reduce_max_sync(values)``   — warp-wide maximum broadcast to all lanes;
* ``shfl_idx_sync(values, src)``— read another lane's register.

All primitives operate only on *active* lanes (the ``active`` mask models
CUDA's member mask) and charge the cost model per invocation — these run on
the register file, so they cost a handful of cycles regardless of how many
lanes participate.

:class:`WarpBatch` is the structure-of-arrays counterpart: the same
primitives evaluated over an ``(n_warps, 32)`` lane matrix at once, one
matrix row per warp, in O(32) host work per warp. Each batched call
charges the cost model the *identical* per-invocation cycles — one
warp-primitive charge per matrix row — through a single bulk
``profiler.charge``/``count`` pair, so a batched execution is bit-exact
with ``n_warps`` scalar ones in both results and accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import analysis
from repro.errors import DeviceError
from repro.gpusim.device import Device


def _san_primitive(primitive: str, active: np.ndarray, masks=None) -> None:
    """Synccheck hook: one call per simulated warp-primitive invocation.

    Costs one module-global read when no sanitizer session is active.
    Flags empty active masks and (given per-lane ``masks`` words) mask
    bits naming inactive lanes — both are hangs on real hardware.
    """
    san = analysis.current()
    if san is not None:
        san.sync.warp_primitive(primitive, active, masks=masks)


def _validated_mask(active: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Validate an active-lane mask once: boolean dtype, exact shape."""
    arr = np.asarray(active)
    if arr.dtype != np.bool_:
        raise DeviceError(
            f"active mask must be boolean, got dtype {arr.dtype}"
        )
    if arr.shape != shape:
        raise DeviceError(
            f"active mask must have shape {shape}, got {arr.shape}"
        )
    return arr


def _row_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal keys within each row of an ``(n_warps, width)`` matrix.

    Returns the per-row sort ``order`` and, over the row-major
    flattening of the sorted matrix, ``start`` — True where a run of
    equal keys begins (every row begins one, so runs never span rows).
    """
    order = np.argsort(keys, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    start = np.ones(keys.shape, dtype=bool)
    start[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    return order, start.ravel()


def _per_lane(
    run_values: np.ndarray, order: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """One value per run of :func:`_row_runs`, handed to each of its lanes."""
    out = np.empty(order.shape, dtype=run_values.dtype)
    np.put_along_axis(
        out, order, run_values[np.cumsum(start) - 1].reshape(order.shape), axis=1
    )
    return out


@dataclass
class WarpContext:
    """One warp's execution context."""

    device: Device
    #: boolean mask of active lanes (length = warp size); ``None`` means
    #: all lanes active
    active: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        w = self.device.config.warp_size
        if self.active is None:
            self.active = np.ones(w, dtype=bool)
        else:
            self.active = _validated_mask(self.active, (w,))

    @property
    def width(self) -> int:
        return self.device.config.warp_size

    def _charge(self, n: int = 1) -> None:
        self.device.profiler.charge(
            "warp_primitives", self.device.config.cost.warp_primitive(n)
        )
        self.device.profiler.count("warp_primitive_ops", n)

    # ------------------------------------------------------------------ #
    def match_any_sync(self, values: np.ndarray) -> np.ndarray:
        """``mask[i]`` has bit ``j`` set iff lane ``j`` is active and holds
        the same value as lane ``i`` (inactive lanes get mask 0)."""
        values = np.asarray(values)
        if len(values) != self.width:
            raise DeviceError("values must cover every lane")
        _san_primitive("match_any_sync", self.active)
        self._charge()
        masks = np.zeros(self.width, dtype=np.int64)
        act = np.flatnonzero(self.active)
        if len(act) == 0:
            return masks
        vals = values[act]
        same = vals[:, None] == vals[None, :]
        bits = (1 << act.astype(np.int64))[None, :]
        masks[act] = (same * bits).sum(axis=1)
        return masks

    def reduce_add_sync(self, masks: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-lane sum of ``values`` over the lanes in that lane's mask."""
        values = np.asarray(values, dtype=np.float64)
        masks = np.asarray(masks, dtype=np.int64)
        _san_primitive("reduce_add_sync", self.active, masks=masks)
        self._charge()
        out = np.zeros(self.width, dtype=np.float64)
        lanes = np.arange(self.width, dtype=np.int64)
        member = (masks[:, None] >> lanes[None, :]) & 1
        out[self.active] = (member[self.active] * values[None, :]).sum(axis=1)
        return out

    def reduce_max_sync(self, values: np.ndarray) -> float:
        """Warp-wide max over active lanes, broadcast to the caller."""
        values = np.asarray(values, dtype=np.float64)
        _san_primitive("reduce_max_sync", self.active)
        self._charge()
        if not np.any(self.active):
            return -np.inf
        return float(values[self.active].max())

    def shfl_idx_sync(self, values: np.ndarray, src_lane: int) -> float:
        """Read lane ``src_lane``'s register (``__shfl_sync``)."""
        if not (0 <= src_lane < self.width):
            raise DeviceError(f"source lane {src_lane} out of range")
        _san_primitive("shfl_idx_sync", self.active)
        self._charge()
        return float(np.asarray(values)[src_lane])

    def ballot_sync(self, predicate: np.ndarray) -> int:
        """Bitmask of active lanes whose predicate holds."""
        predicate = np.asarray(predicate, dtype=bool)
        _san_primitive("ballot_sync", self.active)
        self._charge()
        bits = np.flatnonzero(predicate & self.active).astype(np.int64)
        return int((1 << bits).sum())


@dataclass
class WarpBatch:
    """A batch of independent warps in structure-of-arrays layout.

    Every method evaluates one warp primitive on all ``n_warps`` rows of
    the lane matrix simultaneously and charges exactly ``n_warps``
    per-invocation costs in one bulk call. Host work is O(32) per warp:
    :meth:`match_any_sync` and :meth:`reduce_add_sync` sort each row
    once, find the runs of equal values (or masks), compute one result
    per run and hand it back to the run's lanes — no ``(n_warps, 32,
    32)`` lane-pair tensor. Results and accounting are bit-exact with
    running :class:`WarpContext` row by row: integer mask arithmetic is
    order-independent, and each float reduction sums the same 32
    contiguous lane registers with the same NumPy reduction, so even the
    floating-point bit patterns agree (pinned by tests).
    """

    device: Device
    #: boolean mask of active lanes, shape ``(n_warps, warp_size)``
    active: np.ndarray

    def __post_init__(self) -> None:
        w = self.device.config.warp_size
        arr = np.asarray(self.active)
        if arr.ndim != 2 or arr.shape[1] != w:
            raise DeviceError(
                f"lane matrix must be (n_warps, {w}), got {arr.shape}"
            )
        self.active = _validated_mask(arr, arr.shape)

    @property
    def n_warps(self) -> int:
        return self.active.shape[0]

    @property
    def width(self) -> int:
        return self.device.config.warp_size

    def _charge(self, invocations: int | None = None) -> None:
        n = self.n_warps if invocations is None else invocations
        self.device.profiler.charge(
            "warp_primitives", self.device.config.cost.warp_primitive(n)
        )
        self.device.profiler.count("warp_primitive_ops", n)

    def _check(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != self.active.shape:
            raise DeviceError(
                f"values must be {self.active.shape}, got {values.shape}"
            )
        return values

    # ------------------------------------------------------------------ #
    def match_any_sync(self, values: np.ndarray) -> np.ndarray:
        """Per-lane same-value bitmasks, one ``__match_any_sync`` per row.

        The lane bits of each run of equal values are OR-ed once and
        handed back to every lane of the run. Inactive lanes contribute
        no bit and get mask 0, so the value they hold (the kernel pads
        with ``-1``) needs no sentinel.
        """
        values = self._check(values)
        _san_primitive("match_any_sync", self.active)
        self._charge()
        order, start = _row_runs(values)
        bits = np.where(
            self.active, np.int64(1) << np.arange(self.width, dtype=np.int64), 0
        )
        run_bits = np.bitwise_or.reduceat(
            np.take_along_axis(bits, order, axis=1).ravel(),
            np.flatnonzero(start),
        )
        return np.where(self.active, _per_lane(run_bits, order, start), 0)

    def reduce_add_sync(self, masks: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per-lane sum of ``values`` over each lane's mask group, per row.

        Lanes of one row that carry the same mask (read, like
        :meth:`WarpContext.reduce_add_sync`, through its low ``width``
        bits) share one sum, so each distinct ``(row, mask)`` pair is
        reduced once. That reduction runs over the pair's 32 contiguous
        lane registers — the same reduction the scalar primitive
        performs — keeping the float results bit-identical.
        """
        values = np.asarray(self._check(values), dtype=np.float64)
        masks = np.asarray(self._check(masks), dtype=np.int64)
        _san_primitive("reduce_add_sync", self.active, masks=masks)
        self._charge()
        w = self.width
        low = masks & ((np.int64(1) << w) - 1)
        order, start = _row_runs(low)
        pair_mask = np.take_along_axis(low, order, axis=1).ravel()[start]
        pair_row = np.flatnonzero(start) // w
        # lane-membership bits of each distinct mask, lane 0 first
        member = np.unpackbits(
            pair_mask.astype("<u8").view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        )[:, :w]
        sums = (member * values[pair_row]).sum(axis=1)
        return np.where(self.active, _per_lane(sums, order, start), 0.0)

    def reduce_max_sync(self, values: np.ndarray) -> np.ndarray:
        """Per-row max over active lanes (``-inf`` for all-inactive rows)."""
        values = np.asarray(self._check(values), dtype=np.float64)
        _san_primitive("reduce_max_sync", self.active)
        self._charge()
        masked = np.where(self.active, values, -np.inf)
        return masked.max(axis=1)

    def shfl_idx_sync(self, values: np.ndarray, src_lanes: np.ndarray) -> np.ndarray:
        """Read ``values[row, src_lanes[row]]`` for every row."""
        values = self._check(values)
        src_lanes = np.asarray(src_lanes, dtype=np.int64)
        if src_lanes.shape != (self.n_warps,):
            raise DeviceError("src_lanes must give one source lane per warp")
        if np.any((src_lanes < 0) | (src_lanes >= self.width)):
            raise DeviceError("source lane out of range")
        _san_primitive("shfl_idx_sync", self.active)
        self._charge()
        return np.asarray(
            values[np.arange(self.n_warps), src_lanes], dtype=np.float64
        )

    def ballot_sync(self, predicate: np.ndarray) -> np.ndarray:
        """Per-row bitmask of active lanes whose predicate holds."""
        predicate = np.asarray(self._check(predicate), dtype=bool)
        _san_primitive("ballot_sync", self.active)
        self._charge()
        bits = (np.int64(1) << np.arange(self.width, dtype=np.int64))[None, :]
        return ((predicate & self.active) * bits).sum(axis=1)

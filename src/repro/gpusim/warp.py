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

This is the scalar engine's warp. The batched shuffle kernel
(:mod:`repro.core.kernels.shuffle`) evaluates the same primitives over
a whole launch's ``(vertex, community)`` runs instead of lane by lane,
charging the identical per-invocation cycles and calling
:func:`_san_primitive` at each primitive.
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

"""Zero-allocation buffer arena for the BSP engine hot loop.

The steady-state phase-1 iteration re-creates the same handful of
iteration-shaped arrays every sweep — gather buffers, per-community
accumulators, DecideResult storage. On laptop-scale graphs
the allocator churn is measurable; on the compiled hot path
(:mod:`repro.core.kernels.jit`) it would dominate, because the kernels
themselves are down to nanoseconds per edge.

:class:`BufferArena` is a keyed scratch allocator that preallocates each
buffer once (growing geometrically on the rare size increase), hands out
**views**, and counts its own behaviour so the win is provable per run:

* ``allocs``       — backing-buffer creations/growths. The engine-loop
  invariant is that this is *flat after iteration 2*: the first sweep
  sizes every buffer (active sets and mover sets only shrink
  afterwards), so the steady state performs zero heap allocations for
  every arena-backed array.
* ``bytes_reused`` — bytes served from existing backing buffers.
* ``hwm``          — high-water mark of total backing bytes.

These counters bridge into the observability layer as ``arena/allocs``,
``arena/bytes_reused`` and ``arena/hwm`` (see
:meth:`repro.obs.metrics.MetricsRegistry.bridge_arena`), and the engine
trace records the running ``allocs`` per iteration so the flatness
invariant is visible in any exported history.

Aliasing contract: views handed out under *different keys* never share
memory (each key owns a distinct backing buffer — a test invariant).
Re-requesting the *same* key returns the same memory; that is the point.
A view is therefore valid until the same key is requested again.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

Key = Hashable


class BufferArena:
    """Per-level scratch allocator handing out views of pooled buffers."""

    def __init__(self, name: str = "arena"):
        self.name = name
        self._buffers: Dict[Key, np.ndarray] = {}
        #: backing-buffer creations or growths (the "allocation" events)
        self.allocs = 0
        #: requests served entirely from an existing backing buffer
        self.reuses = 0
        #: bytes of those served-from-pool requests
        self.bytes_reused = 0
        #: total bytes currently backing the pool
        self.bytes_allocated = 0
        #: high-water mark of ``bytes_allocated``
        self.hwm = 0

    # ------------------------------------------------------------------ #
    def request(
        self, key: Key, size: int, dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        """A 1-D view of length ``size`` backed by the pooled buffer of
        ``key``. Contents are unspecified (may hold stale data); use
        :meth:`zeros` when a cleared buffer is needed."""
        dtype = np.dtype(dtype)
        buf = self._buffers.get(key)
        if buf is not None and buf.dtype != dtype:
            raise TypeError(
                f"arena key {key!r} is {buf.dtype}, requested {dtype}; "
                f"use one dtype per key"
            )
        if buf is None or len(buf) < size:
            # Geometric growth keeps re-allocation O(log) in the worst
            # case; in the engine loop sizes only shrink after the first
            # sweep, so this branch goes quiet after iteration 2.
            cap = max(int(size), 1)
            if buf is not None:
                cap = max(cap, 2 * len(buf))
            new = np.empty(cap, dtype=dtype)
            if buf is not None:
                self.bytes_allocated -= buf.nbytes
            self._buffers[key] = new
            self.allocs += 1
            self.bytes_allocated += new.nbytes
            if self.bytes_allocated > self.hwm:
                self.hwm = self.bytes_allocated
            buf = new
        else:
            self.reuses += 1
            self.bytes_reused += size * dtype.itemsize
        return buf[:size]

    def zeros(
        self, key: Key, size: int, dtype: np.dtype | type = np.float64
    ) -> np.ndarray:
        """Like :meth:`request`, but the returned view is zero-filled."""
        view = self.request(key, size, dtype)
        view[:] = 0
        return view

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Counter snapshot (the payload of the obs bridge)."""
        return {
            "allocs": self.allocs,
            "reuses": self.reuses,
            "bytes_reused": self.bytes_reused,
            "bytes_allocated": self.bytes_allocated,
            "hwm": self.hwm,
            "keys": len(self._buffers),
        }

    def keys(self) -> Tuple[Key, ...]:
        return tuple(self._buffers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferArena({self.name!r}, keys={len(self._buffers)}, "
            f"allocs={self.allocs}, hwm={self.hwm})"
        )

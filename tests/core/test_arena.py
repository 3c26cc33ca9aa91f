"""Invariants of the engine buffer arena (:mod:`repro.core.arena`).

The two contracts the perf work rests on:

* **aliasing** — views handed out under different keys never share
  memory, and re-requesting a key returns the same backing memory;
* **flatness** — in the engine loop, the arena allocation count is flat
  after iteration 2 (the zero-steady-state-allocation invariant), and
  the obs bridge reports exactly the arena's own counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.arena import BufferArena
from repro.core.kernels.jit import JitKernel, get_runtime
from repro.core.phase1 import LocalExecutor, Phase1Config, run_phase1
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def graph():
    return lfr_graph(LFRParams(n=300, seed=1))[0]


class TestBufferArena:
    def test_views_have_requested_shape(self):
        a = BufferArena()
        v = a.request("x", 7, np.float64)
        assert v.shape == (7,) and v.dtype == np.float64

    def test_same_key_returns_same_memory(self):
        a = BufferArena()
        v1 = a.request("x", 8)
        v2 = a.request("x", 5)
        assert np.shares_memory(v1, v2)
        assert a.allocs == 1 and a.reuses == 1

    def test_different_keys_never_alias(self):
        a = BufferArena()
        views = [a.request(("k", i), 16) for i in range(6)]
        for i in range(len(views)):
            for j in range(i + 1, len(views)):
                assert not np.shares_memory(views[i], views[j])

    def test_growth_is_geometric_and_counted(self):
        a = BufferArena()
        a.request("x", 10)
        assert a.allocs == 1
        a.request("x", 11)  # grow: at least doubles
        assert a.allocs == 2
        a.request("x", 20)  # fits the doubled buffer: no new alloc
        assert a.allocs == 2 and a.reuses == 1

    def test_dtype_is_pinned_per_key(self):
        a = BufferArena()
        a.request("x", 4, np.float64)
        with pytest.raises(TypeError, match="one dtype per key"):
            a.request("x", 4, np.int64)

    def test_zeros_clears_reused_view(self):
        a = BufferArena()
        v = a.request("x", 4)
        v[:] = 7.0
        z = a.zeros("x", 4)
        assert np.all(z == 0.0)

    def test_counters_and_stats(self):
        a = BufferArena()
        a.request("x", 8, np.float64)
        a.request("x", 8, np.float64)
        s = a.stats()
        assert s["allocs"] == 1
        assert s["reuses"] == 1
        assert s["bytes_reused"] == 8 * 8
        assert s["bytes_allocated"] == s["hwm"] == 8 * 8
        assert s["keys"] == 1 and a.keys() == ("x",)

    def test_hwm_tracks_peak_not_current(self):
        a = BufferArena()
        a.request("x", 100, np.uint8)
        peak = a.hwm
        a.request("x", 200, np.uint8)  # grow: old buffer released
        assert a.hwm >= peak and a.hwm == a.bytes_allocated


class TestEngineArenaInvariants:
    @pytest.mark.parametrize("kernel", ["vectorized", "auto"])
    def test_allocs_flat_after_iteration_2(self, graph, kernel):
        """The acceptance invariant: no steady-state heap allocations for
        arena-backed buffers, on both the NumPy and (when a compile
        provider exists) the jit-dispatched paths."""
        r = run_phase1(graph, Phase1Config(pruning="mg", kernel=kernel))
        assert len(r.history) > 3
        allocs = [h.arena_allocs for h in r.history]
        assert all(a is not None for a in allocs)
        assert allocs[2:] == [allocs[2]] * len(allocs[2:])

    def test_executor_arena_buffers_never_alias(self, graph):
        # without a compiled provider, the interpreted jit kernel still puts
        # its scratch and outputs into the executor's arena
        kernel = "auto" if get_runtime() is not None else JitKernel(provider="python")
        cfg = Phase1Config(pruning="mg", kernel=kernel)
        ex = LocalExecutor(graph, cfg)
        from repro.core.engine import run_engine

        run_engine(ex, cfg.engine_config())
        bufs = list(ex.arena._buffers.values())
        assert len(bufs) >= 2
        for i in range(len(bufs)):
            for j in range(i + 1, len(bufs)):
                assert not np.shares_memory(bufs[i], bufs[j])


class TestObsBridge:
    def test_bridge_copies_counters_verbatim(self):
        a = BufferArena()
        a.request("x", 16)
        a.request("x", 16)
        m = MetricsRegistry()
        m.bridge_arena(a)
        snap = m.snapshot()
        s = a.stats()
        assert snap["counters"]["arena/allocs"] == s["allocs"]
        assert snap["counters"]["arena/reuses"] == s["reuses"]
        assert snap["counters"]["arena/bytes_reused"] == s["bytes_reused"]
        assert snap["gauges"]["arena/hwm"] == s["hwm"]

    def test_bridge_accumulates_counters_keeps_max_hwm(self):
        small, big = BufferArena(), BufferArena()
        small.request("x", 4)
        big.request("x", 4000)
        m = MetricsRegistry()
        m.bridge_arena(big)
        m.bridge_arena(small)
        snap = m.snapshot()
        assert snap["counters"]["arena/allocs"] == 2
        assert snap["gauges"]["arena/hwm"] == big.hwm

    def test_engine_run_bridges_arena_into_session(self, graph):
        # the arena's consumers are the jit kernel and its compiled
        # aggregates; without a compile provider the interpreted jit
        # kernel still fills the executor's arena
        kernel = "auto" if get_runtime() is not None else JitKernel(provider="python")
        with obs.session() as sess:
            run_phase1(graph, Phase1Config(pruning="mg", kernel=kernel))
        counters = sess.summary()["counters"]
        assert counters["arena/allocs"] > 0
        assert counters["arena/bytes_reused"] > 0
        assert sess.summary()["gauges"]["arena/hwm"] > 0

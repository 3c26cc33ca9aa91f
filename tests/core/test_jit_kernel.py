"""The compiled (``jit``) kernel backend: bit-exactness and fallback.

The bit-exactness matrix (3 graphs x 3 gammas x 2 conventions, driven
through several BSP sweeps) runs the compiled ``cc`` runtime against the
NumPy reference paths; on a host with no working C compiler those legs
skip, as ``auto`` resolves to ``vectorized`` there. The probe tests wrap
the real runtime in deliberately wrong entries and check that the
warm-up probe rejects each one. The fallback tests disable the backend
to prove the friendly degradation paths: auto silently resolves to the
NumPy kernel, and an explicit ``kernel="jit"`` raises
:class:`~repro.errors.KernelUnavailableError` (no traceback at the CLI).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import VectorizedKernel, make_kernel
from repro.core.kernels import jit as jitmod
from repro.core.kernels.jit import (
    JitKernel,
    get_runtime,
    require_runtime,
)
from repro.core.kernels.vectorized import decide_moves
from repro.core.phase1 import LocalExecutor, Phase1Config, run_phase1
from repro.core.state import CommunityState
from repro.core.weights import delta_update, make_weight_updater
from repro.errors import KernelUnavailableError
from repro.graph.builder import from_edge_array
from repro.graph.generators import ring_of_cliques
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.rmat import rmat_graph

GAMMAS = [0.5, 1.0, 2.0]

_compiled = get_runtime()
needs_cc = pytest.mark.skipif(_compiled is None, reason="no compile provider here")


@pytest.fixture(scope="module", params=["ring", "lfr", "rmat"])
def graph(request):
    if request.param == "ring":
        return ring_of_cliques(8, 6)
    if request.param == "lfr":
        return lfr_graph(LFRParams(n=300, seed=1))[0]
    return rmat_graph(8, edge_factor=8.0, seed=3)


@pytest.fixture(params=[pytest.param("cc", marks=needs_cc)])
def runtime():
    return _compiled


def _assert_results_equal(res, ref):
    np.testing.assert_array_equal(res.active_idx, ref.active_idx)
    np.testing.assert_array_equal(res.best_comm, ref.best_comm)
    np.testing.assert_array_equal(res.best_gain, ref.best_gain)
    np.testing.assert_array_equal(res.stay_gain, ref.stay_gain)
    np.testing.assert_array_equal(res.move, ref.move)


class TestJitBitExactness:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("remove_self", [True, False])
    def test_decide_matrix_through_cache_lifecycle(
        self, graph, runtime, gamma, remove_self
    ):
        """The full cross-backend matrix, jit vs the reference kernel,
        driven through 4 BSP sweeps with shrinking active sets."""
        k = JitKernel(runtime=runtime)
        state = CommunityState.singletons(graph, resolution=gamma)
        rng = np.random.default_rng(7)
        for it in range(4):
            if it == 0:
                idx = np.arange(graph.n, dtype=np.int64)
            else:
                idx = np.flatnonzero(rng.random(graph.n) < 0.4)
            ref = decide_moves(state, idx, remove_self=remove_self)
            _assert_results_equal(k(state, idx, remove_self), ref)
            next_comm = ref.next_comm(state.comm)
            moved = next_comm != state.comm
            prev = state.comm
            state.comm = next_comm
            delta_update(state, prev, moved)
            state.refresh_community_aggregates()

    def test_empty_active_set(self, graph, runtime):
        state = CommunityState.singletons(graph)
        idx = np.empty(0, dtype=np.int64)
        k = JitKernel(runtime=runtime)
        _assert_results_equal(k(state, idx, True), decide_moves(state, idx))

    def test_delta_update_bit_identical(self, graph, runtime):
        """The fused compiled delta pass vs the two-step NumPy scheme:
        identical d_comm, sweep after sweep."""
        state_np = CommunityState.singletons(graph)
        state_jit = CommunityState.singletons(graph)
        updater = make_weight_updater("delta", runtime=runtime)
        for _ in range(4):
            res = decide_moves(state_np, np.arange(graph.n, dtype=np.int64))
            next_comm = res.next_comm(state_np.comm)
            moved = next_comm != state_np.comm
            prev = state_np.comm
            state_np.comm = next_comm.copy()
            state_jit.comm = next_comm.copy()
            delta_update(state_np, prev, moved)
            updater(state_jit, prev, moved)
            np.testing.assert_array_equal(state_jit.d_comm, state_np.d_comm)
            state_np.refresh_community_aggregates()
            state_jit.refresh_community_aggregates()
            if not moved.any():
                break

    def test_aggregates_bit_identical_to_bincount(self, graph, runtime):
        state = CommunityState.singletons(graph)
        rng = np.random.default_rng(3)
        state.comm = rng.integers(0, graph.n, size=graph.n, dtype=np.int64)
        comm_strength = np.empty(graph.n, dtype=np.float64)
        comm_size = np.empty(graph.n, dtype=np.int64)
        runtime.aggregates(
            state.comm, graph.strength, comm_strength, comm_size
        )
        np.testing.assert_array_equal(
            comm_strength,
            np.bincount(state.comm, weights=graph.strength, minlength=graph.n),
        )
        np.testing.assert_array_equal(
            comm_size, np.bincount(state.comm, minlength=graph.n)
        )

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_run_phase1_history_matches_reference(self, graph, gamma):
        """End-to-end: kernel="jit" (auto-selected provider) through the
        engine, bit-identical history vs the vectorized reference."""
        if _compiled is None:
            pytest.skip("no compile provider on this machine")
        cfg = dict(pruning="mg", resolution=gamma)
        ref = run_phase1(graph, Phase1Config(kernel="vectorized", **cfg))
        r = run_phase1(graph, Phase1Config(kernel="jit", **cfg))
        np.testing.assert_array_equal(r.communities, ref.communities)
        assert r.modularity == ref.modularity
        assert len(r.history) == len(ref.history)
        for ha, hb in zip(r.history, ref.history):
            assert ha.num_moved == hb.num_moved
            assert ha.modularity == hb.modularity
            assert ha.kernel_backend == "jit"


class TestKernelBuffers:
    """The jit kernel owns its scratch and DecideResult arrays: sized on a
    graph's first call, reused from the second call on, never aliased."""

    @staticmethod
    def _buffers(k):
        return [k._acc_w, k._acc_stamp, k._acc_comms,
                k._best_comm, k._best_gain, k._stay_gain, k._move]

    def test_buffers_keep_their_memory_and_never_alias(self, runtime):
        g = ring_of_cliques(8, 6)
        state = CommunityState.singletons(g)
        all_idx = np.arange(g.n, dtype=np.int64)
        k = JitKernel(runtime=runtime)
        first = k(state, all_idx, True)
        ptrs = [b.ctypes.data for b in self._buffers(k)]
        out_ptrs = [first.best_comm.ctypes.data, first.best_gain.ctypes.data,
                    first.stay_gain.ctypes.data, first.move.ctypes.data]
        for idx in (all_idx, all_idx[::3], all_idx[5:9]):
            res = k(state, idx, True)
            _assert_results_equal(res, decide_moves(state, idx))
            assert [b.ctypes.data for b in self._buffers(k)] == ptrs
            assert [res.best_comm.ctypes.data, res.best_gain.ctypes.data,
                    res.stay_gain.ctypes.data, res.move.ctypes.data] == out_ptrs
        bufs = self._buffers(k)
        for i in range(len(bufs)):
            for j in range(i + 1, len(bufs)):
                assert not np.shares_memory(bufs[i], bufs[j])

    def test_new_graph_with_larger_max_degree_resizes_scratch(self, runtime):
        """A second graph of the same ``n`` whose maximum degree is larger
        gets a per-community list sized for it."""
        ring = ring_of_cliques(8, 6)
        hub = np.zeros(ring.n - 1, dtype=np.int64)
        star = from_edge_array(ring.n, hub, np.arange(1, ring.n))
        assert star.degrees.max() > ring.degrees.max()
        k = JitKernel(runtime=runtime)
        for g in (ring, star):
            state = CommunityState.singletons(g)
            idx = np.arange(g.n, dtype=np.int64)
            _assert_results_equal(k(state, idx, True), decide_moves(state, idx))
            assert len(k._acc_comms) >= k._slices * g.degrees.max()

    @needs_cc
    def test_executor_refreshes_aggregates_in_place(self, graph):
        """With a compiled runtime the aggregate refresh writes into the
        state's own arrays, and the run matches the NumPy one."""
        cfg = Phase1Config(pruning="mg", kernel=JitKernel(runtime=_compiled))
        ex = LocalExecutor(graph, cfg)
        comm_strength, comm_size = ex.state.comm_strength, ex.state.comm_size
        r = ex.run()
        assert len(r.history) > 1
        assert ex.state.comm_strength is comm_strength
        assert ex.state.comm_size is comm_size
        want = run_phase1(graph, Phase1Config(pruning="mg", kernel="vectorized"))
        np.testing.assert_array_equal(r.communities, want.communities)
        assert r.modularity == want.modularity


def _wrong(name, make_entry):
    """A factory for the real ``cc`` runtime whose entry ``name`` is
    replaced by ``make_entry(real_entry)``."""
    real_factory = jitmod._cc_runtime

    def factory():
        rt = real_factory()
        setattr(rt, name, make_entry(getattr(rt, name)))
        return rt

    return factory


def _assert_rejected(monkeypatch, factory):
    """Both the smoke comparison and the warm-up probe reject the runtime
    ``factory`` builds."""
    with pytest.raises(RuntimeError, match="smoke probe"):
        jitmod._smoke_compare(factory())
    monkeypatch.setattr(jitmod, "_cc_runtime", factory)
    jitmod._reset_runtime_cache()
    try:
        assert jitmod._probe() is None
    finally:
        jitmod._reset_runtime_cache()


class TestProviders:
    def test_auto_resolves_to_cc(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "auto")
        rt = get_runtime()
        assert rt is None or rt.provider == "cc"

    def test_off_disables(self, monkeypatch):
        for value in ("off", "none", "OFF"):
            monkeypatch.setenv("REPRO_JIT_PROVIDER", value)
            assert get_runtime() is None

    def test_unknown_provider_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "tpu")
        with pytest.raises(ValueError, match="jit provider"):
            get_runtime()

    def test_python_provider_rejected(self, monkeypatch):
        """There is no interpreted provider: asking for one is an error
        that lists the valid values."""
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "python")
        with pytest.raises(ValueError, match="python") as info:
            get_runtime()
        for value in ("auto", "cc", "off"):
            assert repr(value) in str(info.value)

    def test_env_var_selects_provider(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        assert get_runtime() is None

    @needs_cc
    def test_probe_rejects_bit_inexact_provider(self, monkeypatch):
        """A library that compiles but produces different floats must
        never survive the warm-up probe."""

        def corrupt_best_gain(decide):
            def bad(*args):
                stamp = decide(*args)
                args[17][:] += 1
                return stamp

            return bad

        _assert_rejected(monkeypatch, _wrong("decide", corrupt_best_gain))

    @needs_cc
    def test_probe_rejects_wrong_chunk_boundary(self, monkeypatch):
        """The probe calls the delta with its movers split in two: a
        library that re-zeroes every moved entry on each call (right in
        one call, wrong across chunks) must never be selected."""

        def rezero_moved(delta):
            def bad(movers, indptr, indices, weights, comm, prev_comm, moved,
                    d_comm):
                d_comm[moved] = 0.0
                delta(movers, indptr, indices, weights, comm, prev_comm,
                      moved, d_comm)

            return bad

        _assert_rejected(monkeypatch, _wrong("delta", rezero_moved))

    @needs_cc
    def test_probe_rejects_sequential_coarsen_sum(self, monkeypatch):
        """The probe contracts a fixture with parallel runs of 9 and 130
        mixed-magnitude entries against the NumPy contraction: a library
        summing each run left to right instead of in ``np.add.reduceat``'s
        pairwise order must never be selected."""

        def sequential_sum(coarsen):
            def bad(indptr, indices, weights, self_weight, communities):
                out = coarsen(indptr, indices, weights, self_weight,
                              communities)
                mapping = out[4]
                src = np.repeat(mapping, np.diff(indptr))
                dst = mapping[indices]
                inter = src != dst
                src, dst, w = src[inter], dst[inter], weights[inter]
                order = np.lexsort((dst, src))
                src, dst, w = src[order], dst[order], w[order]
                starts = np.ones(len(src), dtype=bool)
                starts[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
                summed = np.zeros(len(out[2]))
                for run, x in zip(np.cumsum(starts) - 1, w):
                    summed[run] += x
                return out[0], out[1], summed, out[3], mapping

            return bad

        _assert_rejected(monkeypatch, _wrong("coarsen", sequential_sum))


class TestFallback:
    def test_no_provider_raises_friendly_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        with pytest.raises(KernelUnavailableError, match="C compiler"):
            require_runtime()

    def test_forced_cc_fails_when_the_compiler_is_broken(self, tmp_path, monkeypatch):
        """``REPRO_JIT_PROVIDER=cc`` demands the compiled provider: a failed
        build raises instead of silently skipping every compiled leg,
        while ``auto`` still falls back to the NumPy path."""
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "cache"))
        jitmod._reset_runtime_cache()
        try:
            monkeypatch.setenv("REPRO_JIT_PROVIDER", "cc")
            with pytest.raises(KernelUnavailableError, match="REPRO_JIT_PROVIDER=cc"):
                get_runtime()
            with pytest.raises(KernelUnavailableError):
                make_kernel("auto")
            monkeypatch.setenv("REPRO_JIT_PROVIDER", "auto")
            assert get_runtime() is None
            assert isinstance(make_kernel("auto"), VectorizedKernel)
        finally:
            jitmod._reset_runtime_cache()

    def test_explicit_jit_kernel_raises_without_provider(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        with pytest.raises(KernelUnavailableError):
            make_kernel("jit")

    def test_auto_kernel_falls_back_silently(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        k = make_kernel("auto")  # probe runs here; must not raise
        assert isinstance(k, VectorizedKernel)
        state = CommunityState.singletons(graph)
        idx = np.arange(graph.n, dtype=np.int64)
        _assert_results_equal(k(state, idx, True), decide_moves(state, idx))
        assert k.last_backend == "vectorized"

    def test_run_phase1_identical_with_and_without_jit(self, graph, monkeypatch):
        cfg = dict(pruning="mg", kernel="auto")
        with_jit = run_phase1(graph, Phase1Config(**cfg))
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        jitmod._reset_runtime_cache()
        try:
            without = run_phase1(graph, Phase1Config(**cfg))
        finally:
            jitmod._reset_runtime_cache()
        np.testing.assert_array_equal(with_jit.communities, without.communities)
        assert with_jit.modularity == without.modularity

    def test_cli_renders_friendly_error(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        edges = tmp_path / "g.txt"
        g = ring_of_cliques(4, 5)
        from repro.graph.io import save_edge_list

        save_edge_list(g, str(edges))
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        jitmod._reset_runtime_cache()
        try:
            code = main(["detect", str(edges), "--backend", "jit"])
        finally:
            jitmod._reset_runtime_cache()
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no working compile provider" in err


class TestTraceAccounting:
    def test_compile_time_and_backend_in_trace(self, graph):
        if _compiled is None:
            pytest.skip("no compile provider on this machine")
        r = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        assert r.history[0].kernel_backend == "jit"
        # compile time is charged exactly once, on the first trace
        assert r.history[0].kernel_compile_s >= 0.0
        assert all(h.kernel_compile_s == 0.0 for h in r.history[1:])
        # these graphs are far below the threshold: every decide is serial
        assert {h.kernel_threads for h in r.history} == {1}

    def test_compile_time_charged_once_per_process(self):
        """Every level of every run shares the one probe: over two
        multi-level ``gala()`` calls after a fresh probe, the traces sum
        to the probe's seconds, all on the first trace."""
        if _compiled is None:
            pytest.skip("no compile provider on this machine")
        from repro.core.gala import GalaConfig, gala
        from repro.graph.generators import load_dataset

        g = load_dataset("LJ", 0.1)
        jitmod._reset_runtime_cache()
        try:
            rt = get_runtime()
            traces = []
            for _ in range(2):
                r = gala(g, GalaConfig(backend="auto"))
                assert r.num_levels > 1
                traces += [h for lvl in r.levels for h in lvl.phase1.history]
        finally:
            jitmod._reset_runtime_cache()
        assert rt.compile_s > 0.0
        assert traces[0].kernel_compile_s == rt.compile_s
        assert sum(h.kernel_compile_s for h in traces) == rt.compile_s

    def test_threads_in_trace_above_threshold(self):
        """A graph above the threshold decides on the runtime's threads in
        every iteration; its coarse levels, below it, on one."""
        if _compiled is None:
            pytest.skip("no compile provider on this machine")
        from repro.core.louvain import louvain

        g = rmat_graph(13, edge_factor=16.0, seed=5)
        assert len(g.indices) >= jitmod.PARALLEL_MIN_ENTRIES
        r = louvain(g, Phase1Config(pruning="mg", kernel="auto"))
        assert r.num_levels > 1
        for level in r.levels:
            big = len(level.graph.indices) >= jitmod.PARALLEL_MIN_ENTRIES
            want = _compiled.threads if big else 1
            assert {h.kernel_threads for h in level.phase1.history
                    if h.num_active} == {want}

    def test_vectorized_kernel_reports_no_threads(self, graph):
        r = run_phase1(graph, Phase1Config(kernel="vectorized"))
        assert {h.kernel_threads for h in r.history} == {None}

    def test_manifest_records_backend_and_arena(self, graph):
        from repro.obs.manifest import build_manifest

        r = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        m = build_manifest(r, graph)
        lvl = m.levels[0]
        assert "kernel_backends" in lvl and sum(lvl["kernel_backends"].values()) == len(r.history)
        assert lvl["kernel_compile_s"] == pytest.approx(
            sum(h.kernel_compile_s for h in r.history)
        )
        # the provider auto resolved to is part of the environment record
        expected = _compiled.provider if _compiled is not None else None
        assert m.environment["jit_provider"] == expected
        # so is the thread count its compiled loops may use here
        threads = _compiled.threads if _compiled is not None else None
        assert m.environment["jit_threads"] == threads

    def test_manifest_environment_never_probes(self, monkeypatch):
        """The provider is read from the probe cache: building the
        environment record in a process that never probed reports None
        and compiles nothing."""
        from repro.obs.manifest import environment_info

        monkeypatch.setenv("REPRO_JIT_PROVIDER", "cc")
        jitmod._reset_runtime_cache()
        try:
            env = environment_info()
            assert env["jit_provider"] is None
            assert env["jit_threads"] is None
            assert env["REPRO_JIT_PROVIDER"] == "cc"
            assert not jitmod._cache
        finally:
            jitmod._reset_runtime_cache()

    def test_report_renders_kernel_line(self, graph):
        from repro.obs.manifest import build_manifest
        from repro.obs.report import render_manifest

        r = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        m = build_manifest(r, graph)
        text = render_manifest(m)
        assert "kernel:" in text
        assert "jit_provider=" in text
        if _compiled is not None:
            assert f"jit_threads={_compiled.threads}" in text


def _forced_decide(rt, state, idx, remove_self, threads, stamp=0):
    """The runtime's decide at exactly ``threads`` threads, whatever the
    entry count, with fresh scratch of ``threads`` slices; returns the
    four outputs and the returned stamp."""
    g = state.graph
    n, n_act = g.n, len(idx)
    slots = threads * max(int(g.degrees.max()), 1)
    outs = (np.empty(n_act, dtype=np.int64), np.empty(n_act),
            np.empty(n_act), np.empty(n_act, dtype=np.bool_))
    end = rt.decide(
        idx, g.indptr, g.indices, g.weights, state.comm, g.strength,
        np.ascontiguousarray(state.comm_strength, dtype=np.float64),
        np.ascontiguousarray(state.comm_size, dtype=np.int64),
        float(state.resolution), float(g.total_weight), float(g.two_m),
        int(remove_self), np.zeros(threads * n),
        np.zeros(threads * n, dtype=np.int64),
        np.zeros(slots, dtype=np.int64), stamp, *outs, threads,
    )
    return outs, end


@needs_cc
class TestThreadedDecide:
    """The C decide at 1, 2 and 3 forced threads against ``decide_moves``,
    on the recorded-assignment inputs of ``engine_regression.npz``."""

    @pytest.fixture(scope="class")
    def baseline(self):
        from pathlib import Path

        return np.load(Path(__file__).parents[1] / "data" / "engine_regression.npz")

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("dataset", ["LJ", "OR", "HW"])
    def test_recorded_states_match_numpy(self, baseline, dataset, threads):
        from repro.graph.generators import load_dataset

        g = load_dataset(dataset, 0.1)
        rng = np.random.default_rng(11)
        for key in (f"{dataset}01_rs1_local_comm", f"{dataset}01_rs0_dist2_comm"):
            state = CommunityState.from_assignment(g, baseline[key],
                                                   resolution=1.25)
            for remove_self in (True, False):
                idx = np.flatnonzero(rng.random(g.n) < 0.7)
                ref = decide_moves(state, idx, remove_self)
                got, end = _forced_decide(_compiled, state, idx, remove_self,
                                          threads, 9)
                assert end == 9 + len(idx)
                for a, b in zip(got, (ref.best_comm, ref.best_gain,
                                      ref.stay_gain, ref.move)):
                    assert a.tobytes() == b.tobytes()

    def test_scratch_must_hold_every_thread_slice(self):
        g = ring_of_cliques(4, 5)
        state = CommunityState.singletons(g)
        idx = np.arange(g.n, dtype=np.int64)
        with pytest.raises(ValueError, match="slices"):
            _compiled.decide(
                idx, g.indptr, g.indices, g.weights, state.comm, g.strength,
                state.comm_strength, state.comm_size, 1.0,
                float(g.total_weight), float(g.two_m), 1, np.zeros(g.n),
                np.zeros(g.n, dtype=np.int64), np.zeros(8, dtype=np.int64), 0,
                np.empty(g.n, dtype=np.int64), np.empty(g.n), np.empty(g.n),
                np.empty(g.n, dtype=np.bool_), 2,
            )

    def test_kernel_switches_threads_at_the_threshold(self, monkeypatch):
        """On a graph of at least :data:`PARALLEL_MIN_ENTRIES` entries a
        call runs on the runtime's threads, whatever its active set; on a
        smaller graph on one, with one scratch slice whatever the
        runtime's threads. Both give the reference decisions."""
        big = rmat_graph(10, edge_factor=8.0, seed=2)
        small = ring_of_cliques(8, 6)
        monkeypatch.setattr(jitmod, "PARALLEL_MIN_ENTRIES", len(big.indices))
        monkeypatch.setattr(_compiled, "threads", 2)
        k = JitKernel(runtime=_compiled)
        for g, threads in ((big, 2), (small, 1), (big, 2)):
            state = CommunityState.singletons(g)
            all_idx = np.arange(g.n, dtype=np.int64)
            for idx in (all_idx, all_idx[: g.n // 8]):
                _assert_results_equal(k(state, idx, True),
                                      decide_moves(state, idx))
                assert k.last_threads == threads
                assert k._slices == threads


@needs_cc
class TestProbeCoverage:
    def test_probe_rejects_mg_without_self_correction(self, monkeypatch):
        """A library whose MG test drops the ``+ d(v)`` self-correction
        (Eq. 6 verbatim under ``remove_self=True``) prunes vertices that
        can still move; the probe compares it with the NumPy mask, so it
        is never selected."""

        def no_correction(mg_inactive):
            def bad(strength, self_weight, d_comm, comm, comm_strength,
                    comm_size, gamma, two_m, remove_self, threshold, out,
                    threads=1):
                mg_inactive(strength, self_weight, d_comm, comm,
                            comm_strength, comm_size, gamma, two_m, 0,
                            threshold, out, threads)

            return bad

        _assert_rejected(monkeypatch, _wrong("mg_inactive", no_correction))

    def test_probe_rejects_unordered_internal_weights(self, monkeypatch):
        """Adding the self-loop terms before the edges changes the float
        sums on the fixtures; the probe compares against
        ``community_internal_weights`` and rejects it."""

        def loops_first(internal_weights):
            def bad(indptr, indices, weights, self_weight, comm, internal):
                np.add.at(internal, comm, 2.0 * self_weight)
                internal_weights(indptr, indices, weights,
                                 np.zeros_like(self_weight), comm, internal)

            return bad

        _assert_rejected(monkeypatch, _wrong("internal_weights", loops_first))


@needs_cc
class TestNoOpenMP:
    def test_build_without_openmp_runs_on_one_thread(self, tmp_path, monkeypatch):
        """A compiler that rejects ``-fopenmp`` still gives a working,
        bit-identical library, one that reports one thread."""
        import os
        import shlex
        import shutil
        import stat

        real = shutil.which(os.environ.get("CC", "cc"))
        wrapper = tmp_path / "cc-without-openmp"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for a in "$@"; do [ "$a" = -fopenmp ] && exit 1; done\n'
            f'exec {shlex.quote(real)} "$@"\n'
        )
        wrapper.chmod(wrapper.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("CC", str(wrapper))
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "cache"))
        jitmod._reset_runtime_cache()
        try:
            rt = jitmod._probe()
            assert rt is not None
            assert not rt.openmp and rt.threads == 1
            g = rmat_graph(10, edge_factor=8.0, seed=4)
            state = CommunityState.singletons(g)
            idx = np.arange(g.n, dtype=np.int64)
            got, _ = _forced_decide(rt, state, idx, True, 2)
            ref = decide_moves(state, idx)
            for a, b in zip(got, (ref.best_comm, ref.best_gain,
                                  ref.stay_gain, ref.move)):
                assert a.tobytes() == b.tobytes()
            cfg = dict(pruning="mg")
            r = run_phase1(g, Phase1Config(kernel=JitKernel(runtime=rt), **cfg))
            want = run_phase1(g, Phase1Config(kernel="vectorized", **cfg))
            np.testing.assert_array_equal(r.communities, want.communities)
            assert r.modularity == want.modularity
            assert {h.kernel_threads for h in r.history} == {1}
        finally:
            jitmod._reset_runtime_cache()

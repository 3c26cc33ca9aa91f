"""Multiprocess runtime: bit-exactness matrix, halo parity, lifecycle.

The process-per-rank executor must be indistinguishable from the local
and simulated-distributed runtimes in everything but wall-clock: same
communities, same per-iteration move counts, same halo accounting — for
every graph, rank count, chunk size and rank kernel (``vectorized`` or
the compiled ``jit``, also in spawned workers), including under the
sanitizers and the observability layer. The lifecycle tests pin the ugly parts:
worker crashes surface as errors (not hangs), and no ``/dev/shm``
segment or spill directory outlives the executor.
"""

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.kernels import jit as jitmod
from repro.core.phase1 import Phase1Config, run_phase1
from repro.distributed import DistributedConfig, run_distributed_phase1
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.graph.mmap_store import save_mmap
from repro.multiprocess import (
    MultiprocessConfig,
    MultiprocessExecutor,
    run_multiprocess_phase1,
)
from repro.multiprocess import runtime as mp_runtime

MATRIX_GRAPHS = {
    "LJ": lambda: load_dataset("LJ", 0.05),
    "HW": lambda: load_dataset("HW", 0.05),
    "ring": lambda: ring_of_cliques(8, 6),
}
RANK_COUNTS = [2, 3, 4]

_runtime = jitmod.get_runtime()
needs_jit = pytest.mark.skipif(
    _runtime is None, reason="no jit provider works on this host"
)


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in MATRIX_GRAPHS.items()}


@pytest.fixture(scope="module")
def local_results(graphs):
    return {
        name: run_phase1(g, Phase1Config(pruning="mg"))
        for name, g in graphs.items()
    }


class TestBitExactMatrix:
    @pytest.mark.parametrize("name", list(MATRIX_GRAPHS))
    @pytest.mark.parametrize("ranks", RANK_COUNTS)
    def test_matches_local(self, graphs, local_results, name, ranks):
        local = local_results[name]
        mp = run_multiprocess_phase1(
            graphs[name], MultiprocessConfig(num_ranks=ranks, pruning="mg")
        )
        np.testing.assert_array_equal(mp.communities, local.communities)
        assert mp.modularity == local.modularity
        assert [h.num_moved for h in mp.history] == [
            h.num_moved for h in local.history
        ]

    @pytest.mark.parametrize("name", list(MATRIX_GRAPHS))
    @pytest.mark.parametrize("ranks", RANK_COUNTS)
    def test_halo_accounting_matches_distributed(self, graphs, name, ranks):
        mp = run_multiprocess_phase1(
            graphs[name], MultiprocessConfig(num_ranks=ranks, pruning="mg")
        )
        dist = run_distributed_phase1(
            graphs[name], DistributedConfig(num_ranks=ranks, pruning="mg")
        )
        assert mp.stats.messages == dist.stats.messages
        assert mp.stats.bytes_sent == dist.stats.bytes_sent
        assert [h.comm_bytes for h in mp.history] == [
            h.comm_bytes for h in dist.history
        ]

    def test_single_rank(self, graphs, local_results):
        mp = run_multiprocess_phase1(
            graphs["ring"], MultiprocessConfig(num_ranks=1, pruning="mg")
        )
        np.testing.assert_array_equal(
            mp.communities, local_results["ring"].communities
        )
        assert mp.stats.messages == 0

    def test_more_ranks_than_vertices(self):
        from repro.graph.generators import two_triangles

        g = two_triangles()  # n = 6
        local = run_phase1(g, Phase1Config(pruning="mg"))
        mp = run_multiprocess_phase1(
            g, MultiprocessConfig(num_ranks=10, pruning="mg")
        )
        np.testing.assert_array_equal(mp.communities, local.communities)

    def test_tiny_chunks(self, graphs, local_results):
        mp = run_multiprocess_phase1(
            graphs["LJ"],
            MultiprocessConfig(num_ranks=3, pruning="mg", chunk_edges=64),
        )
        np.testing.assert_array_equal(
            mp.communities, local_results["LJ"].communities
        )

    @pytest.mark.parametrize(
        "kernel", ["vectorized", pytest.param("jit", marks=needs_jit)]
    )
    @pytest.mark.parametrize("name", list(MATRIX_GRAPHS))
    def test_rank_kernel_matches_local(self, graphs, local_results, name, kernel):
        """Workers decide and the parent updates weights with the named
        backend, in 64-edge chunks; the traces name the backend."""
        mp = run_multiprocess_phase1(
            graphs[name],
            MultiprocessConfig(
                num_ranks=3, pruning="mg", kernel=kernel, chunk_edges=64
            ),
        )
        local = local_results[name]
        np.testing.assert_array_equal(mp.communities, local.communities)
        assert mp.modularity == local.modularity
        assert [h.num_moved for h in mp.history] == [
            h.num_moved for h in local.history
        ]
        assert {h.kernel_backend for h in mp.history} == {kernel}
        # the ranks report the threads their kernel ran on: one per rank
        # for jit, none for NumPy (None also marks a round with no work)
        threads = {h.kernel_threads for h in mp.history}
        assert threads <= ({1, None} if kernel == "jit" else {None})
        assert (1 in threads) == (kernel == "jit")

    def test_auto_kernel_resolves_in_the_parent(self, graphs):
        with MultiprocessExecutor(
            graphs["ring"], MultiprocessConfig(num_ranks=2)
        ) as ex:
            assert ex.kernel_name == ("jit" if _runtime else "vectorized")

    def test_rejects_callable_kernel(self):
        from repro.core.kernels.vectorized import decide_moves

        with pytest.raises(ValueError, match="kernel"):
            MultiprocessConfig(kernel=decide_moves)

    def test_gala_forwards_kernel(self):
        from repro.core.gala import GalaConfig

        cfg = GalaConfig(runtime="multiprocess", backend="vectorized", ranks=3)
        assert cfg.multiprocess_config().kernel == "vectorized"
        assert GalaConfig(runtime="multiprocess").multiprocess_config().kernel == "auto"

    @pytest.mark.skipif(
        _runtime is None or _runtime.provider != "cc" or not _runtime.openmp,
        reason="the cc provider has no OpenMP threads on this host",
    )
    def test_parent_runs_one_thread_while_ranks_live(
        self, graphs, monkeypatch
    ):
        """MG's compiled test in the parent runs on one thread between
        rounds (the ranks hold the cores); a later ``local`` run in the
        same process still gets the runtime's threads, with the same bits."""
        # the runtime the kernels get now (an earlier test may have reset
        # the probe cache since import)
        rt = jitmod.get_runtime()
        seen = []
        real = rt.mg_inactive

        def recording(*args):
            seen.append(args[-1])  # the thread count, passed last
            return real(*args)

        monkeypatch.setattr(rt, "mg_inactive", recording)
        # every graph is "large" and the runtime has two threads, so any
        # thread count but 1 would show
        monkeypatch.setattr(jitmod, "PARALLEL_MIN_ENTRIES", 0)
        monkeypatch.setattr(rt, "threads", 2)
        g = graphs["LJ"]
        mp = run_multiprocess_phase1(
            g, MultiprocessConfig(num_ranks=2, pruning="mg", kernel="jit")
        )
        mp_threads, seen[:] = set(seen), []
        local = run_phase1(g, Phase1Config(pruning="mg", kernel="jit"))
        assert mp_threads == {1}
        assert set(seen) == {rt.threads} == {2}
        np.testing.assert_array_equal(mp.communities, local.communities)
        assert [h.modularity for h in mp.history] == [
            h.modularity for h in local.history
        ]

    @needs_jit
    def test_spawned_workers_reload_the_cached_library(
        self, graphs, local_results, tmp_path, monkeypatch
    ):
        """Spawned workers start with no probe cache: each loads the
        library the parent compiled into ``REPRO_JIT_CACHE`` and passes
        its own smoke probe, without rebuilding it."""
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        jitmod._reset_runtime_cache()
        try:
            with MultiprocessExecutor(
                graphs["HW"],
                MultiprocessConfig(
                    num_ranks=2, pruning="mg", kernel="jit", mp_context="spawn"
                ),
            ) as ex:
                (lib,) = glob.glob(str(tmp_path / "*.so"))
                built = os.stat(lib).st_mtime_ns
                from repro.core.engine import run_engine

                result = run_engine(ex, ex.config.engine_config())
            assert glob.glob(str(tmp_path / "*.so")) == [lib]
            assert os.stat(lib).st_mtime_ns == built
        finally:
            jitmod._reset_runtime_cache()
        np.testing.assert_array_equal(
            result.communities, local_results["HW"].communities
        )
        assert {h.kernel_backend for h in result.history} == {"jit"}

    @needs_jit
    def test_worker_probe_failure_surfaces_its_traceback(
        self, graphs, tmp_path, monkeypatch
    ):
        """A spawned worker whose provider probe fails (no library in its
        cache, no compiler) fails the round with the worker's error."""
        jitmod.require_runtime()  # the parent's probe, cached in-process
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        monkeypatch.setenv("CC", "false")
        n = graphs["ring"].n
        with MultiprocessExecutor(
            graphs["ring"],
            MultiprocessConfig(num_ranks=1, kernel="jit", mp_context="spawn"),
        ) as ex:
            with pytest.raises(RuntimeError, match="KernelUnavailableError"):
                ex.decide(np.arange(n), np.ones(n, dtype=bool))

    def test_mmap_graph_input(self, graphs, local_results, tmp_path):
        store = save_mmap(graphs["HW"], tmp_path / "hw.store")
        with MultiprocessExecutor(
            store, MultiprocessConfig(num_ranks=3, pruning="mg")
        ) as ex:
            assert ex._spill_dir is None  # mapped in place, no copy
            from repro.core.engine import run_engine

            result = run_engine(ex, ex.config.engine_config())
        np.testing.assert_array_equal(
            result.communities, local_results["HW"].communities
        )


class TestUnderObservation:
    def test_sanitized_and_traced_run_is_bit_exact(self, tmp_path):
        from repro import analysis, obs
        from repro.core import gala
        from repro.core.gala import GalaConfig

        g = ring_of_cliques(8, 6)
        ref = gala(g, GalaConfig())
        with obs.session(trace=str(tmp_path / "trace.json")):
            with analysis.sanitized("fast") as san:
                mp = gala(g, GalaConfig(runtime="multiprocess", ranks=3))
        np.testing.assert_array_equal(mp.communities, ref.communities)
        assert mp.modularity == ref.modularity
        assert san.log.clean
        assert os.path.getsize(tmp_path / "trace.json") > 0

    def test_rank_spans_nest_in_the_parent_engine_run(self):
        """A traced multiprocess run carries each rank's ``rank/decide``
        spans on its own ``rank[k]`` process track, clock-aligned into
        the parent's domain so they land inside the parent's
        ``engine/run`` span."""
        from repro import obs
        from repro.core import gala
        from repro.core.gala import GalaConfig

        with obs.session() as sess:
            gala(ring_of_cliques(8, 6), GalaConfig(runtime="multiprocess", ranks=2))
        exported = sess.tracer.export_spans()
        spans, labels = exported["spans"], exported["labels"]
        assert exported["dropped"] == 0
        rank_pids = {
            pid for pid, label in labels.items() if label.startswith("rank[")
        }
        assert sorted(labels[pid] for pid in rank_pids) == ["rank[0]", "rank[1]"]
        parent = os.getpid()
        assert parent not in rank_pids
        runs = [
            (s["start"], s["end"])
            for s in spans
            if s["name"] == "engine/run" and s["pid"] == parent
        ]
        decides = [s for s in spans if s["name"] == "rank/decide"]
        assert {s["pid"] for s in decides} == rank_pids
        for span in decides:
            assert any(
                start <= span["start"] <= span["end"] <= end
                for start, end in runs
            ), span

    def test_cache_key_ignores_runtime(self):
        from repro.core.gala import GalaConfig

        assert (
            GalaConfig().cache_key()
            == GalaConfig(runtime="multiprocess", ranks=8).cache_key()
        )


class TestLifecycle:
    def test_no_leaked_segments_or_spills(self, graphs):
        base = shm_segments()
        for _ in range(3):
            run_multiprocess_phase1(
                graphs["ring"], MultiprocessConfig(num_ranks=2, pruning="mg")
            )
        assert shm_segments() - base == set()

    def test_close_is_idempotent(self, graphs):
        ex = MultiprocessExecutor(
            graphs["ring"], MultiprocessConfig(num_ranks=2)
        )
        spill = ex._spill_dir
        assert spill is not None and os.path.isdir(spill)
        ex.close()
        ex.close()
        assert not os.path.isdir(spill)
        assert all(not p.is_alive() for p in ex._workers)

    def test_worker_crash_raises_and_cleans_up(self, graphs, monkeypatch):
        monkeypatch.setattr(mp_runtime, "SYNC_TIMEOUT_S", 3.0)
        base = shm_segments()
        ex = MultiprocessExecutor(
            graphs["ring"], MultiprocessConfig(num_ranks=2)
        )
        os.kill(ex._workers[0].pid, signal.SIGKILL)
        n = graphs["ring"].n
        with pytest.raises(RuntimeError, match="rank|worker|barrier"):
            ex.decide(np.arange(n), np.ones(n, dtype=bool))
        ex.close()
        assert shm_segments() - base == set()
        assert ex._spill_dir is None or not os.path.isdir(ex._spill_dir)

    def test_rank_killed_at_any_instant_fails_fast(self, graphs, monkeypatch):
        # sweep the kill across a rank's start-up and its wait for the
        # round: wherever it dies, the round must fail promptly (a rank
        # dying while holding a shared lock used to wedge the parent)
        n = graphs["ring"].n

        def run_round(executor, outcome):
            try:
                executor.decide(np.arange(n), np.ones(n, dtype=bool))
            except RuntimeError as exc:
                outcome.append(exc)

        monkeypatch.setattr(mp_runtime, "SYNC_TIMEOUT_S", 60.0)
        for delay in np.linspace(0.0, 0.02, 9):
            ex = MultiprocessExecutor(
                graphs["ring"], MultiprocessConfig(num_ranks=2)
            )
            time.sleep(delay)
            os.kill(ex._workers[0].pid, signal.SIGKILL)
            outcome: list = []
            t0 = time.monotonic()
            runner = threading.Thread(
                target=run_round, args=(ex, outcome), daemon=True
            )
            runner.start()
            runner.join(timeout=20.0)
            assert not runner.is_alive(), f"round wedged (kill after {delay}s)"
            assert time.monotonic() - t0 < 10.0
            assert outcome and "worker" in str(outcome[0])
            ex.close()

    def test_rejects_mismatched_partition(self, graphs):
        from repro.graph.partition import partition_contiguous

        part = partition_contiguous(graphs["ring"], 3)
        with pytest.raises(ValueError, match="partition"):
            MultiprocessExecutor(
                graphs["ring"],
                MultiprocessConfig(num_ranks=2),
                partition=part,
            )

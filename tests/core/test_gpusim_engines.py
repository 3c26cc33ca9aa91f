"""Counter-pinning regression: the batched SoA engine vs the scalar engine.

The batched engine's contract is *bit-exactness*, not approximation: on
any launch it must produce the scalar engine's decisions AND charge the
cost model identically — every cycle bucket (by memory kind), every
counter (warp_primitive_ops, hash probe / conflict / atomic counts), and
the Figure 4 rate log. These tests run small versions of the fig4 and
fig9 workloads under both engines and assert ``SimProfiler.diff == {}``,
so any divergence names the exact bucket that moved.
"""

import numpy as np
import pytest

from repro import analysis
from repro.analysis.synccheck import SyncChecker
from repro.core.gala import GalaConfig, gala
from repro.core.kernels.dispatch import DispatchKernel
from repro.core.kernels.hash import HashKernel
from repro.core.kernels.shuffle import ShuffleKernel
from repro.core.phase1 import Phase1Config, run_phase1
from repro.core.state import CommunityState
from repro.bench.experiments.fig9_kernels import hub_workload
from repro.graph.builder import from_edge_array
from repro.graph.generators import load_dataset
from repro.gpusim import ENGINES, resolve_engine
from repro.gpusim.device import Device


@pytest.fixture(scope="module")
def small_graph():
    return load_dataset("LJ", scale=0.02)


def random_state(graph, n_comms=12, seed=0):
    rng = np.random.default_rng(seed)
    return CommunityState.from_assignment(
        graph, rng.integers(0, n_comms, graph.n)
    )


def _assert_same_decisions(a, b):
    np.testing.assert_array_equal(a.best_comm, b.best_comm)
    np.testing.assert_array_equal(a.move, b.move)
    # bit-equal gains, not approx — the engines share reduction order
    np.testing.assert_array_equal(a.best_gain, b.best_gain)
    np.testing.assert_array_equal(a.stay_gain, b.stay_gain)


#: fig9-style kernel configurations (part a small-degree + dispatch)
KERNEL_CONFIGS = [
    ("shuffle", lambda d, e: ShuffleKernel(d, engine=e)),
    ("hash-hier", lambda d, e: HashKernel(d, "hierarchical", engine=e)),
    ("hash-unified", lambda d, e: HashKernel(d, "unified", engine=e)),
    ("hash-global", lambda d, e: HashKernel(d, "global", engine=e)),
    ("dispatch", lambda d, e: DispatchKernel(d, engine=e)),
]


class TestEveryCounterPinned:
    @pytest.mark.parametrize(
        "make", [m for _, m in KERNEL_CONFIGS], ids=[n for n, _ in KERNEL_CONFIGS]
    )
    def test_fig9_small_degree_launch(self, small_graph, make):
        state = random_state(small_graph)
        # the shuffle kernel only takes warp-sized rows (fig9 part a);
        # hash and dispatch handle the full launch
        deg = np.diff(small_graph.indptr)
        idx = np.flatnonzero(deg < 32).astype(np.int64)
        sdev, bdev = Device(), Device()
        scalar = make(sdev, "scalar")(state, idx)
        batched = make(bdev, "batched")(state, idx)
        _assert_same_decisions(scalar, batched)
        assert sdev.profiler.diff(bdev.profiler) == {}

    @pytest.mark.parametrize("kind", ["hierarchical", "unified", "global"])
    def test_fig9_hub_launch(self, kind):
        _, state, hubs = hub_workload(
            hub_degree=300, num_hubs=3, num_comms=80, seed=2
        )
        sdev, bdev = Device(), Device()
        kw = dict(shared_buckets=256, load_factor=0.7)
        scalar = HashKernel(sdev, kind, engine="scalar", **kw)(state, hubs)
        batched = HashKernel(bdev, kind, engine="batched", **kw)(state, hubs)
        _assert_same_decisions(scalar, batched)
        assert sdev.profiler.diff(bdev.profiler) == {}

    @pytest.mark.parametrize("kind", ["hierarchical", "unified"])
    def test_fig4_iterated_rate_log(self, small_graph, kind):
        """Three phase-1 iterations with the fig4 instrumentation: the
        rate logs (maintenance/access rates) and final counters match."""
        max_degree = int(np.diff(small_graph.indptr).max())
        results, kernels, devices = {}, {}, {}
        for engine in ENGINES:
            dev = Device()
            kernel = HashKernel(
                dev,
                table_kind=kind,
                shared_buckets=64,
                fixed_global_buckets=max(2 * max_degree, 1024),
                engine=engine,
            )

            def wrapped(state, idx, remove_self, _k=kernel):
                out = _k(state, idx, remove_self)
                _k.flush_rates()
                return out

            results[engine] = run_phase1(
                small_graph,
                Phase1Config(pruning="mg", kernel=wrapped, max_iterations=3),
            )
            kernels[engine], devices[engine] = kernel, dev
        np.testing.assert_array_equal(
            results["batched"].communities, results["scalar"].communities
        )
        assert kernels["batched"].rate_log == kernels["scalar"].rate_log
        assert devices["scalar"].profiler.diff(devices["batched"].profiler) == {}

    def test_expected_counters_present(self, small_graph):
        """The pinned quantities of the regression actually exist: cycles
        by memory kind, warp primitive ops, probe and conflict counts."""
        state = random_state(small_graph)
        idx = np.arange(small_graph.n)
        dev = Device()
        DispatchKernel(dev, engine="batched")(state, idx)
        # a global-only table so global probe traffic shows up too
        HashKernel(dev, "global", engine="batched")(state, idx)
        counters = dev.profiler.counters
        assert counters["warp_primitive_ops"] > 0
        assert counters["shared_probes"] > 0
        assert counters["global_probes"] > 0
        # bank conflicts need block-per-vertex probing of one shared table
        _, hub_state, hubs = hub_workload(
            hub_degree=300, num_hubs=2, num_comms=80, seed=2
        )
        hdev = Device()
        HashKernel(hdev, "hierarchical", shared_buckets=256,
                   load_factor=0.7, engine="batched")(hub_state, hubs)
        assert hdev.profiler.counters["bank_conflict_steps"] > 0
        cycles = dev.profiler.cycles
        assert cycles["warp_primitives"] > 0
        assert cycles["hashtable"] > 0
        assert cycles["decide_load"] > 0


def _bytes_equal(a, b):
    """Bit-for-bit equality: tells -0.0 from 0.0 and catches a last-bit
    difference that a tolerance would hide."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestFractionalWeights:
    """Integer weights sum exactly in any order, so they cannot tell the
    batched shuffle's 32-lane ``__reduce_add_sync`` from another
    summation order; fractional weights spanning eight decades can."""

    @pytest.fixture(scope="class")
    def weighted(self):
        g = load_dataset("LJ", scale=0.02)
        src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        upper = src < g.indices
        rng = np.random.default_rng(11)
        w = 10.0 ** rng.uniform(-4.0, 4.0, int(upper.sum()))
        graph = from_edge_array(g.n, src[upper], g.indices[upper], w)
        state = CommunityState.from_assignment(
            graph, rng.integers(0, 3, graph.n)
        )
        return graph, state

    @pytest.mark.parametrize(
        "make",
        [
            lambda d, e: ShuffleKernel(d, engine=e),
            lambda d, e: DispatchKernel(d, engine=e),
        ],
        ids=["shuffle", "dispatch"],
    )
    def test_gains_bit_equal(self, weighted, make):
        graph, state = weighted
        deg = np.diff(graph.indptr)
        assert np.any(graph.weights != np.round(graph.weights))
        idx = np.flatnonzero(deg < 32).astype(np.int64)
        sdev, bdev = Device(), Device()
        scalar = make(sdev, "scalar")(state, idx)
        batched = make(bdev, "batched")(state, idx)
        np.testing.assert_array_equal(scalar.best_comm, batched.best_comm)
        np.testing.assert_array_equal(scalar.move, batched.move)
        _bytes_equal(scalar.best_gain, batched.best_gain)
        _bytes_equal(scalar.stay_gain, batched.stay_gain)
        assert sdev.profiler.diff(bdev.profiler) == {}


class TestCommunityIds:
    """Community ids of ``n`` and more (``from_assignment`` accepts them)
    must decide and charge exactly as on the scalar engine."""

    @staticmethod
    def _assert_engines_agree(graph, make, idx):
        n = graph.n
        rng = np.random.default_rng(5)
        ids = np.array([0, 1, 2, n, n + 1, n + 2])
        state = CommunityState.from_assignment(graph, rng.choice(ids, n))
        sdev, bdev = Device(), Device()
        scalar = make(sdev, "scalar")(state, idx)
        batched = make(bdev, "batched")(state, idx)
        np.testing.assert_array_equal(scalar.best_comm, batched.best_comm)
        np.testing.assert_array_equal(scalar.move, batched.move)
        _bytes_equal(scalar.best_gain, batched.best_gain)
        _bytes_equal(scalar.stay_gain, batched.stay_gain)
        assert sdev.profiler.diff(bdev.profiler) == {}

    def test_shuffle_engines_agree_on_ids_beyond_n(self, small_graph):
        """Id ``n + k`` in one warp and ``k`` in the next would share the
        key ``row * n + comm``: the runs of neighbouring warps must not
        merge."""
        idx = np.flatnonzero(np.diff(small_graph.indptr) < 32).astype(np.int64)
        self._assert_engines_agree(
            small_graph, lambda d, e: ShuffleKernel(d, engine=e), idx
        )

    @pytest.mark.parametrize(
        "make",
        [m for name, m in KERNEL_CONFIGS if name != "shuffle"],
        ids=[name for name, _ in KERNEL_CONFIGS if name != "shuffle"],
    )
    def test_hash_and_dispatch_engines_agree_on_ids_beyond_n(
        self, small_graph, make
    ):
        idx = np.arange(small_graph.n, dtype=np.int64)
        self._assert_engines_agree(small_graph, make, idx)


class TestMixedGeometryLaunch:
    """One hash launch mixing rows longer than a block with rows shorter
    than a warp: every vertex's table has its own global size. A shared
    level of 8 buckets forces spills to global memory; one of 256 spans
    more than the 32 banks, so warp steps conflict."""

    @pytest.fixture(scope="class")
    def launch(self):
        rng = np.random.default_rng(8)
        hub_degrees, n_leaves = [40, 150, 300], 300
        n_hubs = len(hub_degrees)
        src = np.repeat(np.arange(n_hubs), hub_degrees)
        dst = n_hubs + np.concatenate(
            [rng.choice(n_leaves, d, replace=False) for d in hub_degrees]
        )
        w = 10.0 ** rng.uniform(-2.0, 2.0, len(src))
        graph = from_edge_array(n_hubs + n_leaves, src, dst, w)
        state = CommunityState.from_assignment(
            graph, rng.integers(0, 60, graph.n)
        )
        return state, np.arange(graph.n, dtype=np.int64)

    @pytest.mark.parametrize("shared_buckets", [8, 256])
    @pytest.mark.parametrize("block_size", [128, 16])
    @pytest.mark.parametrize("kind", ["hierarchical", "unified", "global"])
    def test_engines_agree(self, launch, kind, block_size, shared_buckets):
        state, idx = launch
        deg = np.diff(state.graph.indptr)
        assert deg.max() > block_size and np.any((deg > 0) & (deg < 32))
        kernels, results = {}, {}
        for engine in ENGINES:
            kernels[engine] = HashKernel(
                Device(), kind, shared_buckets=shared_buckets,
                block_size=block_size, engine=engine,
            )
            results[engine] = kernels[engine](state, idx)
        scalar, batched = results["scalar"], results["batched"]
        np.testing.assert_array_equal(scalar.best_comm, batched.best_comm)
        np.testing.assert_array_equal(scalar.move, batched.move)
        _bytes_equal(scalar.best_gain, batched.best_gain)
        _bytes_equal(scalar.stay_gain, batched.stay_gain)
        sprof = kernels["scalar"].device.profiler
        bprof = kernels["batched"].device.profiler
        assert sprof.diff(bprof) == {}
        if shared_buckets == 8:
            assert bprof.counters["global_probes"] > 0
        elif kind != "global":
            assert bprof.counters["bank_conflict_steps"] > 0
        assert kernels["scalar"].flush_rates() == kernels["batched"].flush_rates()


class TestSanitizerCoverage:
    def test_shuffle_primitives_reach_synccheck_per_warp(
        self, small_graph, monkeypatch
    ):
        """Under a sanitizer both engines hand synccheck the same warps,
        in the same order, per primitive: each warp's active lanes and,
        for ``__reduce_add_sync``, its lanes' mask words."""
        seen = []
        real = SyncChecker.warp_primitive

        def record(self, primitive, active, masks=None, **kw):
            act = np.atleast_2d(np.asarray(active, dtype=bool))
            words = (
                np.zeros(act.shape, dtype=np.int64)
                if masks is None
                else np.atleast_2d(np.asarray(masks, dtype=np.int64))
            )
            for a, m in zip(act, words):
                seen.append((primitive, a.tobytes(), m.tobytes()))
            return real(self, primitive, active, masks=masks, **kw)

        monkeypatch.setattr(SyncChecker, "warp_primitive", record)
        state = random_state(small_graph, n_comms=4)
        deg = np.diff(small_graph.indptr)
        idx = np.flatnonzero(deg < 32).astype(np.int64)
        calls = {}
        for engine in ENGINES:
            seen.clear()
            with analysis.sanitized("fast") as san:
                ShuffleKernel(Device(), engine=engine)(state, idx)
            assert san.log.clean, san.log.render()
            calls[engine] = {
                p: [c[1:] for c in seen if c[0] == p]
                for p in sorted({c[0] for c in seen})
            }
        assert set(calls["scalar"]) == {
            "match_any_sync", "reduce_add_sync", "reduce_max_sync", "ballot_sync"
        }
        assert calls["batched"] == calls["scalar"]


class TestEngineSelection:
    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_GPUSIM_ENGINE", raising=False)
        assert resolve_engine() == "batched"
        assert ShuffleKernel(Device()).engine == "batched"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_ENGINE", "scalar")
        assert resolve_engine() == "scalar"
        assert HashKernel(Device(), "hierarchical").engine == "scalar"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_GPUSIM_ENGINE", "scalar")
        assert resolve_engine("batched") == "batched"

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_engine("simd")
        monkeypatch.setenv("REPRO_GPUSIM_ENGINE", "warp-speed")
        with pytest.raises(ValueError):
            ShuffleKernel(Device())

    def test_dispatch_propagates_engine(self):
        k = DispatchKernel(Device(), engine="scalar")
        assert k.engine == "scalar"
        assert k.shuffle.engine == "scalar"
        assert k.hash.engine == "scalar"

    def test_gala_end_to_end_engines_agree(self, monkeypatch):
        graph = load_dataset("LJ", scale=0.02)
        cfg = GalaConfig(backend="gpusim", phase1_only=True, max_iterations=4)
        out = {}
        for e in ENGINES:
            monkeypatch.setenv("REPRO_GPUSIM_ENGINE", e)
            assert cfg.phase1_config().kernel.engine == e
            out[e] = gala(graph, cfg)
        np.testing.assert_array_equal(
            out["batched"].communities, out["scalar"].communities
        )
        assert out["batched"].modularity == out["scalar"].modularity

"""Cross-runtime bit-exactness matrix + recorded-assignment regression.

The repo's strongest invariant: because every executor's decide step is
row-local over the identical BSP snapshot, the local, multi-GPU, and
distributed runtimes produce **bit-identical** communities for any seed,
partition, rank count, and gain convention. The matrix below checks that
across graphs × rank counts × both ``remove_self`` conventions, on both
final assignments and per-iteration move counts.

The regression class additionally pins today's outputs to assignments
recorded from the pre-unification runtimes (``tests/data/
engine_regression.npz``), so engine refactors cannot silently change any
runtime's trajectory, and checks that phase 2 contracts those recorded
assignments — and every level of a full Louvain run — to the same coarse
graphs, byte for byte, through the compiled and the NumPy paths.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineResult
from repro.core.kernels.jit import get_runtime
from repro.core.louvain import louvain
from repro.core.phase1 import Phase1Config, run_phase1
from repro.distributed import DistributedConfig, run_distributed_phase1
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.multigpu import MultiGpuConfig, run_multigpu_phase1
from repro.obs.manifest import build_manifest

BASELINE_PATH = Path(__file__).parent / "data" / "engine_regression.npz"

MATRIX_GRAPHS = {
    "LJ": lambda: load_dataset("LJ", 0.05),
    "HW": lambda: load_dataset("HW", 0.05),
    "ring": lambda: ring_of_cliques(8, 6),
}
RANK_COUNTS = [2, 3]
_compiled = get_runtime()
#: the compiled provider's leg; it skips on a host with no C compiler
COARSEN_PROVIDERS = [pytest.param("cc", marks=pytest.mark.skipif(
    _compiled is None, reason="no compile provider here"))]


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in MATRIX_GRAPHS.items()}


@pytest.fixture(scope="module")
def local_results(graphs):
    return {
        (name, rs): run_phase1(g, Phase1Config(pruning="mg", remove_self=rs))
        for name, g in graphs.items()
        for rs in (True, False)
    }


def assert_result_parity(result, local):
    """Every runtime's result is an engine result: same work counters
    as local, plus the timers and final state."""
    assert isinstance(result, EngineResult)
    assert result.timers
    np.testing.assert_array_equal(result.state.comm, result.communities)
    assert result.processed_vertices == local.processed_vertices
    assert result.processed_edges == local.processed_edges


class TestCrossRuntimeMatrix:
    @pytest.mark.parametrize("name", list(MATRIX_GRAPHS))
    @pytest.mark.parametrize("ranks", RANK_COUNTS)
    @pytest.mark.parametrize("remove_self", [True, False])
    def test_multigpu_matches_local(
        self, graphs, local_results, name, ranks, remove_self
    ):
        local = local_results[(name, remove_self)]
        multi = run_multigpu_phase1(
            graphs[name],
            MultiGpuConfig(num_gpus=ranks, remove_self=remove_self),
        )
        np.testing.assert_array_equal(multi.communities, local.communities)
        assert [h.num_moved for h in multi.history] == [
            h.num_moved for h in local.history
        ]
        assert_result_parity(multi, local)

    @pytest.mark.parametrize("name", list(MATRIX_GRAPHS))
    @pytest.mark.parametrize("ranks", RANK_COUNTS)
    @pytest.mark.parametrize("remove_self", [True, False])
    def test_distributed_matches_local(
        self, graphs, local_results, name, ranks, remove_self
    ):
        local = local_results[(name, remove_self)]
        dist = run_distributed_phase1(
            graphs[name],
            DistributedConfig(num_ranks=ranks, remove_self=remove_self),
        )
        np.testing.assert_array_equal(dist.communities, local.communities)
        assert [h.num_moved for h in dist.history] == [
            h.num_moved for h in local.history
        ]
        assert_result_parity(dist, local)
        manifest = build_manifest(dist, graphs[name])
        assert all(level["timers"] for level in manifest.levels)


class TestRecordedAssignmentRegression:
    """Pin the unified engine to the pre-refactor runtimes' outputs."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return np.load(BASELINE_PATH)

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("LJ", 0.1)

    @pytest.mark.parametrize("remove_self", [True, False])
    def test_local_runtime(self, baseline, graph, remove_self):
        tag = f"LJ01_rs{int(remove_self)}"
        r = run_phase1(graph, Phase1Config(pruning="mg", remove_self=remove_self))
        np.testing.assert_array_equal(r.communities, baseline[f"{tag}_local_comm"])
        np.testing.assert_array_equal(
            [h.num_moved for h in r.history], baseline[f"{tag}_local_moves"]
        )
        assert r.modularity == baseline[f"{tag}_local_q"][0]

    def test_oracle_instrumentation(self, baseline, graph):
        r = run_phase1(graph, Phase1Config(pruning="mg", oracle=True))
        np.testing.assert_array_equal(r.communities, baseline["LJ01_rs1_oracle_comm"])
        np.testing.assert_array_equal(
            [h.false_negatives for h in r.history if h.predicted],
            baseline["LJ01_rs1_oracle_fn"],
        )
        np.testing.assert_array_equal(
            [h.false_positives for h in r.history if h.predicted],
            baseline["LJ01_rs1_oracle_fp"],
        )

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_multigpu_runtime(self, baseline, graph, ranks):
        r = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=ranks))
        np.testing.assert_array_equal(
            r.communities, baseline[f"LJ01_rs1_mgpu{ranks}_comm"]
        )
        np.testing.assert_array_equal(
            [h.num_moved for h in r.history], baseline[f"LJ01_rs1_mgpu{ranks}_moves"]
        )
        # simulated time accounting is part of the contract too
        assert r.compute_seconds() == baseline[f"LJ01_rs1_mgpu{ranks}_compute_s"][0]
        assert r.comm_seconds() == baseline[f"LJ01_rs1_mgpu{ranks}_comm_s"][0]

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_distributed_runtime(self, baseline, graph, ranks):
        r = run_distributed_phase1(graph, DistributedConfig(num_ranks=ranks))
        tag = f"LJ01_rs1_dist{ranks}"
        np.testing.assert_array_equal(r.communities, baseline[f"{tag}_comm"])
        assert r.modularity == baseline[f"{tag}_q"][0]
        assert r.num_iterations == baseline[f"{tag}_iters"][0]
        np.testing.assert_array_equal(
            r.stats.bytes_per_iteration, baseline[f"{tag}_bytes"]
        )
        assert r.stats.messages == baseline[f"{tag}_msgs"][0]

    @pytest.mark.parametrize("provider", COARSEN_PROVIDERS)
    @pytest.mark.parametrize("dataset", ["LJ", "OR", "HW"])
    def test_coarse_levels_match_numpy(
        self, baseline, dataset, provider, assert_same_coarse
    ):
        runtime = _compiled
        graph = load_dataset(dataset, 0.1)
        recorded = [k for k in baseline.files
                    if k.startswith(f"{dataset}01_") and k.endswith("_comm")]
        assert recorded
        for key in recorded:
            assert_same_coarse(graph, baseline[key], runtime)
        result = louvain(graph, Phase1Config(pruning="mg", kernel="auto"))
        assert result.num_levels > 1
        for level in result.levels:
            assert_same_coarse(level.graph, level.phase1.communities, runtime)

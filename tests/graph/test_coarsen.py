"""Tests for phase-2 graph contraction: the NumPy path, and the compiled
``coarsen`` of the jit runtime, byte-identical to it (those legs skip on
a host with no working C compiler)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.jit import get_runtime
from repro.core.modularity import modularity
from repro.graph.builder import from_edge_array
from repro.graph.coarsen import coarsen_graph, coarsen_runtime, project_communities
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition, ring_of_cliques

_compiled = get_runtime()
needs_cc = pytest.mark.skipif(_compiled is None, reason="no compile provider here")
#: the compiled provider's leg
PROVIDERS = [pytest.param("cc", marks=needs_cc)]


class TestCoarsenBasics:
    def test_two_triangles(self, triangles):
        coarse, mapping = coarsen_graph(triangles, np.array([0, 0, 0, 1, 1, 1]))
        coarse.validate()
        assert coarse.n == 2
        # three intra edges per triangle become a self-loop of weight 3
        np.testing.assert_allclose(coarse.self_weight, [3.0, 3.0])
        # one bridge edge remains
        assert coarse.num_directed_edges == 2
        np.testing.assert_allclose(coarse.weights, [1.0, 1.0])

    def test_total_weight_preserved(self, triangles):
        coarse, _ = coarsen_graph(triangles, np.array([0, 0, 0, 1, 1, 1]))
        assert coarse.total_weight == pytest.approx(triangles.total_weight)
        assert coarse.two_m == pytest.approx(triangles.two_m)

    def test_noncompact_ids_are_compacted(self, triangles):
        coarse, mapping = coarsen_graph(triangles, np.array([5, 5, 5, 9, 9, 9]))
        assert coarse.n == 2
        np.testing.assert_array_equal(mapping, [0, 0, 0, 1, 1, 1])

    def test_fine_self_loops_carry_over(self):
        g = from_edge_array(3, [0, 1, 1], [1, 2, 1], [1.0, 1.0, 2.0])
        coarse, _ = coarsen_graph(g, np.array([0, 0, 1]))
        # community 0 = {0,1}: intra edge w=1 -> loop 1; fine loop at 1
        # (w=2) carries over -> total loop weight 3
        assert coarse.self_weight[0] == pytest.approx(3.0)
        assert coarse.two_m == pytest.approx(g.two_m)

    def test_singletons_identity(self, triangles):
        coarse, mapping = coarsen_graph(triangles, np.arange(triangles.n))
        assert coarse.n == triangles.n
        assert coarse.two_m == pytest.approx(triangles.two_m)
        np.testing.assert_array_equal(mapping, np.arange(triangles.n))

    def test_rejects_wrong_length(self, triangles):
        with pytest.raises(ValueError):
            coarsen_graph(triangles, np.array([0, 1]))


class TestModularityInvariance:
    """The key phase-2 invariant: Q is preserved under contraction."""

    def test_ring_of_cliques(self):
        g = ring_of_cliques(6, 5)
        comm = np.repeat(np.arange(6), 5)
        q_fine = modularity(g, comm)
        coarse, mapping = coarsen_graph(g, comm)
        # each super-vertex its own community
        q_coarse = modularity(coarse, np.arange(coarse.n))
        assert q_coarse == pytest.approx(q_fine, rel=1e-12)

    def test_planted_partition(self):
        g, truth = planted_partition(5, 30, 0.4, 0.02, seed=3)
        q_fine = modularity(g, truth)
        coarse, mapping = coarsen_graph(g, truth)
        q_coarse = modularity(coarse, np.arange(coarse.n))
        assert q_coarse == pytest.approx(q_fine, rel=1e-12)

    @given(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_any_partition_of_triangles(self, labels):
        from repro.graph.generators import two_triangles

        g = two_triangles()
        comm = np.array(labels)
        coarse, mapping = coarsen_graph(g, comm)
        q_fine = modularity(g, comm)
        q_coarse = modularity(coarse, np.arange(coarse.n))
        assert q_coarse == pytest.approx(q_fine, rel=1e-9, abs=1e-12)


class TestProjectCommunities:
    def test_roundtrip(self, triangles):
        comm = np.array([0, 0, 0, 1, 1, 1])
        coarse, mapping = coarsen_graph(triangles, comm)
        coarse_comm = np.array([0, 0])  # merge the two super-vertices
        fine = project_communities(mapping, coarse_comm)
        assert len(np.unique(fine)) == 1

    def test_identity_projection(self, triangles):
        comm = np.array([0, 0, 1, 1, 2, 2])
        coarse, mapping = coarsen_graph(triangles, comm)
        fine = project_communities(mapping, np.arange(coarse.n))
        # projecting each super-vertex to itself recovers the partition
        np.testing.assert_array_equal(fine, mapping)


@needs_cc
class TestPairwiseSum:
    """``np.add.reduceat`` sums a run as ``run[0] + pairwise(run[1:])``;
    the compiled contraction reproduces that order, so pin it here: one
    run of mixed-magnitude, mixed-sign entries becomes one coarse edge,
    summed by the compiled ``coarsen``, ``np.add.reduceat`` and
    ``coarsen_graph`` to the same bits."""

    @staticmethod
    def _check(run):
        # two vertices joined by len(run) parallel entries each way: the
        # contraction of two singleton communities sums them as one run
        k = len(run)
        g = CSRGraph(
            indptr=np.array([0, k, 2 * k], dtype=np.int64),
            indices=np.repeat(np.array([1, 0], dtype=np.int64), k),
            weights=np.concatenate([run, run]),
            self_weight=np.zeros(2),
        )
        comm = np.array([0, 1], dtype=np.int64)
        padded = np.concatenate([[1.5], run, [2.5]])
        want = np.add.reduceat(padded, [0, 1, 1 + k])[1]
        got = _compiled.coarsen(g.indptr, g.indices, g.weights,
                                g.self_weight, comm)[2]
        numpy_path = coarsen_graph(g, comm)[0].weights
        assert got.tobytes() == numpy_path.tobytes() == np.array(
            [want, want]).tobytes()

    @pytest.mark.parametrize(
        "length", [1, 2, 7, 8, 9, 16, 17, 128, 129, 130, 257, 1000]
    )
    def test_matches_reduceat(self, length):
        rng = np.random.default_rng(length)
        for _ in range(5):
            run = rng.random(length) * 10.0 ** rng.integers(-9, 10, length)
            run *= rng.choice([-1.0, 1.0], length)
            self._check(run)

    def test_signed_zeros(self):
        for run in ([-0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, -0.0]):
            self._check(np.array(run))


@pytest.mark.parametrize("provider", PROVIDERS)
class TestCompiledContraction:
    def test_two_triangles(self, triangles, provider, assert_same_coarse):
        coarse, _ = assert_same_coarse(
            triangles, np.array([0, 0, 0, 1, 1, 1]), _compiled
        )
        np.testing.assert_allclose(coarse.self_weight, [3.0, 3.0])

    @pytest.mark.parametrize(
        "labels",
        [
            [5, 5, 5, 9, 9, 9],  # non-compact, in range [0, n)
            [50, 50, 50, -9, -9, 7],  # out of range: the np.unique relabel
            [0, 0, 0, 0, 0, 0],  # one community
            [0, 1, 2, 3, 4, 5],  # singletons
            [5, 4, 3, 2, 1, 0],  # singletons, reversed
        ],
    )
    def test_assignments(self, triangles, provider, labels, assert_same_coarse):
        assert_same_coarse(triangles, np.array(labels), _compiled)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float64, np.uint64])
    def test_label_dtypes(self, triangles, provider, dtype, assert_same_coarse):
        labels = np.array([4, 4, 0, 0, 2, 2], dtype=dtype)
        assert_same_coarse(triangles, labels, _compiled)

    def test_fine_self_loops_and_isolated_vertex(self, provider, assert_same_coarse):
        g = from_edge_array(5, [0, 1, 1, 3], [1, 2, 1, 3], [1.0, 1.0, 2.0, 0.5])
        coarse, _ = assert_same_coarse(
            g, np.array([0, 0, 1, 3, 4]), _compiled
        )
        assert coarse.self_weight[0] == 3.0

    def test_empty_graph(self, provider, assert_same_coarse):
        g = from_edge_array(0, [], [])
        coarse, mapping = assert_same_coarse(
            g, np.empty(0, dtype=np.int64), _compiled
        )
        assert coarse.n == 0 and len(mapping) == 0

    def test_bound_runtime(self, triangles, provider):
        rt = _compiled
        calls = []

        class Spy:
            def coarsen(self, *args):
                calls.append(len(args))
                return rt.coarsen(*args)

        comm = np.array([0, 0, 0, 1, 1, 1])
        with coarsen_runtime(Spy()):
            coarse, _ = coarsen_graph(triangles, comm)
        assert calls == [5]
        coarsen_graph(triangles, comm)
        assert calls == [5]  # the binding ends with the block
        np.testing.assert_array_equal(
            coarse.weights, coarsen_graph(triangles, comm)[0].weights
        )

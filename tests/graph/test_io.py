"""Tests for graph I/O."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.io import load_edge_list, load_npz, save_edge_list, save_npz


class TestEdgeListRoundtrip:
    def test_roundtrip(self, karate, tmp_path):
        path = tmp_path / "karate.txt"
        save_edge_list(karate, path)
        back = load_edge_list(path)
        assert back.n == karate.n
        assert back.num_edges == karate.num_edges
        np.testing.assert_array_equal(back.indptr, karate.indptr)

    def test_weighted_roundtrip(self, weighted_graph, tmp_path):
        path = tmp_path / "w.txt"
        save_edge_list(weighted_graph, path)
        back = load_edge_list(path, weighted=True)
        assert back.total_weight == pytest.approx(weighted_graph.total_weight)

    def test_sparse_ids_compacted(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("# comment line\n100 200\n200 300\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.num_edges == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_edge_list(tmp_path / "nope.txt")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello world this is not numbers\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list(path)


class TestNpzRoundtrip:
    def test_roundtrip_exact(self, weighted_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(weighted_graph, path)
        back = load_npz(path)
        back.validate()
        assert back.name == weighted_graph.name
        np.testing.assert_array_equal(back.indptr, weighted_graph.indptr)
        np.testing.assert_array_equal(back.indices, weighted_graph.indices)
        np.testing.assert_allclose(back.weights, weighted_graph.weights)
        np.testing.assert_allclose(back.self_weight, weighted_graph.self_weight)

    def test_bad_npz(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_npz(path)

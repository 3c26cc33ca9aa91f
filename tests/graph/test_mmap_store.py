"""Tests for the on-disk CSR graph store (repro.graph.mmap_store)."""

import json

import numpy as np
import pytest

from repro.errors import GraphFormatError, GraphValidationError
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.graph.mmap_store import (
    MmapCSRGraph,
    MmapCSRWriter,
    is_mmap_store,
    iter_row_blocks,
    open_mmap,
    save_mmap,
    split_by_edges,
)


@pytest.fixture
def graph():
    g, _ = planted_partition(4, 20, p_in=0.5, p_out=0.05, seed=11)
    return g


class TestSaveOpenRoundtrip:
    def test_arrays_bit_identical(self, graph, tmp_path):
        m = save_mmap(graph, tmp_path / "g.store")
        np.testing.assert_array_equal(m.indptr, graph.indptr)
        np.testing.assert_array_equal(m.indices, graph.indices)
        np.testing.assert_array_equal(m.weights, graph.weights)
        np.testing.assert_array_equal(m.self_weight, graph.self_weight)
        assert m.n == graph.n and m.name == graph.name

    def test_reopen_is_memmapped(self, graph, tmp_path):
        save_mmap(graph, tmp_path / "g.store")
        m = open_mmap(tmp_path / "g.store")
        assert isinstance(m, MmapCSRGraph)
        assert isinstance(m.indices, np.memmap)
        assert is_mmap_store(tmp_path / "g.store")

    def test_fingerprint_matches_ram_graph(self, graph, tmp_path):
        m = save_mmap(graph, tmp_path / "g.store")
        assert m.fingerprint == graph.fingerprint

    def test_fingerprint_cached_in_meta(self, graph, tmp_path):
        save_mmap(graph, tmp_path / "g.store").fingerprint
        meta = json.loads((tmp_path / "g.store" / "meta.json").read_text())
        assert meta["sha256"] == graph.fingerprint
        # a fresh open seeds the cache from meta (no recompute needed)
        m = open_mmap(tmp_path / "g.store")
        assert m._fingerprint == graph.fingerprint

    def test_derived_quantities_match(self, graph, tmp_path):
        m = save_mmap(graph, tmp_path / "g.store")
        assert m.total_weight == graph.total_weight
        np.testing.assert_array_equal(m.strength, graph.strength)
        np.testing.assert_array_equal(m.degrees, graph.degrees)

    def test_resident_smaller_than_store(self, graph, tmp_path):
        m = save_mmap(graph, tmp_path / "g.store")
        assert m.resident_nbytes < m.store_nbytes
        m.release_pages()  # must not invalidate the mapping
        np.testing.assert_array_equal(m.indices, graph.indices)


class TestValidation:
    def test_chunked_validate_passes(self, graph, tmp_path):
        save_mmap(graph, tmp_path / "g.store")
        open_mmap(tmp_path / "g.store", chunk_edges=17).validate()

    def test_detects_asymmetry(self, graph, tmp_path):
        save_mmap(graph, tmp_path / "g.store")
        idx = np.memmap(tmp_path / "g.store" / "indices.bin",
                        dtype="<i8", mode="r+")
        idx[3] = (idx[3] + 1) % graph.n  # break one directed edge
        idx.flush()
        with pytest.raises(GraphValidationError, match="symmetric|sorted|dup"):
            open_mmap(tmp_path / "g.store", chunk_edges=17)

    @pytest.mark.parametrize(
        "file, value",
        [("weights.bin", np.nan), ("self_weight.bin", np.inf),
         ("self_weight.bin", np.nan)],
    )
    def test_non_finite_weight_rejected(self, graph, tmp_path, file, value):
        save_mmap(graph, tmp_path / "g.store")
        arr = np.memmap(tmp_path / "g.store" / file, dtype="<f8", mode="r+")
        if file == "weights.bin":
            # both directions of one edge, so symmetry still holds
            u, v = 0, int(graph.indices[0])
            mirror = graph.indptr[v] + np.searchsorted(graph.neighbors(v), u)
            arr[[0, mirror]] = value
        else:
            arr[1] = value
        arr.flush()
        with pytest.raises(GraphValidationError, match="finite"):
            open_mmap(tmp_path / "g.store", chunk_edges=17)

    def test_truncated_file_rejected(self, graph, tmp_path):
        save_mmap(graph, tmp_path / "g.store")
        with open(tmp_path / "g.store" / "weights.bin", "r+b") as fh:
            fh.truncate(8)
        with pytest.raises(GraphFormatError):
            open_mmap(tmp_path / "g.store")

    def test_not_a_store(self, tmp_path):
        assert not is_mmap_store(tmp_path)
        with pytest.raises(GraphFormatError):
            open_mmap(tmp_path)


class TestWriter:
    def test_writer_equals_save(self, tmp_path):
        g = ring_of_cliques(4, 5)
        with MmapCSRWriter(tmp_path / "w.store", g.n, name=g.name) as w:
            for v0, v1 in iter_row_blocks(g.indptr, 16):
                lo, hi = g.indptr[v0], g.indptr[v1]
                counts = np.diff(g.indptr[v0:v1 + 1])
                w.append_rows(counts, g.indices[lo:hi], g.weights[lo:hi])
            w.add_self_weight(np.arange(g.n), g.self_weight)
            m = w.finalize()
        assert m.fingerprint == g.fingerprint

    def test_abort_removes_partial_store(self, tmp_path):
        w = MmapCSRWriter(tmp_path / "p.store", 4, name="partial")
        w.append_rows(np.array([1]), np.array([1]), np.array([1.0]))
        w.abort()
        assert not is_mmap_store(tmp_path / "p.store")


class TestChunkHelpers:
    def test_iter_row_blocks_covers_all_rows(self, graph):
        blocks = list(iter_row_blocks(graph.indptr, 13))
        assert blocks[0][0] == 0 and blocks[-1][1] == graph.n
        for (a0, a1), (b0, b1) in zip(blocks, blocks[1:]):
            assert a1 == b0

    def test_split_by_edges_partitions_input(self, graph):
        verts = np.arange(0, graph.n, 2)
        parts = list(split_by_edges(verts, graph.degrees[verts], 32))
        np.testing.assert_array_equal(np.concatenate(parts), verts)
        released = []
        list(split_by_edges(verts, graph.degrees[verts], 32,
                            release=lambda: released.append(1)))
        assert len(released) == len(parts)

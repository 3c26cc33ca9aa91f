"""Shared fixtures: small graphs with known structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import from_edge_array
from repro.graph.coarsen import coarsen_graph, coarsen_runtime
from repro.graph.generators import (
    karate_club,
    lfr_graph,
    LFRParams,
    planted_partition,
    ring_of_cliques,
    two_triangles,
)


@pytest.fixture
def triangles():
    """Two triangles bridged by one edge; optimum = {0,1,2} | {3,4,5}."""
    return two_triangles()


@pytest.fixture
def karate():
    return karate_club()


@pytest.fixture
def ring():
    """8 cliques of 6 in a ring; optimum = one community per clique."""
    return ring_of_cliques(8, 6)


@pytest.fixture
def planted():
    """Planted partition with well-separated blocks + ground truth."""
    return planted_partition(6, 40, p_in=0.4, p_out=0.01, seed=7)


@pytest.fixture(scope="session")
def lfr_small():
    """A small LFR graph with ground truth (session-scoped: generation is
    the slow part of these tests)."""
    return lfr_graph(LFRParams(n=600, mu=0.2, min_degree=5, max_degree=30,
                               min_community=20, max_community=100, seed=42))


@pytest.fixture
def weighted_graph():
    """Small weighted graph with a self-loop and parallel-input edges."""
    src = np.array([0, 0, 1, 2, 2, 3, 3])
    dst = np.array([1, 1, 2, 3, 2, 4, 0])
    w = np.array([1.0, 2.0, 1.5, 1.0, 3.0, 2.5, 0.5])
    return from_edge_array(5, src, dst, w, name="weighted5")


@pytest.fixture(scope="session")
def assert_same_coarse():
    """Checker: ``coarsen_graph`` under a jit ``runtime`` returns the
    NumPy contraction's five arrays byte for byte, dtypes included, and a
    valid coarse graph; returns the compiled result."""

    def check(graph, communities, runtime):
        ref, ref_map = coarsen_graph(graph, communities)
        with coarsen_runtime(runtime):
            got, got_map = coarsen_graph(graph, communities)
        for name, a, b in [
            ("indptr", ref.indptr, got.indptr),
            ("indices", ref.indices, got.indices),
            ("weights", ref.weights, got.weights),
            ("self_weight", ref.self_weight, got.self_weight),
            ("mapping", ref_map, got_map),
        ]:
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        got.validate()
        return got, got_map

    return check

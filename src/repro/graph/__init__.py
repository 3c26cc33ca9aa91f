"""Graph substrate: CSR storage, builders, I/O, generators, coarsening.

The whole library operates on :class:`repro.graph.csr.CSRGraph`, a weighted
undirected graph in compressed-sparse-row form with self-loops held out of
the adjacency in an explicit ``self_weight`` array (see the class docstring
for the weight conventions, which follow the paper's Section 2.1).
"""

from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import compute_csr_sha256, csr_sha256, graph_fingerprint
from repro.graph.builder import (
    build_csr,
    from_edge_array,
    symmetrize_edges,
    coalesce_edges,
)
from repro.graph.coarsen import coarsen_graph
from repro.graph.mmap_store import (
    MmapCSRGraph,
    MmapCSRWriter,
    is_mmap_store,
    open_mmap,
    save_mmap,
)
from repro.graph.external import build_from_edge_chunks, edge_list_to_mmap
from repro.graph.partition import VertexPartition, partition_contiguous, partition_by_degree

__all__ = [
    "CSRGraph",
    "csr_sha256",
    "compute_csr_sha256",
    "graph_fingerprint",
    "build_csr",
    "from_edge_array",
    "symmetrize_edges",
    "coalesce_edges",
    "coarsen_graph",
    "MmapCSRGraph",
    "MmapCSRWriter",
    "is_mmap_store",
    "open_mmap",
    "save_mmap",
    "build_from_edge_chunks",
    "edge_list_to_mmap",
    "VertexPartition",
    "partition_contiguous",
    "partition_by_degree",
]

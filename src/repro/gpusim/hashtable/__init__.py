"""Simulated per-block hashtables for the hash-based kernel (Section 4.2).

Three designs the paper compares:

* :class:`GlobalOnlyHashTable` — every bucket in global memory (the naive
  design of earlier GPU Louvain implementations [8, 15, 39]);
* :class:`UnifiedHashTable` — one hash function over the concatenated
  shared+global bucket array, implicitly weighting the two levels equally;
* :class:`HierarchicalHashTable` — GALA's design: probe a shared-memory
  bucket first (hash ``h0``), fall back to global (hash ``h1`` + linear
  probing) only on collision.

All tables map a community id to an accumulated ``d_C(v)`` weight and keep
the Figure 4 statistics: where each community ended up *maintained* and
where each access was *served*.

:class:`BatchedTables` is the structure-of-arrays counterpart used by the
batched execution engine: N independent tables of one ``kind``, whose
probes are resolved for a whole key stream at once by a fixed point over
insertion order, bit-exact with N scalar tables (see
``hashtable/batched.py``).
"""

from repro.gpusim.hashtable.base import SimHashTable
from repro.gpusim.hashtable.batched import BatchedTables, StreamRuns
from repro.gpusim.hashtable.global_only import GlobalOnlyHashTable
from repro.gpusim.hashtable.unified import UnifiedHashTable
from repro.gpusim.hashtable.hierarchical import HierarchicalHashTable

TABLE_KINDS = {
    "global": GlobalOnlyHashTable,
    "unified": UnifiedHashTable,
    "hierarchical": HierarchicalHashTable,
}


def make_table(kind: str, device, shared_buckets: int, global_buckets: int):
    """Construct a hashtable by name (``global``/``unified``/``hierarchical``)."""
    try:
        cls = TABLE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown hashtable kind {kind!r}; expected one of {sorted(TABLE_KINDS)}"
        ) from None
    return cls(device, shared_buckets, global_buckets)


__all__ = [
    "SimHashTable",
    "BatchedTables",
    "StreamRuns",
    "GlobalOnlyHashTable",
    "UnifiedHashTable",
    "HierarchicalHashTable",
    "TABLE_KINDS",
    "make_table",
]

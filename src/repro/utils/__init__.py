"""Small shared utilities: RNG handling, array helpers, logging."""

from repro.utils.rng import as_generator, spawn_children
from repro.utils.arrays import (
    segment_argmax,
    segment_max,
    segment_sum,
    repeat_by_counts,
    compact_relabel,
)

__all__ = [
    "as_generator",
    "spawn_children",
    "segment_argmax",
    "segment_max",
    "segment_sum",
    "repeat_by_counts",
    "compact_relabel",
]

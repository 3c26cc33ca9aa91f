"""Small shared utilities: RNG handling, array helpers, worker processes."""

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
    "set_pdeathsig",
]


def set_pdeathsig() -> None:
    """Ask Linux to SIGTERM this worker process if its parent dies (best
    effort; a no-op where ``prctl`` is unavailable)."""
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except Exception:
        pass

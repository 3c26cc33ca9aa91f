"""Shared-memory array blocks for the multiprocess runtime.

One ``multiprocessing.shared_memory.SharedMemory`` segment holds every
array the parent and the rank workers exchange (assignments, community
aggregates, the active mask, status words). A :class:`ShmLayout` maps
names to ``(offset, shape, dtype)`` so both sides construct identical
NumPy views over the same physical pages — the halo exchange of the
simulated multi-GPU runtime becomes plain writes to one mapping.

Lifecycle rules this module encodes:

* the **parent** creates the segment and is the only process that ever
  ``unlink``\\ s it;
* **workers** attach by name. They are ``mp.Process`` children, so they
  share the parent's ``resource_tracker`` (fork inherits the fd; spawn
  passes it through), where the attach-time re-registration lands in a
  set and is a no-op — workers must NOT explicitly unregister, or the
  first unregister strips the name and every later one (including the
  parent's own unlink) spams tracker ``KeyError`` tracebacks;
* both sides ``close()`` their own mapping; ``close``/``unlink`` are
  idempotent and swallow "already gone" errors so crash-path cleanup can
  call them unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

#: alignment for each array's offset — cache-line friendly and satisfies
#: any dtype alignment NumPy could want
_ALIGN = 64


@dataclass
class ShmLayout:
    """Name → (offset, shape, dtype) plan for one shared segment."""

    fields: dict = field(default_factory=dict)
    nbytes: int = 0

    def add(self, name: str, shape: tuple, dtype) -> "ShmLayout":
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        self.fields[name] = (self.nbytes, tuple(shape), dt.str)
        size = count * dt.itemsize
        self.nbytes += (size + _ALIGN - 1) // _ALIGN * _ALIGN
        return self

    def views(self, buf) -> dict:
        """NumPy views of every field over ``buf`` (a shared buffer)."""
        out = {}
        for name, (offset, shape, dtype) in self.fields.items():
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            out[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf, offset=offset
            ) if count else np.empty(shape, dtype=np.dtype(dtype))
        return out


class SharedArrays:
    """A created-or-attached shared segment plus its named array views."""

    def __init__(self, shm: shared_memory.SharedMemory, layout: ShmLayout,
                 owner: bool):
        self.shm = shm
        self.layout = layout
        self.owner = owner
        self.arrays = layout.views(shm.buf)
        self._closed = False

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # drop the views first — closing a SharedMemory with live ndarray
        # views raises BufferError on CPython
        self.arrays = {}
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass


def create_shared(layout: ShmLayout) -> SharedArrays:
    """Create a new zero-filled segment for ``layout`` (parent side)."""
    shm = shared_memory.SharedMemory(create=True, size=max(layout.nbytes, 1))
    # SharedMemory zero-fills on Linux; make it explicit for portability
    # (without materialising an nbytes-sized temporary)
    np.frombuffer(shm.buf, dtype=np.uint8, count=layout.nbytes)[:] = 0
    return SharedArrays(shm, layout, owner=True)


def attach_shared(name: str, layout: ShmLayout) -> SharedArrays:
    """Attach an existing segment by name (worker side).

    The worker shares the parent's resource tracker (see module
    docstring), so no tracker bookkeeping is needed here — only the
    parent unlinks.
    """
    shm = shared_memory.SharedMemory(name=name)
    return SharedArrays(shm, layout, owner=False)

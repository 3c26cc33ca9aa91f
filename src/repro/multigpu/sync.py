"""Dense / sparse / halo / adaptive synchronisation (paper Section 4.3).

After each BSP iteration every device must see the new community id of
every vertex it reads. Two representations [18], plus the point-to-point
scheme of distributed-memory Louvain (Vite [24]):

* **dense** — AllReduce full-length arrays. Volume is O(n) regardless of
  how much changed; best in early iterations when most vertices move.
* **sparse** — AllGather only the moved vertices as (id, value) pairs.
  Volume is O(moved); wins in late iterations, at the cost of a local
  scatter ("slight data rearrangement overhead", which we charge too).
* **halo** — each device mirrors only its owned and ghost vertices and
  sends each neighbouring device exactly the movers that device ghosts
  (:mod:`repro.multigpu.halo`). Volume is O(boundary movers), in
  point-to-point messages.

The adaptive policy compares the dense and sparse volumes each iteration
and picks the cheaper one, which is exactly the paper's "threshold
according to communication size". Every plan also reports the halo
volume of the same iteration, so the three can be read side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class SyncMode(str, Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    HALO = "halo"
    ADAPTIVE = "adaptive"


#: bytes synchronised per vertex in dense mode: community id (8) +
#: movement flag (1) + community weight (8)
DENSE_BYTES_PER_VERTEX = 17
#: bytes per moved vertex in sparse mode: vertex id (8) + community id (8)
#: + community weight (8)
SPARSE_BYTES_PER_MOVED = 24


@dataclass(frozen=True)
class SyncPlan:
    """The volume comparison behind one iteration's mode choice."""

    mode: SyncMode
    dense_bytes: int
    sparse_bytes: int
    num_moved: int
    n: int
    #: what the halo exchange of the same movers carries, all ranks summed
    halo_bytes: int = 0

    @property
    def chosen_bytes(self) -> int:
        if self.mode is SyncMode.DENSE:
            return self.dense_bytes
        if self.mode is SyncMode.HALO:
            return self.halo_bytes
        return self.sparse_bytes


def choose_sync_mode(
    n: int,
    num_moved: int,
    requested: SyncMode = SyncMode.ADAPTIVE,
    halo_bytes: int = 0,
) -> SyncPlan:
    """Pick the sync mode of one iteration.

    In adaptive mode, sparse wins when its total volume (every rank
    gathering every other rank's moved set) is below the dense AllReduce
    volume; halo runs only when requested.
    """
    dense_bytes = n * DENSE_BYTES_PER_VERTEX
    sparse_bytes = num_moved * SPARSE_BYTES_PER_MOVED
    if requested is SyncMode.ADAPTIVE:
        mode = SyncMode.SPARSE if sparse_bytes < dense_bytes else SyncMode.DENSE
    else:
        mode = requested
    return SyncPlan(
        mode=mode,
        dense_bytes=dense_bytes,
        sparse_bytes=sparse_bytes,
        num_moved=num_moved,
        n=n,
        halo_bytes=halo_bytes,
    )


def dense_sync_comm(comm_chunks, owners_masks, communicator):
    """Dense AllReduce of the full community array.

    Each rank contributes a full-length buffer holding its owned entries
    and ``-1`` elsewhere; a max-AllReduce reconstructs the global array
    (community ids are non-negative).
    """
    buffers = []
    for chunk, mask in zip(comm_chunks, owners_masks):
        buf = np.full(len(mask), -1, dtype=np.int64)
        buf[mask] = chunk[mask]
        buffers.append(buf)
    return communicator.all_reduce_max(buffers)


def sparse_sync_comm(comm, moved_ids_per_rank, communicator):
    """Sparse AllGather of (vertex, community) pairs of moved vertices.

    ``comm`` is each rank's pre-sync array (identical across ranks for the
    unmoved entries); moved entries are patched in from the gathered pairs.
    Returns the patched array.
    """
    pairs = []
    for ids in moved_ids_per_rank:
        ids = np.asarray(ids, dtype=np.int64)
        pairs.append(np.stack([ids, comm[ids]]) if len(ids) else np.empty((2, 0), dtype=np.int64))
    flat = [p.ravel() for p in pairs]
    gathered = communicator.all_gather(flat)
    # Rebuild: consume each rank's (ids, values) block.
    out = comm.copy()
    offset = 0
    for p in pairs:
        k = p.shape[1]
        block = gathered[offset: offset + 2 * k].reshape(2, k)
        out[block[0]] = block[1]
        offset += 2 * k
    return out

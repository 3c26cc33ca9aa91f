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

Each mode is priced by the communicator's formula for what its builder
moves, so a plan's seconds are what the devices are charged. Adaptive
picks sparse iff that price is below dense's (the paper's "threshold
according to communication size"); halo runs only when requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.nccl import Communicator

#: the element of both collectives' buffers: community and vertex ids
SYNC_DTYPE = np.dtype(np.int64)


class SyncMode(str, Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    HALO = "halo"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class SyncPlan:
    """Every mode's bytes and priced seconds in one iteration (halo's
    summed over ranks), and the mode chosen."""

    mode: SyncMode
    num_moved: int
    dense_bytes: int
    sparse_bytes: int
    halo_bytes: int
    dense_s: float
    sparse_s: float
    halo_s: float

    @property
    def chosen_bytes(self) -> int:
        return getattr(self, f"{self.mode.value}_bytes")

    @property
    def chosen_s(self) -> float:
        return getattr(self, f"{self.mode.value}_s")

    def record(self) -> dict:
        """The choice and its inputs: the sync span args, the metrics record."""
        prices = {
            f"{m}_{u}": getattr(self, f"{m}_{u}")
            for m in ("dense", "sparse", "halo") for u in ("bytes", "s")
        }
        return {"bytes": self.chosen_bytes, "seconds": self.chosen_s,
                "moved": self.num_moved, **prices}


def choose_sync_mode(
    n: int,
    movers: Sequence[np.ndarray],
    halo: tuple[Sequence[int], Sequence[int]],
    communicator: Communicator,
    requested: SyncMode = SyncMode.ADAPTIVE,
) -> SyncPlan:
    """Price one iteration's sync in every mode, on the buffers each mode
    builds from ``movers`` (per rank) and the halo exchange's per-rank
    bytes and messages ``halo``, and pick one. A tie (one device, where
    every price is 0) goes to dense."""
    num_moved = sum(len(ids) for ids in movers)
    dense_bytes = n * SYNC_DTYPE.itemsize
    dense_s = communicator.allreduce_seconds(dense_bytes)
    chunk_bytes = [2 * len(ids) * SYNC_DTYPE.itemsize for ids in movers]
    sparse_s = communicator.allgather_seconds(max(chunk_bytes))
    sparse_s += _scatter_seconds(communicator, num_moved)
    if requested is SyncMode.ADAPTIVE:
        requested = SyncMode.SPARSE if sparse_s < dense_s else SyncMode.DENSE
    return SyncPlan(
        mode=requested, num_moved=num_moved,
        dense_bytes=dense_bytes, dense_s=dense_s,
        sparse_bytes=sum(chunk_bytes), sparse_s=sparse_s,
        halo_bytes=sum(halo[0]), halo_s=communicator.point_to_point_seconds(*halo),
    )


def dense_sync_comm(comm, owned_masks, communicator):
    """Dense max-AllReduce of the community array: each rank contributes
    ``comm`` on its owned entries and ``-1`` elsewhere, so the maximum
    (community ids are non-negative) is the global array."""
    return communicator.all_reduce_max(
        [np.where(mask, comm, -1).astype(SYNC_DTYPE) for mask in owned_masks]
    )


def _scatter_seconds(communicator: Communicator, num_moved: int) -> float:
    """The local scatter of the gathered pairs ("slight data rearrangement
    overhead"): a bulk kernel at streaming rates; none on one device."""
    if communicator.size == 1:
        return 0.0
    cfg = communicator.devices[0].config
    cycles = cfg.cost.access(MemoryKind.GLOBAL, max(num_moved, 1), coalesced=True)
    return cycles / cfg.clock_hz


def sparse_sync_comm(comm, moved_ids_per_rank, communicator):
    """Sparse AllGather of (vertex, community) pairs of moved vertices,
    then each device's local scatter, both charged.

    ``comm`` is each rank's pre-sync array (identical across ranks for the
    unmoved entries); moved entries are patched in from the gathered pairs.
    Returns the patched array.
    """
    ids_per_rank = [np.asarray(ids, dtype=SYNC_DTYPE) for ids in moved_ids_per_rank]
    gathered = communicator.all_gather(
        [np.concatenate([ids, comm[ids]]) for ids in ids_per_rank]
    )
    out = comm.copy()
    offset = 0
    for ids in ids_per_rank:  # consume each rank's (ids, values) block
        block_ids, values = gathered[offset : offset + 2 * len(ids)].reshape(2, -1)
        out[block_ids] = values
        offset += 2 * len(ids)
    scatter_s = _scatter_seconds(communicator, offset // 2)
    communicator.charge(scatter_s, "comm_sparse_scatter")
    return out

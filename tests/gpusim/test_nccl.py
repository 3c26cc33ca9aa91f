"""Tests for the simulated NCCL collectives."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpusim.device import Device
from repro.gpusim.nccl import Communicator


def make_comm(k):
    return Communicator([Device(device_id=i) for i in range(k)])


class TestAllReduce:
    def test_max_semantics(self):
        comm = make_comm(3)
        bufs = [
            np.array([-1, 5, -1]),
            np.array([2, -1, -1]),
            np.array([-1, -1, 7]),
        ]
        out = comm.all_reduce_max(bufs)
        np.testing.assert_array_equal(out, [2, 5, 7])

    def test_single_rank_free(self):
        comm = make_comm(1)
        comm.all_reduce_max([np.arange(10)])
        assert comm.devices[0].profiler.cycles.get("comm_dense", 0.0) == 0.0

    def test_cost_grows_with_size(self):
        small = make_comm(4)
        big = make_comm(4)
        small.all_reduce_max([np.zeros(10, dtype=np.int64)] * 4)
        big.all_reduce_max([np.zeros(100_000, dtype=np.int64)] * 4)
        assert (
            big.devices[0].profiler.total_cycles
            > small.devices[0].profiler.total_cycles
        )

    def test_all_devices_charged_equally(self):
        comm = make_comm(3)
        comm.all_reduce_max([np.zeros(1000, dtype=np.int64)] * 3)
        totals = [d.profiler.total_cycles for d in comm.devices]
        assert totals[0] > 0
        assert totals[0] == totals[1] == totals[2]

    def test_shape_mismatch_rejected(self):
        comm = make_comm(2)
        with pytest.raises(DeviceError):
            comm.all_reduce_max([np.zeros(3), np.zeros(4)])
        with pytest.raises(DeviceError):
            comm.all_reduce_max([np.zeros(3)])


class TestAllGather:
    def test_concatenates(self):
        comm = make_comm(3)
        out = comm.all_gather([np.array([1]), np.array([2, 3]), np.array([], dtype=int)])
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_sparse_cheaper_than_dense_when_few_moved(self):
        """The whole point of sparse sync: gathering a handful of changes
        must cost less than allreducing the full array."""
        n = 200_000
        dense = make_comm(4)
        sparse = make_comm(4)
        dense.all_reduce_max([np.zeros(n, dtype=np.int64)] * 4)
        sparse.all_gather([np.zeros(50, dtype=np.int64)] * 4)
        assert (
            sparse.devices[0].profiler.total_cycles
            < dense.devices[0].profiler.total_cycles
        )

    def test_wrong_chunk_count(self):
        comm = make_comm(2)
        with pytest.raises(DeviceError):
            comm.all_gather([np.zeros(2)])

    def test_byte_counters(self):
        comm = make_comm(2)
        comm.all_reduce_max([np.zeros(10, dtype=np.int64)] * 2)
        comm.all_gather([np.zeros(5, dtype=np.int64)] * 2)
        prof = comm.devices[0].profiler
        assert prof.counters["dense_bytes"] == 80
        assert prof.counters["sparse_bytes"] == 80

    def test_empty_communicator_rejected(self):
        with pytest.raises(DeviceError):
            Communicator([])

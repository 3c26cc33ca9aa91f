"""Tests for the warp-level primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.gpusim.device import Device
from repro.gpusim.warp import WarpContext


def make_warp(active_lanes=32):
    dev = Device()
    active = np.zeros(32, dtype=bool)
    active[:active_lanes] = True
    return WarpContext(dev, active=active), dev


class TestMatchAny:
    def test_groups_equal_values(self):
        warp, _ = make_warp(4)
        values = np.zeros(32, dtype=np.int64)
        values[:4] = [7, 8, 7, 9]
        masks = warp.match_any_sync(values)
        assert masks[0] == 0b0101  # lanes 0 and 2 share value 7
        assert masks[2] == 0b0101
        assert masks[1] == 0b0010
        assert masks[3] == 0b1000

    def test_inactive_lanes_excluded(self):
        warp, _ = make_warp(2)
        values = np.full(32, 5, dtype=np.int64)
        masks = warp.match_any_sync(values)
        assert masks[0] == 0b11  # only lanes 0-1 active
        assert masks[5] == 0  # inactive lane gets no mask

    def test_charges_cost(self):
        warp, dev = make_warp()
        warp.match_any_sync(np.zeros(32, dtype=np.int64))
        assert dev.profiler.counters["warp_primitive_ops"] == 1
        assert dev.profiler.total_cycles > 0

    def test_wrong_width_rejected(self):
        warp, _ = make_warp()
        with pytest.raises(DeviceError):
            warp.match_any_sync(np.zeros(5))


class TestReduceAdd:
    def test_sums_per_group(self):
        warp, _ = make_warp(4)
        values = np.zeros(32)
        values[:4] = [1.0, 2.0, 3.0, 4.0]
        comms = np.zeros(32, dtype=np.int64)
        comms[:4] = [0, 1, 0, 1]
        masks = warp.match_any_sync(comms)
        sums = warp.reduce_add_sync(masks, values)
        np.testing.assert_allclose(sums[:4], [4.0, 6.0, 4.0, 6.0])

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.floats(0.1, 10.0)),
                 min_size=1, max_size=32)
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_python_groupby(self, lanes):
        warp, _ = make_warp(len(lanes))
        comms = np.zeros(32, dtype=np.int64)
        values = np.zeros(32)
        for i, (c, v) in enumerate(lanes):
            comms[i], values[i] = c, v
        masks = warp.match_any_sync(comms)
        sums = warp.reduce_add_sync(masks, values)
        for i, (c, _) in enumerate(lanes):
            expected = sum(v for cc, v in lanes if cc == c)
            assert sums[i] == pytest.approx(expected)


class TestReduceMaxAndMisc:
    def test_reduce_max(self):
        warp, _ = make_warp(3)
        values = np.full(32, -1e9)
        values[:3] = [1.0, 9.0, 3.0]
        assert warp.reduce_max_sync(values) == 9.0

    def test_reduce_max_ignores_inactive(self):
        warp, _ = make_warp(2)
        values = np.zeros(32)
        values[:2] = [1.0, 2.0]
        values[10] = 100.0  # inactive lane
        assert warp.reduce_max_sync(values) == 2.0

    def test_reduce_max_all_inactive(self):
        dev = Device()
        warp = WarpContext(dev, active=np.zeros(32, dtype=bool))
        assert warp.reduce_max_sync(np.ones(32)) == -np.inf

    def test_shfl(self):
        warp, _ = make_warp()
        values = np.arange(32, dtype=float)
        assert warp.shfl_idx_sync(values, 7) == 7.0
        with pytest.raises(DeviceError):
            warp.shfl_idx_sync(values, 40)

    def test_ballot(self):
        warp, _ = make_warp(4)
        pred = np.zeros(32, dtype=bool)
        pred[[0, 2, 10]] = True  # lane 10 inactive
        assert warp.ballot_sync(pred) == 0b0101

    def test_bad_active_mask_length(self):
        with pytest.raises(DeviceError):
            WarpContext(Device(), active=np.ones(8, dtype=bool))

    def test_non_boolean_active_mask(self):
        with pytest.raises(DeviceError):
            WarpContext(Device(), active=np.ones(32, dtype=np.int64))

    def test_default_active_mask_all_lanes(self):
        warp = WarpContext(Device())
        assert warp.active.dtype == np.bool_
        assert warp.active.all()

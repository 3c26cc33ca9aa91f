"""Tests for the warp-level primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.gpusim.device import Device
from repro.gpusim.warp import WarpBatch, WarpContext


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


#: lane register values: signed zeros, small integers-as-floats and
#: magnitudes from 1e-300 to 1e300, so sums cancel and order shows
LANE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-10.0, 10.0),
    st.builds(
        lambda sign, mag: sign * mag,
        st.sampled_from([1.0, -1.0]),
        st.floats(1e-300, 1e300),
    ),
)

#: one warp: (community, value, active) per lane; ids include the
#: kernel's -1 padding value, and some rows have no active lane
LANE_ROW = st.tuples(
    st.lists(
        st.tuples(st.integers(-1, 5), LANE_VALUES, st.booleans()),
        min_size=32, max_size=32,
    ),
    st.booleans(),  # True: the whole row is inactive
)

LANE_ROWS = st.lists(LANE_ROW, min_size=1, max_size=64)

#: arbitrary int64 masks, with bit 31, bit 63 and all-ones among them
ANY_MASK = st.one_of(
    st.sampled_from([0, 1 << 31, -(1 << 31), -1, (1 << 32) - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


def _bytes_equal(a, b):
    """Bit-for-bit equality: tells -0.0 from 0.0 (assert_array_equal
    does not)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes(), (a, b)


class TestWarpBatchParity:
    """WarpBatch must be bit-exact with per-row WarpContext calls —
    results AND profiler accounting."""

    @staticmethod
    def _unpack(rows):
        comms = np.array([[c for c, _, _ in row] for row, _ in rows], np.int64)
        vals = np.array([[v for _, v, _ in row] for row, _ in rows])
        active = np.array(
            [[a and not off for _, _, a in row] for row, off in rows], bool
        )
        return comms, vals, active

    @given(rows=LANE_ROWS)
    @settings(max_examples=40, deadline=None)
    def test_match_add_max_bit_equal(self, rows):
        comms, vals, active = self._unpack(rows)
        bdev = Device()
        batch = WarpBatch(bdev, active)
        b_masks = batch.match_any_sync(comms)
        b_sums = batch.reduce_add_sync(b_masks, vals)
        b_maxes = batch.reduce_max_sync(vals)
        b_ballots = batch.ballot_sync(vals > 0)

        sdev = Device()
        for r in range(len(rows)):
            warp = WarpContext(sdev, active=active[r])
            masks = warp.match_any_sync(comms[r])
            sums = warp.reduce_add_sync(masks, vals[r])
            _bytes_equal(b_masks[r], masks)
            # bit-equal floats, not approx: same 32-lane reduction
            _bytes_equal(b_sums[r], sums)
            _bytes_equal(b_maxes[r], warp.reduce_max_sync(vals[r]))
            assert b_ballots[r] == warp.ballot_sync(vals[r] > 0)
        assert sdev.profiler.diff(bdev.profiler) == {}

    @given(
        data=st.lists(
            st.tuples(LANE_ROW, st.lists(ANY_MASK, min_size=16, max_size=16)),
            min_size=1, max_size=64,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_reduce_add_arbitrary_masks_bit_equal(self, data):
        """Masks that no match produced: stray bits, bit 31, negative
        words, inactive lanes named — only bits 0-31 count."""
        _, vals, active = self._unpack([row for row, _ in data])
        # each row's 16 masks twice, so lanes share a group sum
        masks = np.array([m + m for _, m in data], dtype=np.int64)
        bdev = Device()
        b_sums = WarpBatch(bdev, active).reduce_add_sync(masks, vals)
        sdev = Device()
        for r in range(len(data)):
            warp = WarpContext(sdev, active=active[r])
            _bytes_equal(b_sums[r], warp.reduce_add_sync(masks[r], vals[r]))
        assert sdev.profiler.diff(bdev.profiler) == {}

    def test_shfl_reads_one_lane_per_row(self):
        dev = Device()
        batch = WarpBatch(dev, np.ones((3, 32), dtype=bool))
        vals = np.arange(96, dtype=float).reshape(3, 32)
        got = batch.shfl_idx_sync(vals, np.array([0, 7, 31]))
        np.testing.assert_array_equal(got, [0.0, 39.0, 95.0])
        assert dev.profiler.counters["warp_primitive_ops"] == 3
        with pytest.raises(DeviceError):
            batch.shfl_idx_sync(vals, np.array([0, 40, 0]))

    def test_charges_one_invocation_per_row(self):
        dev = Device()
        batch = WarpBatch(dev, np.ones((5, 32), dtype=bool))
        batch.match_any_sync(np.zeros((5, 32), dtype=np.int64))
        assert dev.profiler.counters["warp_primitive_ops"] == 5
        ref = Device()
        WarpContext(ref).match_any_sync(np.zeros(32, dtype=np.int64))
        assert dev.profiler.total_cycles == 5 * ref.profiler.total_cycles

    def test_all_inactive_row(self):
        batch = WarpBatch(Device(), np.zeros((1, 32), dtype=bool))
        assert batch.reduce_max_sync(np.ones((1, 32)))[0] == -np.inf
        assert batch.match_any_sync(np.ones((1, 32), dtype=np.int64)).sum() == 0

    def test_bad_lane_matrix(self):
        with pytest.raises(DeviceError):
            WarpBatch(Device(), np.ones((2, 8), dtype=bool))
        with pytest.raises(DeviceError):
            WarpBatch(Device(), np.ones(32, dtype=bool))
        with pytest.raises(DeviceError):
            WarpBatch(Device(), np.ones((2, 32), dtype=np.int64))

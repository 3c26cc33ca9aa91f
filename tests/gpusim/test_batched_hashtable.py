"""Round-trip tests pinning BatchedTables to the scalar hashtables.

The batched structure-of-arrays tables must replay N scalar tables'
find-or-insert protocol exactly: same bucket layouts, same accumulated
values (bit-equal, not approximately), same Figure 4 statistics, same
profiler charges, same capacity-exhaustion behaviour, same probe order.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashTableFullError
from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.device import Device
from repro.gpusim.hashtable import make_table
from repro.gpusim.hashtable.batched import BatchedTables

ALL_KINDS = ["global", "unified", "hierarchical"]

#: streams of (table, key, weight) ops across 3 tables
OPS = st.lists(
    st.tuples(
        st.integers(0, 2), st.integers(0, 40), st.floats(0.5, 5.0)
    ),
    min_size=1,
    max_size=80,
)


def _run_scalar(kind, ops, n_tables=3, s=16, g=256):
    dev = Device()
    tables = [make_table(kind, dev, s, g) for _ in range(n_tables)]
    for t, k, w in ops:
        tables[t].accumulate(int(k), float(w))
    return tables, dev


def _run_batched(kind, ops, n_tables=3, s=16, g=256):
    dev = Device()
    tables = BatchedTables(kind, dev, s, g, n_tables)
    arr = np.array([(t, k) for t, k, _ in ops], dtype=np.int64)
    w = np.array([w for _, _, w in ops], dtype=np.float64)
    runs = tables.accumulate_stream(arr[:, 0], arr[:, 1], w)
    return tables, dev, runs


class TestAccumulateRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(ops=OPS)
    @settings(max_examples=25, deadline=None)
    def test_contents_and_stats_bit_equal(self, kind, ops):
        scalar, sdev = _run_scalar(kind, ops)
        batched, bdev, _ = _run_batched(kind, ops)
        for t, table in enumerate(scalar):
            np.testing.assert_array_equal(batched.shared_keys[t], table.shared_keys)
            np.testing.assert_array_equal(batched.global_keys[t], table.global_keys)
            # bit-equal float accumulation (stream-order bincount sums)
            np.testing.assert_array_equal(batched.shared_vals[t], table.shared_vals)
            np.testing.assert_array_equal(batched.global_vals[t], table.global_vals)
            assert batched.maintained_shared[t] == table.maintained_shared
            assert batched.maintained_global[t] == table.maintained_global
            assert batched.accesses_shared[t] == table.accesses_shared
            assert batched.accesses_global[t] == table.accesses_global
        assert sdev.profiler.diff(bdev.profiler) == {}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(ops=OPS)
    @settings(max_examples=10, deadline=None)
    def test_runs_report_the_distinct_pairs(self, kind, ops):
        _, _, runs = _run_batched(kind, ops)
        expected = {}
        for t, k, w in ops:
            expected.setdefault((t, k), [0.0, 0])
            expected[(t, k)][0] += w
            expected[(t, k)][1] += 1
        got = {
            (int(t), int(k)): (float(v), int(o))
            for t, k, v, o in zip(runs.table, runs.key, runs.value, runs.occ)
        }
        assert set(got) == set(expected)
        for pair, (v, o) in got.items():
            assert o == expected[pair][1]
            assert v == pytest.approx(expected[pair][0])
        # runs come back grouped by table id
        assert np.all(np.diff(runs.table) >= 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_items_flat_matches_scalar_items(self, kind):
        ops = [(t, (k * 13) % 23, 1.0 + k) for t in range(3) for k in range(12)]
        scalar, _ = _run_scalar(kind, ops)
        batched, _, _ = _run_batched(kind, ops)
        tb, ky, vl = batched.items_flat()
        for t, table in enumerate(scalar):
            keys, vals = table.items()
            sel = tb == t
            np.testing.assert_array_equal(ky[sel], keys)
            np.testing.assert_array_equal(vl[sel], vals)


#: one stream of (table, key, weight) ops over 2 tables, keys drawn from
#: a small range so repeats and re-finds are common
SMALL_OPS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 24), st.floats(0.5, 5.0)),
    min_size=1,
    max_size=30,
)


class TestForcedCollisions:
    """Tiny tables make long collision chains: the probe resolution must
    still replay the scalar insertion order, across two streams."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(
        s=st.sampled_from([1, 2, 4]),
        g=st.sampled_from([4, 8, 16]),
        first=SMALL_OPS,
        second=SMALL_OPS,
    )
    @settings(max_examples=60, deadline=None)
    def test_two_streams_match_scalar(self, kind, s, g, first, second):
        sdev, bdev = Device(), Device()
        scalar = [make_table(kind, sdev, s, g) for _ in range(2)]
        batched = BatchedTables(kind, bdev, s, g, 2)
        for call, ops in enumerate((first, second)):
            scalar_raised = batched_raised = False
            try:
                for t, k, w in ops:
                    scalar[t].accumulate(k, w)
            except HashTableFullError:
                scalar_raised = True
            try:
                runs = batched.accumulate_stream(
                    np.array([t for t, _, _ in ops], dtype=np.int64),
                    np.array([k for _, k, _ in ops], dtype=np.int64),
                    np.array([w for _, _, w in ops]),
                )
            except HashTableFullError:
                batched_raised = True
            assert scalar_raised == batched_raised
            if scalar_raised:
                return  # the scalar tables are left half-filled
            for t, table in enumerate(scalar):
                for attr in ("shared_keys", "global_keys"):
                    np.testing.assert_array_equal(
                        getattr(batched, attr)[t], getattr(table, attr)
                    )
                for attr in ("shared_vals", "global_vals"):
                    # the second call adds its pre-summed totals to buckets
                    # already holding weight: equal up to rounding
                    np.testing.assert_allclose(
                        getattr(batched, attr)[t], getattr(table, attr),
                        rtol=0 if call == 0 else 1e-12,
                    )
                for attr in ("maintained_shared", "maintained_global",
                             "accesses_shared", "accesses_global"):
                    assert getattr(batched, attr)[t] == getattr(table, attr)
            assert sdev.profiler.diff(bdev.profiler) == {}
            # each run reports the probes of one traversal: the scalar
            # probe sequence up to the bucket that holds its key
            for t, k, sh, gl in zip(runs.table, runs.key,
                                    runs.probes_shared, runs.probes_global):
                path = []
                for space, slot in scalar[t].probe_sequence(int(k)):
                    path.append(space)
                    if scalar[t]._arrays(space)[0][slot] == k:
                        break
                assert path.count(MemoryKind.SHARED) == sh
                assert path.count(MemoryKind.GLOBAL) == gl


class TestCapacityExhaustion:
    def test_overfull_raises_like_scalar(self):
        ops = [(0, k, 1.0) for k in range(5)]  # 5 distinct keys, 4 buckets
        with pytest.raises(HashTableFullError):
            _run_scalar("global", ops, n_tables=1, s=0, g=4)
        with pytest.raises(HashTableFullError, match="no free bucket"):
            _run_batched("global", ops, n_tables=1, s=0, g=4)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(ops=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 30), st.floats(0.5, 2.0)),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=15, deadline=None)
    def test_raise_parity_on_tiny_tables(self, kind, ops):
        """Scalar raises iff batched raises (the reported key may differ
        when several tables exhaust, but the outcome never does)."""
        scalar_raised = batched_raised = False
        try:
            _run_scalar(kind, ops, n_tables=2, s=2, g=4)
        except HashTableFullError:
            scalar_raised = True
        try:
            _run_batched(kind, ops, n_tables=2, s=2, g=4)
        except HashTableFullError:
            batched_raised = True
        assert scalar_raised == batched_raised

    def test_fits_exactly_at_capacity(self):
        ops = [(0, k, 1.0) for k in range(4)]
        tables, _, runs = _run_batched("global", ops, n_tables=1, s=0, g=4)
        assert tables.num_entries[0] == 4
        assert len(runs) == 4


class TestProbeOrder:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("key", [0, 1, 7, 40, 12345])
    def test_probe_slots_match_scalar_probe_sequence(self, kind, key):
        dev = Device()
        scalar = make_table(kind, dev, 16, 64)
        batched = BatchedTables(kind, dev, 16, 64, 1)
        assert (scalar.s, scalar.g) == (batched.s, batched.g)
        seq = list(itertools.islice(scalar.probe_sequence(key), 12))
        assert len(seq) == min(batched.max_probes, 12)
        for p, (space, slot) in enumerate(seq):
            is_sh, slots = batched._probe_at(
                batched._homes(np.array([key])), np.array([p])
            )
            assert bool(is_sh[0]) == (space is MemoryKind.SHARED)
            assert int(slots[0]) == slot

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_geometry_matches_make_table(self, kind):
        for s, g in [(0, 0), (0, 7), (16, 0), (16, 64)]:
            dev = Device()
            scalar = make_table(kind, dev, s, g)
            batched = BatchedTables(kind, dev, s, g, 2)
            assert (batched.s, batched.g) == (scalar.s, scalar.g)

    def test_shared_budget_enforced(self):
        dev = Device()
        too_many = dev.config.max_shared_buckets() + 1
        with pytest.raises(HashTableFullError):
            BatchedTables("hierarchical", dev, too_many, 8, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BatchedTables("quantum", Device(), 8, 8, 1)


class TestResetAndEdges:
    def test_reset_clears_everything(self):
        tables, _, _ = _run_batched("hierarchical", [(0, 1, 1.0), (1, 2, 2.0)])
        tables.reset()
        assert np.all(tables.num_entries == 0)
        assert np.all(tables.shared_keys == -1)
        assert np.all(tables.global_keys == -1)

    def test_empty_stream(self):
        dev = Device()
        tables = BatchedTables("hierarchical", dev, 8, 8, 2)
        runs = tables.accumulate_stream(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        )
        assert len(runs) == 0
        assert dev.profiler.snapshot()["total_cycles"] == 0.0

    def test_table_id_out_of_range(self):
        tables = BatchedTables("hierarchical", Device(), 8, 8, 2)
        with pytest.raises(ValueError):
            tables.accumulate_stream(
                np.array([2]), np.array([1]), np.array([1.0])
            )

    def test_second_stream_finds_existing_keys(self):
        """Keys inserted by a previous call are found, not re-claimed."""
        dev = Device()
        tables = BatchedTables("hierarchical", dev, 8, 8, 1)
        tables.accumulate_stream(np.array([0]), np.array([5]), np.array([2.0]))
        maintained = int(tables.num_entries[0])
        runs = tables.accumulate_stream(
            np.array([0]), np.array([5]), np.array([3.0])
        )
        assert int(tables.num_entries[0]) == maintained  # no new claim
        assert not runs.probes_shared[0] == 0 or runs.probes_global[0] > 0
        _, ky, vl = tables.items_flat()
        assert list(ky) == [5]
        assert vl[0] == 5.0

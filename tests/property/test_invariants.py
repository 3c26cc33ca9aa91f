"""Property-based tests (hypothesis) of the library's core invariants.

Each property here is one of the theorems/identities the system is built
on, checked over randomly generated graphs and states:

1. modularity identities (range, invariance under community and vertex
   relabelling, Eq. 1 vs state);
2. coarsening preserves modularity and total weight, and the compiled
   counting-sort contraction equals the NumPy one byte for byte;
3. delta weight updates equal recomputation on arbitrary move batches,
   and the compiled mover-list delta equals the NumPy one bit for bit
   under any degree-bounded chunking of the movers;
4. the MG bound never produces a false negative (Theorem 6);
5. one DecideAndMove sweep from singletons never decreases modularity;
6. FN-free pruning reproduces the unpruned trajectory bit-for-bit;
7. a halo payload read off the destination's ghost mask is the sorted
   intersection of the sender's movers with its send list;
8. the compiled decide (at any thread count), MG mask and final-modularity
   pass equal their NumPy twins byte for byte.

The compiled properties (in 2, 3 and 8) check the ``cc`` runtime against
the NumPy paths, the only reference; they skip on a host with no working
C compiler.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.jit import get_runtime
from repro.core.kernels.vectorized import decide_moves
from repro.core.modularity import modularity
from repro.core.phase1 import Phase1Config, run_phase1
from repro.core.pruning.modularity_gain import ModularityGainPruning
from repro.core.state import CommunityState
from repro.core.weights import delta_update, make_weight_updater
from repro.graph.builder import build_csr, from_edge_array
from repro.graph.coarsen import coarsen_graph
from repro.graph.mmap_store import split_by_edges

_compiled = get_runtime()
needs_cc = pytest.mark.skipif(_compiled is None, reason="no compile provider here")
#: the compiled provider's leg; it skips on a host with no C compiler
DELTA_PROVIDERS = [pytest.param("cc", marks=needs_cc)]


@st.composite
def random_graphs(draw, max_n=16, max_edges=40, weighted=True, loops=True):
    """Small random weighted graphs (possibly disconnected, with loops)."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    if weighted:
        w = draw(
            st.lists(
                st.floats(0.25, 8.0, allow_nan=False), min_size=m, max_size=m
            )
        )
    else:
        w = [1.0] * m
    if not loops:
        pairs = [(s, d, x) for s, d, x in zip(src, dst, w) if s != d]
        if not pairs:
            pairs = [(0, 1, 1.0)]
        src, dst, w = map(list, zip(*pairs))
    return from_edge_array(n, np.array(src), np.array(dst), np.array(w))


@st.composite
def graph_with_partition(draw, **kwargs):
    g = draw(random_graphs(**kwargs))
    k = draw(st.integers(1, g.n))
    comm = draw(
        st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)
    )
    return g, np.array(comm, dtype=np.int64)


class TestModularityProperties:
    @given(graph_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_range_and_state_identity(self, gp):
        g, comm = gp
        q = modularity(g, comm)
        assert -1.0 <= q <= 1.0
        state = CommunityState.from_assignment(g, comm)
        assert state.modularity() == pytest.approx(q, abs=1e-10)

    @given(graph_with_partition(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_label_permutation_invariance(self, gp, seed):
        g, comm = gp
        rng = np.random.default_rng(seed)
        perm = rng.permutation(int(comm.max()) + 1)
        assert modularity(g, perm[comm]) == pytest.approx(
            modularity(g, comm), abs=1e-12
        )

    @given(graph_with_partition(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_vertex_relabel_invariance(self, gp, seed):
        g, comm = gp
        rng = np.random.default_rng(seed)
        new_id = rng.permutation(g.n)
        src = new_id[np.repeat(np.arange(g.n), np.diff(g.indptr))]
        dst = new_id[g.indices]
        order = np.lexsort((dst, src))
        self_weight = np.empty_like(g.self_weight)
        self_weight[new_id] = g.self_weight
        relabelled = build_csr(
            g.n, src[order], dst[order], g.weights[order], self_weight
        )
        relabelled.validate()
        moved = np.empty_like(comm)
        moved[new_id] = comm
        assert modularity(relabelled, moved) == pytest.approx(
            modularity(g, comm), abs=1e-12
        )

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_single_community_zero(self, g):
        assert modularity(g, np.zeros(g.n, dtype=int)) == pytest.approx(
            0.0, abs=1e-12
        )


class TestCoarsenProperties:
    @given(graph_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_preserves_weight_and_modularity(self, gp):
        g, comm = gp
        coarse, mapping = coarsen_graph(g, comm)
        coarse.validate()
        assert coarse.two_m == pytest.approx(g.two_m, rel=1e-12)
        q_fine = modularity(g, comm)
        q_coarse = modularity(coarse, np.arange(coarse.n))
        assert q_coarse == pytest.approx(q_fine, abs=1e-10)

    @given(graph_with_partition())
    @settings(max_examples=30, deadline=None)
    def test_strength_aggregates(self, gp):
        g, comm = gp
        coarse, mapping = coarsen_graph(g, comm)
        agg = np.zeros(coarse.n)
        np.add.at(agg, mapping, g.strength)
        np.testing.assert_allclose(coarse.strength, agg, atol=1e-9)


@st.composite
def dense_contractions(draw):
    """Graphs with fine self-loops, isolated vertices (ids past ``used``)
    and mixed-magnitude weights, dense enough that a coarse run can pass
    128 entries; assignments with compact, non-compact in-range and
    out-of-range ids, one community, or singletons."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sizes come from the seeded stream: drawn directly, they shrink
    # towards near-empty graphs whose runs never pass 128 entries
    n = int(rng.integers(1, 49))
    used = max(1, n - int(rng.integers(0, 3)))
    m = int(rng.integers(0, 2_000))
    src = rng.integers(0, used, m)
    dst = rng.integers(0, used, m)
    w = rng.random(m) * 10.0 ** rng.integers(-6, 7, m)
    g = from_edge_array(n, src, dst, w)
    kind = draw(st.sampled_from(
        ["compact", "sparse", "out_of_range", "one", "singletons"]
    ))
    comm = rng.integers(0, rng.integers(1, 5), n)
    if kind == "sparse":
        comm = rng.permutation(n)[comm % n]
    elif kind == "out_of_range":
        comm = comm * 1_000 - 7
    elif kind == "one":
        comm = np.full(n, draw(st.integers(-3, 3 * n)))
    elif kind == "singletons":
        comm = rng.permutation(n)
    return g, comm.astype(np.int64)


class TestCompiledCoarsen:
    """The compiled counting-sort ``coarsen`` against the NumPy
    contraction: ``indptr``, ``indices``, ``weights``, ``self_weight``
    and ``mapping`` byte-identical, dtypes equal, a valid coarse graph."""

    @pytest.mark.parametrize("provider", DELTA_PROVIDERS)
    @given(dense_contractions())
    @settings(max_examples=60, deadline=None)
    def test_byte_identical_to_numpy(self, provider, assert_same_coarse, case):
        g, comm = case
        assert_same_coarse(g, comm, _compiled)

    @pytest.mark.parametrize("provider", DELTA_PROVIDERS)
    def test_runs_past_128(self, provider, assert_same_coarse):
        """Two dense halves: every coarse run holds 20 * 20 = 400 entries."""
        rng = np.random.default_rng(5)
        a, b = np.arange(20), np.arange(20, 40)
        src = np.concatenate([np.repeat(a, 20), a, [3]])
        dst = np.concatenate([np.tile(b, 20), np.roll(a, 1), [3]])
        w = rng.random(len(src)) * 10.0 ** rng.integers(-6, 7, len(src))
        g = from_edge_array(41, src, dst, w)
        comm = np.repeat([9, 2, 40], [20, 20, 1])
        coarse, _ = assert_same_coarse(g, comm, _compiled)
        assert np.diff(coarse.indptr).tolist() == [1, 1, 0]


class TestDeltaUpdateProperty:
    @given(graph_with_partition(), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_delta_equals_recompute(self, gp, seed):
        g, comm = gp
        rng = np.random.default_rng(seed)
        state = CommunityState.from_assignment(g, comm)
        # arbitrary batch of moves into neighbouring communities
        prev = state.comm.copy()
        nxt = state.comm.copy()
        movers = rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)
        for v in movers:
            nbrs = g.neighbors(v)
            if len(nbrs):
                nxt[v] = state.comm[rng.choice(nbrs)]
        state.comm = nxt
        delta_update(state, prev, nxt != prev)
        ref = CommunityState.from_assignment(g, nxt)
        np.testing.assert_allclose(state.d_comm, ref.d_comm, atol=1e-9)


class TestChunkedCompiledDelta:
    """The compiled delta takes a mover list, so the multiprocess parent
    can call it per ``split_by_edges`` chunk; every chunking must give the
    one-shot NumPy :func:`delta_update` result bit for bit."""

    @staticmethod
    def _check(g, comm, nxt, runtime, chunk_edges):
        ref = CommunityState.from_assignment(g, comm)
        state = ref.copy()
        prev = ref.comm.copy()
        moved = nxt != prev
        ref.comm = nxt.copy()
        state.comm = nxt.copy()
        delta_update(ref, prev, moved)
        releases = []
        updater = make_weight_updater(
            "delta",
            runtime=runtime,
            chunk_edges=chunk_edges,
            release=lambda: releases.append(1),
        )
        updater(state, prev, moved)
        np.testing.assert_array_equal(state.d_comm, ref.d_comm)
        movers = np.flatnonzero(moved)
        counts = g.degrees[movers]
        expected_chunks = (
            len(list(split_by_edges(movers, counts, chunk_edges)))
            if counts.sum()
            else 0
        )
        assert len(releases) == expected_chunks

    @pytest.mark.parametrize("provider", DELTA_PROVIDERS)
    @given(graph_with_partition(), st.integers(0, 10_000), st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_is_bit_identical(self, provider, gp, seed, chunk_edges):
        g, comm = gp
        rng = np.random.default_rng(seed)
        # an arbitrary batch of moves to arbitrary labels
        nxt = comm.copy()
        movers = rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)
        nxt[movers] = rng.integers(0, g.n, size=len(movers))
        self._check(g, comm, nxt, _compiled, chunk_edges)

    @pytest.mark.parametrize("provider", DELTA_PROVIDERS)
    @pytest.mark.parametrize("chunk_edges", [1, 2, 5])
    def test_mover_degree_exceeds_chunk(self, provider, chunk_edges):
        """A hub mover whose row alone exceeds the chunk gets a chunk of
        its own; the leaf movers around it split at every boundary."""
        n = 9
        src = np.zeros(n - 1, dtype=np.int64)
        dst = np.arange(1, n, dtype=np.int64)
        w = np.linspace(0.5, 4.0, n - 1)
        # a star (hub degree 8) plus a path through the leaves
        g = from_edge_array(
            n,
            np.concatenate([src, dst[:-1]]),
            np.concatenate([dst, dst[1:]]),
            np.concatenate([w, w[:-1] * 1.5]),
        )
        comm = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
        nxt = np.array([1, 0, 1, 1, 2, 2, 3, 3, 0], dtype=np.int64)
        assert g.degrees[0] > chunk_edges
        self._check(g, comm, nxt, _compiled, chunk_edges)


class TestDecideProperties:
    @given(random_graphs(loops=False))
    @settings(max_examples=40, deadline=None)
    def test_first_sweep_never_decreases_q(self, g):
        state = CommunityState.singletons(g)
        result = decide_moves(state, np.arange(g.n))
        nxt = result.next_comm(state.comm)
        assert modularity(g, nxt) >= modularity(g, state.comm) - 1e-9

    @given(graph_with_partition())
    @settings(max_examples=40, deadline=None)
    def test_applied_moves_beat_staying(self, gp):
        """Every applied move strictly improves over staying, per Eq. 2."""
        g, comm = gp
        state = CommunityState.from_assignment(g, comm)
        result = decide_moves(state, np.arange(g.n))
        movers = np.flatnonzero(result.move)
        assert np.all(result.best_gain[movers] > result.stay_gain[movers])


class TestMGSoundnessProperty:
    @given(graph_with_partition(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_no_false_negative_on_any_state(self, gp, remove_self):
        """Theorem 6, property-tested: an MG-inactive vertex is never moved
        by a full DecideAndMove on the same state."""
        g, comm = gp
        state = CommunityState.from_assignment(g, comm)
        inactive = ModularityGainPruning().inactive_mask(state, remove_self)
        result = decide_moves(state, np.arange(g.n), remove_self=remove_self)
        nxt = result.next_comm(state.comm)
        moved = nxt != state.comm
        assert not np.any(moved & inactive)

    @given(graph_with_partition())
    @settings(max_examples=40, deadline=None)
    def test_neighborhood_bound_sound_too(self, gp):
        g, comm = gp
        state = CommunityState.from_assignment(g, comm)
        inactive = ModularityGainPruning(bound="neighborhood").inactive_mask(
            state, True
        )
        result = decide_moves(state, np.arange(g.n))
        moved = result.next_comm(state.comm) != state.comm
        assert not np.any(moved & inactive)


@needs_cc
class TestThreadedCompiledEntries:
    """The compiled per-vertex entries against their references: decide
    at 1, 2 and 3 forced threads against ``decide_moves``, the MG
    mask against the NumPy ``inactive_mask``, and the final-modularity
    ``internal_weights`` against ``modularity()``, byte for byte."""

    @given(
        graph_with_partition(max_n=300, max_edges=1200),
        st.sampled_from([1, 2, 3]),
        st.booleans(),
        st.sampled_from([0.5, 1.0, 1.7]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_decide_at_any_thread_count(self, gp, threads, remove_self,
                                        gamma, seed):
        g, comm = gp
        state = CommunityState.from_assignment(g, comm, resolution=gamma)
        n = g.n
        rng = np.random.default_rng(seed)
        slots = max(int(g.degrees.max()), 1)
        scratch = (np.zeros(threads * n), np.zeros(threads * n, dtype=np.int64),
                   np.zeros(threads * slots, dtype=np.int64))
        stamp = 0
        # two calls through one scratch: the stamps carry over
        for idx in (np.arange(n, dtype=np.int64),
                    np.flatnonzero(rng.random(n) < 0.5)):
            out = (np.empty(len(idx), dtype=np.int64), np.empty(len(idx)),
                   np.empty(len(idx)), np.empty(len(idx), dtype=np.bool_))
            end = _compiled.decide(
                idx, g.indptr, g.indices, g.weights, state.comm,
                g.strength, state.comm_strength, state.comm_size, gamma,
                float(g.total_weight), float(g.two_m), int(remove_self),
                *scratch, stamp, *out, threads,
            )
            assert end == stamp + len(idx)
            stamp = end
            ref = decide_moves(state, idx, remove_self)
            for a, b in zip(out, (ref.best_comm, ref.best_gain,
                                  ref.stay_gain, ref.move)):
                assert a.tobytes() == b.tobytes()

    @given(
        graph_with_partition(),
        st.booleans(),
        st.sampled_from([0.5, 1.3, 2.0]),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_mg_mask_matches_numpy(self, gp, remove_self, gamma, threads):
        g, comm = gp
        state = CommunityState.from_assignment(g, comm, resolution=gamma)
        mg = ModularityGainPruning()
        want = mg.inactive_mask(state, remove_self)
        got = mg.inactive_mask(state, remove_self, runtime=_compiled)
        assert got.tobytes() == want.tobytes()
        forced = np.empty(g.n, dtype=np.bool_)
        _compiled.mg_inactive(g.strength, g.self_weight, state.d_comm,
                              state.comm, state.comm_strength,
                              state.comm_size, gamma, g.two_m,
                              int(remove_self), mg.slack * g.two_m, forced,
                              threads)
        assert forced.tobytes() == want.tobytes()

    @given(graph_with_partition(), st.sampled_from([0.5, 1.0, 1.7]))
    @settings(max_examples=60, deadline=None)
    def test_final_modularity_matches(self, gp, gamma):
        from repro.core.modularity import community_internal_weights

        g, comm = gp
        want = community_internal_weights(g, comm)
        got = community_internal_weights(g, comm, runtime=_compiled)
        assert got.tobytes() == want.tobytes()
        q = modularity(g, comm, resolution=gamma, runtime=_compiled)
        assert np.float64(q).tobytes() == np.float64(
            modularity(g, comm, resolution=gamma)
        ).tobytes()


class TestTrajectoryProperty:
    @given(random_graphs(max_n=14, max_edges=30, loops=False))
    @settings(max_examples=25, deadline=None)
    def test_mg_trajectory_identical(self, g):
        base = run_phase1(g, Phase1Config(pruning="none", max_iterations=30))
        mg = run_phase1(g, Phase1Config(pruning="mg", max_iterations=30))
        np.testing.assert_array_equal(base.communities, mg.communities)
        assert base.modularity == pytest.approx(mg.modularity, abs=1e-12)


class TestRankSplitProperty:
    @given(
        random_graphs(max_n=40, max_edges=80),
        st.integers(1, 5),
        st.sampled_from(["contiguous", "degree"]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_equals_owned_mask_form(self, g, k, kind, data):
        """The executor core splits the sorted active ids (and movers) by
        owner in O(active); each share must equal the O(n) mask form."""
        from repro.core.phase1 import split_by_owner
        from repro.graph.partition import partition_by_degree, partition_contiguous

        split = partition_contiguous if kind == "contiguous" else partition_by_degree
        part = split(g, k)
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)),
            dtype=bool,
        )
        shares = split_by_owner(np.flatnonzero(mask), part)
        assert len(shares) == k
        for rank, share in enumerate(shares):
            owned = part.vertices_of(rank)
            np.testing.assert_array_equal(share, owned[mask[owned]])


class TestHaloPayloadProperty:
    @given(
        random_graphs(max_n=40, max_edges=80),
        st.integers(1, 5),
        st.sampled_from(["contiguous", "degree"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ghost_mask_payload_equals_intersection(self, g, k, kind, data):
        """Every (rank, dest) message of one exchange carries exactly
        ``intersect1d(rank_movers, send_list)``, in rank then send-list
        order, and the bytes and messages count those payloads."""
        from repro.core.engine import AlgorithmConfig
        from repro.multigpu.halo import HALO_BYTES_PER_UPDATE, HaloExecutor
        from repro.graph.partition import partition_by_degree, partition_contiguous

        class Recording(HaloExecutor):
            def _deliver(self, dest, payload, next_comm):
                self.sent.append((dest, payload.copy()))

        split = partition_contiguous if kind == "contiguous" else partition_by_degree
        ex = Recording(g, AlgorithmConfig(), k, split(g, k))
        ex.sent = []
        moved = np.array(
            data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)),
            dtype=bool,
        )
        movers = ex.rank_movers(moved)
        ex.exchange_halo(ex.state.comm, ex.halo_messages(movers))

        expected = []
        for view, rank_movers in zip(ex.views, movers):
            for dest, send_list in view.send_lists.items():
                payload = np.intersect1d(rank_movers, send_list)
                if len(payload):
                    expected.append((dest, payload))
        assert [d for d, _ in ex.sent] == [d for d, _ in expected]
        for (_, got), (_, want) in zip(ex.sent, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        sent = sum(len(p) for _, p in expected) * HALO_BYTES_PER_UPDATE
        assert ex.stats.bytes_per_iteration == [sent]
        assert ex.stats.messages_per_iteration == [len(expected)]


class TestDistributedEquivalenceProperty:
    @given(st.integers(0, 10_000), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_random_partitions_bit_identical(self, seed, k):
        """The halo-exchange runtime must match the single engine under
        ARBITRARY ownership assignments, not just contiguous ones."""
        from repro.graph.generators import planted_partition
        from repro.multigpu import MultiGpuConfig, SyncMode, run_multigpu_phase1
        from repro.graph.partition import VertexPartition

        g, _ = planted_partition(4, 20, 0.35, 0.03, seed=seed % 89)
        rng = np.random.default_rng(seed)
        owner = rng.integers(0, k, g.n).astype(np.int64)
        part = VertexPartition(owner=owner, num_parts=k)
        single = run_phase1(g, Phase1Config(pruning="mg"))
        dist = run_multigpu_phase1(
            g, MultiGpuConfig(num_gpus=k, sync_mode=SyncMode.HALO), part
        )
        np.testing.assert_array_equal(dist.communities, single.communities)

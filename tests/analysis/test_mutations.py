"""Mutation tests: seed one bug per checker, assert the matching flag.

Each test injects a specific defect into the simulated stack — a skipped
barrier, a plain (non-atomic) write, an out-of-bounds probe, a slot
populated without the claim protocol, a corrupted delta update, an
over-pruning bound — and asserts the sanitizer reports exactly that
defect class. Together with ``test_clean_runs.py`` (zero findings on
healthy runs) this pins both directions: no false negatives on seeded
bugs, no false positives on correct code.
"""

import numpy as np
import pytest

from repro import analysis
from repro.core.kernels.hash import HashKernel
from repro.core.phase1 import Phase1Config, run_phase1
from repro.core.pruning.modularity_gain import ModularityGainPruning
from repro.core.state import CommunityState
from repro.core.weights import WEIGHT_UPDATERS
from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.device import Device
from repro.gpusim.hashtable import GlobalOnlyHashTable, HierarchicalHashTable
from repro.gpusim.warp import WarpContext
from repro.graph.generators import karate_club


def random_state(graph, n_comms=12, seed=0):
    rng = np.random.default_rng(seed)
    return CommunityState.from_assignment(
        graph, rng.integers(0, n_comms, graph.n)
    )


class TestSkippedBarrier:
    """Removing the accumulate/gain barrier is a read-write hazard."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_hash_kernel_without_block_sync(self, monkeypatch, engine):
        graph = karate_club()
        state = random_state(graph)
        idx = np.arange(graph.n, dtype=np.int64)

        # control: the intact kernel is hazard-free
        with analysis.sanitized("fast") as clean:
            HashKernel(Device(), "hierarchical", engine=engine)(state, idx)
        assert clean.log.clean, clean.log.render()

        monkeypatch.setattr(HashKernel, "_block_sync", lambda self, san: None)
        with analysis.sanitized("fast") as san:
            HashKernel(Device(), "hierarchical", engine=engine)(state, idx)
        assert san.log.by_kind.get("read-write-hazard", 0) > 0
        assert san.log.count("racecheck") > 0
        # the hazards name the hash kernel's table regions
        f = next(iter(san.log))
        assert f.checker == "racecheck"
        assert f.space in ("shared", "global")


class TestPlainWriteRace:
    """Two lanes plain-writing one address races; atomics do not."""

    REGION = ("scatter", MemoryKind.GLOBAL.value)

    def test_concurrent_plain_stores_race(self):
        with analysis.sanitized("fast") as san:
            # lanes 0 and 1 scatter to the same global address unprotected
            san.race.access(self.REGION, [3, 3], [0, 1], "write", kernel="scatter")
            san.race.end_launch()
        assert san.log.by_kind.get("write-write-hazard", 0) == 1
        (f,) = san.log
        assert f.space == "global" and f.address == 3
        assert f.lanes == (0, 1)

    def test_atomic_adds_to_one_address_do_not_race(self):
        with analysis.sanitized("fast") as san:
            san.race.access(self.REGION, [3, 3], [0, 1], "atomic", kernel="scatter")
            san.race.end_launch()
        assert san.log.clean, san.log.render()


class TestOutOfBoundsProbe:
    """A probe outside the bucket array is reported and skipped."""

    def test_oob_probe_sequence_is_flagged_and_survived(self):
        class OffByFiveTable(GlobalOnlyHashTable):
            def probe_sequence(self, key):
                yield MemoryKind.GLOBAL, self.g + 5  # the seeded bug
                yield from super().probe_sequence(key)

        dev = Device()
        with analysis.sanitized("fast") as san:
            table = OffByFiveTable(dev, 0, 32)
            total = table.accumulate(7, 2.5)
        # cuda-memcheck style: the faulting probe is skipped, the
        # accumulate still lands in a legal bucket
        assert total == 2.5
        oob = [f for f in san.log if f.kind == "oob-access"]
        assert oob and oob[0].address == 37
        assert oob[0].space == "global"


class TestUninitialisedRead:
    """A slot populated without the claim protocol reads as undefined."""

    def test_bypassing_the_claim_protocol_is_flagged(self):
        dev = Device()
        with analysis.sanitized("fast") as san:
            table = HierarchicalHashTable(dev, 16, 32)
            table.accumulate(3, 1.0)  # legal claim
            table.shared_keys[7] = 42  # seeded: raw write, no atomicCAS
            table.shared_vals[7] = 9.9
            table.items()
        uninit = [f for f in san.log if f.kind == "uninitialised-read"]
        assert len(uninit) == 1
        assert uninit[0].address == 7 and uninit[0].space == "shared"


class TestCapacityOverflow:
    """Shared level filling completely before the spill is reported."""

    def test_tiny_shared_level_overflows(self):
        dev = Device()
        with analysis.sanitized("fast") as san:
            table = HierarchicalHashTable(dev, 2, 64)
            for key in range(16):
                table.accumulate(key, 1.0)
        assert san.log.by_kind.get("capacity-overflow", 0) > 0


class TestMaskMismatch:
    """Warp primitives with inconsistent participation masks."""

    def test_empty_active_mask(self):
        dev = Device()
        wc = WarpContext(dev, active=np.zeros(32, dtype=bool))
        with analysis.sanitized("fast") as san:
            wc.ballot_sync(np.ones(32, dtype=bool))
        assert san.log.count("synccheck") == 1
        assert "empty active mask" in san.log.findings[0].message

    def test_mask_word_naming_inactive_lane(self):
        dev = Device()
        active = np.zeros(32, dtype=bool)
        active[[0, 1]] = True
        wc = WarpContext(dev, active=active)
        masks = np.zeros(32, dtype=np.int64)
        masks[0] = 0b111  # names lane 2, which is inactive
        masks[1] = 0b011
        with analysis.sanitized("fast") as san:
            wc.reduce_add_sync(masks, np.ones(32))
        mism = [f for f in san.log if f.kind == "mask-mismatch"]
        assert len(mism) == 1
        assert mism[0].lanes == (0,)
        assert mism[0].details["stray_bits"] == 0b100


class TestBrokenDeltaUpdate:
    """A delta updater that drifts from the true aggregates is caught."""

    def test_corrupted_delta_update_is_flagged(self, monkeypatch):
        real = WEIGHT_UPDATERS["delta"]

        def corrupting(state, prev_comm, moved):
            out = real(state, prev_comm, moved)
            # d_comm is the array the delta scheme maintains incrementally
            # (comm_strength/comm_size are refreshed from scratch each
            # iteration) — drift it by a representable epsilon
            state.d_comm[0] += 0.25
            return out

        monkeypatch.setitem(WEIGHT_UPDATERS, "delta", corrupting)
        graph = karate_club()
        with analysis.sanitized("strict") as san:
            run_phase1(graph, Phase1Config(weight_update="delta"))
        assert san.log.by_kind.get("weight-conservation", 0) > 0
        flagged = [f for f in san.log if f.kind == "weight-conservation"]
        assert any(
            f.details["field"] == "d_comm" and 0 in f.details["positions"]
            for f in flagged
        )

    def test_fast_mode_does_not_run_the_bitcompare(self, monkeypatch):
        real = WEIGHT_UPDATERS["delta"]

        def corrupting(state, prev_comm, moved):
            out = real(state, prev_comm, moved)
            state.d_comm[0] += 0.25
            return out

        monkeypatch.setitem(WEIGHT_UPDATERS, "delta", corrupting)
        with analysis.sanitized("fast") as san:
            run_phase1(karate_club(), Phase1Config(weight_update="delta"))
        assert san.log.by_kind.get("weight-conservation", 0) == 0


class TestOverPruning:
    """A bound that prunes true movers violates Lemma 5."""

    def test_all_pruning_strategy_is_flagged(self):
        class BrokenMG(ModularityGainPruning):
            # inherits zero_false_negatives=True, so the audit applies
            name = "broken-mg"

            def next_active(self, ctx):
                return np.zeros(ctx.state.graph.n, dtype=bool)

        graph = karate_club()
        with analysis.sanitized("strict") as san:
            run_phase1(graph, Phase1Config(pruning=BrokenMG()))
        assert san.log.by_kind.get("lemma5-false-negative", 0) > 0
        (f,) = [f for f in san.log if f.kind == "lemma5-false-negative"]
        assert f.kernel == "pruning:broken-mg"
        assert f.details["false_negatives"] > 0

    def test_honest_mg_is_not_flagged(self):
        graph = karate_club()
        with analysis.sanitized("strict") as san:
            run_phase1(graph, Phase1Config(pruning="mg"))
        assert san.log.clean, san.log.render()

    def test_heuristic_strategies_are_exempt(self):
        # rm prunes probabilistically — false negatives are by design and
        # must NOT be reported as Lemma-5 violations
        graph = karate_club()
        with analysis.sanitized("strict") as san:
            run_phase1(graph, Phase1Config(pruning="rm", seed=3))
        assert san.log.by_kind.get("lemma5-false-negative", 0) == 0

"""Tests for the unified BSP engine: ConvergenceTracker, the shared
IterationTrace schema, and the engine-level oracle on every runtime."""

import numpy as np
import pytest

from repro.core.engine import (
    ConvergenceTracker,
    EngineResult,
    IterationTrace,
)
from repro.core.phase1 import (
    LocalExecutor,
    PartitionedExecutor,
    Phase1Config,
    Phase1Result,
    run_phase1,
)
from repro.bench.reporting import format_table, trace_rows
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.graph.partition import partition_by_degree
from repro.metrics.fnr_fpr import pruning_rates
from repro.multigpu import (
    MultiGpuConfig,
    MultiGpuExecutor,
    SyncMode,
    run_multigpu_phase1,
)
from repro.multigpu.halo import HaloExecutor
from repro.multiprocess import (
    MultiprocessConfig,
    MultiprocessExecutor,
    run_multiprocess_phase1,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("OR", scale=0.1)


def run_halo(graph, k, partition=None, **kw):
    """The multi-GPU runtime synchronised by halo exchange."""
    return run_multigpu_phase1(
        graph, MultiGpuConfig(num_gpus=k, sync_mode=SyncMode.HALO, **kw), partition
    )


class TestConvergenceTracker:
    def test_improvement_resets_streak(self):
        t = ConvergenceTracker(theta=1e-6, patience=2, initial_q=0.0)
        assert t.update(0.1, lambda: "a")
        assert not t.converged
        assert t.best_q == 0.1
        assert t.best == "a"

    def test_patience_rides_out_bad_iterations(self):
        t = ConvergenceTracker(theta=1e-6, patience=3, initial_q=0.5)
        t.update(0.4, lambda: "x")
        t.update(0.4, lambda: "x")
        assert not t.converged
        t.update(0.4, lambda: "x")
        assert t.converged

    def test_limit_cycle_does_not_reset_streak(self):
        """Q bouncing between two values below best+theta must still
        converge — the failure mode of a naive last-iteration streak."""
        t = ConvergenceTracker(theta=1e-6, patience=3, initial_q=0.5)
        for q in (0.49, 0.5, 0.49, 0.5):
            t.update(q, lambda: "x")
            if t.converged:
                break
        assert t.converged

    def test_sub_theta_gain_updates_best_without_progress(self):
        t = ConvergenceTracker(theta=1e-2, patience=1, initial_q=0.5)
        assert not t.update(0.505, lambda: "better")
        assert t.best_q == 0.505
        assert t.best == "better"
        assert t.converged

    def test_select_prefers_strict_best(self):
        t = ConvergenceTracker(theta=1e-6, patience=3, initial_q=0.0, snapshot="s0")
        t.update(0.3, lambda: "peak")
        t.update(0.2, lambda: "later")
        assert t.select(0.2, "final") == (0.3, "peak")
        # ties keep the final state (limit-cycle bit-identity guarantee)
        assert t.select(0.3, "final") == (0.3, "final")

    def test_seeded_snapshot_guards_degrading_runs(self):
        t = ConvergenceTracker(theta=1e-6, patience=1, initial_q=0.8, snapshot="init")
        t.update(0.1, lambda: "worse")
        assert t.select(0.1, "worse") == (0.8, "init")

    @pytest.mark.parametrize("patience", [0, -1, -100])
    def test_invalid_patience_rejected(self, patience):
        # patience < 1 would stop after every iteration regardless of Q
        with pytest.raises(ValueError, match="patience"):
            ConvergenceTracker(theta=1e-6, patience=patience, initial_q=0.0)

    @pytest.mark.parametrize("theta", [-1e-9, -1.0])
    def test_negative_theta_rejected(self, theta):
        # theta < 0 counts every iteration as progress: a limit cycle
        # would never converge and always run to max_iterations
        with pytest.raises(ValueError, match="theta"):
            ConvergenceTracker(theta=theta, patience=3, initial_q=0.0)

    def test_boundary_values_accepted(self):
        t = ConvergenceTracker(theta=0.0, patience=1, initial_q=0.0)
        assert t.update(0.1, lambda: "a")  # theta=0: any gain is progress
        assert not t.update(0.05, lambda: "a")
        assert t.converged  # patience=1: one regressing iteration stops

    def test_invalid_config_rejected_via_phase1(self, ring):
        with pytest.raises(ValueError, match="patience"):
            run_phase1(ring, Phase1Config(patience=0))
        with pytest.raises(ValueError, match="theta"):
            run_phase1(ring, Phase1Config(theta=-1e-6))


class TestUnifiedTraceSchema:
    def test_phase1_aliases_are_engine_types(self):
        assert Phase1Result is EngineResult

    def test_every_runtime_emits_iteration_traces(self, graph):
        local = run_phase1(graph, Phase1Config(pruning="mg"))
        multi = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2))
        dist = run_halo(graph, 2)
        for r in (local, multi, dist):
            assert all(isinstance(h, IterationTrace) for h in r.history)
        # identical trajectory: same per-iteration move counts everywhere
        moves = [h.num_moved for h in local.history]
        assert [h.num_moved for h in multi.history] == moves
        assert [h.num_moved for h in dist.history] == moves

    def test_runtime_specific_fields(self, graph):
        local = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        multi = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2))
        dist = run_halo(graph, 2)
        assert all(h.kernel_backend for h in local.history)
        assert all(h.sync_plan is not None for h in multi.history)
        assert all(h.sim_cycles > 0 for h in multi.history)
        assert any(h.comm_bytes > 0 for h in dist.history)
        assert any(h.comm_messages > 0 for h in dist.history)
        # halo bytes mirror the stats series exactly
        assert [h.comm_bytes for h in dist.history] == dist.stats.bytes_per_iteration

    def test_trace_rows_renders_any_runtime(self, graph):
        local = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        dist = run_halo(graph, 2)
        lrows = trace_rows(local.history)
        drows = trace_rows(dist.history)
        assert "kernel_backend" in lrows[0] and "comm_bytes" not in lrows[0]
        assert "comm_bytes" in drows[0]
        # the rank runtimes decide through the core's NumPy kernel
        assert drows[0]["kernel_backend"] == "vectorized"
        assert format_table(lrows) and format_table(drows)

    def test_multigpu_trace_records_sync_volume(self, graph):
        multi = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2))
        for h in multi.history:
            assert h.comm_bytes == h.sync_plan.chosen_bytes


class TestOneExecutorCore:
    """Every runtime is the partitioned executor core plus its sync: the
    local runtime is its one-rank case."""

    RUNTIMES = (LocalExecutor, HaloExecutor, MultiGpuExecutor, MultiprocessExecutor)

    def test_runtimes_share_the_commit_step(self):
        for cls in self.RUNTIMES:
            assert issubclass(cls, PartitionedExecutor)
            assert cls.apply_and_sync is PartitionedExecutor.apply_and_sync
        # only the multiprocess transport replaces the per-rank decide
        for cls in self.RUNTIMES[:3]:
            assert cls.decide is PartitionedExecutor.decide

    def test_every_runtime_reports_the_same_buckets(self, graph):
        results = {
            "local": run_phase1(graph, Phase1Config(pruning="mg")),
            "halo": run_halo(graph, 3, partition_by_degree(graph, 3)),
            "multigpu": run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=2)),
            "multiprocess": run_multiprocess_phase1(
                graph, MultiprocessConfig(num_ranks=2)
            ),
        }
        buckets = {"decide_and_move", "pruning", "weight_update", "aggregate"}
        for name, result in results.items():
            assert set(result.timers) == buckets, name
            assert all(h.kernel_backend is not None for h in result.history), name
            np.testing.assert_array_equal(
                result.communities, results["local"].communities
            )


class TestEngineOracle:
    """The oracle probe is engine-level: FNR/FPR instrumentation works on
    every runtime and yields identical ground truth (same BSP snapshots)."""

    @pytest.mark.parametrize("strategy", ["mg", "rm"])
    def test_all_runtimes_agree_with_local_oracle(self, graph, strategy):
        local = run_phase1(graph, Phase1Config(pruning=strategy, oracle=True, seed=17))
        multi = run_multigpu_phase1(
            graph, MultiGpuConfig(num_gpus=2, pruning=strategy, oracle=True, seed=17)
        )
        dist = run_halo(graph, 2, pruning=strategy, oracle=True, seed=17)
        ref = pruning_rates(local, strategy=strategy)
        for other in (multi, dist):
            got = pruning_rates(other, strategy=strategy)
            assert got.fnr == pytest.approx(ref.fnr, abs=1e-12)
            assert got.fpr == pytest.approx(ref.fpr, abs=1e-12)
            assert got.total_false_negatives == ref.total_false_negatives
            assert got.total_false_positives == ref.total_false_positives

    @pytest.mark.parametrize("runtime", ["distributed", "multiprocess", "multigpu"])
    def test_oracle_does_not_change_comm_accounting(self, runtime):
        """Communication covers committed moves only. PM pruning is lossy,
        so the oracle's full-set decide proposes moves the engine never
        commits; the traffic must not count them."""
        g = load_dataset("LJ", 0.05)

        def run(oracle):
            common = dict(pruning="pm", oracle=oracle)
            if runtime == "distributed":  # the halo exchange, point to point
                return run_halo(g, 3, **common)
            if runtime == "multiprocess":
                return run_multiprocess_phase1(
                    g, MultiprocessConfig(num_ranks=3, **common)
                )
            return run_multigpu_phase1(g, MultiGpuConfig(num_gpus=3, **common))

        plain, probed = run(False), run(True)
        assert [h.num_moved for h in plain.history] == [
            h.num_moved for h in probed.history
        ]
        assert [h.comm_bytes for h in plain.history] == [
            h.comm_bytes for h in probed.history
        ]
        assert [h.comm_messages for h in plain.history] == [
            h.comm_messages for h in probed.history
        ]
        if runtime != "multiprocess":
            assert plain.comm_seconds() == probed.comm_seconds()

    def test_oracle_does_not_change_trajectory(self, graph):
        plain = run_phase1(graph, Phase1Config(pruning="mg"))
        probed = run_phase1(graph, Phase1Config(pruning="mg", oracle=True))
        np.testing.assert_array_equal(plain.communities, probed.communities)
        assert [h.num_moved for h in plain.history] == [
            h.num_moved for h in probed.history
        ]

    def test_oracle_required_for_rates(self, graph):
        result = run_phase1(graph, Phase1Config(pruning="mg"))
        with pytest.raises(ValueError):
            pruning_rates(result)


class TestDistributedWeightUpdateFactory:
    """The halo-exchange runtime goes through make_weight_updater, so the
    recompute-vs-delta ablation (Figure 6) runs on all runtimes."""

    def test_recompute_matches_delta(self, graph):
        delta = run_halo(graph, 2, weight_update="delta")
        recompute = run_halo(graph, 2, weight_update="recompute")
        np.testing.assert_array_equal(delta.communities, recompute.communities)
        assert delta.modularity == pytest.approx(recompute.modularity, abs=1e-12)

    def test_unknown_mode_rejected(self):
        g = ring_of_cliques(4, 4)
        with pytest.raises(ValueError):
            run_halo(g, 2, weight_update="bogus")

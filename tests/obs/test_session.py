"""The observability session end to end: activation, artifact export,
bridge exactness, and — the tier-1 guarantee — tracing never changes a
run's results on any runtime."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.kernels.dispatch import make_gpusim_kernel
from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators import load_dataset, ring_of_cliques
from repro.multigpu import MultiGpuConfig, SyncMode, run_multigpu_phase1
from repro.obs import read_metrics_jsonl, validate_chrome_trace
from repro.obs._session import ObsSession

#: two simulated devices synchronised by halo exchange
HALO_2 = MultiGpuConfig(num_gpus=2, sync_mode=SyncMode.HALO)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("LJ", scale=0.05)


class TestActivation:
    def test_session_activates_and_deactivates(self):
        assert obs.current() is None
        with obs.session() as sess:
            assert obs.current() is sess
            assert obs.active()
        assert obs.current() is None

    def test_sessions_nest_innermost_wins(self):
        with obs.session() as outer:
            with obs.session() as inner:
                assert obs.current() is inner
            assert obs.current() is outer

    def test_pop_out_of_order_rejected(self):
        from repro.obs import _session

        a, b = ObsSession(), ObsSession()
        _session.push(a)
        _session.push(b)
        try:
            with pytest.raises(ValueError, match="out of order"):
                _session.pop(a)
        finally:
            _session.pop(b)
            _session.pop(a)

    def test_span_allocates_nothing_when_disabled(self):
        from repro.obs import NULL_SPAN

        assert obs.span("engine/decide", moved=3) is NULL_SPAN
        assert obs.span("nccl/allreduce") is NULL_SPAN


class TestArtifacts:
    def test_trace_metrics_and_summary(self, karate, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.jsonl"
        with obs.session(trace=str(trace_path), metrics=str(metrics_path)):
            run_phase1(karate, Phase1Config())
        parsed = validate_chrome_trace(str(trace_path))
        names = {e["name"] for e in parsed["traceEvents"]}
        assert {"engine/run", "engine/iteration", "engine/decide",
                "engine/apply_sync", "engine/prune"} <= names

        records = read_metrics_jsonl(str(metrics_path))
        kinds = [r["kind"] for r in records]
        assert kinds[-1] == "summary"
        iterations = [r for r in records if r["kind"] == "iteration"]
        assert len(iterations) >= 1
        assert iterations[0]["runtime"] == "LocalExecutor"
        summary = records[-1]
        assert summary["counters"]["engine/iterations"] == len(iterations)

    def test_iteration_records_mirror_history(self, karate, tmp_path):
        metrics_path = tmp_path / "m.jsonl"
        with obs.session(metrics=str(metrics_path)):
            result = run_phase1(karate, Phase1Config())
        records = [
            r for r in read_metrics_jsonl(str(metrics_path))
            if r["kind"] == "iteration"
        ]
        assert len(records) == len(result.history)
        for rec, trace in zip(records, result.history):
            assert rec["num_moved"] == trace.num_moved
            assert rec["modularity"] == pytest.approx(trace.modularity)

    def test_level_context_tags_iteration_records(self, karate, tmp_path):
        from repro.core.gala import gala

        metrics_path = tmp_path / "m.jsonl"
        with obs.session(metrics=str(metrics_path)):
            result = gala(karate)
        records = [
            r for r in read_metrics_jsonl(str(metrics_path))
            if r["kind"] == "iteration"
        ]
        assert {r["level"] for r in records} == set(range(result.num_levels))

    def test_in_memory_session_without_paths(self, karate):
        with obs.session() as sess:
            run_phase1(karate, Phase1Config())
        summ = sess.summary()
        assert summ["counters"]["engine/iterations"] >= 1
        assert len(sess.tracer) > 0


class TestBridgeExactness:
    """The acceptance invariant: exported numbers equal the source
    subsystem's own report, value for value."""

    def test_timer_totals_match_exactly(self, karate):
        with obs.session() as sess:
            result = run_phase1(karate, Phase1Config())
        counters = sess.summary()["counters"]
        for name, total in result.timers.items():
            assert counters[f"time/{name}_seconds"] == total

    def test_gpusim_cycle_gauges_match_snapshot_exactly(self, karate):
        kernel = make_gpusim_kernel()
        with obs.session() as sess:
            run_phase1(karate, Phase1Config(kernel=kernel))
        gauges = sess.summary()["gauges"]
        snap = kernel.device.profiler.snapshot()
        for bucket, cycles in snap["cycles"].items():
            assert gauges[f"gpusim/cycles/{bucket}"] == cycles
        for name, n in snap["counters"].items():
            assert gauges[f"gpusim/counters/{name}"] == n
        assert gauges["gpusim/total_cycles"] == kernel.device.profiler.total_cycles

    def test_multigpu_sync_accounting(self, karate):
        with obs.session() as sess:
            result = run_multigpu_phase1(karate, MultiGpuConfig(num_gpus=2))
        summ = sess.summary()
        sync_iters = sum(
            v for k, v in summ["counters"].items()
            if k.startswith("sync/") and k.endswith("_iterations")
        )
        assert sync_iters == len(result.history)
        assert summ["counters"]["sync/plan_bytes_total"] == sum(
            t.comm_bytes for t in result.history
        )
        # per-device and merged profiler views both present for 2 GPUs
        assert "gpusim/total_cycles" in summ["gauges"]
        assert "gpusim/dev0/total_cycles" in summ["gauges"]
        assert "gpusim/dev1/total_cycles" in summ["gauges"]

    def test_distributed_halo_accounting(self, karate):
        with obs.session() as sess:
            result = run_multigpu_phase1(karate, HALO_2)
        summ = sess.summary()
        total_bytes = sum(t.comm_bytes for t in result.history)
        assert summ["counters"]["comm/halo_bytes_total"] == total_bytes
        assert summ["gauges"]["comm/halo_bytes"] == total_bytes


class TestTracingIsInert:
    """Tier-1 guarantee: a traced run is bit-identical to an untraced one
    (assignments, modularity, iteration count) on every runtime."""

    def test_local(self, graph, tmp_path):
        cfg = Phase1Config(pruning="mg")
        plain = run_phase1(graph, cfg)
        with obs.session(trace=str(tmp_path / "t.json"),
                         metrics=str(tmp_path / "m.jsonl")):
            traced = run_phase1(graph, cfg)
        assert np.array_equal(plain.communities, traced.communities)
        assert traced.modularity == plain.modularity
        assert len(traced.history) == len(plain.history)

    def test_multigpu(self, graph, tmp_path):
        cfg = MultiGpuConfig(num_gpus=2)
        plain = run_multigpu_phase1(graph, cfg)
        with obs.session(trace=str(tmp_path / "t.json")):
            traced = run_multigpu_phase1(graph, cfg)
        assert np.array_equal(plain.communities, traced.communities)
        assert traced.modularity == plain.modularity
        assert len(traced.history) == len(plain.history)

    def test_distributed(self, graph, tmp_path):
        cfg = HALO_2
        plain = run_multigpu_phase1(graph, cfg)
        with obs.session(trace=str(tmp_path / "t.json")):
            traced = run_multigpu_phase1(graph, cfg)
        assert np.array_equal(plain.communities, traced.communities)
        assert traced.modularity == plain.modularity
        assert len(traced.history) == len(plain.history)

    def test_gala_full_pipeline(self, tmp_path):
        from repro.core.gala import gala

        g = ring_of_cliques(8, 6)
        plain = gala(g)
        with obs.session(trace=str(tmp_path / "t.json")):
            traced = gala(g)
        assert np.array_equal(plain.communities, traced.communities)
        assert traced.modularity == plain.modularity


class TestRuntimeSpans:
    def test_multigpu_trace_has_sync_and_nccl_spans(self, karate, tmp_path):
        path = tmp_path / "t.json"
        with obs.session(trace=str(path)):
            run_multigpu_phase1(karate, MultiGpuConfig(num_gpus=2))
        names = {
            e["name"] for e in json.load(open(path))["traceEvents"]
        }
        assert any(n.startswith("sync/") for n in names)
        assert any(n.startswith("nccl/") for n in names)

    def test_distributed_trace_has_halo_spans(self, karate, tmp_path):
        path = tmp_path / "t.json"
        with obs.session(trace=str(path)):
            run_multigpu_phase1(karate, HALO_2)
        events = json.load(open(path))["traceEvents"]
        halo = [e for e in events if e["name"] == "halo/exchange"]
        assert halo
        assert all("bytes" in e["args"] for e in halo)
        # the sync span reports the halo volume next to the collectives'
        sync = [e for e in events if e["name"] == "sync/halo"]
        assert [e["args"]["halo_bytes"] for e in sync] == [
            e["args"]["bytes"] for e in halo
        ]
        assert all("dense_bytes" in e["args"] for e in sync)

    def test_sync_choice_leaves_its_inputs(self, karate, tmp_path):
        """Every sync span and metrics record carries the three priced
        seconds the plan compared, next to the bytes."""
        trace, metrics = tmp_path / "t.json", tmp_path / "m.jsonl"
        with obs.session(trace=str(trace), metrics=str(metrics)):
            result = run_multigpu_phase1(karate, MultiGpuConfig(num_gpus=2))
        plans = [h.sync_plan for h in result.history]
        spans = [
            e["args"] for e in json.load(open(trace))["traceEvents"]
            if e["name"].startswith("sync/")
        ]
        records = [
            r["sync_plan"] for r in read_metrics_jsonl(str(metrics))
            if r.get("kind") == "iteration"
        ]
        assert len(spans) == len(records) == len(plans)
        for plan, args, record in zip(plans, spans, records):
            for key in ("dense_s", "sparse_s", "halo_s", "dense_bytes", "seconds"):
                assert args[key] == record[key] == plan.record()[key]
            assert record["mode"] == plan.mode.value

    def test_gpusim_trace_has_kernel_spans(self, karate, tmp_path):
        path = tmp_path / "t.json"
        with obs.session(trace=str(path)):
            run_phase1(karate, Phase1Config(kernel=make_gpusim_kernel()))
        names = {
            e["name"] for e in json.load(open(path))["traceEvents"]
        }
        assert "kernel/shuffle" in names or "kernel/hash" in names


class TestOneTimingSource:
    """The Figure-8 phase seconds and the engine's phase spans are one
    measurement: each level's ``timers[bucket]`` is the sum of that
    level's matching span durations, computed from the same start/end."""

    SPAN_OF = {
        "decide_and_move": "engine/decide",
        "weight_update": "engine/weight_update",
        "aggregate": "engine/aggregate",
        "pruning": "engine/prune",
    }

    @pytest.fixture(scope="class")
    def run(self, graph):
        from repro import GalaConfig, gala

        with obs.session() as sess:
            result = gala(graph, GalaConfig(pruning="mg", seed=0))
        spans = sess.tracer.export_spans(limit=10**9)["spans"]
        return result, spans

    @staticmethod
    def _inside(outer, spans, name):
        return [
            s for s in spans
            if s["name"] == name
            and outer["start"] <= s["start"] and s["end"] <= outer["end"]
        ]

    def test_level_timers_equal_span_sums(self, run):
        result, spans = run
        runs = [s for s in spans if s["name"] == "engine/run"]
        assert result.num_levels > 1
        assert len(runs) == result.num_levels
        for level, engine_run in zip(result.levels, runs):
            timers = level.phase1.timers
            assert set(timers) == set(self.SPAN_OF)
            for bucket, name in self.SPAN_OF.items():
                total = 0.0
                for s in self._inside(engine_run, spans, name):
                    total += s["end"] - s["start"]
                assert timers[bucket] == total, bucket

    def test_weight_update_and_aggregate_nest_in_apply_sync(self, run):
        _, spans = run
        apply_sync = [s for s in spans if s["name"] == "engine/apply_sync"]
        for name in ("engine/weight_update", "engine/aggregate"):
            inner = [s for s in spans if s["name"] == name]
            assert len(inner) == len(apply_sync)
            for s, outer in zip(inner, apply_sync):
                assert outer["start"] <= s["start"] and s["end"] <= outer["end"]


class TestCoarsenSpan:
    """Phase 2 leaves its automatic backend choice in the trace: the
    ``louvain/coarsen`` span records ``backend`` and the ``edges`` it
    contracted."""

    @pytest.mark.parametrize("kernel", ["auto", "vectorized"])
    def test_backend_and_edges(self, graph, kernel):
        from repro import GalaConfig, gala
        from repro.core.kernels.vectorized import compiled_runtime, make_kernel

        with obs.session() as sess:
            result = gala(graph, GalaConfig(backend=kernel, seed=0))
        spans = sess.tracer.export_spans(limit=10**9)["spans"]
        coarsen = [s for s in spans if s["name"] == "louvain/coarsen"]
        assert len(coarsen) == result.num_levels > 1
        compiled = compiled_runtime(make_kernel(kernel)) is not None
        for span, level in zip(coarsen, result.levels):
            assert span["args"]["backend"] == ("jit" if compiled else "vectorized")
            assert span["args"]["edges"] == level.graph.num_edges

"""Span tracer: Chrome trace-event schema, nesting, and the zero-cost
disabled path (shared NULL_SPAN singleton)."""

import json
import threading

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, Tracer, validate_chrome_trace
from repro.obs import _session as obs


class TestSpans:
    def test_complete_event_fields(self):
        tr = Tracer()
        with tr.span("engine/decide", vertices=10):
            pass
        (ev,) = tr.events()
        assert ev["name"] == "engine/decide"
        assert ev["ph"] == "X"
        assert ev["cat"] == "engine"
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert ev["args"] == {"vertices": 10}

    def test_nesting_by_timestamp_containment(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.events()  # inner exits (and records) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        # the containment contract Perfetto infers parentage from
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]
        assert inner["tid"] == outer["tid"]

    def test_tag_merges_mid_span_args(self):
        tr = Tracer()
        with tr.span("sync/adaptive", moved=5) as sp:
            sp.tag(mode="sparse", bytes=128)
        (ev,) = tr.events()
        assert ev["args"] == {"moved": 5, "mode": "sparse", "bytes": 128}

    def test_instant_and_counter_events(self):
        tr = Tracer()
        tr.instant("engine/converged", iteration=7)
        tr.counter("engine/active", vertices=42)
        inst, ctr = tr.events()
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert ctr["ph"] == "C" and ctr["args"] == {"vertices": 42.0}

    def test_threads_get_distinct_small_track_ids(self):
        tr = Tracer()
        with tr.span("main/work"):
            pass

        def worker():
            with tr.span("thread/work"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        tids = {ev["name"]: ev["tid"] for ev in tr.events()}
        assert tids["main/work"] == 0
        assert tids["thread/work"] == 1

    def test_write_produces_valid_chrome_trace(self, tmp_path):
        tr = Tracer(process_name="repro.test")
        with tr.span("a/b"):
            tr.instant("a/marker")
        path = tmp_path / "trace.json"
        tr.write(str(path))
        parsed = validate_chrome_trace(str(path))
        assert parsed["displayTimeUnit"] == "ms"
        meta = parsed["traceEvents"][0]
        assert meta["ph"] == "M"
        assert meta["args"]["name"] == "repro.test"


class TestValidation:
    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "X"}]})

    def test_rejects_unknown_phase(self):
        bad = {"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [bad]})

    def test_rejects_negative_duration(self):
        bad = {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": -1}
        with pytest.raises(ValueError, match="invalid dur"):
            validate_chrome_trace({"traceEvents": [bad]})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})


class TestDisabledPath:
    def test_null_tracer_returns_shared_singleton(self):
        # the zero-allocation contract: every disabled span is the SAME
        # object, so instrumented hot loops allocate nothing
        s1 = NULL_TRACER.span("engine/decide", vertices=10)
        s2 = NULL_TRACER.span("nccl/allreduce")
        assert s1 is NULL_SPAN and s2 is NULL_SPAN

    def test_module_accessors_without_session(self):
        assert obs.current() is None
        assert not obs.active()
        assert obs.tracer() is NULL_TRACER
        assert obs.span("engine/decide") is NULL_SPAN
        # metric updates no-op rather than raise
        obs.inc("engine/iterations")
        obs.observe("serve/latency_ms", 3)
        obs.instant("engine/converged")

    def test_null_span_usable_as_context_manager(self):
        with NULL_SPAN as sp:
            sp.tag(anything="goes")
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events() == []

"""Prometheus text exposition: render → parse roundtrip and strictness."""

import math

import pytest

from repro.obs.exposition import (
    parse_prometheus_text,
    render_prometheus,
    sample_value,
    sanitize_metric_name,
)
from repro.obs.live import BucketHistogram


class TestSanitize:
    def test_path_to_legal_name(self):
        assert sanitize_metric_name("serve/requests_total") == \
            "repro_serve_requests_total"
        assert sanitize_metric_name("a-b.c/d") == "repro_a_b_c_d"

    def test_prefix_override(self):
        assert sanitize_metric_name("x", prefix="p_") == "p_x"


class TestRender:
    def test_counter_gauge_families(self):
        text = render_prometheus(
            counters={"serve/requests_total": 7},
            gauges={"serve/inflight": 2.5},
            help_text={"serve/requests_total": "requests since boot"},
        )
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# HELP repro_serve_requests_total requests since boot" in text
        assert "repro_serve_requests_total 7" in text
        assert "repro_serve_inflight 2.5" in text

    def test_histogram_family_cumulative(self):
        h = BucketHistogram(bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0, 1e6):
            h.observe(v)
        text = render_prometheus(histograms={"serve/latency": h})
        fams = parse_prometheus_text(text)
        fam = fams["repro_serve_latency"]
        assert fam["type"] == "histogram"
        buckets = {
            labels["le"]: value
            for name, labels, value in fam["samples"]
            if name.endswith("_bucket")
        }
        # cumulative counts, +Inf catches the overflow sample
        assert buckets["1"] == 1
        assert buckets["10"] == 3
        assert buckets["100"] == 4
        assert buckets["+Inf"] == 5
        assert sample_value(fams, "repro_serve_latency", suffix="_count") == 5
        assert sample_value(fams, "repro_serve_latency", suffix="_sum") == \
            pytest.approx(h.total)

    def test_special_values(self):
        text = render_prometheus(gauges={"g/inf": math.inf, "g/nan": math.nan})
        fams = parse_prometheus_text(text)
        assert sample_value(fams, "repro_g_inf") == math.inf
        assert math.isnan(sample_value(fams, "repro_g_nan"))


class TestParse:
    def test_roundtrip_every_family_type(self):
        h = BucketHistogram()
        h.observe(3.0)
        text = render_prometheus(
            counters={"c/total": 1},
            gauges={"g/x": 2},
            histograms={"h/lat": h},
        )
        fams = parse_prometheus_text(text)
        assert fams["repro_c_total"]["type"] == "counter"
        assert fams["repro_g_x"]["type"] == "gauge"
        assert fams["repro_h_lat"]["type"] == "histogram"
        # every histogram sample attaches to its family
        names = {n for n, _, _ in fams["repro_h_lat"]["samples"]}
        assert names == {
            "repro_h_lat_bucket", "repro_h_lat_sum", "repro_h_lat_count"
        }

    def test_strict_on_junk(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not a metric line")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x flimflam")

    def test_escaped_labels(self):
        text = 'm{k="a\\"b"} 1\n'
        fams = parse_prometheus_text(text)
        (_, labels, value), = fams["m"]["samples"]
        assert labels == {"k": 'a"b'}
        assert value == 1

    def test_sample_value_missing(self):
        assert sample_value({}, "nope") is None

"""Tests for the experiment harness, reporting, and workloads."""

import numpy as np
import pytest

from repro.bench.harness import (
    EXPERIMENTS,
    ExperimentOutput,
    list_experiments,
    run_experiment,
)
from repro.bench.reporting import format_series, format_table
from repro.bench.workloads import bench_scale, lfr_suite, load_suite
from repro.errors import ExperimentError


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        # all data lines equal width
        widths = {len(ln) for ln in lines[1:]}
        assert len(widths) == 1

    def test_format_table_missing_cells(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        out = format_table(rows, columns=["a", "b"])
        assert "b" in out

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_float_formatting(self):
        out = format_table([{"x": 0.000123456, "y": 123456.7, "z": 0}])
        assert "0.000123" in out
        assert "0" in out

    def test_format_series(self):
        line = format_series("s", [0.1, 0.5, 0.9], as_percent=True)
        assert "last=90.0%" in line
        assert "peak=90.0%" in line

    def test_format_series_empty(self):
        assert "(empty)" in format_series("s", [])


class TestHarness:
    def test_registry_complete(self):
        # one experiment per paper table/figure + the dataset table,
        # plus the beyond-the-paper kernel-backend crossover study
        assert set(EXPERIMENTS) == {
            "table2", "fig1", "table1", "fig4", "fig5", "fig6", "fig7",
            "table3", "table4", "fig8", "fig9", "fig10", "stress",
            "kernels",
        }

    def test_list_experiments(self):
        pairs = list_experiments()
        assert len(pairs) == len(EXPERIMENTS)
        assert all(title for _, title in pairs)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_run_one_tiny(self):
        out = run_experiment("table2", scale=0.05)
        assert isinstance(out, ExperimentOutput)
        assert out.rows
        rendered = out.render()
        assert "table2" in rendered

    def test_render_includes_series_and_notes(self):
        out = ExperimentOutput(
            experiment="x", title="t",
            rows=[{"a": 1}],
            series={"s": [0.1, 0.2]},
            notes=["hello"],
        )
        rendered = out.render()
        assert "note: hello" in rendered
        assert "[" in rendered  # sparkline


class TestWorkloads:
    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5
        monkeypatch.setenv("REPRO_BENCH_SCALE", "junk")
        with pytest.raises(ValueError):
            bench_scale()
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert bench_scale(default=0.3) == 0.3

    def test_load_suite(self):
        graphs = load_suite(["LJ", "TW"], scale=0.05)
        assert [g.name for g in graphs] == ["LJ", "TW"]

    def test_lfr_suite(self):
        suite = lfr_suite(scale=0.05)
        assert [name for name, _, _ in suite] == ["Graph1", "Graph2", "Graph3"]
        for _, g, truth in suite:
            g.validate()
            assert len(truth) == g.n
            assert len(np.unique(truth)) >= 2

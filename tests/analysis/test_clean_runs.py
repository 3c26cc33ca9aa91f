"""Clean runs: zero findings, bit-identical results, attached reports.

The flip side of the mutation tests — on healthy tier-1 workloads the
sanitizer must stay silent on every backend/engine, and enabling it must
not perturb a single bit of the result (the checkers observe, they never
steer).
"""

import json

import numpy as np
import pytest

from repro import analysis, obs
from repro.analysis import Finding
from repro.cli import main as cli_main
from repro.core.gala import GalaConfig, gala
from repro.core.kernels.hash import HashKernel
from repro.graph.generators import karate_club
from repro.graph.io import save_edge_list


def _assert_identical(a, b):
    np.testing.assert_array_equal(a.communities, b.communities)
    assert a.modularity == b.modularity  # bitwise, not approx
    # phase1-only results carry no hierarchy
    assert getattr(a, "num_levels", None) == getattr(b, "num_levels", None)


class TestVectorizedBackend:
    @pytest.mark.parametrize("fixture", ["karate", "ring", "planted"])
    def test_strict_run_is_clean_and_bit_identical(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        if isinstance(graph, tuple):
            graph = graph[0]
        cfg = GalaConfig(pruning="mg", weight_update="delta")
        baseline = gala(graph, cfg)
        with analysis.sanitized("strict") as san:
            sanitized = gala(graph, cfg)
        assert san.log.clean, san.log.render()
        _assert_identical(baseline, sanitized)


class TestGpusimBackend:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_strict_run_is_clean_and_bit_identical(
        self, karate, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_GPUSIM_ENGINE", engine)
        cfg = GalaConfig(backend="gpusim", pruning="mg", weight_update="delta")
        baseline = gala(karate, cfg)
        with analysis.sanitized("strict") as san:
            sanitized = gala(karate, cfg)
        assert san.log.clean, san.log.render()
        _assert_identical(baseline, sanitized)

    def test_engines_agree_under_the_sanitizer(self, ring, monkeypatch):
        results = []
        for engine in ("scalar", "batched"):
            monkeypatch.setenv("REPRO_GPUSIM_ENGINE", engine)
            with analysis.sanitized("strict") as san:
                results.append(
                    gala(ring, GalaConfig(backend="gpusim", phase1_only=True))
                )
            assert san.log.clean, san.log.render()
        _assert_identical(results[0], results[1])


class TestActivationPaths:
    def test_sanitized_block_attaches_manifest_report(self, karate):
        with analysis.sanitized("strict"):
            result = gala(karate, GalaConfig())
        assert result.manifest.sanitizer["mode"] == "strict"
        assert result.manifest.sanitizer["total"] == 0

    def test_env_var_activates(self, karate, monkeypatch):
        monkeypatch.setenv(analysis.ENV_VAR, "fast")
        result = gala(karate, GalaConfig())
        assert result.manifest.sanitizer["mode"] == "fast"
        assert result.manifest.sanitizer["total"] == 0

    def test_off_leaves_manifest_empty(self, karate, monkeypatch):
        monkeypatch.delenv(analysis.ENV_VAR, raising=False)
        result = gala(karate, GalaConfig())
        assert result.manifest.sanitizer == {}

    def test_enclosing_session_wins_over_config(self, karate, monkeypatch):
        # an explicit surrounding session collects the findings; the
        # REPRO_SANITIZE setting must not open a second, shadowing session
        monkeypatch.setenv(analysis.ENV_VAR, "strict")
        with analysis.sanitized("fast") as san:
            result = gala(karate, GalaConfig())
        assert result.manifest.sanitizer["mode"] == "fast"
        assert san.log.clean

    def test_findings_bridge_into_obs_metrics(self):
        with obs.session() as sess:
            with analysis.sanitized("fast") as san:
                san.log.add(
                    Finding(
                        checker="racecheck",
                        kind="write-write-hazard",
                        message="synthetic",
                    )
                )
        counters = sess.summary()["counters"]
        assert counters["sanitizer/findings/racecheck"] == 1
        assert counters["sanitizer/kind/write-write-hazard"] == 1


class TestCli:
    @pytest.fixture
    def edge_file(self, tmp_path):
        path = tmp_path / "karate.txt"
        save_edge_list(karate_club(), path)
        return path

    def test_clean_detect_exits_zero_and_writes_report(
        self, edge_file, tmp_path, capsys
    ):
        report = tmp_path / "findings.json"
        rc = cli_main(
            [
                "detect",
                str(edge_file),
                "--sanitize=strict",
                "--sanitize-report",
                str(report),
                "-o",
                str(tmp_path / "comms.txt"),
            ]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["mode"] == "strict"
        assert payload["total"] == 0
        assert payload["findings"] == []
        assert "sanitizer: 0 findings" in capsys.readouterr().out

    def test_report_flag_implies_fast_mode(self, edge_file, tmp_path):
        report = tmp_path / "findings.json"
        rc = cli_main(
            [
                "detect",
                str(edge_file),
                "--sanitize-report",
                str(report),
                "-o",
                str(tmp_path / "comms.txt"),
            ]
        )
        assert rc == 0
        assert json.loads(report.read_text())["mode"] == "fast"

    def test_findings_exit_code_three(self, tmp_path, monkeypatch):
        # seed the skipped-barrier bug so the CLI run records hazards; the
        # graph needs a hub of degree >= 32 so dispatch picks the hash
        # kernel (karate's max degree is 17 — all shuffle)
        from repro.graph.builder import from_edge_array

        leaves = np.arange(1, 41)
        hub = from_edge_array(41, np.zeros(40, dtype=np.int64), leaves)
        hub_file = tmp_path / "hub.txt"
        save_edge_list(hub, hub_file)
        monkeypatch.setattr(HashKernel, "_block_sync", lambda self, san: None)
        rc = cli_main(
            [
                "detect",
                str(hub_file),
                "--sanitize=fast",
                "--backend",
                "gpusim",
                "--phase1-only",
                "-o",
                str(tmp_path / "comms.txt"),
            ]
        )
        assert rc == 3

"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import load_graph, save_edge_list


@pytest.fixture
def karate_file(karate, tmp_path):
    path = tmp_path / "karate.txt"
    save_edge_list(karate, path)
    return str(path)


class TestDetect:
    def test_detect_runs(self, karate_file, capsys):
        assert main(["detect", karate_file]) == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "communities" in out

    def test_detect_writes_assignment(self, karate_file, tmp_path, capsys):
        out_path = tmp_path / "comm.txt"
        assert main(["detect", karate_file, "-o", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 34
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert [v for v, _ in pairs] == list(range(34))

    def test_detect_resolution_flag(self, karate_file, tmp_path):
        lo = tmp_path / "lo.txt"
        hi = tmp_path / "hi.txt"
        main(["detect", karate_file, "--resolution", "0.1", "-o", str(lo)])
        main(["detect", karate_file, "--resolution", "5.0", "-o", str(hi)])

        def n_comms(path):
            return len({ln.split()[1] for ln in path.read_text().splitlines()})

        assert n_comms(lo) < n_comms(hi)

    def test_detect_pruning_choices_validated(self, karate_file):
        with pytest.raises(SystemExit):
            main(["detect", karate_file, "--pruning", "bogus"])

    def test_phase1_only(self, karate_file, capsys):
        assert main(["detect", karate_file, "--phase1-only"]) == 0


class TestStatsAndGenerate:
    def test_stats(self, karate_file, capsys):
        assert main(["stats", karate_file]) == 0
        out = capsys.readouterr().out
        assert "deg(min/mean/max)" in out

    def test_generate_lfr_roundtrip(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        truth_path = tmp_path / "t.txt"
        assert main([
            "generate", "lfr", "--n", "500", "--mu", "0.2",
            "-o", str(graph_path), "--ground-truth", str(truth_path),
            "--seed", "1",
        ]) == 0
        assert main(["detect", str(graph_path)]) == 0
        truth = np.loadtxt(truth_path, dtype=int)
        assert truth.shape == (500, 2)

    def test_generate_rmat(self, tmp_path):
        path = tmp_path / "r.txt"
        assert main([
            "generate", "rmat", "--scale", "8", "-o", str(path), "--seed", "2",
        ]) == 0
        assert path.exists()

    def test_generate_npz_suffix_writes_npz(self, tmp_path, capsys):
        """``-o g.npz`` writes the binary format ``detect`` loads by that
        suffix, holding the same graph as the edge list."""
        args = ["generate", "lfr", "--n", "300", "--mu", "0.2", "--seed", "4"]
        npz, text = tmp_path / "g.npz", tmp_path / "g.txt"
        assert main(args + ["-o", str(npz)]) == 0
        assert main(args + ["-o", str(text)]) == 0
        from_npz, from_text = load_graph(npz), load_graph(text)
        np.testing.assert_array_equal(from_npz.indptr, from_text.indptr)
        np.testing.assert_array_equal(from_npz.indices, from_text.indices)
        assert main(["detect", str(npz)]) == 0

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchDelegation:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out


class TestObservability:
    def test_detect_writes_all_artifacts(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "run.jsonl"
        manifest = tmp_path / "run.manifest.json"
        assert main([
            "detect", karate_file,
            "--trace", str(trace),
            "--metrics", str(metrics),
            "--manifest", str(manifest),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        assert "wrote metrics JSONL" in out
        assert "wrote run manifest" in out

        from repro.obs import (
            load_manifest,
            read_metrics_jsonl,
            validate_chrome_trace,
        )

        validate_chrome_trace(str(trace))
        records = read_metrics_jsonl(str(metrics))
        assert records[-1]["kind"] == "summary"
        m = load_manifest(str(manifest))
        assert m.runtime == "gala"
        assert m.command.startswith("detect")
        assert m.result["modularity"] > 0

    def test_detect_manifest_alone(self, karate_file, tmp_path):
        manifest = tmp_path / "m.json"
        assert main(["detect", karate_file, "--manifest", str(manifest)]) == 0
        assert manifest.exists()

    def test_detect_leiden_manifest(self, karate_file, tmp_path):
        manifest = tmp_path / "m.json"
        assert main([
            "detect", karate_file, "--algorithm", "leiden",
            "--manifest", str(manifest),
        ]) == 0
        from repro.obs import load_manifest

        assert load_manifest(str(manifest)).runtime == "leiden"

    def test_report_single(self, karate_file, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        main(["detect", karate_file, "--manifest", str(manifest)])
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "per-level breakdown" in out
        assert "per-phase wall clock" in out

    def test_report_diff(self, karate_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["detect", karate_file, "--manifest", str(a)])
        main(["detect", karate_file, "--pruning", "none", "--manifest", str(b)])
        capsys.readouterr()
        assert main(["report", str(a), str(b), "--diff-only"]) == 0
        out = capsys.readouterr().out
        assert "diff:" in out
        assert "modularity" in out
        assert "per-level breakdown" not in out  # --diff-only suppresses

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            "[1, 2]",
            '{"schema_version": 1, "graph": 5, "levels": "x"}',
            '{"schema_version": "1"}',
            '{"levels": [3]}',
            '{"levels": [{"timers": 5}]}',
            '{"schema_version": 1, "result": {"modularity": "x"}}',
            '{"schema_version": 1, "metrics": {"gauges": 3}}',
        ],
        ids=[
            "missing", "corrupt", "not-object",
            "wrong-field-types", "string-version", "level-not-object",
            "level-missing-fields", "result-not-number", "gauges-not-object",
        ],
    )
    def test_report_unreadable_manifest(self, tmp_path, capsys, content):
        """A missing, corrupt or mistyped manifest is one line on stderr
        and exit 2, not a traceback."""
        path = tmp_path / "m.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and len(err.strip().splitlines()) == 1

    def test_report_many_summarises(self, karate_file, tmp_path, capsys):
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.json"
            main(["detect", karate_file, "--manifest", str(p)])
            paths.append(str(p))
        capsys.readouterr()
        assert main(["report"] + paths) == 0
        out = capsys.readouterr().out
        assert "manifest summary" in out


class TestLeidenAndScoring:
    def test_detect_leiden(self, karate_file, capsys):
        assert main(["detect", karate_file, "--algorithm", "leiden"]) == 0
        out = capsys.readouterr().out
        assert "modularity" in out

    def test_ground_truth_scoring(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        truth_path = tmp_path / "t.txt"
        main([
            "generate", "lfr", "--n", "400", "--mu", "0.2",
            "-o", str(graph_path), "--ground-truth", str(truth_path),
            "--seed", "4",
        ])
        capsys.readouterr()
        assert main([
            "detect", str(graph_path), "--ground-truth", str(truth_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "NMI vs truth" in out
        assert "ARI vs truth" in out

    def test_ground_truth_length_mismatch(self, karate_file, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0\n1 1\n")
        with pytest.raises(SystemExit):
            main(["detect", karate_file, "--ground-truth", str(bad)])

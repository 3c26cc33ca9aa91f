"""Meta-tests: the shipped tree passes its own lint, and the CLI wires
the engine into exit codes, JSON output, manifests, and reports."""

import json
import textwrap
from pathlib import Path

from repro.analysis.staticcheck import describe_rules, run_staticcheck
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestShippedTree:
    def test_repo_source_tree_is_lint_clean(self):
        """The invariant checker's own acceptance bar: src/ stays clean.

        Any rule violation introduced anywhere in src/ fails this test
        with the full finding list — the same gate CI runs.
        """
        report = run_staticcheck(repo_root=REPO_ROOT)
        assert report.clean, "\n" + report.render_text()
        assert report.checked_modules > 100
        assert len(report.rules_run) == 6

    def test_describe_rules_covers_registry(self):
        rules = describe_rules()
        assert [name for name, _ in rules] == [
            "config-classification",
            "determinism",
            "float-accumulation",
            "metric-names",
            "protocol-coverage",
            "span-pairing",
        ]
        assert all(doc for _, doc in rules)


def write_bad_tree(tmp_path):
    """A minimal repo with one determinism violation."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "rand.py").write_text(textwrap.dedent("""
        import numpy as np

        def entropy():
            return np.random.default_rng()
    """))
    return tmp_path


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT)]) == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_findings_exit_three(self, tmp_path, capsys):
        root = write_bad_tree(tmp_path)
        assert main(["lint", "--root", str(root)]) == 3
        out = capsys.readouterr().out
        assert "unwaived finding" in out
        assert "determinism" in out

    def test_rule_subset_runs_only_requested(self, tmp_path, capsys):
        root = write_bad_tree(tmp_path)
        assert main(["lint", "--root", str(root),
                     "--rules", "span-pairing"]) == 0

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_format_and_output_file(self, tmp_path, capsys):
        root = write_bad_tree(tmp_path)
        out_path = tmp_path / "lint.json"
        assert main(["lint", "--root", str(root), "--rules", "determinism",
                     "--format", "json", "--output", str(out_path)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["summary"]["by_rule"] == {"determinism": 1}
        assert payload["findings"][0]["details"]["path"].endswith("rand.py")
        # the artifact on disk is the same document CI uploads
        assert json.loads(out_path.read_text()) == payload

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("config-classification", "determinism",
                     "float-accumulation", "metric-names",
                     "protocol-coverage", "span-pairing"):
            assert name in out

    def test_manifest_renders_staticcheck_line_in_report(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "lint_manifest.json"
        assert main(["lint", "--root", str(REPO_ROOT),
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "staticcheck: findings=0" in out

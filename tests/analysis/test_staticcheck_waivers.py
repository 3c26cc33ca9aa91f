"""Inline waiver markers: matching, the engine integration that strips
waived findings, and the stale-marker findings that keep the escape
hatch from rotting."""

import textwrap

from repro.analysis.staticcheck.engine import inline_waiver, run_staticcheck
from repro.analysis.staticcheck.project import Project


class TestInlineWaiver:
    def test_same_line_and_previous_line_match(self):
        line = "x = a.sum()  # lint: allow[float-accumulation]"
        assert inline_waiver(line, "", "float-accumulation")
        assert inline_waiver("x = a.sum()", "# lint: allow[float-accumulation]",
                             "float-accumulation")

    def test_rule_must_match_unless_star(self):
        line = "x = a.sum()  # lint: allow[determinism]"
        assert not inline_waiver(line, "", "float-accumulation")
        assert inline_waiver("x  # lint: allow[*]", "", "float-accumulation")

    def test_plain_comments_do_not_waive(self):
        assert not inline_waiver("x = a.sum()  # allow this", "", "any")


class TestEngineIntegration:
    def make_project(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "core").mkdir()
        (pkg / "core" / "rand.py").write_text(textwrap.dedent("""
            import numpy as np

            def entropy():
                return np.random.default_rng()
        """))
        return Project(pkg, repo_root=tmp_path, package="repro")

    def test_unwaived_report_shape(self, tmp_path):
        project = self.make_project(tmp_path)
        report = run_staticcheck(project=project, rules=["determinism"])
        assert not report.clean
        assert report.total == 1
        assert report.by_rule() == {"determinism": 1}
        summary = report.summary()
        assert summary["total"] == 1
        assert summary["by_kind"] == {"unseeded-rng": 1}
        assert summary["rules"] == ["determinism"]
        payload = report.as_json()
        assert set(payload) == {"clean", "summary", "findings"}
        assert payload["clean"] is False
        assert payload["findings"][0]["kind"] == "unseeded-rng"
        assert "unwaived finding" in report.render_text()

    def test_syntax_error_is_a_finding(self, tmp_path):
        project = self.make_project(tmp_path)
        broken = tmp_path / "src" / "repro" / "core" / "broken.py"
        broken.write_text("def oops(:\n")
        project = Project(
            tmp_path / "src" / "repro", repo_root=tmp_path, package="repro"
        )
        report = run_staticcheck(project=project, rules=["span-pairing"])
        assert "syntax-error" in [f.kind for f in report.findings]


class TestStaleMarkers:
    """A marker that waives nothing fails the run, anchored at itself."""

    def make_project(self, tmp_path, source):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "marked.py").write_text(textwrap.dedent(source))
        return Project(pkg.parent, repo_root=tmp_path, package="repro")

    def stale(self, report):
        return [
            (f.details["line"], f.message)
            for f in report.findings if f.kind == "stale-waiver"
        ]

    def test_marker_that_waives_nothing_is_stale(self, tmp_path):
        project = self.make_project(tmp_path, """
            import numpy as np

            def entropy(seed):
                # seeded by the caller  # lint: allow[determinism]
                return np.random.default_rng(seed)
        """)
        report = run_staticcheck(project=project, rules=["determinism"])
        assert self.stale(report) == [
            (5, "marker allow[determinism] waives no finding — delete it")
        ]
        assert report.by_rule() == {"waivers": 1}
        assert report.inline_waived == 0

    def test_marker_naming_no_registered_rule_is_stale(self, tmp_path):
        project = self.make_project(tmp_path, """
            import numpy as np

            def entropy():
                # lint: allow[determinsim]
                return np.random.default_rng()
        """)
        report = run_staticcheck(project=project, rules=["determinism"])
        # the typo waives nothing, so the finding it meant to cover stays
        assert sorted(f.kind for f in report.findings) == [
            "stale-waiver", "unseeded-rng",
        ]
        assert self.stale(report) == [
            (5, "marker allow[determinsim] names no registered rule")
        ]

    def test_live_marker_is_not_stale(self, tmp_path):
        project = self.make_project(tmp_path, """
            import numpy as np

            def entropy():
                return np.random.default_rng()  # lint: allow[*]
        """)
        # every rule runs, so the ``*`` marker is judged, and it waived one
        report = run_staticcheck(project=project)
        assert self.stale(report) == []
        assert report.inline_waived == 1

    def test_markers_of_rules_not_run_are_not_judged(self, tmp_path):
        project = self.make_project(tmp_path, """
            x = 1  # lint: allow[determinism]
            y = 2  # lint: allow[*]
        """)
        assert run_staticcheck(project=project, rules=["span-pairing"]).clean
        report = run_staticcheck(project=project)
        assert [line for line, _ in self.stale(report)] == [2, 3]

    def test_marker_quoted_in_a_docstring_is_prose(self, tmp_path):
        project = self.make_project(tmp_path, '''
            """Waive a site with ``# lint: allow[float-accumulation]``."""
        ''')
        report = run_staticcheck(project=project, rules=["float-accumulation"])
        assert report.clean, report.render_text()

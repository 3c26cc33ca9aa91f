"""Waiver mechanics: file round-trip, validation, expiry, staleness,
inline markers, and the engine integration that ties them together."""

import datetime as dt
import textwrap

import pytest

from repro.analysis.findings import Finding
from repro.analysis.staticcheck.engine import run_staticcheck
from repro.analysis.staticcheck.project import Project
from repro.analysis.staticcheck.waivers import (
    WAIVER_SCHEMA_VERSION,
    Waiver,
    WaiverFile,
    WaiverFormatError,
    inline_waiver,
)


def finding(rule="determinism", path="src/repro/core/x.py",
            message="unseeded rng", kind="unseeded-rng"):
    return Finding(
        checker="staticcheck",
        kind=kind,
        message=message,
        kernel=path,
        details={"rule": rule, "path": path, "line": 1},
    )


def waiver(**kw):
    base = dict(rule="determinism", path="src/repro/core/*.py",
                reason="fixture")
    base.update(kw)
    return Waiver(**base)


class TestWaiverFileRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        original = WaiverFile(waivers=[
            waiver(),
            waiver(rule="*", path="src/repro/gpusim/*.py",
                   contains="shuffle", expires="2030-01-01",
                   reason="tracked in #42"),
        ])
        path = tmp_path / "waivers.json"
        original.save(path)
        loaded = WaiverFile.load(path)
        assert loaded.version == WAIVER_SCHEMA_VERSION
        assert loaded.waivers == original.waivers
        assert loaded.source == str(path)

    def test_unknown_top_level_keys_are_ignored(self, tmp_path):
        path = tmp_path / "waivers.json"
        path.write_text(
            '{"_doc": ["commentary"], "version": 1, "waivers": []}'
        )
        assert WaiverFile.load(path).waivers == []

    @pytest.mark.parametrize("raw, match", [
        ({"version": 99, "waivers": []}, "unsupported waiver schema"),
        ({"version": 1, "waivers": "nope"}, "'waivers' must be a list"),
        ({"version": 1, "waivers": [{"rule": "x"}]}, "missing field"),
        ({"version": 1, "waivers": [
            {"rule": "x", "path": "y", "reason": "  "}]}, "empty reason"),
        ({"version": 1, "waivers": [
            {"rule": "x", "path": "y", "reason": "z",
             "expires": "not-a-date"}]}, "bad expires date"),
    ])
    def test_validation_errors(self, raw, match):
        with pytest.raises(WaiverFormatError, match=match):
            WaiverFile.from_dict(raw)

    def test_invalid_json_raises_format_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(WaiverFormatError, match="invalid JSON"):
            WaiverFile.load(path)


class TestWaiverMatching:
    def test_rule_path_and_contains_all_narrow(self):
        w = waiver(contains="rng")
        assert w.matches(finding())
        assert not w.matches(finding(rule="span-pairing"))
        assert not w.matches(finding(path="src/repro/serve/x.py"))
        assert not w.matches(finding(message="something else"))

    def test_star_rule_matches_any_rule(self):
        assert waiver(rule="*").matches(finding(rule="span-pairing"))

    def test_expiry_is_date_inclusive(self):
        w = waiver(expires="2026-06-01")
        assert not w.expired(today=dt.date(2026, 6, 1))
        assert w.expired(today=dt.date(2026, 6, 2))
        assert not waiver().expired(today=dt.date(2099, 1, 1))


class TestApply:
    def test_matching_waiver_suppresses_with_reason(self):
        wf = WaiverFile(waivers=[waiver(reason="known, tracked")])
        unwaived, waived, extra = wf.apply([finding()])
        assert unwaived == []
        assert extra == []
        [(f, reason)] = waived
        assert reason == "known, tracked"
        assert f.kind == "unseeded-rng"

    def test_expired_waiver_becomes_finding(self):
        wf = WaiverFile(waivers=[waiver(expires="2020-01-01")])
        unwaived, waived, extra = wf.apply(
            [finding()], today=dt.date(2026, 1, 1)
        )
        # the original finding fails the run again AND the rotten waiver
        # is reported alongside it
        assert [f.kind for f in unwaived] == ["unseeded-rng"]
        assert waived == []
        assert [f.kind for f in extra] == ["expired-waiver"]

    def test_stale_waiver_becomes_finding(self):
        wf = WaiverFile(waivers=[waiver(path="src/repro/gone/*.py")])
        unwaived, waived, extra = wf.apply([finding()])
        assert [f.kind for f in unwaived] == ["unseeded-rng"]
        assert [f.kind for f in extra] == ["stale-waiver"]
        assert "matches no finding" in extra[0].message

    def test_first_matching_waiver_wins_and_counts_hits(self):
        first, second = waiver(reason="first"), waiver(reason="second")
        wf = WaiverFile(waivers=[first, second])
        unwaived, waived, extra = wf.apply([finding(), finding()])
        assert unwaived == []
        assert [r for _, r in waived] == ["first", "first"]
        assert first.hits == 2
        # the shadowed duplicate is stale — apply() reports it
        assert [f.kind for f in extra] == ["stale-waiver"]


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

    def test_waiver_file_param_suppresses(self, tmp_path):
        project = self.make_project(tmp_path)
        wpath = tmp_path / "w.json"
        WaiverFile(waivers=[waiver(reason="seeded upstream")]).save(wpath)
        report = run_staticcheck(
            project=project, rules=["determinism"], waiver_file=wpath
        )
        assert report.clean
        assert [r for _, r in report.waived] == ["seeded upstream"]
        assert report.waiver_file == str(wpath)

    def test_default_waiver_file_discovered_at_repo_root(self, tmp_path):
        project = self.make_project(tmp_path)
        WaiverFile(waivers=[waiver(reason="repo default")]).save(
            tmp_path / "lint-waivers.json"
        )
        report = run_staticcheck(project=project, rules=["determinism"])
        assert report.clean
        assert report.waiver_file == str(tmp_path / "lint-waivers.json")

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

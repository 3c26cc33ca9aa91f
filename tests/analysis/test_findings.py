"""Findings, logs, configuration, and the sanitizer session plumbing."""

import pytest

from repro import analysis
from repro.analysis import (
    Finding,
    FindingLog,
    Sanitizer,
    SanitizerConfig,
    resolve_sanitize,
)
from repro.errors import (
    DeviceError,
    GraphValidationError,
    InvariantViolationError,
    MemcheckError,
    RaceHazardError,
    ReproError,
    SanitizerError,
    SynccheckError,
)
from repro.gpusim.device import DeviceConfig


def _finding(checker="racecheck", kind="write-write-hazard", **kw):
    return Finding(checker=checker, kind=kind, message="boom", **kw)


class TestFinding:
    def test_as_dict_is_json_safe(self):
        f = _finding(
            kernel="hash",
            launch=3,
            space="shared",
            address=7,
            lanes=(0, 4),
            details={"n_lanes": 2},
        )
        d = f.as_dict()
        assert d["checker"] == "racecheck"
        assert d["lanes"] == [0, 4]  # tuple became a list
        assert d["details"] == {"n_lanes": 2}
        import json

        json.dumps(d)  # round-trippable

    @pytest.mark.parametrize(
        "checker,err",
        [
            ("racecheck", RaceHazardError),
            ("memcheck", MemcheckError),
            ("synccheck", SynccheckError),
            ("invariant", InvariantViolationError),
            ("mystery", SanitizerError),
        ],
    )
    def test_to_error_maps_checker(self, checker, err):
        e = _finding(checker=checker).to_error()
        assert type(e) is err
        assert isinstance(e, SanitizerError)
        assert isinstance(e, ReproError)
        assert e.findings and e.findings[0].checker == checker

    def test_str_mentions_checker_kind_and_address(self):
        text = str(_finding(kernel="hash", launch=2, space="shared", address=5))
        assert "racecheck" in text and "write-write-hazard" in text
        assert "hash#L2" in text and "shared[5]" in text


class TestFindingLog:
    def test_counts_exact_past_storage_bound(self):
        log = FindingLog(max_stored=2)
        for i in range(5):
            log.add(_finding(kind=f"kind{i % 2}"))
        assert log.total == 5
        assert len(log.findings) == 2  # bounded storage
        assert len(log) == 5  # exact count
        assert log.by_checker == {"racecheck": 5}
        assert log.by_kind == {"kind0": 3, "kind1": 2}
        assert not log.clean
        assert log.count("racecheck") == 5
        assert log.count("memcheck") == 0

    def test_summary_and_report_shape(self):
        log = FindingLog()
        log.add(_finding())
        s = log.summary()
        assert set(s) == {"total", "stored", "by_checker", "by_kind"}
        r = log.as_report()
        assert r["findings"][0]["kind"] == "write-write-hazard"

    def test_render_clean_and_overflow(self):
        log = FindingLog()
        assert log.render() == "sanitizer: 0 findings"
        for _ in range(25):
            log.add(_finding())
        text = log.render(limit=20)
        assert "25 finding(s)" in text
        assert "... and 5 more" in text

    def test_on_add_callback_fires_per_finding(self):
        seen = []
        log = FindingLog(on_add=seen.append)
        log.extend([_finding(), _finding(checker="memcheck", kind="oob-access")])
        assert [f.checker for f in seen] == ["racecheck", "memcheck"]


class TestSanitizerConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SanitizerConfig(mode="paranoid")

    def test_invalid_on_finding_rejected(self):
        with pytest.raises(ValueError, match="on_finding"):
            SanitizerConfig(on_finding="ignore")

    def test_strict_property(self):
        assert SanitizerConfig(mode="strict").strict
        assert not SanitizerConfig(mode="fast").strict


class TestResolveSanitize:
    def test_none_without_env_is_off(self, monkeypatch):
        monkeypatch.delenv(analysis.ENV_VAR, raising=False)
        assert resolve_sanitize(None) is None

    def test_none_consults_env(self, monkeypatch):
        monkeypatch.setenv(analysis.ENV_VAR, "strict")
        cfg = resolve_sanitize(None)
        assert cfg is not None and cfg.mode == "strict"

    @pytest.mark.parametrize("spec", [False, "off", "", "none", "0", "false"])
    def test_off_spellings(self, spec):
        assert resolve_sanitize(spec) is None

    @pytest.mark.parametrize("spec", [True, "1", "true", "on", "fast"])
    def test_fast_spellings(self, spec):
        assert resolve_sanitize(spec).mode == "fast"

    def test_config_passthrough(self):
        cfg = SanitizerConfig(mode="strict")
        assert resolve_sanitize(cfg) is cfg

    def test_bad_mode_string_raises(self):
        with pytest.raises(ValueError):
            resolve_sanitize("extreme")


class TestSession:
    def test_sanitized_activates_and_restores(self):
        assert analysis.current() is None
        with analysis.sanitized("fast") as san:
            assert analysis.current() is san
            assert analysis.active()
        assert analysis.current() is None
        assert not analysis.active()

    def test_nested_innermost_wins(self):
        with analysis.sanitized("fast") as outer:
            with analysis.sanitized("strict") as inner:
                assert analysis.current() is inner
            assert analysis.current() is outer

    def test_off_spec_yields_inactive_sanitizer(self):
        with analysis.sanitized(False) as san:
            assert analysis.current() is None
            assert san.log.clean  # usable, just never activated

    def test_pop_out_of_order_rejected(self):
        a, b = Sanitizer(), Sanitizer()
        analysis.push(a)
        analysis.push(b)
        try:
            with pytest.raises(ValueError, match="stack"):
                analysis.pop(a)
        finally:
            analysis.pop(b)
            analysis.pop(a)
        assert analysis.current() is None

    def test_on_finding_raise_aborts(self):
        san = Sanitizer(SanitizerConfig(on_finding="raise"))
        with pytest.raises(RaceHazardError):
            san.log.add(_finding())

    def test_summary_and_report_carry_mode(self):
        with analysis.sanitized("strict") as san:
            pass
        assert san.summary()["mode"] == "strict"
        assert san.report()["findings"] == []


class TestErrorHierarchy:
    def test_sanitizer_errors_carry_findings(self):
        f = _finding()
        err = SanitizerError("bad", findings=[f])
        assert err.findings == [f]
        assert SanitizerError("bad").findings == []

    def test_graph_validation_error_carries_findings(self):
        f = _finding(checker="invariant", kind="csr-asymmetric")
        err = GraphValidationError("bad graph", findings=[f])
        assert err.findings == [f]
        assert isinstance(err, ReproError)


class TestDeviceConfigValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "warp_size",
            "max_threads_per_block",
            "shared_mem_per_block",
            "bucket_bytes",
            "clock_hz",
            "interconnect_bandwidth",
        ],
    )
    def test_non_positive_rejected(self, field):
        with pytest.raises(DeviceError, match=field):
            DeviceConfig(**{field: 0})

    def test_negative_latency_rejected(self):
        with pytest.raises(DeviceError, match="interconnect_latency"):
            DeviceConfig(interconnect_latency=-1e-6)

    def test_block_smaller_than_warp_rejected(self):
        with pytest.raises(DeviceError, match="warp"):
            DeviceConfig(warp_size=32, max_threads_per_block=16)

    def test_defaults_valid(self):
        DeviceConfig()  # must not raise

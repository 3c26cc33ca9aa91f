"""Fixture tests for every ``repro lint`` rule: fire on a violating
synthetic tree, stay quiet on the corrected one.

Each test builds a tiny ``src/repro`` layout under tmp_path, parses it
with :class:`Project`, and runs exactly one rule — so a failure names
the rule that regressed, not the whole engine.
"""

import textwrap

import pytest

from repro.analysis.staticcheck.engine import run_staticcheck
from repro.analysis.staticcheck.project import Project
from repro.analysis.staticcheck.rules import all_rules, get_rule


def make_project(tmp_path, files, docs=None):
    """A parsed Project from {relpath-under-repro: source} plus docs."""
    pkg = tmp_path / "src" / "repro"
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for rel, text in (docs or {}).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return Project(pkg, repo_root=tmp_path, package="repro")


def kinds(findings):
    return sorted(f.kind for f in findings)


def run_rule(name, project):
    findings = get_rule(name)(project)
    for f in findings:
        assert f.checker == "staticcheck"
        assert f.details["rule"] == name
        assert f.details["path"].endswith(".py") or "docs" in f.details["path"]
        assert isinstance(f.details["line"], int)
    return findings


def test_registry_has_all_six_rules():
    assert all_rules() == (
        "config-classification",
        "determinism",
        "float-accumulation",
        "metric-names",
        "protocol-coverage",
        "span-pairing",
    )


def test_unknown_rule_is_keyerror():
    with pytest.raises(KeyError, match="unknown rule"):
        get_rule("bogus")


# --------------------------------------------------------------------- #
# config-classification
# --------------------------------------------------------------------- #
GOOD_GALA = """
    from dataclasses import dataclass

    @dataclass
    class GalaConfig:
        SEMANTIC_FIELDS = frozenset({"resolution"})
        EXECUTION_FIELDS = frozenset({"backend"})

        resolution: float = 1.0
        backend: str = "numpy"
        seed: int = 0
"""


class TestConfigClassification:
    RULE = "config-classification"

    def test_quiet_on_fully_classified_config(self, tmp_path):
        project = make_project(tmp_path, {"core/gala.py": GOOD_GALA})
        assert run_rule(self.RULE, project) == []

    def test_unclassified_field_fires(self, tmp_path):
        source = GOOD_GALA + "        theta: float = 0.5\n"
        project = make_project(tmp_path, {"core/gala.py": source})
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["unclassified-config-field"]
        assert findings[0].details["field"] == "theta"

    def test_ambiguous_field_fires(self, tmp_path):
        source = GOOD_GALA.replace(
            'EXECUTION_FIELDS = frozenset({"backend"})',
            'EXECUTION_FIELDS = frozenset({"backend", "resolution"})',
        )
        project = make_project(tmp_path, {"core/gala.py": source})
        assert "ambiguous-config-field" in kinds(run_rule(self.RULE, project))

    def test_stale_classification_fires(self, tmp_path):
        source = GOOD_GALA.replace(
            'SEMANTIC_FIELDS = frozenset({"resolution"})',
            'SEMANTIC_FIELDS = frozenset({"resolution", "ghost"})',
        )
        project = make_project(tmp_path, {"core/gala.py": source})
        assert "stale-config-classification" in kinds(
            run_rule(self.RULE, project)
        )

    def test_missing_classification_set_fires(self, tmp_path):
        source = GOOD_GALA.replace(
            '        EXECUTION_FIELDS = frozenset({"backend"})\n', ""
        )
        project = make_project(tmp_path, {"core/gala.py": source})
        assert kinds(run_rule(self.RULE, project)) == ["missing-classification"]

    def test_phase1_extra_field_fires(self, tmp_path):
        phase1 = """
            from dataclasses import dataclass

            @dataclass
            class Phase1Config:
                resolution: float = 1.0
                oracle: bool = False
                mystery: int = 0
        """
        project = make_project(
            tmp_path, {"core/gala.py": GOOD_GALA, "core/phase1.py": phase1}
        )
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["unmapped-phase1-field"]
        assert findings[0].details["field"] == "mystery"

    def test_phase1_kernel_maps_to_backend(self, tmp_path):
        # Phase1Config.kernel is filled from GalaConfig.backend; a field
        # with neither a same-name nor a mapped counterpart still fires
        phase1 = """
            from dataclasses import dataclass

            @dataclass
            class Phase1Config:
                resolution: float = 1.0
                kernel: str = "vectorized"
                mystery: int = 0
        """
        project = make_project(
            tmp_path, {"core/gala.py": GOOD_GALA, "core/phase1.py": phase1}
        )
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["unmapped-phase1-field"]
        assert findings[0].details["field"] == "mystery"
        no_backend = GOOD_GALA.replace("backend", "engine")
        project = make_project(
            tmp_path, {"core/gala.py": no_backend, "core/phase1.py": phase1}
        )
        fields = [f.details["field"] for f in run_rule(self.RULE, project)]
        assert fields == ["kernel", "mystery"]

    def test_inherited_phase1_field_fires(self, tmp_path):
        engine = """
            from dataclasses import dataclass

            @dataclass
            class AlgorithmConfig:
                resolution: float = 1.0
                mystery: int = 0
        """
        phase1 = """
            from dataclasses import dataclass

            from repro.core.engine import AlgorithmConfig

            @dataclass
            class Phase1Config(AlgorithmConfig):
                oracle: bool = False
        """
        project = make_project(
            tmp_path,
            {
                "core/gala.py": GOOD_GALA,
                "core/engine.py": engine,
                "core/phase1.py": phase1,
            },
        )
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["unmapped-phase1-field"]
        assert findings[0].details["field"] == "mystery"
        assert findings[0].details["path"].endswith("engine.py")

    def test_cache_key_bypass_fires(self, tmp_path):
        cache = """
            class ResultCache:
                def key(self, fingerprint, config, seed):
                    return (fingerprint, repr(config), seed)
        """
        project = make_project(
            tmp_path, {"core/gala.py": GOOD_GALA, "serve/cache.py": cache}
        )
        assert kinds(run_rule(self.RULE, project)) == ["cache-key-bypass"]
        fixed = cache.replace("repr(config)", "config.cache_key()")
        project = make_project(
            tmp_path / "ok",
            {"core/gala.py": GOOD_GALA, "serve/cache.py": fixed},
        )
        assert run_rule(self.RULE, project) == []

    def test_missing_protocol_guard_fires(self, tmp_path):
        protocol = """
            def parse_detect_config(message):
                return dict(message.get("config") or {})
        """
        project = make_project(
            tmp_path,
            {"core/gala.py": GOOD_GALA, "serve/protocol.py": protocol},
        )
        assert kinds(run_rule(self.RULE, project)) == [
            "missing-unknown-field-guard"
        ]
        guarded = """
            def parse_detect_config(message):
                raw = dict(message.get("config") or {})
                unknown = set(raw) - {"resolution", "backend", "seed"}
                if unknown:
                    raise ValueError(f"unknown config fields: {sorted(unknown)}")
                return raw
        """
        project = make_project(
            tmp_path / "ok",
            {"core/gala.py": GOOD_GALA, "serve/protocol.py": guarded},
        )
        assert run_rule(self.RULE, project) == []


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #
BAD_RANDOMNESS = """
    import random
    import time

    import numpy as np

    def unseeded():
        return np.random.default_rng()

    def time_seeded():
        return np.random.default_rng(time.time_ns())

    def global_numpy(xs):
        np.random.shuffle(xs)

    def global_stdlib():
        return random.random()

    def set_iteration():
        out = []
        for x in {3, 1, 2}:
            out.append(x)
        return out

    def set_to_array(values):
        return np.array(set(values))
"""


class TestDeterminism:
    RULE = "determinism"

    def test_fires_on_every_nondeterminism_source(self, tmp_path):
        project = make_project(tmp_path, {"core/rand.py": BAD_RANDOMNESS})
        found = kinds(run_rule(self.RULE, project))
        assert found == [
            "time-seeded-rng",
            "unordered-iteration",
            "unordered-to-array",
            "unseeded-rng",
            "unseeded-rng",
            "unseeded-rng",
        ]

    def test_quiet_on_seeded_and_sorted(self, tmp_path):
        source = """
            import numpy as np

            def good(cfg, values):
                rng = np.random.default_rng(cfg.seed)
                for x in sorted(values):
                    rng.integers(x)
                return np.array(sorted(values))
        """
        project = make_project(tmp_path, {"core/rand.py": source})
        assert run_rule(self.RULE, project) == []

    def test_multigpu_runtime_in_scope(self, tmp_path):
        source = """
            import numpy as np

            def partition_noise():
                return np.random.default_rng()
        """
        project = make_project(tmp_path, {"multigpu/runtime.py": source})
        assert kinds(run_rule(self.RULE, project)) == ["unseeded-rng"]

    def test_out_of_scope_modules_not_checked(self, tmp_path):
        # bench/ is allowed wall-clock randomness; the contract covers
        # core/gpusim/multiprocess/distributed/multigpu only
        project = make_project(tmp_path, {"bench/rand.py": BAD_RANDOMNESS})
        assert run_rule(self.RULE, project) == []

    def test_dict_view_iteration_allowed_but_not_into_arrays(self, tmp_path):
        source = """
            import numpy as np

            def iterate(totals):
                for name in totals.keys():
                    print(name)

            def materialise(totals):
                return np.asarray(totals.values())
        """
        project = make_project(tmp_path, {"gpusim/views.py": source})
        assert kinds(run_rule(self.RULE, project)) == ["unordered-to-array"]


# --------------------------------------------------------------------- #
# metric-names
# --------------------------------------------------------------------- #
GOOD_REGISTRY = """
    METRIC_NAMES = frozenset({"foo/bar"})
    METRIC_FAMILIES = ("foo/cycles/*",)
    DOC_FILES = ("docs/metrics.md",)
"""

GOOD_EMITTER = """
    def record(registry, bucket):
        registry.counter("foo/bar", 1)
        registry.gauge(f"foo/cycles/{bucket}", 2.0)
"""

GOOD_DOC = "`foo/bar` and the `foo/cycles/` family.\n"


class TestMetricNames:
    RULE = "metric-names"

    def quiet_project(self, tmp_path):
        return make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": GOOD_EMITTER},
            docs={"docs/metrics.md": GOOD_DOC},
        )

    def test_quiet_when_registry_docs_and_emissions_agree(self, tmp_path):
        assert run_rule(self.RULE, self.quiet_project(tmp_path)) == []

    def test_missing_registry_fires(self, tmp_path):
        project = make_project(tmp_path, {"obs/metrics.py": GOOD_EMITTER})
        assert kinds(run_rule(self.RULE, project)) == ["missing-registry"]

    def test_undeclared_emission_fires(self, tmp_path):
        emitter = GOOD_EMITTER + '        registry.counter("foo/baz", 1)\n'
        project = make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": emitter},
            docs={"docs/metrics.md": GOOD_DOC},
        )
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["undeclared-metric-name"]
        assert findings[0].details["metric"] == "foo/baz"

    def test_stale_registry_entry_fires(self, tmp_path):
        registry = GOOD_REGISTRY.replace(
            '{"foo/bar"}', '{"foo/bar", "never/used"}'
        )
        project = make_project(
            tmp_path,
            {"obs/names.py": registry, "obs/metrics.py": GOOD_EMITTER},
            docs={"docs/metrics.md": GOOD_DOC + "`never/used`\n"},
        )
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["stale-metric-name"]
        assert findings[0].details["metric"] == "never/used"

    def test_undocumented_metric_fires(self, tmp_path):
        project = make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": GOOD_EMITTER},
            docs={"docs/metrics.md": "`foo/cycles/` only\n"},
        )
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["undocumented-metric"]
        assert findings[0].details["metric"] == "foo/bar"

    def test_missing_doc_file_fires(self, tmp_path):
        project = make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": GOOD_EMITTER},
        )
        assert kinds(run_rule(self.RULE, project)) == ["missing-doc-file"]

    def test_computed_name_is_unresolvable(self, tmp_path):
        emitter = """
            def record(registry):
                name = make_name()
                registry.counter(name, 1)
        """
        project = make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": GOOD_EMITTER,
             "obs/bad.py": emitter},
            docs={"docs/metrics.md": GOOD_DOC},
        )
        assert kinds(run_rule(self.RULE, project)) == [
            "unresolvable-metric-name"
        ]

    def test_pass_through_parameter_is_plumbing_not_emission(self, tmp_path):
        plumbing = """
            class Registry:
                def inc(self, name, amount=1):
                    self.counter(name, amount)

                def counter(self, name, amount):
                    pass
        """
        project = make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": GOOD_EMITTER,
             "obs/registry.py": plumbing},
            docs={"docs/metrics.md": GOOD_DOC},
        )
        assert run_rule(self.RULE, project) == []

    def test_prefix_default_substituted_into_fstring(self, tmp_path):
        bridge = """
            def bridge(registry, bucket, prefix="foo"):
                registry.gauge(f"{prefix}/cycles/{bucket}", 1.0)
        """
        project = make_project(
            tmp_path,
            {"obs/names.py": GOOD_REGISTRY, "obs/metrics.py": GOOD_EMITTER,
             "obs/bridge.py": bridge},
            docs={"docs/metrics.md": GOOD_DOC},
        )
        assert run_rule(self.RULE, project) == []


# --------------------------------------------------------------------- #
# protocol-coverage
# --------------------------------------------------------------------- #
GOOD_PROTOCOL = 'KNOWN_OPS = ("ping", "stats")\n'

GOOD_SERVER = """
    async def dispatch(op, message):
        if op == "ping":
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": {}}
"""

GOOD_CLIENT = """
    class Client:
        def ping(self):
            return {"op": "ping"}

        def stats(self):
            return {"op": "stats"}
"""

GOOD_OP_DOC = "ops: `ping`, `stats`\n"


class TestProtocolCoverage:
    RULE = "protocol-coverage"

    def files(self):
        return {
            "serve/protocol.py": GOOD_PROTOCOL,
            "serve/server.py": GOOD_SERVER,
            "serve/client.py": GOOD_CLIENT,
        }

    def docs(self):
        return {"docs/api.md": GOOD_OP_DOC, "docs/serving.md": GOOD_OP_DOC}

    def test_quiet_when_every_op_fully_wired(self, tmp_path):
        project = make_project(tmp_path, self.files(), docs=self.docs())
        assert run_rule(self.RULE, project) == []

    def test_missing_op_registry_fires(self, tmp_path):
        files = self.files()
        files["serve/protocol.py"] = "STATUS = {}\n"
        project = make_project(tmp_path, files, docs=self.docs())
        assert kinds(run_rule(self.RULE, project)) == ["missing-op-registry"]

    def test_unhandled_op_fires(self, tmp_path):
        files = self.files()
        files["serve/server.py"] = GOOD_SERVER.replace(
            '        if op == "stats":\n'
            '            return {"ok": True, "stats": {}}\n',
            "",
        )
        project = make_project(tmp_path, files, docs=self.docs())
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["unhandled-op"]
        assert findings[0].details["op"] == "stats"

    def test_missing_client_method_fires(self, tmp_path):
        files = self.files()
        files["serve/client.py"] = """
            class Client:
                def ping(self):
                    return {"op": "ping"}
        """
        project = make_project(tmp_path, files, docs=self.docs())
        assert kinds(run_rule(self.RULE, project)) == ["missing-client-method"]

    def test_unknown_handler_and_undeclared_client_op_fire(self, tmp_path):
        files = self.files()
        files["serve/server.py"] = GOOD_SERVER + (
            '        if op == "reboot":\n            return {}\n'
        )
        files["serve/client.py"] = GOOD_CLIENT + (
            '\n        def reboot(self):\n            return {"op": "reboot"}\n'
        )
        project = make_project(tmp_path, files, docs=self.docs())
        assert kinds(run_rule(self.RULE, project)) == [
            "undeclared-op",
            "unknown-op-handler",
        ]

    def test_undocumented_op_fires_per_doc_file(self, tmp_path):
        docs = {"docs/api.md": "ops: `ping`\n", "docs/serving.md": GOOD_OP_DOC}
        project = make_project(tmp_path, self.files(), docs=docs)
        findings = run_rule(self.RULE, project)
        assert kinds(findings) == ["undocumented-op"]
        assert findings[0].details["doc"] == "docs/api.md"
        assert findings[0].details["op"] == "stats"

    def test_missing_doc_file_fires(self, tmp_path):
        docs = {"docs/api.md": GOOD_OP_DOC}  # no docs/serving.md
        project = make_project(tmp_path, self.files(), docs=docs)
        assert kinds(run_rule(self.RULE, project)) == ["missing-doc-file"]


# --------------------------------------------------------------------- #
# float-accumulation
# --------------------------------------------------------------------- #
class TestFloatAccumulation:
    RULE = "float-accumulation"

    def test_fires_on_bare_sums_and_loop_carries(self, tmp_path):
        source = """
            import numpy as np

            __bitexact__ = True

            def np_sum(xs):
                return np.sum(xs)

            def method_sum(xs):
                return xs.sum()

            def loop(out, vals):
                for i, v in enumerate(vals):
                    out[i] += v
        """
        project = make_project(tmp_path, {"core/accum.py": source})
        assert kinds(run_rule(self.RULE, project)) == [
            "bare-float-accumulation",
            "bare-float-accumulation",
            "loop-carried-accumulation",
        ]

    def test_quiet_without_bitexact_marker(self, tmp_path):
        source = """
            import numpy as np

            def np_sum(xs):
                return np.sum(xs)
        """
        project = make_project(tmp_path, {"core/accum.py": source})
        assert run_rule(self.RULE, project) == []

    def test_ordered_sum_and_scalar_loops_are_sanctioned(self, tmp_path):
        source = """
            from repro.utils.arrays import ordered_sum

            __bitexact__ = True

            def total(xs):
                return ordered_sum(xs)

            def running(vals):
                acc = 0.0
                for v in vals:
                    acc += v
                return acc
        """
        project = make_project(tmp_path, {"core/accum.py": source})
        assert run_rule(self.RULE, project) == []

    def test_inline_waiver_suppresses_via_engine(self, tmp_path):
        source = """
            __bitexact__ = True

            def count(mask):
                # integer count, exact in any order  # lint: allow[float-accumulation]
                return int(mask.sum())
        """
        project = make_project(tmp_path, {"core/accum.py": source})
        report = run_staticcheck(project=project, rules=[self.RULE])
        assert report.clean
        assert report.inline_waived == 1


# --------------------------------------------------------------------- #
# span-pairing
# --------------------------------------------------------------------- #
class TestSpanPairing:
    RULE = "span-pairing"

    def test_fires_on_manually_managed_span(self, tmp_path):
        source = """
            def run(tr):
                span = tr.span("engine/run")
                span.__enter__()
                try:
                    pass
                finally:
                    span.__exit__(None, None, None)
        """
        project = make_project(tmp_path, {"core/engine.py": source})
        assert kinds(run_rule(self.RULE, project)) == ["unmanaged-span"]

    def test_quiet_on_all_managed_forms(self, tmp_path):
        source = """
            def direct(tr):
                with tr.span("a"):
                    pass

            def via_exit_stack(tr, stack):
                stack.enter_context(tr.span("b"))

            def span(name):
                return _session.span(name)

            def bound_then_with(tr):
                s = tr.span("c")
                with s:
                    pass
        """
        project = make_project(tmp_path, {"core/engine.py": source})
        assert run_rule(self.RULE, project) == []

    def test_returning_span_outside_facade_fires(self, tmp_path):
        source = """
            def make_span(tr):
                return tr.span("leaked")
        """
        project = make_project(tmp_path, {"core/engine.py": source})
        assert kinds(run_rule(self.RULE, project)) == ["unmanaged-span"]

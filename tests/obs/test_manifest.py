"""Run manifests: graph fingerprints, builders for every result shape,
and the save/load round-trip."""

import dataclasses

import numpy as np
import pytest

from repro.core.gala import GalaConfig, gala
from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators import ring_of_cliques
from repro.obs import (
    RunManifest,
    build_manifest,
    environment_info,
    graph_fingerprint,
    load_manifest,
    save_manifest,
)
from repro.obs.manifest import _FIELD_TYPES, MANIFEST_SCHEMA_VERSION


class TestFingerprint:
    def test_stable_for_same_graph(self):
        g = ring_of_cliques(4, 5)
        assert graph_fingerprint(g) == graph_fingerprint(g)

    def test_sensitive_to_structure(self):
        a = graph_fingerprint(ring_of_cliques(4, 5))
        b = graph_fingerprint(ring_of_cliques(4, 6))
        assert a["sha256"] != b["sha256"]

    def test_sensitive_to_weights(self, weighted_graph, karate):
        # same test fixture module, different weighted payloads
        assert (
            graph_fingerprint(weighted_graph)["sha256"]
            != graph_fingerprint(karate)["sha256"]
        )

    def test_fields(self, karate):
        fp = graph_fingerprint(karate)
        assert fp["n"] == 34
        assert len(fp["sha256"]) == 16
        assert fp["total_weight"] > 0


class TestBuilders:
    def test_from_louvain_result(self, karate):
        result = gala(karate)
        m = build_manifest(result, karate, config=GalaConfig(), runtime="gala")
        assert m.runtime == "gala"
        assert m.seed == 0
        assert len(m.levels) == result.num_levels
        assert m.result["modularity"] == pytest.approx(result.modularity)
        assert m.result["num_communities"] == result.num_communities
        assert m.result["iterations"] == sum(l["iterations"] for l in m.levels)
        # level rows carry the per-phase timers for the report
        assert "decide_and_move" in m.levels[0]["timers"]

    def test_from_phase1_result(self, karate):
        result = run_phase1(karate, Phase1Config())
        m = build_manifest(result, karate, config=Phase1Config())
        assert len(m.levels) == 1
        assert m.levels[0]["iterations"] == len(result.history)
        assert m.levels[0]["moved"] == sum(t.num_moved for t in result.history)

    def test_gala_attaches_manifest_automatically(self, karate):
        result = gala(karate)
        assert result.manifest is not None
        assert result.manifest.runtime == "gala"
        assert result.manifest.graph["sha256"] == graph_fingerprint(karate)["sha256"]

    def test_config_serialized_json_safe(self, karate):
        result = run_phase1(karate, Phase1Config())
        m = build_manifest(result, karate, config=Phase1Config(pruning="mg"))
        assert m.config["pruning"] == "mg"
        for v in m.config.values():
            assert isinstance(v, (str, int, float, bool)) or v is None


class TestEnvironment:
    def test_versions_present(self):
        env = environment_info()
        assert set(env) >= {"repro", "python", "numpy", "scipy", "platform"}
        assert env["numpy"] == np.__version__


class TestRoundTrip:
    def test_save_load(self, karate, tmp_path):
        result = gala(karate)
        m = build_manifest(result, karate, command="test run", runtime="gala")
        path = tmp_path / "m.json"
        save_manifest(m, str(path))
        loaded = load_manifest(str(path))
        assert loaded.command == "test run"
        assert loaded.graph == m.graph
        assert loaded.result == m.result
        assert loaded.levels == m.levels
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION

    def test_rejects_newer_schema(self):
        with pytest.raises(ValueError, match="newer than supported"):
            RunManifest.from_dict(
                {"schema_version": MANIFEST_SCHEMA_VERSION + 1}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("schema_version", "1"),
            ("schema_version", True),
            ("created_unix", "today"),
            ("command", 3),
            ("runtime", None),
            ("config", []),
            ("seed", 1.5),
            ("graph", 5),
            ("environment", "x"),
            ("levels", "x"),
            ("levels", [3]),
            ("levels", [{"timers": 5}]),
            ("levels", [{"level": "0"}]),
            ("metrics", [1]),
            ("result", 0),
            ("sanitizer", "strict"),
            ("staticcheck", False),
        ],
    )
    def test_rejects_wrong_field_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunManifest.from_dict({"schema_version": 1, field: value})

    def test_level_rows_checked(self, karate):
        row = build_manifest(gala(karate), karate).to_dict()["levels"][0]
        RunManifest.from_dict({"levels": [row]})  # a real row passes
        for key, value in [
            ("moved", None), ("modularity", "0.4"), ("timers", {"x": "1"}),
            ("kernel_backends", []), ("kernel_compile_s", True),
        ]:
            with pytest.raises(ValueError, match=f"levels\\[0\\].{key}"):
                RunManifest.from_dict({"levels": [{**row, key: value}]})

    def test_field_types_cover_every_field(self):
        assert set(_FIELD_TYPES) == {
            f.name for f in dataclasses.fields(RunManifest)
        }

    def test_accepts_null_optionals(self):
        m = RunManifest.from_dict(
            {"schema_version": 1, "command": None, "seed": None,
             "created_unix": 12}
        )
        assert m.command is None and m.seed is None

    def test_ignores_unknown_fields(self):
        m = RunManifest.from_dict(
            {"schema_version": 1, "runtime": "gala", "extra_field": 42}
        )
        assert m.runtime == "gala"

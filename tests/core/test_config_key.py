"""GalaConfig.cache_key(): canonical serialization + round-trip.

The key is the semantic identity of a run — the serving layer's result
cache is only sound if two configs produce the same key exactly when a
deterministic engine must produce the same assignment.
"""

import dataclasses
import json

import pytest

from repro.core.gala import GalaConfig
from repro.core.phase1 import Phase1Config


class TestCanonicalForm:
    def test_defaults_expanded(self):
        """An all-defaults config and an explicitly-spelled one key
        identically."""
        assert (
            GalaConfig().cache_key()
            == GalaConfig(pruning="mg", resolution=1.0, theta=1e-6).cache_key()
        )

    def test_sorted_stable_json(self):
        key = GalaConfig().cache_key()
        fields = json.loads(key)
        assert list(fields) == sorted(fields)
        # compact separators: the key is a dict key itself, bytes matter
        assert ": " not in key and ", " not in key

    def test_covers_every_semantic_field(self):
        fields = set(json.loads(GalaConfig().cache_key()))
        declared = {f.name for f in dataclasses.fields(GalaConfig)}
        assert fields == declared - GalaConfig.EXECUTION_FIELDS - {"seed"}

    def test_semantic_field_changes_key(self):
        base = GalaConfig().cache_key()
        assert GalaConfig(resolution=1.5).cache_key() != base
        assert GalaConfig(pruning="rm").cache_key() != base
        assert GalaConfig(max_rounds=3).cache_key() != base

    def test_execution_fields_do_not_change_key(self):
        base = GalaConfig().cache_key()
        assert GalaConfig(backend="gpusim").cache_key() == base
        assert GalaConfig(backend="jit").cache_key() == base
        assert GalaConfig(runtime="multiprocess", ranks=3).cache_key() == base

    def test_seed_not_in_key(self):
        assert GalaConfig(seed=0).cache_key() == GalaConfig(seed=7).cache_key()


class TestExecutionFieldValidation:
    """Execution fields never reach the cache key, so they are checked
    when the config is built — the serving layer relies on this to reject
    a bad value before its cache lookup."""

    @pytest.mark.parametrize("bad", [
        {"backend": "incremental"},
        {"backend": "bincount"},
        {"runtime": "mpi"},
        {"ranks": 0},
        {"ranks": 2.5},
        {"ranks": True},
        {"backend": "bogus"},
        {"ranks": "2"},
        {"runtime": "multiprocess", "backend": "gpusim"},
    ])
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            GalaConfig(**bad)

    @pytest.mark.parametrize("name", ["gpusim_engine", "sanitize"])
    def test_test_oracles_are_not_fields(self, name):
        # the simulator engine is chosen per kernel or by
        # REPRO_GPUSIM_ENGINE, the sanitizer by analysis.sanitized() or
        # REPRO_SANITIZE; neither is part of a run's config
        assert name not in {f.name for f in dataclasses.fields(GalaConfig)}
        with pytest.raises(TypeError):
            GalaConfig(**{name: None})

    def test_callable_kernel_accepted(self):
        # a callable kernel is a Phase1Config value only: GalaConfig
        # names its backend
        from repro.core.kernels import decide_moves

        assert Phase1Config(kernel=decide_moves).kernel is decide_moves
        with pytest.raises(TypeError):
            GalaConfig(kernel=decide_moves)


class TestRoundTrip:
    @pytest.mark.parametrize("config", [
        GalaConfig(),
        GalaConfig(pruning="rm", resolution=0.5, theta=1e-3),
        GalaConfig(phase1_only=True, max_iterations=5, patience=1),
        GalaConfig(weight_update="recompute", remove_self=False,
                   round_theta=1e-2, max_rounds=2),
    ])
    def test_key_round_trips(self, config):
        rebuilt = GalaConfig.from_cache_key(config.cache_key())
        assert rebuilt.cache_key() == config.cache_key()
        # every semantic field survives the trip
        for f in dataclasses.fields(GalaConfig):
            if f.name in GalaConfig.EXECUTION_FIELDS or f.name == "seed":
                continue
            assert getattr(rebuilt, f.name) == getattr(config, f.name)

    def test_execution_fields_come_back_default(self):
        rebuilt = GalaConfig.from_cache_key(
            GalaConfig(backend="gpusim", seed=5).cache_key()
        )
        assert rebuilt.backend == "auto"
        assert rebuilt.seed == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            GalaConfig.from_cache_key('{"resolutionn":2.0}')

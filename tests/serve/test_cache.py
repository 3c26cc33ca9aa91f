"""Result cache semantics: bit-identical hits, canonical keys, LRU budget.

The cache's correctness contract is determinism: a hit must be the exact
assignment the engine would recompute for that (fingerprint, semantic
config, seed) — and a config differing in any semantic field must miss.
"""

import numpy as np
import pytest

from repro.core.gala import GalaConfig, gala
from repro.graph.generators import ring_of_cliques, two_triangles
from repro.serve.cache import CachedResult, ResultCache, assignment_sha256


def _result(n: int = 32, fill: int = 0) -> CachedResult:
    return CachedResult(
        communities=np.full(n, fill, dtype=np.int64),
        modularity=0.5,
        num_levels=2,
        iterations=7,
    )


class TestCachedResult:
    def test_assignment_is_read_only(self):
        r = _result()
        with pytest.raises(ValueError):
            r.communities[0] = 9

    def test_sha_matches_helper(self):
        r = _result(fill=3)
        assert r.assignment_sha256 == assignment_sha256(r.communities)

    def test_from_engine_result(self, triangles):
        res = gala(triangles, GalaConfig())
        cached = CachedResult.from_result(res)
        np.testing.assert_array_equal(cached.communities, res.communities)
        assert cached.modularity == res.modularity
        assert cached.num_levels == len(res.levels)

    def test_from_worker_dict(self):
        cached = CachedResult.from_result(
            {"communities": [0, 0, 1], "modularity": 0.25,
             "num_levels": 1, "iterations": 3}
        )
        assert cached.num_communities == 2
        assert cached.communities.dtype == np.int64


class TestHitSemantics:
    def test_hit_is_bit_identical_without_rerun(self, triangles):
        """A hit returns the stored assignment — the engine runs once."""
        runs = 0

        def detect():
            nonlocal runs
            runs += 1
            return CachedResult.from_result(gala(triangles, GalaConfig(seed=0)))

        cache = ResultCache()
        key = ResultCache.key(triangles.fingerprint, GalaConfig(seed=0))
        first = cache.get(key)
        assert first is None
        stored = detect()
        cache.put(key, stored)

        hit = cache.get(key)
        assert runs == 1
        assert hit is stored  # the same buffer, not a copy
        fresh = gala(triangles, GalaConfig(seed=0))
        np.testing.assert_array_equal(hit.communities, fresh.communities)
        assert hit.assignment_sha256 == assignment_sha256(fresh.communities)

    def test_counters(self):
        cache = ResultCache()
        key = ("fp", "cfg", 0)
        cache.get(key)
        cache.put(key, _result())
        cache.get(key)
        s = cache.stats()
        assert (s["hits"], s["misses"]) == (1, 1)
        assert s["hit_rate"] == 0.5

    def test_peek_does_not_count(self):
        cache = ResultCache()
        cache.peek(("fp", "cfg", 0))
        assert cache.stats()["misses"] == 0


class TestKeyCanonicalization:
    def test_one_semantic_field_misses(self, triangles):
        fp = triangles.fingerprint
        base = ResultCache.key(fp, GalaConfig(resolution=1.0))
        for other in (
            GalaConfig(resolution=1.5),
            GalaConfig(pruning="rm"),
            GalaConfig(theta=1e-3),
            GalaConfig(phase1_only=True),
        ):
            assert ResultCache.key(fp, other) != base

    def test_seed_is_part_of_the_key(self):
        a = ResultCache.key("fp", GalaConfig(seed=0))
        b = ResultCache.key("fp", GalaConfig(seed=1))
        assert a != b
        assert ResultCache.key("fp", GalaConfig(seed=0), seed=1) == b

    def test_execution_fields_share_the_key(self):
        """Backends are bit-exact (the cross-runtime matrix), so a kernel
        or backend change hits the same cached result."""
        a = ResultCache.key("fp", GalaConfig(backend="vectorized"))
        b = ResultCache.key("fp", GalaConfig(backend="gpusim"))
        assert a == b

    def test_graph_is_part_of_the_key(self):
        cfg = GalaConfig()
        assert (
            ResultCache.key(two_triangles().fingerprint, cfg)
            != ResultCache.key(ring_of_cliques(3, 4).fingerprint, cfg)
        )


class TestByteBudget:
    def test_eviction_respects_budget_and_lru_order(self):
        entry = _result(n=128)  # 1 KiB each
        cache = ResultCache(max_bytes=3 * entry.nbytes)
        keys = [("fp", f"cfg{i}", 0) for i in range(4)]
        for i, key in enumerate(keys[:3]):
            cache.put(key, _result(n=128, fill=i))
        cache.get(keys[0])  # refresh the oldest
        cache.put(keys[3], _result(n=128, fill=3))
        assert cache.peek(keys[1]) is None  # true LRU victim
        assert cache.peek(keys[0]) is not None
        s = cache.stats()
        assert s["evictions"] == 1
        assert s["bytes"] <= cache.max_bytes

    def test_oversize_rejected_not_admitted(self):
        cache = ResultCache(max_bytes=64)
        admitted = cache.put(("fp", "cfg", 0), _result(n=128))
        assert admitted is False
        assert len(cache) == 0
        assert cache.stats()["rejected"] == 1

    def test_replace_same_key_keeps_budget_exact(self):
        cache = ResultCache(max_bytes=4096)
        key = ("fp", "cfg", 0)
        cache.put(key, _result(n=64))
        cache.put(key, _result(n=128))
        assert cache.stats()["bytes"] == 128 * 8
        assert len(cache) == 1

    def test_evict_graph_cascades(self):
        cache = ResultCache()
        cache.put(("fpA", "c1", 0), _result())
        cache.put(("fpA", "c2", 0), _result())
        cache.put(("fpB", "c1", 0), _result())
        assert cache.evict_graph("fpA") == 2
        assert len(cache) == 1
        assert cache.peek(("fpB", "c1", 0)) is not None

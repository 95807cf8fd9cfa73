"""TTL cache and request-fingerprint behaviour."""

import numpy as np
import pytest

from repro.engine import ExecutionPolicy, SearchRequest, ShardPolicy
from repro.service.cache import TTLCache, request_fingerprint


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTTLCache:
    def test_put_get(self):
        cache = TTLCache(maxsize=4, ttl=10.0)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", "dflt") == "dflt"

    def test_none_key_never_caches(self):
        cache = TTLCache(maxsize=4, ttl=10.0)
        cache.put(None, "x")
        assert len(cache) == 0
        assert cache.get(None) is None

    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = TTLCache(maxsize=4, ttl=5.0, clock=clock)
        cache.put("a", 1)
        clock.advance(4.9)
        assert cache.get("a") == 1
        clock.advance(0.2)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_lru_reordered_entry_still_expires(self):
        """Regression: get() moves entries to the LRU tail, so expiry must
        check each entry's own stamp — a recently-*used* but old entry must
        not outlive its TTL behind a younger one."""
        clock = FakeClock()
        cache = TTLCache(maxsize=4, ttl=300.0, clock=clock)
        cache.put("a", "old")          # t = 0
        clock.advance(200.0)
        cache.put("b", "young")        # t = 200
        clock.advance(50.0)
        assert cache.get("a") == "old"  # t = 250: moves a behind b
        clock.advance(150.0)            # t = 400: a is 400s old, b is 200s
        assert cache.get("a") is None
        assert cache.get("b") == "young"

    def test_lru_eviction_bounds_size(self):
        cache = TTLCache(maxsize=3, ttl=100.0)
        for i in range(10):
            cache.put(f"k{i}", i)
            assert len(cache) <= 3
        # Oldest evicted, newest retained.
        assert cache.get("k9") == 9
        assert cache.get("k0") is None

    def test_get_refreshes_lru_order(self):
        cache = TTLCache(maxsize=2, ttl=100.0)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_zero_size_disables(self):
        cache = TTLCache(maxsize=0, ttl=10.0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_stats_counts(self):
        cache = TTLCache(maxsize=2, ttl=10.0)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["size"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TTLCache(maxsize=-1)
        with pytest.raises(ValueError):
            TTLCache(ttl=0)


class TestRequestFingerprint:
    REQ = dict(n_items=64, n_blocks=4, method="grk")

    def test_stable_for_equal_requests(self):
        a = request_fingerprint(SearchRequest(**self.REQ))
        b = request_fingerprint(SearchRequest(**self.REQ))
        assert a == b and isinstance(a, str)

    @pytest.mark.parametrize(
        "change",
        [
            {"n_items": 128, "n_blocks": 4},
            {"n_blocks": 8},
            {"method": "grk-simplified"},
            {"backend": "naive"},
            {"epsilon": 0.5},
            {"target": 3},
            {"rng": 7},
            {"options": {"strategy": "randomized"}},
        ],
    )
    def test_structural_changes_change_the_key(self, change):
        base = request_fingerprint(SearchRequest(**self.REQ))
        assert request_fingerprint(SearchRequest(**{**self.REQ, **change})) != base

    def test_shard_policy_is_excluded(self):
        """Results are shard-invariant, so the key must be too: a sharded
        run may serve a cache hit for an unsharded request."""
        a = request_fingerprint(SearchRequest(**self.REQ))
        b = request_fingerprint(
            SearchRequest(**self.REQ, shards=ShardPolicy(max_bytes=1 << 20, max_rows=3))
        )
        assert a == b

    def test_targets_distinguish_batches(self):
        req = SearchRequest(**self.REQ)
        all_targets = request_fingerprint(req, None)
        some = request_fingerprint(req, np.arange(10))
        other = request_fingerprint(req, np.arange(11))
        assert len({all_targets, some, other}) == 3

    def test_live_generator_uncacheable(self):
        req = SearchRequest(**self.REQ, rng=np.random.default_rng(3))
        assert request_fingerprint(req) is None


class TestPolicyFingerprintNormalisation:
    """The dtype is structural only for methods that honour the policy:
    the engine normalises the ExecutionPolicy away for policy-blind
    methods before execution, so their fingerprints must coincide too —
    otherwise provably identical runs split the cache and defeat
    coalescing and cluster cache peering."""

    def test_policy_blind_method_ignores_dtype(self):
        from repro.kernels import ExecutionPolicy

        base = request_fingerprint(
            SearchRequest(n_items=64, n_blocks=4, method="classical")
        )
        fast = request_fingerprint(
            SearchRequest(n_items=64, n_blocks=4, method="classical",
                          policy=ExecutionPolicy(dtype="complex64"))
        )
        assert base == fast

    def test_policy_honouring_method_keeps_dtype_structural(self):
        from repro.kernels import ExecutionPolicy

        base = request_fingerprint(SearchRequest(n_items=64, n_blocks=4))
        fast = request_fingerprint(
            SearchRequest(n_items=64, n_blocks=4,
                          policy=ExecutionPolicy(dtype="complex64"))
        )
        assert base != fast

    def test_row_threads_never_structural(self):
        from repro.kernels import ExecutionPolicy

        base = request_fingerprint(SearchRequest(n_items=64, n_blocks=4))
        threaded = request_fingerprint(
            SearchRequest(n_items=64, n_blocks=4,
                          policy=ExecutionPolicy(row_threads="auto"))
        )
        assert base == threaded


_BASE = dict(n_items=64, n_blocks=4, target=5)
_C64 = dict(policy=ExecutionPolicy(dtype="complex64"))
_GRK_REPORT = "b9dd60e792a22a47702594a64ff553d38a9763fc714d955fd90e83347afdd694"
_GRK_ANALYTIC = "0d494cb238860ec70a496c74637dd5f6a1a1132f20b548efbe53aac657d1a961"
_CLASSICAL = "37d26ad7a580a9b226c90f210a9fdf9a52a4c88e64a4d45d02b54637e2a39d42"


class TestFingerprintPins:
    """Literal digests: the cache key of each request, as
    ``"fingerprint-v6"`` defines it.  Cluster replicas peer on these keys,
    so a change that moves one must bump that version string."""

    @pytest.mark.parametrize("fields, targets, digest", [
        ({}, None, _GRK_REPORT),
        ({"wants": "probability"}, None, _GRK_ANALYTIC),
        ({"wants": "probability", "engine": "analytic"}, None, _GRK_ANALYTIC),
        ({"wants": "probability", **_C64}, None, _GRK_ANALYTIC),
        ({"method": "classical"}, None, _CLASSICAL),
        ({"method": "classical", **_C64}, None, _CLASSICAL),
        ({"wants": "probability", "engine": "simulate"}, None, _GRK_REPORT),
        ({"target": None}, None,
         "7f1c8e48a08e1c1846c3941992746bbee74ae841d684731b64a74fd2bac349e0"),
        ({"target": None}, [1, 2, 3],
         "c2ea7a003799d1911d81f038dc3b8114fb10f07a706ecbfbe2d50ee4e814af3f"),
    ], ids=["grk-report", "grk-probability-auto", "grk-probability-analytic",
            "analytic-complex64", "classical", "classical-complex64",
            "simulate-probability", "all-targets-batch", "explicit-batch"])
    def test_digest(self, fields, targets, digest):
        request = SearchRequest(**{**_BASE, **fields})
        assert request_fingerprint(request, targets) == digest

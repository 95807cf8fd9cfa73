"""TTL result cache and the structural request fingerprint that keys it.

The serving layer memoises completed reports: two clients asking for the
same search within the TTL share one execution.  The key is a **structural
fingerprint** of the request — the fields that determine the *result*
(geometry, method, backend, epsilon, target(s), options, seed) — and
deliberately excludes the fields that only determine *how* it runs: the
shard policy and executor are bit-invisible in the output (that invariance
is pinned by the engine's shard tests), so a sharded run may serve a cache
hit for an unsharded request and vice versa.

Requests carrying a live ``numpy.random.Generator`` are uncacheable (the
generator's future draws are part of the input and are consumed by the
run); :func:`request_fingerprint` returns ``None`` for them and the service
executes such requests unconditionally.  Requests with ``rng=None`` or an
integer seed are cached like any other — clients that need fresh stochastic
draws per call should send distinct seeds.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from threading import Lock

import numpy as np

__all__ = ["TTLCache", "request_fingerprint"]

_MISSING = object()


def _stable(value) -> str:
    """A deterministic textual form for fingerprint components.

    Dataclass reprs (schedules, block specs) are stable across processes;
    numpy arrays hash their raw bytes; mappings sort their keys.
    """
    if isinstance(value, np.ndarray):
        return f"ndarray{value.shape}{value.dtype}:" + hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()
    if isinstance(value, dict):
        inner = ",".join(f"{k}={_stable(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_stable(v) for v in value) + "]"
    return repr(value)


def request_fingerprint(request, targets=None) -> str | None:
    """Structural fingerprint of ``(request, targets)``, or ``None``.

    ``None`` means "do not cache": the request carries a live RNG whose
    state advances when the search runs.  ``targets`` follows the
    :meth:`~repro.engine.SearchEngine.search_batch` convention (``None`` =
    all addresses, which fingerprints distinctly from an explicit list).
    """
    if isinstance(request.rng, np.random.Generator):
        return None
    from repro.engine import route

    # The key reads the engine's route.  The tier is structural: an
    # analytic answer and a simulated one are different results
    # (closed-form exact vs statevector float path) and must not share an
    # entry.  On the analytic tier no kernel runs, so the dtype normalises
    # away, as the route itself normalises it on a backend that holds no
    # state: provably equal runs then share one entry, and coalesce and
    # peer as one.
    try:
        routed = route(request)
    except ValueError:
        # The engine refuses this request with the same error, so it never
        # runs and never caches: its raw fields key it.
        tier, dtype = "simulate", request.policy.dtype
    else:
        tier = routed.tier
        dtype = "complex128" if tier == "analytic" else routed.request.policy.dtype
    parts = [
        # Bump the version whenever the components change: fingerprints
        # are opaque keys, so old and new replicas then miss instead of
        # colliding.
        "fingerprint-v6",
        f"tier={tier}",
        f"n_items={request.n_items}",
        f"n_blocks={request.n_blocks}",
        f"method={request.method}",
        f"backend={request.backend}",
        f"epsilon={request.epsilon}",
        f"target={request.target}",
        f"trace={request.trace}",
        f"rng={request.rng!r}",
        # Only the dtype is structural: row_threads (like the shard policy)
        # is bit-invisible in the output, but complex64 results genuinely
        # differ from complex128 and must not share a cache entry —
        # except where the route normalised it above.
        f"dtype={dtype}",
        f"options={_stable(dict(request.options))}",
        "targets=<all>" if targets is None else f"targets={_stable(np.asarray(targets))}",
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


class TTLCache:
    """A thread-safe LRU cache whose entries expire after a fixed TTL.

    Memory is bounded two ways: at most ``maxsize`` entries live at once
    (least-recently-used evicted first), and entries older than ``ttl``
    seconds are dropped on access or insert.

    Args:
        maxsize: entry bound (``0`` disables caching entirely).
        ttl: seconds an entry stays valid.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, maxsize: int = 256, ttl: float = 300.0, clock=time.monotonic):
        if maxsize < 0:
            raise ValueError(f"maxsize={maxsize} must be >= 0")
        if ttl <= 0:
            raise ValueError(f"ttl={ttl} must be positive")
        self.maxsize = maxsize
        self.ttl = ttl
        self._clock = clock
        self._entries: OrderedDict[str, tuple[float, object]] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _purge_expired(self, now: float) -> None:
        # The dict is LRU-ordered (get() moves entries to the end), NOT
        # stamp-ordered, so expiry needs a full scan — cheap, since maxsize
        # bounds the entry count.
        expired = [
            key for key, (stamp, _) in self._entries.items()
            if now - stamp >= self.ttl
        ]
        for key in expired:
            del self._entries[key]
            self.evictions += 1

    def get(self, key: str | None, default=None):
        """The cached value for *key*, or *default* (``None`` keys miss)."""
        if key is None or self.maxsize == 0:
            self.misses += 1
            return default
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self.misses += 1
                return default
            stamp, value = entry
            if now - stamp >= self.ttl:
                del self._entries[key]
                self.evictions += 1
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: str | None, default=None):
        """Like :meth:`get`, but invisible: no LRU promotion, no counters.

        Cache *peering* (:mod:`repro.cluster.peering`) probes this replica
        on behalf of a remote one; those probes must not distort the local
        hit/miss statistics or keep entries alive that local traffic has
        stopped touching.  Expired entries still miss (but are left for the
        next mutating operation to purge).
        """
        if key is None or self.maxsize == 0:
            return default
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                return default
            stamp, value = entry
            if now - stamp >= self.ttl:
                return default
            return value

    def put(self, key: str | None, value) -> None:
        """Insert *value* (no-op for ``None`` keys / zero-sized cache)."""
        if key is None or self.maxsize == 0:
            return
        now = self._clock()
        with self._lock:
            self._purge_expired(now)
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (now, value)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        """``{size, maxsize, ttl, hits, misses, evictions}``."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "ttl_s": self.ttl,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

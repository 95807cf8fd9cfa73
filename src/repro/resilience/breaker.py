"""Per-endpoint circuit breakers with closed/open/half-open states.

A dead worker or peer costs every request that touches it a connect timeout
until something remembers it is dead.  Retries make that *worse* — they
multiply the timeouts.  The breaker is that memory:

- **closed** — traffic flows; consecutive failures are counted and a run of
  ``failure_threshold`` of them trips the breaker open (one success resets
  the count, so a merely lossy endpoint never trips).
- **open** — traffic is refused locally (:meth:`CircuitBreaker.allow`
  returns ``False``) for ``reset_timeout`` seconds: the quarantine.
- **half-open** — after the quarantine, up to ``half_open_max`` concurrent
  trial calls are let through.  A success closes the breaker; a failure
  re-opens it for another full quarantine.

One :class:`BreakerRegistry` (endpoint string -> breaker) is shared by
everything that dials out of a replica — shard executor lanes, cache-peer
probes, gossip exchanges — so evidence from any path quarantines the
endpoint for all of them, and the registry's :meth:`~BreakerRegistry.snapshot`
is what ``stats`` / ``repro cluster status`` surface.

Breakers only shape *where* traffic goes; they never change what a shard
computes, so the bit-identity contract of the executor layer is preserved
by construction.
"""

from __future__ import annotations

import threading
import time

__all__ = ["CircuitBreaker", "BreakerRegistry"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One endpoint's failure memory; thread-safe, injectable clock.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        reset_timeout: quarantine seconds before half-open trials begin.
        half_open_max: concurrent trial calls admitted while half-open.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, *, failure_threshold: int = 5, reset_timeout: float = 15.0,
                 half_open_max: int = 1, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold={failure_threshold} must be >= 1"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout={reset_timeout} must be positive")
        if half_open_max < 1:
            raise ValueError(f"half_open_max={half_open_max} must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trials = 0
        self.trips = 0

    # ---------------------------------------------------------------- state
    @property
    def state(self) -> str:
        """Current state, with the open->half-open clock edge applied."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout:
            self._state = HALF_OPEN
            self._trials = 0
        return self._state

    def allow(self) -> bool:
        """May the caller dial this endpoint right now?

        Closed: yes.  Open: no, until the quarantine elapses.  Half-open:
        yes for the first ``half_open_max`` concurrent trials (this call
        *claims* a trial slot — callers that are let through must report
        the outcome via :meth:`record_success` / :meth:`record_failure`).
        """
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == OPEN:
                return False
            if self._trials < self.half_open_max:
                self._trials += 1
                return True
            return False

    def would_allow(self) -> bool:
        """Non-claiming peek: like :meth:`allow` but never takes a trial
        slot (for ranking/filtering candidate fleets without dialing)."""
        with self._lock:
            return self._state_locked() != OPEN

    # -------------------------------------------------------------- outcomes
    def record_success(self) -> None:
        """A dial succeeded: close (or keep closed) the breaker."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._trials = 0

    def record_failure(self) -> None:
        """A dial failed: count it, trip when the run reaches threshold.

        A half-open trial failure re-opens immediately — the endpoint
        earned no fresh benefit of the doubt.
        """
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                self._trip_locked()
                return
            if state == OPEN:
                return  # already quarantined; nothing new to learn
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = self.failure_threshold
        self._trials = 0
        self.trips += 1

    def snapshot(self) -> dict:
        with self._lock:
            state = self._state_locked()
            info = {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
            }
            if state == OPEN:
                info["retry_in_s"] = round(
                    max(0.0, self.reset_timeout
                        - (self._clock() - self._opened_at)), 3
                )
            return info


class BreakerRegistry:
    """Thread-safe ``endpoint -> CircuitBreaker`` map with shared config.

    Breakers are created lazily on first :meth:`get`; unknown endpoints are
    therefore always dialable.  One registry per replica is the intended
    shape — pass the same instance to the executor, the cache peering, and
    the gossip coordinator so they pool their evidence.
    """

    def __init__(self, *, failure_threshold: int = 5, reset_timeout: float = 15.0,
                 half_open_max: int = 1, clock=time.monotonic):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, endpoint: str) -> CircuitBreaker:
        endpoint = str(endpoint)
        with self._lock:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                    half_open_max=self.half_open_max,
                    clock=self._clock,
                )
                self._breakers[endpoint] = breaker
            return breaker

    def state(self, endpoint: str) -> str:
        """The endpoint's state without creating a breaker for it."""
        with self._lock:
            breaker = self._breakers.get(str(endpoint))
        return CLOSED if breaker is None else breaker.state

    def partition(self, endpoints) -> tuple[list[str], list[str]]:
        """Split *endpoints* into ``(dialable, quarantined)``, preserving
        order.  Dialable includes half-open endpoints (they are how a
        quarantined worker earns its way back in); quarantined is the
        still-cooling open set."""
        dialable: list[str] = []
        quarantined: list[str] = []
        for endpoint in endpoints:
            with self._lock:
                breaker = self._breakers.get(str(endpoint))
            if breaker is None or breaker.would_allow():
                dialable.append(endpoint)
            else:
                quarantined.append(endpoint)
        return dialable, quarantined

    def snapshot(self) -> dict:
        """``{endpoint: breaker.snapshot()}`` for the stats surfaces."""
        with self._lock:
            items = list(self._breakers.items())
        return {endpoint: b.snapshot() for endpoint, b in items}

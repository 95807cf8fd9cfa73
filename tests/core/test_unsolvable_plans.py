"""An unsolvable phase geometry is refused once, on every tier.

(16, 4) has no sure-success phases: every rung of the tolerance ladder
raises.  ``repro.core.plans.resolve_plan`` remembers such a geometry, so
the first request runs the ladder once for both tiers, and every repeat
is refused without a solve.  The refusal is an :class:`UnsolvablePlan`:
a ``RuntimeError`` like the failed solve, and a ``ValueError`` because
the request is at fault.
"""

import sys
import threading
from collections import OrderedDict

import pytest

from repro.core import plans
from repro.core.plans import FAMILY, UnsolvablePlan
from repro.engine import SearchEngine, SearchRequest

ENGINE = SearchEngine()


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty failed-geometry memo, so the first request solves."""
    monkeypatch.setattr(plans, "_UNSOLVABLE", OrderedDict())


def _misses():
    return FAMILY["grk-sure-success"].solve.cache_info().misses


def _probability_request(**fields):
    return SearchRequest(n_items=16, n_blocks=4, method="grk-sure-success",
                         target=0, wants="probability", **fields)


def test_auto_request_solves_once_then_refuses_at_once(fresh_memo):
    before = _misses()
    with pytest.raises(ValueError, match="could not solve sure-success"):
        ENGINE.search(_probability_request())
    # The analytic tier ran the ladder; the simulate tier it fell through
    # to read the remembered failure.
    assert _misses() == before + 1
    for _ in range(2):
        with pytest.raises(UnsolvablePlan):
            ENGINE.search(_probability_request())
    assert _misses() == before + 1


@pytest.mark.parametrize("engine", ["simulate", "auto"])
def test_batch_is_refused_without_a_second_solve(fresh_memo, engine):
    before = _misses()
    for _ in range(2):
        with pytest.raises(UnsolvablePlan):
            ENGINE.search_batch(SearchRequest(
                n_items=16, n_blocks=4, method="grk-sure-success",
                engine=engine, wants="probability",
            ))
    assert _misses() == before + 1


def test_forced_analytic_still_says_phase_solve_failed(fresh_memo):
    from repro.analytic import AnalyticUnsupported

    for _ in range(2):
        with pytest.raises(AnalyticUnsupported, match="phase solve failed"):
            ENGINE.search(_probability_request(engine="analytic"))


def test_memo_is_bounded_oldest_first(fresh_memo, monkeypatch):
    monkeypatch.setattr(plans, "_UNSOLVABLE_MAX", 2)
    calls = []

    def solve(n_items, n_blocks, epsilon):
        calls.append(n_items)
        raise RuntimeError(f"no phases at N={n_items}")

    for n_items in (16, 32, 64, 16, 64):
        with pytest.raises(UnsolvablePlan, match=f"no phases at N={n_items}"):
            plans._solve_once(solve, "grk-cwb", n_items, 4, None)
    # 16 was evicted by 64 and solved again, which evicted 32; 64 stayed.
    assert calls == [16, 32, 64, 16]
    assert list(plans._UNSOLVABLE) == [("grk-cwb", 64, 4, None),
                                       ("grk-cwb", 16, 4, None)]


def test_memo_bound_holds_under_concurrent_failures(fresh_memo, monkeypatch):
    """More threads than cores, each failing on its own geometries."""
    monkeypatch.setattr(plans, "_UNSOLVABLE_MAX", 8)
    refused = []

    def solve(n_items, n_blocks, epsilon):
        raise RuntimeError("no phases")

    def worker(first):
        for n_items in range(first, first + 200):
            try:
                plans._solve_once(solve, "grk-cwb", n_items, 4, None)
            except UnsolvablePlan:
                refused.append(n_items)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(1000 * i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(refused) == 8 * 200
    assert len(plans._UNSOLVABLE) == 8

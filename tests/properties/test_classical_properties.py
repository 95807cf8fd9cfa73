"""Property-based tests: classical searches are zero-error and bounded,
and their one counted scan equals a loop of single queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classical import (
    deterministic_full_search,
    deterministic_partial_search,
    expected_queries_deterministic_partial,
    randomized_full_search,
    randomized_partial_search,
)
from repro.oracle import Database, SingleTargetDatabase


def partial_instances():
    return st.tuples(
        st.integers(min_value=2, max_value=20),   # block size
        st.integers(min_value=2, max_value=10),   # K
        st.floats(0.0, 1.0),
    ).map(lambda p: (p[0] * p[1], p[1], min(p[0] * p[1] - 1, int(p[2] * p[0] * p[1]))))


@settings(max_examples=50, deadline=None)
@given(inst=partial_instances(), seed=st.integers(0, 2**31))
def test_randomized_partial_zero_error_and_bounded(inst, seed):
    n, k, target = inst
    res = randomized_partial_search(SingleTargetDatabase(n, target), k, rng=seed)
    assert res.correct
    assert 1 <= res.queries <= expected_queries_deterministic_partial(n, k)


@settings(max_examples=50, deadline=None)
@given(inst=partial_instances())
def test_deterministic_partial_zero_error_and_bounded(inst):
    n, k, target = inst
    res = deterministic_partial_search(SingleTargetDatabase(n, target), k)
    assert res.correct
    assert res.queries <= n * (1 - 1 / k)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=128),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_full_searches_zero_error(n, frac, seed):
    target = min(n - 1, int(frac * n))
    det = deterministic_full_search(SingleTargetDatabase(n, target))
    rand = randomized_full_search(SingleTargetDatabase(n, target), rng=seed)
    assert det.correct and rand.correct
    assert det.queries <= n - 1
    assert rand.queries <= n - 1


def scan_instances():
    """``(N, marked, order)``: N <= 256, 0-3 marked addresses and an
    in-range probe order, possibly empty, possibly repeating."""
    return st.integers(1, 256).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(0, n - 1), max_size=3),
        st.lists(st.integers(0, n - 1), max_size=2 * n),
    ))


@settings(max_examples=200, deadline=None)
@given(inst=scan_instances(), as_array=st.booleans())
def test_scan_equals_a_query_loop(inst, as_array):
    n, marked, order = inst
    loop = Database(n, marked)
    found = next((a for a in order if loop.query(a)), None)
    db = Database(n, marked)
    db.counter.increment(5)  # the scan adds to what the counter holds
    assert db.scan(np.array(order, dtype=np.intp) if as_array else order) == found
    assert db.queries_used == 5 + loop.queries_used


@settings(max_examples=100, deadline=None)
@given(inst=scan_instances(), data=st.data())
def test_scan_checks_every_address_before_it_counts(inst, data):
    n, marked, order = inst
    bad = data.draw(st.integers(-(2**40), -1) | st.integers(n, 2**40), label="bad")
    order.insert(data.draw(st.integers(0, len(order)), label="at"), bad)
    db = Database(n, marked)
    with pytest.raises(ValueError) as scanned:
        db.scan(order)
    assert db.queries_used == 0
    with pytest.raises(ValueError) as queried:
        Database(n, marked).query(bad)
    assert str(scanned.value) == str(queried.value)

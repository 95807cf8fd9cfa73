"""Seeded pins of every classical scan's answers and query counts.

The values were recorded from the per-address ``Database.query`` loops
that :meth:`~repro.oracle.database.Database.scan` replaced.  A change to a
probe order, to what a probe costs, or to the random draws
(``gen.integers`` and ``gen.shuffle`` in randomized partial search,
``gen.permutation`` in randomized full search, each level's block sample
in the iterated reduction) moves a pin.
"""

import hashlib

import numpy as np
import pytest

from repro.classical import deterministic_full_search, randomized_full_search
from repro.core import run_iterated_full_search
from repro.engine import SearchEngine, SearchRequest
from repro.oracle import SingleTargetDatabase

#: ``(N, K, strategy, seed)`` -> the first 32 hex digits of the sha256 of an
#: all-targets batch's int64 per-row ``queries`` then ``block_guesses``.
BATCH_DIGESTS = {
    (64, 4, "deterministic", 0): "5f13f3779b3e696f67c1e697481d550e",
    (64, 4, "deterministic", 42): "5f13f3779b3e696f67c1e697481d550e",
    (64, 4, "randomized", 0): "a5922eb33fc80c265a80c157175e0f5c",
    (64, 4, "randomized", 42): "7bdf2dd56b75f700ece0373acb1dcbe8",
    (96, 3, "deterministic", 0): "00229f9c96baf32da88f34facdcceb54",
    (96, 3, "deterministic", 42): "00229f9c96baf32da88f34facdcceb54",
    (96, 3, "randomized", 0): "ab28119a65440279884abd4c7934ee17",
    (96, 3, "randomized", 42): "ec1ddf196c21657f4ab9db5b0090b59b",
    (1024, 4, "deterministic", 0): "d13a3f63bd230fe2b3805c2a7402977b",
    (1024, 4, "deterministic", 42): "d13a3f63bd230fe2b3805c2a7402977b",
    (1024, 4, "randomized", 0): "b976e272743e90bb3d3820741efc81e7",
    (1024, 4, "randomized", 42): "769549ae0bd6174baf38a955434ca25f",
    (4096, 8, "deterministic", 0): "f1f05dc41c3bfe0dd7a1ab16aaa2bdb8",
    (4096, 8, "deterministic", 42): "f1f05dc41c3bfe0dd7a1ab16aaa2bdb8",
    (4096, 8, "randomized", 0): "31f582701305a7a431ca0b78b957c2e5",
    (4096, 8, "randomized", 42): "928b811f8e8d567ffc91305736e6d9e3",
}

#: ``(N, target)`` -> ``(answer, queries)`` of the deterministic full scan.
DETERMINISTIC_FULL = {
    (16, 0): (0, 1),
    (16, 7): (7, 8),
    (16, 15): (15, 15),
    (1000, 999): (999, 999),
    (4096, 1234): (1234, 1235),
}

#: ``(N, target, seed)`` -> ``(answer, queries)`` of the random-order scan.
RANDOMIZED_FULL = {
    (32, 20, 0): (20, 19),
    (32, 20, 1): (20, 13),
    (64, 63, 7): (63, 26),
    (4096, 1234, 42): (1234, 2859),
}

#: ``(N, K, target, options)`` -> ``(found, total queries, brute-force
#: queries, correct)``; the last case descends into a wrong block, so its
#: brute force probes its whole range and answers the range's last address.
ITERATED = [
    ((4096, 4, 2717, {}), (2717, 89, 14, True)),
    ((4096, 2, 0, {}), (0, 119, 1, True)),
    ((6561, 3, 6560, {}), (6560, 121, 9, True)),
    ((4096, 4, 7, {"cutoff": 256}), (7, 68, 8, True)),
    ((4096, 4, 100, {"cutoff": 16}), (100, 80, 5, True)),
    ((1024, 4, 77, {"sample": True, "rng": 3}), (77, 40, 2, True)),
    ((1024, 4, 1023, {"sample": True, "rng": 11}), (1023, 42, 4, True)),
    ((256, 4, 5, {"epsilon": 0.4, "sample": True, "rng": 5}), (5, 22, 2, True)),
    ((64, 4, 40, {"cutoff": 16, "sample": True, "rng": 34}), (15, 21, 16, False)),
]

ENGINE = SearchEngine()


@pytest.mark.parametrize("n,k,strategy,seed", list(BATCH_DIGESTS))
def test_all_targets_batch_rows(n, k, strategy, seed):
    report = ENGINE.search_batch(SearchRequest(
        n_items=n, n_blocks=k, method="classical",
        options={"strategy": strategy}, rng=seed))
    assert report.all_correct
    digest = hashlib.sha256()
    digest.update(np.asarray(report.queries, dtype=np.int64).tobytes())
    digest.update(np.asarray(report.block_guesses, dtype=np.int64).tobytes())
    assert digest.hexdigest()[:32] == BATCH_DIGESTS[n, k, strategy, seed]


@pytest.mark.parametrize("n,target", list(DETERMINISTIC_FULL))
def test_deterministic_full_search(n, target):
    db = SingleTargetDatabase(n, target)
    result = deterministic_full_search(db)
    assert (result.answer, result.queries) == DETERMINISTIC_FULL[n, target]
    assert db.queries_used == result.queries


@pytest.mark.parametrize("n,target,seed", list(RANDOMIZED_FULL))
def test_randomized_full_search(n, target, seed):
    db = SingleTargetDatabase(n, target)
    result = randomized_full_search(db, rng=seed)
    assert (result.answer, result.queries) == RANDOMIZED_FULL[n, target, seed]
    assert db.queries_used == result.queries


@pytest.mark.parametrize("case,expected", ITERATED,
                         ids=[f"{n}x{k}-t{t}-{i}" for i, ((n, k, t, _), _)
                              in enumerate(ITERATED)])
def test_iterated_full_search(case, expected):
    n, k, target, options = case
    db = SingleTargetDatabase(n, target)
    result = run_iterated_full_search(db, k, **options)
    assert (result.found_address, result.total_queries,
            result.brute_force_queries, result.correct) == expected
    assert db.queries_used == result.total_queries

"""Section 1.2's naive baseline."""

import math

import numpy as np
import pytest

from repro.core import BlockSpec, run_naive_partial_search
from repro.core.algorithm import run_program
from repro.core.naive import naive_program, renumber
from repro.grover.angles import optimal_iterations, success_probability_after
from repro.kernels.primitives import invert_about_mean_masked
from repro.oracle import Database, PhaseOracle, SingleTargetDatabase
from repro.statevector.measurement import sample_addresses
from repro.util.rng import as_rng


def masked_reference(n, k, target, *, left_out_block=None, rng=None):
    """Section 1.2 as written: Grover over all ``N`` addresses with the
    left-out block masked out of the diffusion.

    Returns ``(left_out_block, amplitudes, measured, verified, guess,
    queries)``; randomness is drawn as the single run draws it.
    """
    spec = BlockSpec(n, k)
    db = SingleTargetDatabase(n, target)
    gen = as_rng(rng)
    if left_out_block is None:
        left_out_block = int(gen.integers(k))
    mask = np.ones(n, dtype=bool)
    mask[spec.slice_of(left_out_block)] = False
    m = int(mask.sum())
    amps = np.zeros(n)
    amps[mask] = 1.0 / np.sqrt(m)
    oracle = PhaseOracle(db)
    for _ in range(optimal_iterations(m)):
        oracle.apply(amps)
        invert_about_mean_masked(amps, mask)
    measured = int(sample_addresses(amps, rng=gen))
    verified = bool(db.query(measured))
    guess = spec.block_of(measured) if verified else left_out_block
    return left_out_block, amps, measured, verified, guess, db.queries_used


class TestNaivePartialSearch:
    def test_target_in_searched_blocks(self):
        db = SingleTargetDatabase(256, 10)  # block 0 of 4
        res = run_naive_partial_search(db, 4, left_out_block=3, rng=1)
        assert res.block_guess == 0
        assert res.verified
        assert res.success_probability > 0.98

    def test_target_in_left_out_block(self):
        db = SingleTargetDatabase(256, 10)
        res = run_naive_partial_search(db, 4, left_out_block=0, rng=1)
        assert res.block_guess == 0  # inferred, not measured
        assert not res.verified
        assert res.success_probability == 1.0

    def test_queries_match_coefficient(self):
        n, k = 2**14, 4
        db = SingleTargetDatabase(n, 5)
        res = run_naive_partial_search(db, k, left_out_block=3, rng=0)
        expected = math.pi / 4 * math.sqrt((k - 1) * n / k)
        assert res.queries == pytest.approx(expected, abs=3)
        assert db.queries_used == res.queries

    def test_worse_than_grk(self):
        from repro.core import run_partial_search

        n, k = 2**14, 4
        naive = run_naive_partial_search(
            SingleTargetDatabase(n, 5), k, left_out_block=3, rng=0
        )
        grk = run_partial_search(SingleTargetDatabase(n, 5), k)
        assert grk.queries < naive.queries  # the whole point of the paper

    def test_random_left_out_reproducible(self):
        db1 = SingleTargetDatabase(64, 10)
        db2 = SingleTargetDatabase(64, 10)
        r1 = run_naive_partial_search(db1, 4, rng=42)
        r2 = run_naive_partial_search(db2, 4, rng=42)
        assert r1.left_out_block == r2.left_out_block
        assert r1.measured_address == r2.measured_address

    def test_validation(self):
        with pytest.raises(ValueError):
            run_naive_partial_search(Database(64, [1, 2]), 4)
        with pytest.raises(ValueError):
            run_naive_partial_search(SingleTargetDatabase(64, 1), 4, left_out_block=4)

    @pytest.mark.parametrize("options", [
        {"left_out_block": 1.5}, {"left_out_block": True},
        {"iterations": 2.5}, {"iterations": -1},
    ])
    def test_non_integers_are_refused_not_truncated(self, options):
        with pytest.raises(ValueError, match="must be"):
            run_naive_partial_search(SingleTargetDatabase(64, 20), 4, rng=0,
                                     **options)


class TestAgainstTheMaskedReference:
    """The single run executes :func:`naive_program` on the searched
    addresses; the masked loop over all ``N`` is its reference."""

    @pytest.mark.parametrize("n,k", [(2, 2), (16, 4), (96, 3), (1024, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_seeded_runs_match(self, n, k, seed):
        targets = range(n) if n <= 96 else np.random.default_rng(n).integers(
            n, size=24)
        m = n - n // k
        for t in targets:
            db = SingleTargetDatabase(n, int(t))
            run = run_naive_partial_search(db, k, rng=seed)
            left_out, _, measured, verified, guess, queries = \
                masked_reference(n, k, int(t), rng=seed)
            assert run.left_out_block == left_out
            assert run.measured_address == measured
            assert run.verified == verified
            assert run.block_guess == guess
            assert run.queries == queries == db.queries_used
            if t // (n // k) == left_out:
                assert run.success_probability == 1.0
            else:
                assert run.success_probability == pytest.approx(
                    success_probability_after(m, optimal_iterations(m)),
                    abs=1e-12,
                )

    @pytest.mark.parametrize("n,k", [(16, 4), (96, 3), (1024, 8), (4096, 4)])
    def test_program_state_equals_the_searched_amplitudes(self, n, k):
        size = n // k
        program = naive_program(n, k)
        for left_out in range(k):
            for t in (0, size - 1, size, n // 2 + 1, n - 1):
                _, amps, *_ = masked_reference(n, k, t,
                                               left_out_block=left_out)
                searched, index = renumber(t, size, left_out)
                restricted = Database(program.n_items,
                                      [index] if searched else [])
                state = run_program(restricted, program).branches[0]
                mask = np.ones(n, dtype=bool)
                mask[left_out * size:(left_out + 1) * size] = False
                np.testing.assert_allclose(state, amps[mask], rtol=0,
                                           atol=1e-13)
                assert not amps[~mask].any()

    def test_renumber_round_trips(self):
        n, k = 96, 6
        size = n // k
        addresses = np.arange(n, dtype=np.intp)
        for left_out in range(k):
            searched, index = renumber(addresses, size, left_out)
            assert searched.sum() == n - size
            np.testing.assert_array_equal(index[searched],
                                          np.arange(n - size))
            back = index + size * (index >= left_out * size)
            np.testing.assert_array_equal(back[searched], addresses[searched])

    def test_complex64_policy(self):
        from repro.kernels import COMPLEX64_SUCCESS_ATOL, ExecutionPolicy

        full = run_naive_partial_search(SingleTargetDatabase(1024, 700), 8,
                                        rng=3)
        fast = run_naive_partial_search(
            SingleTargetDatabase(1024, 700), 8, rng=3,
            policy=ExecutionPolicy(dtype="complex64"),
        )
        assert fast.left_out_block == full.left_out_block
        assert fast.queries == full.queries
        assert fast.success_probability == pytest.approx(
            full.success_probability, abs=COMPLEX64_SUCCESS_ATOL)

"""Theorem 2's reduction run for real."""

import math

import pytest

from repro.core import run_iterated_full_search
from repro.oracle import Database, SingleTargetDatabase


class TestIteratedFullSearch:
    @pytest.mark.parametrize("n,k,target", [(4096, 4, 2717), (4096, 2, 0), (6561, 3, 6560)])
    def test_finds_full_target(self, n, k, target):
        db = SingleTargetDatabase(n, target)
        res = run_iterated_full_search(db, k)
        assert res.correct
        assert res.found_address == target

    def test_level_sizes_shrink_geometrically(self):
        res = run_iterated_full_search(SingleTargetDatabase(4096, 100), 4)
        sizes = [lvl.size for lvl in res.levels]
        for a, b in zip(sizes, sizes[1:]):
            assert a == 4 * b

    def test_total_queries_below_series_bound(self):
        res = run_iterated_full_search(SingleTargetDatabase(4096, 100), 4, cutoff=16)
        # Quantum levels obey the geometric series; brute force adds <= cutoff.
        quantum = sum(lvl.queries for lvl in res.levels)
        assert quantum <= res.series_bound * (1 + 1e-9)
        assert res.total_queries == quantum + res.brute_force_queries

    def test_counter_accumulates_across_levels(self):
        db = SingleTargetDatabase(4096, 100)
        res = run_iterated_full_search(db, 4)
        assert db.queries_used == res.total_queries

    def test_cutoff_respected(self):
        res = run_iterated_full_search(SingleTargetDatabase(4096, 7), 4, cutoff=256)
        assert all(lvl.size > 256 for lvl in res.levels)
        assert res.brute_force_queries <= 256

    def test_sampled_mode_runs(self):
        res = run_iterated_full_search(
            SingleTargetDatabase(1024, 77), 4, sample=True, rng=3
        )
        assert res.total_queries > 0

    def test_reduction_vs_direct_grover(self):
        # The reduction costs more than direct search by <= sqrt(K)/(sqrt(K)-1).
        n, k = 4096, 4
        res = run_iterated_full_search(SingleTargetDatabase(n, 9), k)
        direct = math.pi / 4 * math.sqrt(n)
        ratio = res.total_queries / direct
        assert ratio < math.sqrt(k) / (math.sqrt(k) - 1) + 0.3

    def test_multi_marked_rejected(self):
        with pytest.raises(ValueError):
            run_iterated_full_search(Database(64, [1, 2]), 4)

    def test_sampled_wrong_block_errs_instead_of_raising(self):
        # Level 0 samples block 3 of (64, 4) although the target, 3, is in
        # block 0: level 1 searches an unmarked range, counts its queries,
        # reports success 0.0, and brute force ends on its last probe.
        db = SingleTargetDatabase(64, 3)
        res = run_iterated_full_search(db, 4, sample=True, rng=82, cutoff=4)
        assert not res.correct
        assert res.found_address == 63
        assert [(lvl.size, lvl.queries, lvl.block_guess)
                for lvl in res.levels] == [(64, 5, 3), (16, 3, 3)]
        assert res.levels[0].success_probability == pytest.approx(0.986, abs=1e-3)
        assert res.levels[1].success_probability == 0.0
        assert res.brute_force_queries == 4
        assert res.total_queries == db.queries_used == 12

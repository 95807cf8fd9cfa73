"""Golden-value regression pins for the schedule planner.

The integer schedules below were verified against the paper's formulas, the
full simulator, and the subspace model at the time of writing.  Any change
to the planner's arithmetic (angle conventions, rounding, refinement window,
optimal-eps values) shows up here as an exact-integer diff — deliberately
brittle, so a silent drift in the science cannot hide inside tolerances.

If a change is *intended* (e.g. a better optimiser), update these values and
record the effect on the T1/F2 benches in EXPERIMENTS.md.
"""

import pytest

from repro.core import plan_schedule

#: (N, K) -> (l1, l2, queries, predicted_success to 12 decimals)
GOLDEN = {
    (1024, 2): (0, 17, 18, 0.999724552114),
    (1024, 4): (9, 10, 20, 0.999844710213),
    (4096, 4): (19, 20, 40, 0.999989114573),
    (4096, 8): (29, 13, 43, 0.999998413086),
    (16384, 4): (38, 40, 79, 0.999979996093),
    (16384, 16): (71, 18, 90, 0.999997373167),
    (65536, 2): (0, 142, 143, 0.999993414960),
    (65536, 4): (78, 79, 158, 0.999999754261),
    (1048576, 4): (314, 316, 631, 0.999999766087),
    (1048576, 32): (645, 97, 743, 0.999999800622),
    # Non-dyadic instances (the paper's own 12-item example among them).
    (729, 3): (5, 10, 16, 0.998887381447),
    (1000, 5): (11, 9, 21, 0.999183900605),
    (12, 3): (0, 2, 3, 0.981481481481),
}


#: (N, K) -> grk-simplified (j1, j2, queries, predicted_success)
GOLDEN_SIMPLIFIED = {
    (96, 4): (0, 7, 8, 0.9999778866396233),
    (729, 3): (4, 11, 16, 0.9999979200960283),
    (1000, 5): (11, 8, 20, 0.9999997787433833),
    (1024, 4): (7, 12, 20, 0.9999959673795841),
    (4096, 8): (27, 15, 43, 0.9999935435029679),
    (1 << 20, 8): (475, 204, 680, 0.9999991596125474),
    (1 << 60, 8): (499437056, 214086759, 713523816, 0.9999999999999998),
}

#: (N, K) -> grk-sure-success (l1, l2_base, phased tail length, queries)
GOLDEN_SURE_SUCCESS = {
    (96, 4): (2, 3, 2, 8),
    (729, 3): (5, 9, 2, 17),
    (1000, 5): (11, 8, 2, 22),
    (1024, 4): (9, 9, 2, 21),
    (4096, 8): (29, 12, 2, 44),
    (1 << 20, 8): (475, 204, 2, 682),
    (1 << 60, 8): (499437062, 214086753, 2, 713523818),
}

#: (N, K) -> grk-cwb (l1, l2, queries, extra_queries)
GOLDEN_CWB = {
    (96, 4): (2, 4, 7, 0),
    (729, 3): (5, 11, 17, 1),
    (1000, 5): (11, 9, 21, 0),
    (1024, 4): (9, 11, 21, 1),
    (4096, 8): (29, 14, 44, 1),
    (1 << 20, 8): (475, 205, 681, 0),
    (1 << 60, 8): (499437063, 214086756, 713523820, 3),
}


@pytest.mark.parametrize("instance", sorted(GOLDEN))
def test_schedule_pinned(instance):
    n, k = instance
    l1, l2, queries, success = GOLDEN[instance]
    s = plan_schedule(n, k)
    assert (s.l1, s.l2, s.queries) == (l1, l2, queries)
    assert s.predicted_success == pytest.approx(success, abs=1e-11)


@pytest.mark.parametrize("instance", sorted(GOLDEN_SIMPLIFIED))
def test_simplified_schedule_pinned(instance):
    from repro.core.simplified import plan_simplified_schedule

    j1, j2, queries, success = GOLDEN_SIMPLIFIED[instance]
    s = plan_simplified_schedule(*instance)
    assert (s.j1, s.j2, s.queries) == (j1, j2, queries)
    assert s.predicted_success == pytest.approx(success, abs=1e-11)


def _analytic_plan(method, n, k) -> dict:
    """The plan provenance the analytic tier serves for (N, K): at
    N = 2**60 only that tier can run the plan, and sure-success needs the
    relaxed rungs of its tolerance ladder there."""
    from repro.engine import SearchEngine, SearchRequest

    return SearchEngine().search(SearchRequest(
        n_items=n, n_blocks=k, method=method, target=0,
        wants="probability", engine="analytic",
    )).schedule


@pytest.mark.parametrize("instance", sorted(GOLDEN_SURE_SUCCESS))
def test_sure_success_plan_pinned(instance):
    p = _analytic_plan("grk-sure-success", *instance)
    got = (p["l1"], p["l2_base"], len(p["phases"]) // 2, p["queries"])
    assert got == GOLDEN_SURE_SUCCESS[instance]


@pytest.mark.parametrize("instance", sorted(GOLDEN_CWB))
def test_cwb_plan_pinned(instance):
    p = _analytic_plan("grk-cwb", *instance)
    got = (p["l1"], p["l2"], p["queries"], p["extra_queries"])
    assert got == GOLDEN_CWB[instance]


def test_twelve_item_general_algorithm_vs_figure1():
    """Figure 1's 2-query circuit is *not* an instance of the general
    three-step algorithm: its final step is ``I_t`` + a plain global
    inversion (one more standard Grover iteration), which zeroes the
    non-target blocks only because at N=12, K=3 the Step-2 rotation lands
    the block-rest amplitude on exactly 0 and ``u = 2w`` holds.  The general
    algorithm (move-out + controlled inversion) at the same ``(l1, l2) =
    (0, 1)`` reaches 0.926; the planner correctly prefers ``l2 = 2``
    (success 0.9815, 3 queries).  The exact Figure 1 sequence is covered in
    ``tests/test_paper_values.py`` and ``benchmarks/bench_fig1_twelve_items``.
    """
    s = plan_schedule(12, 3, epsilon=1.0)
    assert (s.l1, s.l2, s.queries) == (0, 2, 3)
    assert s.predicted_success == pytest.approx(0.981481481481, abs=1e-11)

    from repro.core.subspace import SubspaceGRK
    from repro.core.blockspec import BlockSpec

    general_2q = SubspaceGRK(BlockSpec(12, 3)).success_probability(0, 1)
    assert general_2q == pytest.approx(0.925925925926, abs=1e-11)

"""Pins on what the cold-path numerical solvers decide.

Two solvers sit under every cold plan: the bounded 1-D minimiser behind
Section 3.1's optimal ``eps`` and the simplified algorithm's ``phi*``, and
the multi-start phase solver behind the sure-success and CWB plans.  A
change to either can move a plan's integers without any other test
noticing, so both are pinned here:

- the 1-D optima bit for bit (``float.hex``): at ``N = 2**60`` the planned
  ``l1`` moves by about ``8e8`` per unit of ``eps``, so a last-digit drift
  in ``eps`` is a drift in the paper's Table 1 integers;
- the sure-success/CWB plans over a 60-geometry grid (every power of two
  ``8 <= N <= 4096`` with ``K`` in 2..32 and ``K < N``; four non-dyadic
  geometries; ``2**20``, ``2**40`` and ``2**60`` with ``K`` in 2..64):
  each solvable plan's integers, the geometries whose solve raises, and
  the residual failure of every solved plan.

Plans are solved through the same tolerance ladder the engine tiers use
(:data:`repro.core.plans.FAMILY`).
"""

import pytest

from repro.core.optimizer import optimal_epsilon
from repro.core.plans import FAMILY
from repro.core.simplified import simplified_query_coefficient, simplified_step1_angle

#: K -> float.hex of (optimal_epsilon(K).epsilon, optimal_epsilon(K).coefficient,
#: simplified_step1_angle(K), simplified_query_coefficient(K)).
OPTIMA = {
    2: ("0x1.0000000000000p+0", "0x1.1c58316dd62e4p-1",
        "0x1.2de00165068a8p-18", "0x1.1c5831add62e3p-1"),
    3: ("0x1.76ed57f63bbbdp-1", "0x1.2e79fedb20986p-1",
        "0x1.aea08e5c4caafp-2", "0x1.2e79fedb20986p-1"),
    4: ("0x1.3762824f83843p-1", "0x1.3b2028082e8d4p-1",
        "0x1.3b202852e71acp-1", "0x1.3b2028082e8d4p-1"),
    5: ("0x1.10532319f7da7p-1", "0x1.44114429f6495p-1",
        "0x1.787b22d39c47ap-1", "0x1.44114429f6495p-1"),
    8: ("0x1.a18e3d4be63b3p-2", "0x1.543c1356b6f28p-1",
        "0x1.dc4ce03064741p-1", "0x1.543c1356b6f28p-1"),
    32: ("0x1.93760f6b93083p-3", "0x1.7322335277558p-1",
         "0x1.42e789a546028p+0", "0x1.7322335277559p-1"),
    64: ("0x1.1bc486fcfa073p-3", "0x1.7c35820c20e65p-1",
         "0x1.5a67fd00b0a8fp+0", "0x1.7c35820c20e65p-1"),
}

#: (N, K) -> grk-sure-success (l1, l2_base, phased tail length, queries),
#: or None where every rung of the tolerance ladder raises.
SURE_SUCCESS_GRID = {
    (8, 2): (0, 0, 2, 3),
    (8, 4): None,
    (16, 2): (0, 1, 2, 4),
    (16, 4): None,
    (16, 8): None,
    (32, 2): (0, 2, 2, 5),
    (32, 4): (1, 1, 2, 5),
    (32, 8): (2, 1, 2, 6),
    (32, 16): None,
    (64, 2): (0, 3, 2, 6),
    (64, 4): (1, 2, 2, 6),
    (64, 8): (3, 1, 2, 7),
    (64, 16): (4, 1, 2, 8),
    (64, 32): None,
    (128, 2): (0, 5, 2, 8),
    (128, 4): (2, 3, 2, 8),
    (128, 8): None,
    (128, 16): None,
    (128, 32): None,
    (256, 2): (0, 7, 2, 10),
    (256, 4): (4, 4, 2, 11),
    (256, 8): (6, 3, 2, 12),
    (256, 16): (8, 2, 2, 13),
    (256, 32): None,
    (512, 2): (0, 11, 2, 14),
    (512, 4): (6, 6, 2, 15),
    (512, 8): (10, 4, 2, 17),
    (512, 16): (12, 3, 2, 18),
    (512, 32): None,
    (1024, 2): (0, 16, 2, 19),
    (1024, 4): (9, 9, 2, 21),
    (1024, 8): (14, 6, 2, 23),
    (1024, 16): (17, 4, 2, 24),
    (1024, 32): (19, 3, 2, 25),
    (2048, 2): (0, 24, 2, 27),
    (2048, 4): (13, 13, 2, 29),
    (2048, 8): (20, 9, 2, 32),
    (2048, 16): (25, 5, 2, 33),
    (2048, 32): (28, 3, 2, 34),
    (4096, 2): (0, 34, 2, 37),
    (4096, 4): (19, 19, 2, 41),
    (4096, 8): (29, 12, 2, 44),
    (4096, 16): (35, 8, 2, 46),
    (4096, 32): (39, 6, 2, 48),
    (12, 3): (0, 1, 2, 4),
    (96, 4): (2, 3, 2, 8),
    (729, 3): (5, 9, 2, 17),
    (1000, 5): (11, 8, 2, 22),
    (1 << 20, 2): (0, 567, 2, 570),
    (1 << 20, 8): (475, 204, 2, 682),
    (1 << 20, 32): (645, 96, 2, 744),
    (1 << 20, 64): (692, 67, 2, 762),
    (1 << 40, 2): (0, 582336, 2, 582339),
    (1 << 40, 8): (487731, 209067, 2, 696801),
    (1 << 40, 32): (661307, 98771, 2, 760081),
    (1 << 40, 64): (709439, 69226, 2, 778668),
    (1 << 60, 2): (0, 596313644, 2, 596313647),
    (1 << 60, 8): (499437062, 214086753, 2, 713523818),
    (1 << 60, 32): (677179699, 101143861, 2, 778323563),
    (1 << 60, 64): (726466465, 70889630, 2, 797356098),
}

#: (N, K) -> grk-cwb (l1, l2, queries, extra_queries); every geometry solves.
CWB_GRID = {
    (8, 2): (1, 2, 4, 2),
    (8, 4): (1, 2, 4, 2),
    (16, 2): (1, 3, 5, 2),
    (16, 4): (1, 3, 5, 2),
    (16, 8): (2, 2, 5, 2),
    (32, 2): (1, 4, 6, 2),
    (32, 4): (1, 3, 5, 1),
    (32, 8): (2, 2, 5, 0),
    (32, 16): (3, 2, 6, 2),
    (64, 2): (1, 5, 7, 2),
    (64, 4): (1, 4, 6, 1),
    (64, 8): (3, 2, 6, 0),
    (64, 16): (4, 2, 7, 0),
    (64, 32): (5, 2, 8, 2),
    (128, 2): (1, 7, 9, 2),
    (128, 4): (2, 5, 8, 1),
    (128, 8): (5, 4, 10, 2),
    (128, 16): (6, 3, 10, 2),
    (128, 32): (7, 3, 11, 2),
    (256, 2): (1, 9, 11, 2),
    (256, 4): (4, 6, 11, 1),
    (256, 8): (6, 5, 12, 1),
    (256, 16): (8, 4, 13, 1),
    (256, 32): (10, 3, 14, 2),
    (512, 2): (1, 13, 15, 2),
    (512, 4): (6, 8, 15, 1),
    (512, 8): (10, 5, 16, 0),
    (512, 16): (12, 4, 17, 0),
    (512, 32): (14, 4, 19, 2),
    (1024, 2): (1, 18, 20, 2),
    (1024, 4): (9, 11, 21, 1),
    (1024, 8): (14, 7, 22, 0),
    (1024, 16): (17, 6, 24, 1),
    (1024, 32): (19, 5, 25, 1),
    (2048, 2): (1, 26, 28, 2),
    (2048, 4): (13, 15, 29, 1),
    (2048, 8): (20, 10, 31, 0),
    (2048, 16): (25, 7, 33, 1),
    (2048, 32): (28, 5, 34, 1),
    (4096, 2): (1, 36, 38, 2),
    (4096, 4): (19, 20, 40, 0),
    (4096, 8): (29, 14, 44, 1),
    (4096, 16): (35, 10, 46, 1),
    (4096, 32): (39, 8, 48, 1),
    (12, 3): (1, 3, 5, 2),
    (96, 4): (2, 4, 7, 0),
    (729, 3): (5, 11, 17, 1),
    (1000, 5): (11, 9, 21, 0),
    (1 << 20, 2): (1, 569, 571, 2),
    (1 << 20, 8): (475, 205, 681, 0),
    (1 << 20, 32): (645, 97, 743, 0),
    (1 << 20, 64): (692, 68, 761, 0),
    (1 << 40, 2): (1, 582338, 582340, 2),
    (1 << 40, 8): (487732, 209069, 696802, 2),
    (1 << 40, 32): (661308, 98774, 760083, 3),
    (1 << 40, 64): (709440, 69228, 778669, 2),
    (1 << 60, 2): (1, 596313646, 596313648, 2),
    (1 << 60, 8): (499437063, 214086756, 713523820, 3),
    (1 << 60, 32): (677179699, 101143863, 778323563, 1),
    (1 << 60, 64): (726466466, 70889632, 797356099, 2),
}

#: The plans' residual-failure acceptance bound (``core.plans``).
MAX_FAILURE = 1e-9


def _integers(method, plan):
    if method == "grk-sure-success":
        return (plan.l1, plan.l2_base, len(plan.phases) // 2, plan.queries)
    return (plan.l1, plan.l2, plan.queries, plan.extra_queries)


@pytest.mark.parametrize("k", sorted(OPTIMA))
def test_one_dimensional_optima_bit_exact(k):
    opt = optimal_epsilon(k)
    got = (
        opt.epsilon.hex(),
        opt.coefficient.hex(),
        simplified_step1_angle(k).hex(),
        simplified_query_coefficient(k).hex(),
    )
    assert got == OPTIMA[k]


def test_grid_has_sixty_geometries_and_ten_unsolvable():
    assert set(SURE_SUCCESS_GRID) == set(CWB_GRID)
    assert len(CWB_GRID) == 60
    plans = list(SURE_SUCCESS_GRID.values()) + list(CWB_GRID.values())
    assert plans.count(None) == 10


# 10-17 s for all 120 solves, so it runs in the analytic leg of CI.
@pytest.mark.analytic
@pytest.mark.parametrize(
    "method, grid",
    [("grk-sure-success", SURE_SUCCESS_GRID), ("grk-cwb", CWB_GRID)],
    ids=["grk-sure-success", "grk-cwb"],
)
@pytest.mark.parametrize("geometry", list(CWB_GRID), ids=lambda g: f"{g[0]}-{g[1]}")
def test_phase_plan_grid(method, grid, geometry):
    solve = FAMILY[method].solve
    want = grid[geometry]
    if want is None:
        with pytest.raises(RuntimeError):
            solve(*geometry, None)
        return
    plan = solve(*geometry, None)
    assert _integers(method, plan) == want
    assert plan.predicted_failure < MAX_FAILURE

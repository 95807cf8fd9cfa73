"""The CWB budget screen changes no plan (``repro.core.cwb._unreachable``).

Before a budget rung goes to the phase solver, the screen tries to prove
that no phases bring the residual within the solve's tolerance; a proved
rung is skipped.  A skip is only sound if the solver would have failed on
that rung, so every plan must equal the unscreened planner's bit for bit.
The comparison re-solves every failing rung, about 10 s in all, so it is
marked like the pinned grid.
"""

import pytest

from repro.core import cwb
from repro.core.blockspec import BlockSpec
from repro.core.plans import FAMILY
from repro.core.program import BLOCK, ProgramStage
from repro.core.subspace import evolve

pytestmark = pytest.mark.analytic

#: The 60 geometries of ``tests/test_solver_pins.py``, then (2**40, 4),
#: the one cold-plan geometry of the README outside them.
GEOMETRIES = (
    [(1 << e, k) for e in range(3, 13) for k in (2, 4, 8, 16, 32) if k < 1 << e]
    + [(12, 3), (96, 4), (729, 3), (1000, 5)]
    + [(1 << e, k) for e in (20, 40, 60) for k in (2, 8, 32, 64)]
    + [(1 << 40, 4)]
)

#: The engine tiers' solve (tolerance ladder included), without its cache.
solve = FAMILY["grk-cwb"].solve.__wrapped__


def _bits(plan):
    return (
        plan.l1,
        plan.l2,
        tuple(phase.hex() for phase in plan.phases),
        plan.final_phase.hex(),
        plan.predicted_failure.hex(),
    )


@pytest.fixture
def verdicts(monkeypatch):
    """The screen's verdicts, ``[(l2, tolerance, skipped), ...]`` in call order."""
    calls = []
    screen = cwb._unreachable

    def spy(spec, start, block_stage, tolerance):
        skipped = screen(spec, start, block_stage, tolerance)
        calls.append((block_stage.count + 1, tolerance, skipped))
        return skipped

    monkeypatch.setattr(cwb, "_unreachable", spy)
    return calls


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g[0]}-{g[1]}")
def test_screened_plan_is_bit_identical(monkeypatch, geometry):
    screened = solve(*geometry, None)
    monkeypatch.setattr(cwb, "_unreachable", lambda *args: False)
    assert _bits(solve(*geometry, None)) == _bits(screened)


@pytest.mark.parametrize("geometry", [(1024, 4), (4096, 8), (1024, 32)])
def test_first_rung_that_cannot_reach_certainty_is_skipped(verdicts, geometry):
    plan = solve(*geometry, None)
    first, accepted = verdicts
    assert first[2] is True
    assert accepted == (plan.l2, 1e-11, False)


def test_rung_without_exact_root_is_kept_where_the_solver_accepts_it(verdicts):
    # At (2**60, 2) no phases zero the outside blocks exactly on the first
    # rung: the screen proves it at 1e-11.  The ladder's 1e-8 solve accepts
    # it all the same, so there the screen must leave it to the solver.
    plan = solve(1 << 60, 2, None)
    assert (plan.l1, plan.l2) == (1, 596313646)
    assert (plan.l2, 1e-11, True) in verdicts
    assert verdicts[-1] == (plan.l2, 1e-8, False)


def test_zone_reaching_the_target_state_is_left_to_the_solver():
    # At N = 4 one Grover iteration from uniform lands on the target, so
    # x1 = 0 lies in the zone and nothing bounds ρ = u1/x1.
    spec = BlockSpec(4, 2)
    assert not cwb._unreachable(spec, evolve(spec, ()), ProgramStage(BLOCK, 0), 1e-11)


def test_rung_the_cell_cap_cannot_settle_goes_to_the_solver(monkeypatch, verdicts):
    monkeypatch.setattr(cwb, "_SCREEN_MAX_CELLS", 256)
    plan = solve(1024, 32, None)
    assert [skipped for _, _, skipped in verdicts] == [False, False]
    monkeypatch.setattr(cwb, "_unreachable", lambda *args: False)
    assert _bits(solve(1024, 32, None)) == _bits(plan)

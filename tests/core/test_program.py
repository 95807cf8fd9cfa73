"""The one program form: every GRK-family planner emits it faithfully."""

import math

import pytest

from repro.core import plan_schedule, plan_simplified_schedule
from repro.core.cwb import plan_cwb
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.sure_success import plan_sure_success

GEOMETRIES = [(64, 4), (96, 4), (256, 8)]


def _shape(program):
    return [(s.kind, s.count, s.phased) for s in program.stages]


@pytest.mark.parametrize("n, k", GEOMETRIES)
class TestPlannersEmitPrograms:
    def test_grk(self, n, k):
        schedule = plan_schedule(n, k)
        program = schedule.program
        assert _shape(program) == [
            (GLOBAL, schedule.l1, False), (BLOCK, schedule.l2, False),
        ]
        assert program.final_phase == math.pi
        assert program.queries == schedule.queries
        assert program.grk_counts() == (schedule.l1, schedule.l2)

    def test_simplified(self, n, k):
        schedule = plan_simplified_schedule(n, k)
        program = schedule.program
        assert _shape(program) == [
            (GLOBAL, schedule.j1, False),
            (BLOCK, schedule.j2, False),
            (GLOBAL, 1, False),
        ]
        assert program.final_phase is None
        assert program.queries == schedule.queries

    def test_sure_success(self, n, k):
        plan = plan_sure_success(n, k)
        program = plan.program
        pairs = len(plan.phases) // 2
        assert _shape(program) == [
            (GLOBAL, plan.l1, False), (BLOCK, plan.l2_base, False),
        ] + [(BLOCK, 1, True)] * pairs
        tail = program.stages[2:]
        assert [(s.oracle_phase, s.diffusion_phase) for s in tail] == [
            plan.phases[i:i + 2] for i in range(0, len(plan.phases), 2)
        ]
        assert program.final_phase == math.pi
        assert program.queries == plan.queries

    def test_cwb(self, n, k):
        plan = plan_cwb(n, k)
        program = plan.program
        assert _shape(program) == [
            (GLOBAL, plan.l1 - 1, False),
            (GLOBAL, 1, True),
            (BLOCK, plan.l2 - 1, False),
            (BLOCK, 1, True),
        ]
        phi_o, phi_d, chi_o, chi_d = plan.phases
        assert program.stages[1].oracle_phase == phi_o
        assert program.stages[1].diffusion_phase == phi_d
        assert program.stages[3].oracle_phase == chi_o
        assert program.stages[3].diffusion_phase == chi_d
        assert program.final_phase == plan.final_phase
        assert program.queries == plan.queries


class TestProgramValidation:
    def test_stage_kind_and_count_checked(self):
        with pytest.raises(ValueError, match="kind"):
            ProgramStage("blocks", 1)
        with pytest.raises(ValueError, match="count"):
            ProgramStage(GLOBAL, -1)

    def test_circuit_counts_only_for_plain_grk(self):
        with pytest.raises(ValueError, match="plain GRK"):
            plan_simplified_schedule(64, 4).program.grk_counts()
        with pytest.raises(ValueError, match="plain GRK"):
            plan_cwb(64, 4).program.grk_counts()
        assert PartialSearchProgram.grk(64, 4, 3, 2).grk_counts() == (3, 2)

"""The subspace evaluator against the counted runner on arbitrary programs.

The planners only ever emit four program shapes; these properties draw
shapes no method emits — zero counts, phased global stages after block
stages, phases of exactly π mixed with free ones, any final phase — so the
evaluator's closed forms are checked on their own terms.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import run_program
from repro.core.blockspec import BlockSpec
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.subspace import evaluate
from repro.oracle import SingleTargetDatabase

PHASES = st.one_of(
    st.just(math.pi), st.floats(0.0, 2 * math.pi, allow_nan=False)
)


@st.composite
def stages(draw):
    kind = draw(st.sampled_from([GLOBAL, BLOCK]))
    if draw(st.booleans()):  # phased: oracle and diffusion phases drawn
        return ProgramStage(kind, draw(st.integers(0, 3)), draw(PHASES),
                            draw(PHASES))
    return ProgramStage(kind, draw(st.integers(0, 40)))


@st.composite
def programs(draw):
    """``(program, target)`` at ``N <= 64`` with blocks of >= 2 addresses
    (at ``K = N`` the evaluator, like GRK's analysis, drops the sign an
    unphased block stage gives the target)."""
    n_blocks = draw(st.integers(2, 16))
    block_size = draw(st.integers(2, 64 // n_blocks))
    n = n_blocks * block_size
    final_phase = draw(st.one_of(st.none(), PHASES))
    program = PartialSearchProgram(
        n, n_blocks, tuple(draw(st.lists(stages(), max_size=5))), final_phase
    )
    return program, draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(case=programs())
def test_evaluator_matches_counted_runner(case):
    program, target = case
    spec = BlockSpec(program.n_items, program.n_blocks)
    db = SingleTargetDatabase(program.n_items, target)
    run = run_program(db, program)
    final = evaluate(program)

    t_block = spec.block_of(target)
    failure = float(np.delete(run.block_distribution, t_block).sum())
    assert abs(final.success_probability(spec) - run.success_probability) <= 1e-12
    assert abs(final.failure_probability(spec) - failure) <= 1e-12
    assert run.queries == db.queries_used == program.queries

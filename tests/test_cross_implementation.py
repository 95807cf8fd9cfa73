"""The three-way consistency matrix: kernels == circuits == subspace model.

The library implements the same physics three times at different cost
points (structured O(N) kernels, gate-level circuits, O(1) subspace
coordinates).  This module runs the *same* partial-search schedules through
all three and demands elementwise agreement — the strongest correctness
statement the reproduction makes about itself.
"""

import numpy as np
import pytest

from repro.circuits import partial_search_circuit, run_circuit
from repro.core import plan_schedule, run_partial_search
from repro.core.blockspec import BlockSpec
from repro.core.subspace import SubspaceGRK
from repro.engine import SearchEngine, SearchRequest
from repro.oracle import SingleTargetDatabase

INSTANCES = [
    (5, 1, 19),   # N=32,  K=2
    (6, 2, 0),    # N=64,  K=4, target at block boundary
    (7, 3, 127),  # N=128, K=8, last address
    (8, 2, 200),  # N=256, K=4
]


@pytest.mark.parametrize("n_bits,k_bits,target", INSTANCES)
def test_three_way_agreement(n_bits, k_bits, target):
    n_items, n_blocks = 1 << n_bits, 1 << k_bits
    sched = plan_schedule(n_items, n_blocks)

    # 1. structured kernels (counted oracle)
    runner = run_partial_search(
        SingleTargetDatabase(n_items, target), n_blocks, schedule=sched
    )

    # 2. gate-level circuit
    circ = partial_search_circuit(n_bits, k_bits, target, sched.l1, sched.l2)
    circuit_branches = run_circuit(circ).reshape(n_items, 2).T

    # 3. subspace model
    model = SubspaceGRK(BlockSpec(n_items, n_blocks))
    final = model.final(sched.l1, sched.l2)

    # runner == circuit, amplitude for amplitude (ancilla included)
    np.testing.assert_allclose(
        circuit_branches, runner.branches.astype(complex), atol=1e-9
    )
    # runner == subspace, coordinate for coordinate
    spec = runner.spec
    t_block = spec.block_of(target)
    assert runner.branches[1, target] == pytest.approx(final.target_moved, abs=1e-10)
    assert runner.branches[0, target] == pytest.approx(final.target_regrown, abs=1e-10)
    in_block = np.delete(
        runner.branches[0, spec.slice_of(t_block)], target % spec.block_size
    )
    outside_block = (t_block + 1) % n_blocks
    outside = runner.branches[0, spec.slice_of(outside_block)]
    np.testing.assert_allclose(in_block, final.block_rest, atol=1e-10)
    np.testing.assert_allclose(outside, final.outside, atol=1e-10)
    # and all three agree on the bottom line
    assert runner.success_probability == pytest.approx(
        final.success_probability(spec), abs=1e-10
    )
    assert circ.oracle_queries == runner.queries == sched.queries


@pytest.mark.parametrize("n_bits,k_bits,target", INSTANCES)
def test_batch_agrees_with_all(n_bits, k_bits, target):
    n_items, n_blocks = 1 << n_bits, 1 << k_bits
    sched = plan_schedule(n_items, n_blocks)
    batch = SearchEngine().search_batch(
        SearchRequest(n_items=n_items, n_blocks=n_blocks,
                      options={"schedule": sched}),
        targets=[target],
    )
    model = SubspaceGRK(BlockSpec(n_items, n_blocks))
    assert batch.success_probabilities[0] == pytest.approx(
        model.success_probability(sched.l1, sched.l2), abs=1e-10
    )


def test_grover_two_way_agreement():
    """Standard search: simulator == two-level model == closed form."""
    from repro.grover import TwoLevelGrover, run_grover
    from repro.grover.angles import success_probability_after

    n, t = 512, 99
    for its in (0, 3, 11, 17):
        sim = run_grover(SingleTargetDatabase(n, t), its)
        model = TwoLevelGrover(n).step(its)
        closed = success_probability_after(n, its)
        assert sim.success_probability == pytest.approx(closed, abs=1e-12)
        assert model.success_probability() == pytest.approx(closed, abs=1e-12)

"""Section 1.2's naive quantum partial search: Grover over K−1 blocks.

Pick ``K - 1`` of the ``K`` blocks (leave one out), run standard quantum
search restricted to their ``N(1 - 1/K)`` addresses, and measure.  Verify
the measured address with one classical query: if it is the target, answer
its block; otherwise the target must be in the left-out block.  Queries:

    ``(pi/4) sqrt((K-1) N / K) + 1  ~  (pi/4)(1 - 1/(2K)) sqrt(N)``

— an ``O(1/K)`` saving, the quantum analogue of the classical trick, and the
baseline the GRK algorithm's ``Theta(1/sqrt(K))`` saving is measured against.

The restricted search is faithful: amplitudes start uniform over the chosen
blocks and zero elsewhere; the phase oracle acts on the full space (flipping
a zero amplitude when the target is left out — a no-op, exactly as physics
would have it), and diffusion reflects about the uniform state *of the
chosen subset* (:func:`repro.kernels.primitives.invert_about_mean_masked`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blockspec import BlockSpec
from repro.grover.angles import optimal_iterations, success_probability_after
from repro.kernels import primitives as ops
from repro.oracle.database import Database
from repro.oracle.quantum import PhaseOracle
from repro.statevector.measurement import sample_addresses
from repro.util.rng import as_rng

__all__ = ["NaivePartialSearchResult", "run_naive_partial_search"]


@dataclass(frozen=True)
class NaivePartialSearchResult:
    """Outcome of the naive baseline.

    Attributes:
        spec: the ``(N, K)`` geometry.
        left_out_block: the block excluded from the quantum search.
        measured_address: what the final measurement returned.
        verified: result of the classical verification query at that address.
        block_guess: the algorithm's answer.
        success_probability: exact probability the answer is correct,
            *conditioned on this left-out choice* (1 when the target was in
            the left-out block; the restricted-Grover success otherwise).
        queries: total oracle queries (quantum iterations + 1 verification).
    """

    spec: BlockSpec
    left_out_block: int
    measured_address: int
    verified: bool
    block_guess: int
    success_probability: float
    queries: int


def run_naive_partial_search(
    database: Database,
    n_blocks: int,
    *,
    left_out_block: int | None = None,
    iterations: int | None = None,
    rng=None,
) -> NaivePartialSearchResult:
    """Run the K−1-block baseline against a counted oracle.

    Args:
        database: database with exactly one marked address.
        n_blocks: ``K``.
        left_out_block: which block to exclude (uniformly random if ``None``,
            as the paper prescribes).
        iterations: Grover iterations over the restricted space; default is
            the optimum for ``(K-1) N / K`` items.
        rng: randomness for the block choice and the final measurement.

    Returns:
        :class:`NaivePartialSearchResult`.
    """
    n = database.n_items
    spec = BlockSpec(n, n_blocks)
    marked = database.reveal_marked()
    if len(marked) != 1:
        raise ValueError("naive partial search requires exactly one marked item")
    target = next(iter(marked))
    target_block = spec.block_of(target)

    gen = as_rng(rng)
    if left_out_block is None:
        left_out_block = int(gen.integers(spec.n_blocks))
    if not 0 <= left_out_block < spec.n_blocks:
        raise ValueError(f"left_out_block {left_out_block} out of range")

    searched = [y for y in range(spec.n_blocks) if y != left_out_block]
    mask = spec.mask_of(searched)
    m = int(mask.sum())
    if iterations is None:
        iterations = optimal_iterations(m)

    amps = np.zeros(n)
    amps[mask] = 1.0 / np.sqrt(m)

    oracle = PhaseOracle(database)
    start_count = database.counter.count
    for _ in range(iterations):
        oracle.apply(amps)
        ops.invert_about_mean_masked(amps, mask)

    measured = int(sample_addresses(amps, rng=gen))
    verified = bool(database.query(measured))  # counted classical query
    block_guess = spec.block_of(measured) if verified else left_out_block
    queries = database.counter.count - start_count

    if target_block == left_out_block:
        # Target untouched: the state stayed uniform over the searched
        # blocks, verification fails, and the left-out answer is correct.
        success = 1.0
    else:
        success = success_probability_after(m, iterations)
    return NaivePartialSearchResult(
        spec=spec,
        left_out_block=left_out_block,
        measured_address=measured,
        verified=verified,
        block_guess=block_guess,
        success_probability=success,
        queries=queries,
    )

"""Section 1.2's naive quantum partial search: Grover over K−1 blocks.

Pick ``K - 1`` of the ``K`` blocks (leave one out), run standard quantum
search restricted to their ``N(1 - 1/K)`` addresses, and measure.  Verify
the measured address with one classical query: if it is the target, answer
its block; otherwise the target must be in the left-out block.  Queries:

    ``(pi/4) sqrt((K-1) N / K) + 1  ~  (pi/4)(1 - 1/(2K)) sqrt(N)``

— an ``O(1/K)`` saving, the quantum analogue of the classical trick, and the
baseline the GRK algorithm's ``Theta(1/sqrt(K))`` saving is measured against.

The left-out block starts at amplitude zero and nothing changes it, so
the restricted search is a full search over the ``M = N - N/K`` searched
addresses: :func:`naive_program` writes it as ``[global j]`` over ``M``
items with one address per block and no Step 3, and :func:`renumber` maps
an address to its index among the searched ones.  A single run executes
that program through the counted runner
(:func:`repro.core.algorithm.run_program`); the engine's batch runs the
same program on the kernel sweep.  Section 1.2's operator as written, the
masked diffusion :func:`repro.kernels.primitives.invert_about_mean_masked`
over all ``N`` addresses, is the reference the program is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithm import run_program
from repro.core.blockspec import BlockSpec
from repro.core.program import GLOBAL, PartialSearchProgram, ProgramStage
from repro.grover.angles import optimal_iterations
from repro.kernels import ExecutionPolicy
from repro.oracle.database import Database
from repro.statevector.measurement import sample_addresses
from repro.util.rng import as_rng
from repro.util.validation import require_int

__all__ = [
    "NaivePartialSearchResult",
    "naive_program",
    "renumber",
    "run_naive_partial_search",
]


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
            the left-out block; otherwise the target's probability in the
            final state, the restricted-Grover success).
        queries: total oracle queries (quantum iterations + 1 verification).
    """

    spec: BlockSpec
    left_out_block: int
    measured_address: int
    verified: bool
    block_guess: int
    success_probability: float
    queries: int


def naive_program(
    n_items: int, n_blocks: int, iterations: int | None = None
) -> PartialSearchProgram:
    """Full search over the ``M = N - N/K`` searched addresses: ``[global
    j]`` with ``K = M`` and no Step 3.  ``iterations`` defaults to the
    optimum for ``M`` items."""
    m = n_items - n_items // n_blocks
    j = optimal_iterations(m) if iterations is None else iterations
    return PartialSearchProgram(m, m, (ProgramStage(GLOBAL, j),), None)


def renumber(addresses, block_size: int, left_out_block):
    """``(searched, index)`` of one address or an ``intp`` array of them.

    ``searched`` says whether an address lies outside the left-out block,
    and ``index`` is its place among the searched addresses (meaningful
    only where ``searched``): the addresses past the left-out block move
    down by one block.  *left_out_block* may be one block or one per
    address.
    """
    blocks = addresses // block_size
    searched = blocks != left_out_block
    return searched, addresses - block_size * (blocks > left_out_block)


def run_naive_partial_search(
    database: Database,
    n_blocks: int,
    *,
    left_out_block: int | None = None,
    iterations: int | None = None,
    rng=None,
    policy: ExecutionPolicy | None = None,
) -> NaivePartialSearchResult:
    """Run the K−1-block baseline against a counted oracle.

    The program of :func:`naive_program` runs on a database of the
    searched addresses that shares *database*'s query counter, so its
    iterations are charged there; when the target sits in the left-out
    block that database marks nothing and the oracle flips nothing.  One
    address is then sampled from the final state, mapped back past the
    left-out block, and verified with one counted classical query.

    Args:
        database: database with exactly one marked address.
        n_blocks: ``K``.
        left_out_block: which block to exclude (uniformly random if ``None``,
            as the paper prescribes).
        iterations: Grover iterations over the restricted space; default is
            the optimum for ``(K-1) N / K`` items.
        rng: randomness for the block choice and the final measurement.
        policy: :class:`~repro.kernels.ExecutionPolicy` selecting the state
            precision (``None`` = the complex128 default).

    Returns:
        :class:`NaivePartialSearchResult`.
    """
    n = database.n_items
    spec = BlockSpec(n, n_blocks)
    marked = database.reveal_marked()
    if len(marked) != 1:
        raise ValueError("naive partial search requires exactly one marked item")
    target = next(iter(marked))

    gen = as_rng(rng)
    if left_out_block is None:
        left_out_block = int(gen.integers(spec.n_blocks))
    left_out_block = require_int("left_out_block", left_out_block, 0,
                                 spec.n_blocks)
    if iterations is not None:
        iterations = require_int("iterations", iterations, 0)

    size = spec.block_size
    program = naive_program(n, n_blocks, iterations)
    searched, index = renumber(target, size, left_out_block)
    start_count = database.counter.count
    if program.n_items == 1:
        # N = K = 2 leaves one searched address, which keeps all the
        # amplitude; run_program needs a geometry of two addresses or more.
        database.counter.increment(program.queries)
        success, measured = 1.0, 0
    else:
        restricted = Database(program.n_items, [index] if searched else [],
                              counter=database.counter)
        run = run_program(restricted, program, policy=policy)
        success = run.success_probability
        measured = int(sample_addresses(run.branches, rng=gen))
    measured += size * (measured >= left_out_block * size)
    verified = bool(database.query(measured))  # counted classical query
    return NaivePartialSearchResult(
        spec=spec,
        left_out_block=left_out_block,
        measured_address=measured,
        verified=verified,
        block_guess=spec.block_of(measured) if verified else left_out_block,
        # A left-out target stays untouched: verification fails and the
        # left-out answer is correct.
        success_probability=success if searched else 1.0,
        queries=database.counter.count - start_count,
    )

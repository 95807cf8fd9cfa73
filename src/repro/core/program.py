"""One program form for the GRK family and the quantum baselines.

GRK (quant-ph/0407122), Korepin–Grover's simplification (quant-ph/0504157),
the phased sure-success tail and Choi–Walker–Braunstein (quant-ph/0603136)
all run the same machine: global iterations, block-local iterations, some
of them with oracle and diffusion phases, then an optional Step 3 (park the
target amplitude in the ancilla-1 branch, invert the rest about the global
mean at a phase).  A :class:`PartialSearchProgram` writes that machine down
as plain data, so every consumer reads one form:

=====================  =====================================================
``grk``                ``[global l1, block l2]``, Step 3 at π
``grk-simplified``     ``[global j1, block j2, global 1]``, no Step 3
``grk-sure-success``   ``[global l1, block l2_base, block 1 (φo1, φd1),
                       block 1 (φo2, φd2)]``, Step 3 at π
``grk-cwb``            ``[global l1-1, global 1 (φo, φd), block l2-1,
                       block 1 (χo, χd)]``, Step 3 at φf
``grover-full``        ``[global j]`` with ``K = N``, no Step 3; Long's
                       exact variant ``[global J+1 (φ, φ)]``
``naive-blocks``       ``[global j]`` over the ``M = N - N/K`` searched
                       addresses with ``K = M``, no Step 3
=====================  =====================================================

The baselines are full searches.  With one address per block and no
Step 3, the block readout measures the address register: success is
``|a_t|^2`` and the guess is the most probable address.

Each planner's result exposes its program as ``.program``
(:class:`~repro.core.parameters.GRKSchedule`,
:class:`~repro.core.simplified.SimplifiedSchedule`,
:class:`~repro.core.sure_success.SureSuccessPlan`,
:class:`~repro.core.cwb.CWBPlan`).  After planning, the program is the
only description of a run, and three readers execute it: the counted
runner (:func:`repro.core.algorithm.run_program`), the closed-form
subspace evaluator (:func:`repro.core.subspace.evaluate`, which also
scores the planners' candidates), and the batched kernel sweep
(:func:`repro.kernels.program_sweep_rows`).  The sweep reads
programs by attribute only, so :mod:`repro.kernels` never imports this
module.  A new variant is a planner that emits a program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GLOBAL",
    "BLOCK",
    "ProgramStage",
    "PartialSearchProgram",
]

#: Stage kinds: diffusion about the mean of the whole address space, or
#: about the mean of each block separately.
GLOBAL = "global"
BLOCK = "block"


@dataclass(frozen=True)
class ProgramStage:
    """``count`` oracle + diffusion iterations of one kind at fixed phases.

    A phase of π is the plain reflection: ``oracle_phase=π`` flips the
    target's sign, ``diffusion_phase=π`` inverts about the mean.
    """

    kind: str
    count: int
    oracle_phase: float = math.pi
    diffusion_phase: float = math.pi

    def __post_init__(self):
        if self.kind not in (GLOBAL, BLOCK):
            raise ValueError(f"stage kind must be {GLOBAL!r} or {BLOCK!r}")
        if self.count < 0:
            raise ValueError("stage count must be >= 0")

    @property
    def phased(self) -> bool:
        """True when either reflection carries a phase other than π."""
        return self.oracle_phase != math.pi or self.diffusion_phase != math.pi


@dataclass(frozen=True)
class PartialSearchProgram:
    """A GRK-family partial search as plain data (target-independent).

    Attributes:
        n_items: database size ``N``.
        n_blocks: block count ``K`` (divides ``N``).
        stages: the iterations, in order; zero-count stages do nothing.
        final_phase: the Step 3 controlled-diffusion phase, or ``None``
            when the program ends without Step 3 (grk-simplified).
    """

    n_items: int
    n_blocks: int
    stages: tuple[ProgramStage, ...]
    final_phase: float | None = math.pi

    @classmethod
    def grk(cls, n_items: int, n_blocks: int, l1: int, l2: int):
        """The plain GRK program: ``l1`` global, ``l2`` block, Step 3."""
        return cls(n_items, n_blocks,
                   (ProgramStage(GLOBAL, l1), ProgramStage(BLOCK, l2)))

    @property
    def block_size(self) -> int:
        return self.n_items // self.n_blocks

    @property
    def queries(self) -> int:
        """Oracle queries per run: one per iteration, plus one for Step 3."""
        steps = sum(stage.count for stage in self.stages)
        return steps + (self.final_phase is not None)

    def grk_counts(self) -> tuple[int, int]:
        """``(l1, l2)`` of a plain GRK program (the circuit backends' input).

        Raises ``ValueError`` for any other program shape.
        """
        if (
            self.final_phase == math.pi
            and len(self.stages) == 2
            and [s.kind for s in self.stages] == [GLOBAL, BLOCK]
            and not any(s.phased for s in self.stages)
        ):
            return self.stages[0].count, self.stages[1].count
        raise ValueError("circuit backends run plain GRK programs only")

"""Exact O(1) evaluation of any GRK-family program in its 3-dimensional subspace.

Every operator a :class:`~repro.core.program.PartialSearchProgram` applies —
the (phased) oracle, global and block-local (phased) diffusion, the Step 3
move-out and controlled diffusion — preserves the symmetry type

    ``u |t>  +  v * (uniform over the target block minus t)
             +  w * (uniform over all non-target blocks)``

so a whole run is captured by three coordinates (plus the ancilla branch in
Step 3): real floats for unphased programs, complex once a phase appears.
:func:`evolve` walks a program's stages and :func:`evaluate` adds Step 3 and
the block measurement, at a cost independent of ``N`` and of the
unphased stage counts:

- an unphased block stage of ``c`` iterations is one rotation by
  ``2 c beta_b`` in the target block's ``(u, v sqrt(b-1))`` plane; the
  outside amplitude is fixed;
- an unphased global stage is one rotation by ``2 c beta`` in the
  ``(u, non-target mean)`` plane, while the rest of the non-target state
  (the ``v - w`` component) flips sign with every iteration;
- a phased stage applies the generic phased iteration ``count`` times.

This one evaluator scores every planner's candidates (:mod:`repro.core.
parameters`, :mod:`repro.core.simplified`), solves the sure-success and CWB
phases, evaluates the paper's tables at ``N`` up to ``2**60`` and beyond,
and serves as an independent oracle for property tests against the counted
runner (they agree to ~1e-12 on every coordinate).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.blockspec import BlockSpec
from repro.core.program import GLOBAL, PartialSearchProgram

__all__ = [
    "SubspaceCoordinates",
    "SubspaceFinal",
    "SubspaceGRK",
    "evolve",
    "evaluate",
]


def _mass(z) -> float:
    """``|z|**2`` for a real or complex amplitude (``z**2`` for floats)."""
    return z.real**2 + z.imag**2


@dataclass(frozen=True)
class SubspaceCoordinates:
    """Symmetric-state coordinates (see module docstring).

    Attributes:
        target: amplitude ``u`` of the target address.
        block_rest: per-address amplitude ``v`` of the other ``N/K - 1``
            addresses in the target block.
        outside: per-address amplitude ``w`` of every address in the other
            ``K - 1`` blocks.
    """

    target: complex
    block_rest: complex
    outside: complex

    def norm_squared(self, spec: BlockSpec) -> float:
        """Total probability mass (must be 1 for any unitary history)."""
        b = spec.block_size
        n = spec.n_items
        return (
            _mass(self.target)
            + (b - 1) * _mass(self.block_rest)
            + (n - b) * _mass(self.outside)
        )

    def target_block_mass(self, spec: BlockSpec) -> float:
        """Probability of the target block (``alpha_yt^2`` in eq. (2))."""
        return _mass(self.target) + (spec.block_size - 1) * _mass(self.block_rest)

    def nontarget_average(self, spec: BlockSpec) -> float:
        """Mean amplitude over all ``N - 1`` non-target addresses.

        Figure 5's dotted line: Step 2 arranges this to be (asymptotically)
        half of ``outside``.
        """
        b, n = spec.block_size, spec.n_items
        return ((b - 1) * self.block_rest + (n - b) * self.outside) / (n - 1)

    def to_statevector(self, spec: BlockSpec, target_address: int) -> np.ndarray:
        """Materialise the full ``N``-vector (small ``N`` cross-validation)."""
        amps = np.full(spec.n_items, self.outside)
        amps[spec.slice_of(spec.block_of(target_address))] = self.block_rest
        amps[target_address] = self.target
        return amps


@dataclass(frozen=True)
class SubspaceFinal:
    """Coordinates at the block measurement, ancilla branches separated.

    Attributes:
        target_moved: amplitude of ``|t>`` in the ancilla-1 branch (parked
            there by Step 3's move-out; 0 for programs without Step 3).
        target_regrown: amplitude of ``|t>`` in the ancilla-0 branch
            (regenerated by Step 3's controlled diffusion).
        block_rest: per-address amplitude in the target block (ancilla 0).
        outside: per-address amplitude in non-target blocks (ancilla 0) —
            **exactly zero** when the zeroing condition is met.
    """

    target_moved: complex
    target_regrown: complex
    block_rest: complex
    outside: complex

    def success_probability(self, spec: BlockSpec) -> float:
        """Probability a block measurement lands in the target block."""
        b = spec.block_size
        return (
            _mass(self.target_moved)
            + _mass(self.target_regrown)
            + (b - 1) * _mass(self.block_rest)
        )

    def failure_probability(self, spec: BlockSpec) -> float:
        """Probability mass left in the ``K - 1`` non-target blocks."""
        return (spec.n_items - spec.block_size) * _mass(self.outside)


def _phase_factor(phase: float):
    """``e^{i phase}``, exactly ``-1.0`` at π so plain reflections stay real.

    The oracle ``I_t(phase)`` multiplies ``u`` by it; the diffusion
    ``D(phase)`` maps ``a -> (1 - e^{i phase}) * mean - a``.
    """
    return -1.0 if phase == math.pi else cmath.exp(1j * phase)


@lru_cache(maxsize=1024)
def _rotation(size: int, count: int) -> tuple[float, float]:
    """``(cos, sin)`` of ``count`` Grover rotations over *size* addresses."""
    theta = 2.0 * count * math.asin(1.0 / math.sqrt(size))
    return math.cos(theta), math.sin(theta)


def _evolve(n: int, b: int, stages, u, v, w):
    """``(u, v, w)`` after *stages* (closed forms in the module docstring)."""
    rest, outside = b - 1, n - b  # addresses weighted by v and by w
    for stage in stages:
        kind, c = stage.kind, stage.count
        phase_o, phase_d = stage.oracle_phase, stage.diffusion_phase
        if phase_o != math.pi or phase_d != math.pi:
            eo = _phase_factor(phase_o)
            ed = _phase_factor(phase_d)
            f = 1.0 - ed
            for _ in range(c):
                u = eo * u
                if kind == GLOBAL:
                    fm = f * ((u + rest * v + outside * w) / n)
                    u, v, w = fm - u, fm - v, fm - w
                else:  # uniform non-target blocks: eigenvalue -e^{i phase}
                    fm = f * ((u + rest * v) / b)
                    u, v, w = fm - u, fm - v, -ed * w
        elif c and kind == GLOBAL:
            cos_t, sin_t = _rotation(n, c)
            rest_len = math.sqrt(n - 1)
            mean = (rest * v + outside * w) / (n - 1)
            r = mean * rest_len
            u, r = u * cos_t + r * sin_t, r * cos_t - u * sin_t
            sign = -1.0 if c % 2 else 1.0
            v, w = r / rest_len + sign * (v - mean), r / rest_len + sign * (w - mean)
        elif c and b > 1:
            cos_t, sin_t = _rotation(b, c)
            rest_len = math.sqrt(rest)
            y = v * rest_len
            u, y = u * cos_t + y * sin_t, y * cos_t - u * sin_t
            v = y / rest_len
    return u, v, w


def _start(n: int, start: SubspaceCoordinates | None):
    if start is None:
        return (1.0 / math.sqrt(n),) * 3
    return start.target, start.block_rest, start.outside


def evolve(spec: BlockSpec, stages, start: SubspaceCoordinates | None = None):
    """Coordinates after *stages*, from *start* (default: uniform).

    A block of one address (``K = N``) leaves unphased block stages the
    identity, as GRK's analysis does: its diffusion is trivial, and the
    sign the oracle flips there changes no Step 3 measurement.
    """
    n, b = spec.n_items, spec.block_size
    return SubspaceCoordinates(*_evolve(n, b, stages, *_start(n, start)))


def evaluate(
    program: PartialSearchProgram, start: SubspaceCoordinates | None = None
) -> SubspaceFinal:
    """*program*'s coordinates at the block measurement.

    Step 3 parks the target amplitude in the ancilla-1 branch and applies
    ``D(final_phase)`` to the ancilla-0 branch (whose target entry is now
    0).  Without Step 3 (``final_phase=None``) the measurement reads the
    evolved coordinates directly.  *start* resumes from coordinates an
    earlier :func:`evolve` reached (planners evolve a fixed prefix once).
    """
    n, b = program.n_items, program.block_size
    u, v, w = _evolve(n, b, program.stages, *_start(n, start))
    if program.final_phase is None:
        return SubspaceFinal(0.0, u, v, w)
    f = 1.0 - _phase_factor(program.final_phase)
    mean = ((b - 1) * v + (n - b) * w) / n
    return SubspaceFinal(u, f * mean, f * mean - v, f * mean - w)


class SubspaceGRK:
    """The plain GRK ``(l1, l2)`` programs of one geometry, evaluated exactly."""

    def __init__(self, spec: BlockSpec):
        self.spec = spec

    def _program(self, l1: int, l2: int) -> PartialSearchProgram:
        return PartialSearchProgram.grk(self.spec.n_items, self.spec.n_blocks, l1, l2)

    def after_step1(self, l1: int) -> SubspaceCoordinates:
        """Exact state after ``l1`` global Grover iterations from uniform."""
        return evolve(self.spec, self._program(l1, 0).stages[:1])

    def after_step2(self, l1: int, l2: int) -> SubspaceCoordinates:
        """Exact state after Step 2's ``l2`` block-local iterations."""
        return evolve(self.spec, self._program(l1, l2).stages)

    def final(self, l1: int, l2: int) -> SubspaceFinal:
        """Exact state after Step 3 (move-out + controlled diffusion)."""
        return evaluate(self._program(l1, l2))

    def success_probability(self, l1: int, l2: int) -> float:
        """Block-measurement success of the ``(l1, l2)`` schedule."""
        return self.final(l1, l2).success_probability(self.spec)

    def failure_probability(self, l1: int, l2: int) -> float:
        """``1 - success`` computed directly from the residual amplitudes
        (numerically superior to subtracting near-equal numbers)."""
        return self.final(l1, l2).failure_probability(self.spec)

    def required_block_rest(self, after_step1: SubspaceCoordinates) -> float:
        """The exact ``v*`` Step 2 must reach for Step 3 to zero non-target
        blocks: ``(b - 1) v* = w (b - N/2)`` (the finite-``N`` form of the
        paper's ``Y`` computation)."""
        b, n = self.spec.block_size, self.spec.n_items
        return after_step1.outside * (b - n / 2.0) / (b - 1)

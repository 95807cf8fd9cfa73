"""Single-state statevector primitives: the one home of the kernel math.

Every unitary the paper's algorithms use lives here, and **only** here —
the single-state simulators import these functions directly, the
compiled circuit ops (:mod:`repro.circuits.compiler`) and the batched
runners (:mod:`repro.core.batch`) call them, so a kernel fix or a dtype
change lands everywhere at once:

- :func:`uniform_state` — state initialisation at a policy dtype.
- :func:`phase_flip` / :func:`phase_rotate` — the oracle reflection ``I_t``
  and its phased generalisation.
- :func:`invert_about_mean` — the global diffusion ``I_0`` (Step 1/3).
- :func:`invert_about_mean_blocks` — the block-parallel ``I_K ⊗ I_0,[N/K]``
  (Step 2).
- :func:`invert_about_mean_masked` — diffusion on a masked subset (the
  naive K−1-block baseline).
- :func:`invert_about_axis_mean` — the shared in-place core the above (and
  the compiled ``DiffusionOp``, which diffuses over a *middle* axis of a
  reshaped view) all reduce to.
- :func:`reflect_about_state` — generalised reflection about an arbitrary
  state (amplitude amplification).
- :func:`check_norm` — the measurement-layer norm guard.

Conventions
-----------
All kernels:

- operate **in place** on the last axis of ``amps`` (except where another
  axis is named) and also return it (so calls can be chained);
- broadcast over arbitrary leading axes, letting callers batch many
  independent searches in one vectorised sweep;
- are dtype-polymorphic: float32/float64 for the real GRK gate set,
  complex64/complex128 where phases appear — scalars are applied as weak
  Python numbers so the array dtype always wins;
- cost O(size of ``amps``) time with no temporaries larger than the mean
  (reductions use ``keepdims`` so no reshape copies are made).

They are *not* unitary-checked per call (that would be O(N) extra work in
the hot loop); unitarity is enforced by the test suite against the dense
mirrors in :mod:`repro.statevector.dense`.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "uniform_state",
    "phase_flip",
    "phase_rotate",
    "apply_phase_factor",
    "invert_about_axis_mean",
    "invert_about_mean",
    "invert_about_mean_blocks",
    "invert_about_mean_masked",
    "reflect_about_state",
    "apply_grover_iteration",
    "apply_block_grover_iteration",
    "check_norm",
]


def uniform_state(n_items: int, *, dtype=np.float64, lead: tuple[int, ...] = ()) -> np.ndarray:
    """The uniform superposition ``|psi_0>`` as a fresh ``lead + (N,)`` array.

    ``dtype`` is the concrete storage dtype (see
    :class:`~repro.kernels.policy.ExecutionPolicy` for the mapping from the
    logical precision names); the default ``float64`` is what the real GRK
    gate set evolves.
    """
    if n_items < 1:
        raise ValueError(f"n_items={n_items} must be >= 1")
    return np.full(lead + (n_items,), 1.0 / np.sqrt(n_items), dtype=dtype)


def phase_flip(amps: np.ndarray, index) -> np.ndarray:
    """Multiply the amplitude(s) at ``index`` along the last axis by −1.

    This is the selective inversion ``I_t`` the oracle implements with a
    single query (phase-kickback form).  ``index`` may be an int, a sequence
    of ints, or a boolean mask over the last axis.
    """
    amps[..., index] *= -1
    return amps


def apply_phase_factor(amps: np.ndarray, index, factor) -> np.ndarray:
    """Multiply amplitude(s) at ``index`` by a precomputed scalar *factor*.

    The raw masked-multiply primitive behind :func:`phase_rotate` and the
    compiled backend's pattern-phase ops; *factor* is applied as a weak
    Python scalar so the array dtype is preserved.
    """
    amps[..., index] *= factor
    return amps


def phase_rotate(amps: np.ndarray, index, phase: float) -> np.ndarray:
    """Multiply amplitude(s) at ``index`` by ``exp(i*phase)``.

    The generalised oracle ``I_t(phase)`` used by phase-matched (sure
    success) search; ``phase = pi`` recovers :func:`phase_flip`.  Requires a
    complex dtype unless ``phase`` is a multiple of pi.
    """
    factor = cmath.exp(1j * phase)
    if not np.iscomplexobj(amps):
        if abs(factor.imag) > 1e-15:
            raise TypeError(
                "phase_rotate with a non-real phase requires a complex amplitude array"
            )
        factor = factor.real
    return apply_phase_factor(amps, index, factor)


def invert_about_axis_mean(
    arr: np.ndarray,
    axis: int = -1,
    *,
    negate: bool = True,
    mean_out: np.ndarray | None = None,
) -> np.ndarray:
    """In-place inversion about the mean along one axis of *arr*.

    ``negate=True`` (the paper's ``+I_0`` sign) maps ``a -> 2*mean - a``;
    ``negate=False`` maps ``a -> a - 2*mean`` (the natural ``I - 2|u><u|``
    sign the raw diffusion circuit realises before its global phase).  This
    is the single shared core of every π-diffusion in the repo: the
    last-axis kernels below and the compiled :class:`DiffusionOp`, which
    diffuses over the *middle* axis of a ``(left, mid, right)`` view.

    ``mean_out`` is an optional preallocated buffer of the ``keepdims``
    reduction shape and matching dtype: batched hot loops call this kernel
    hundreds of times per sweep, and reusing one buffer removes the two
    per-iteration temporaries (the mean and its doubling) the allocator
    would otherwise churn through.  Results are bit-identical with or
    without it.
    """
    if mean_out is None:
        mean = arr.mean(axis=axis, keepdims=True)
        if negate:
            np.subtract(2.0 * mean, arr, out=arr)
        else:
            arr -= 2.0 * mean
        return arr
    np.mean(arr, axis=axis, keepdims=True, out=mean_out)
    np.multiply(mean_out, 2.0, out=mean_out)
    if negate:
        np.subtract(mean_out, arr, out=arr)
    else:
        arr -= mean_out
    return arr


def invert_about_mean(
    amps: np.ndarray, phase: float = np.pi, *, mean_out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the (generalised) diffusion ``D(phase)`` along the last axis.

    ``D(phase) = (1 - e^{i*phase}) |psi_0><psi_0| - I`` where ``|psi_0>`` is
    the uniform superposition over the last axis; elementwise this is
    ``a_x -> (1 - e^{i*phase}) * mean(a) - a_x``.

    For the default ``phase = pi`` the prefactor is 2 and this is the
    textbook inversion about the average ``2|psi_0><psi_0| - I`` with the
    paper's sign convention (:func:`invert_about_axis_mean` with
    ``negate=True``).  Other phases give the phase-matched diffusion used by
    the sure-success variants (it is ``-R(phase)`` for the standard
    generalised reflection ``R``; the global −1 is immaterial).

    ``mean_out`` (``phase = pi`` only) is an optional preallocated buffer of
    shape ``amps.shape[:-1] + (1,)`` and matching dtype for the mean
    reduction (see :func:`invert_about_axis_mean`).
    """
    if phase == np.pi:
        return invert_about_axis_mean(amps, -1, negate=True, mean_out=mean_out)
    if not np.iscomplexobj(amps):
        raise TypeError("generalised diffusion with phase != pi needs a complex array")
    factor = cmath.exp(1j * phase)
    mean = amps.mean(axis=-1, keepdims=True)
    amps *= -1.0
    amps += (1.0 - factor) * mean
    return amps


def invert_about_mean_blocks(
    amps: np.ndarray, n_blocks: int, phase: float = np.pi,
    *, mean_out: np.ndarray | None = None
) -> np.ndarray:
    """Blockwise (generalised) diffusion: ``I_K ⊗ D_[N/K](phase)``.

    The last axis (length N) is viewed as ``n_blocks`` contiguous blocks of
    ``N/K`` amplitudes; each block is inverted about *its own* mean, all in
    one vectorised pass (a reshape view — no copy — per the HPC guides).
    ``phase != pi`` applies the generalised per-block diffusion
    ``a -> (1 - e^{i*phase}) * block_mean - a`` (sure-success Step 2).

    ``mean_out`` (``phase = pi`` only) is an optional preallocated buffer of
    shape ``amps.shape[:-1] + (n_blocks, 1)`` and matching dtype, reused for
    the per-block mean exactly as in :func:`invert_about_mean`.
    """
    n = amps.shape[-1]
    if n_blocks <= 0 or n % n_blocks != 0:
        raise ValueError(f"n_blocks={n_blocks} must divide state size {n}")
    view = amps.reshape(*amps.shape[:-1], n_blocks, n // n_blocks)
    if phase == np.pi:
        invert_about_axis_mean(view, -1, negate=True, mean_out=mean_out)
        return amps
    if not np.iscomplexobj(amps):
        raise TypeError("generalised diffusion with phase != pi needs a complex array")
    factor = cmath.exp(1j * phase)
    mean = view.mean(axis=-1, keepdims=True)
    view *= -1.0
    view += (1.0 - factor) * mean
    return amps


def invert_about_mean_masked(amps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Diffusion about the uniform superposition of a *subset* of addresses.

    On basis states selected by the boolean ``mask`` (say ``m`` of them) this
    applies ``2|u_m><u_m| - I`` where ``|u_m>`` is uniform over the subset,
    i.e. ``a_x -> 2*S/m - a_x`` with ``S`` the sum of masked amplitudes;
    unmasked amplitudes are untouched.  This is the diffusion operator of a
    Grover search *restricted to the subset* — exactly what the paper's
    naive partial-search baseline (Section 1.2: run quantum search on the
    ``N(1 - 1/K)`` locations of K−1 chosen blocks) uses.

    Note this is **not** Step 3 of the GRK algorithm: Step 3 reflects about
    the uniform state over *all* N addresses, controlled on an ancilla, and
    is implemented in :mod:`repro.core.algorithm` by applying
    :func:`invert_about_mean` to the ancilla-0 branch (batched:
    :func:`repro.kernels.batched.moveout_controlled_diffusion_rows`).
    """
    mask = np.asarray(mask, dtype=bool)
    n = amps.shape[-1]
    if mask.shape != (n,):
        raise ValueError(f"mask shape {mask.shape} must be ({n},)")
    m = int(mask.sum())
    if m == 0:
        return amps
    masked_sum = np.where(mask, amps, 0.0).sum(axis=-1, keepdims=True)
    twice_mean = 2.0 * masked_sum / m
    amps[..., mask] *= -1.0
    amps[..., mask] += twice_mean
    return amps


def reflect_about_state(amps: np.ndarray, axis_state: np.ndarray, phase: float = np.pi) -> np.ndarray:
    """Generalised reflection ``I - (1 - e^{i phase}) |s><s|`` about a unit state.

    With ``phase = pi`` this is the exact reflection ``I - 2|s><s|``; the
    paper's ``I_0`` equals ``-(I - 2|psi_0><psi_0|)`` (a global phase).  This
    kernel is used by the generalised amplitude-amplification machinery in
    :mod:`repro.grover.amplify`, where arbitrary axis states appear.
    """
    axis_state = np.asarray(axis_state)
    if axis_state.shape[-1] != amps.shape[-1]:
        raise ValueError("axis_state must match the last axis of amps")
    overlap = np.sum(np.conj(axis_state) * amps, axis=-1, keepdims=True)
    factor = cmath.exp(1j * phase)
    if not np.iscomplexobj(amps) and abs(factor.imag) > 1e-15:
        raise TypeError("non-real reflection phase requires a complex amplitude array")
    if not np.iscomplexobj(amps):
        factor = factor.real
    amps -= (1.0 - factor) * overlap * axis_state
    return amps


def apply_grover_iteration(amps: np.ndarray, target, iterations: int = 1) -> np.ndarray:
    """Apply ``A = I_0 · I_t`` *iterations* times (one oracle query each).

    ``target`` may be an int or any index accepted by :func:`phase_flip`.
    This is the Step 1 operator of the paper and the body of standard Grover
    search.  The loop is intentionally a Python loop over a vectorised O(N)
    body: iteration counts are O(sqrt(N)) so total cost is O(N^{3/2}) — the
    same asymptotic a real machine pays in queries, and each pass is two
    fused vector sweeps.
    """
    for _ in range(iterations):
        phase_flip(amps, target)
        invert_about_mean(amps)
    return amps


def apply_block_grover_iteration(
    amps: np.ndarray, target, n_blocks: int, iterations: int = 1
) -> np.ndarray:
    """Apply ``A_[N/K] = (I_K ⊗ I_0,[N/K]) · I_t`` *iterations* times.

    The Step 2 operator: the oracle reflection followed by inversion about
    the average *within each block in parallel*.  Non-target blocks are
    uniform, hence exactly invariant; the target block rotates in its own
    two-dimensional (target, block-uniform) subspace.
    """
    for _ in range(iterations):
        phase_flip(amps, target)
        invert_about_mean_blocks(amps, n_blocks)
    return amps


def check_norm(probs: np.ndarray, *, atol: float = 1e-6) -> float:
    """Assert a probability vector sums to 1 within *atol*; return the sum.

    The measurement layer's single norm guard: kernel outputs are unitary
    evolutions of a normalised state, so their probabilities already sum to
    1 up to float residue — callers only *renormalise* on explicit request
    (see :func:`repro.statevector.measurement.sample_addresses`), because
    silent renormalisation would mask norm bugs in the evolution kernels.
    """
    total = float(np.asarray(probs).sum(dtype=np.float64))
    # Exact |total - 1| <= atol, not np.isclose: isclose's default rtol
    # would quietly widen the bound ~10x and let real kernel norm bugs by.
    if not abs(total - 1.0) <= atol:
        raise ValueError(f"probabilities sum to {total}, state is not normalised")
    return total

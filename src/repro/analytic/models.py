"""The `AnalyticModel` registry — closed-form twins of the method registry.

Every method in :mod:`repro.engine.methods` answers "which block holds the
target, at what query cost" by *running* something: a statevector, a phase
solve plus a statevector, a classical scan.  For most of them the source
papers also give the answer in closed form — success probability and query
count as functions of ``(N, K, l1, l2)`` — and those formulas cost O(1)
regardless of ``N``.  This module registers one :class:`AnalyticModel` per
method that has such a form, keyed by the *same name* as the method
registry, so the engine can answer probability-class requests for
``N = 2**40`` and beyond without ever allocating a state row.

Registered on import (importing :mod:`repro.analytic` is enough):

==================  ====================================================
``grk``             exact: the planned ``(l1, l2)`` schedule evaluated in
                    the 3-coordinate subspace model (quant-ph/0407122)
``grk-simplified``  exact: Korepin-Grover's ancilla-free final iteration
                    (quant-ph/0504157; optimised per quant-ph/0510179)
``grk-sure-success``  exact: the solved phased-tail plan's residual
``grk-cwb``         exact: the solved CWB plan's residual
                    (quant-ph/0603136)
``naive-blocks``    exact: restricted-Grover angle over ``(K-1)N/K``
                    items; expectation over the random left-out block
``grover-full``     exact: ``sin^2((2j+1) beta)`` (+ Long's variant)
``classical``       exact: Section 1.1 scan accounting (deterministic
                    position arithmetic / Appendix A expectation)
==================  ====================================================

The four GRK-family models are one ``check`` and one ``evaluate``: the
method's plan, from the same per-method cache the simulate tier runs
(:mod:`repro.core.plans`), answers with its ``predicted_success``,
``queries`` and ``provenance()``.

Every model answers in two shapes.  ``evaluate(request, target)`` answers
one call; ``evaluate_batch(request, targets)`` answers a whole batch from
one scalar evaluation per geometry plus numpy arithmetic on the ``intp``
target array.  That suffices because an answer depends on the target
only through its block (the answered block, and naive-blocks' pinned
left-out block) or, for the deterministic classical scan, its position.
A batch form never restates a formula: it calls its model's
``evaluate``, or a helper ``evaluate`` also calls, so batch rows equal
per-row ``evaluate`` answers bit for bit.

Validity: every builtin model is regime ``"exact"`` — the papers give
finite-``(N, K)`` formulas everywhere we model, cross-validated against
the simulator on the overlap range (``n <= 12``, all ``K`` partitions)
under :data:`ANALYTIC_SUCCESS_ATOL`.  Third-party registrations may
declare regime ``"asymptotic"`` for large-``K``-only formulas; the
``/v1/methods`` capability table surfaces the regime either way.  All
models bound ``N`` at :data:`ANALYTIC_MAX_N_ITEMS` (``2**63``), past
which float64 loses the integer geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.plans import FAMILY, resolve_plan

__all__ = [
    "ANALYTIC_MAX_N_ITEMS",
    "ANALYTIC_SUCCESS_ATOL",
    "AnalyticUnsupported",
    "AnalyticAnswer",
    "AnalyticBatchAnswer",
    "AnalyticModel",
    "register_model",
    "unregister_model",
    "get_model",
    "has_model",
    "available_models",
    "describe_models",
    "register_builtin_models",
]

#: Largest ``N`` any analytic model accepts.  The closed forms are float64
#: trigonometry on ``sqrt(N)``-scale angles; beyond ``2**63`` the address
#: space no longer fits signed 64-bit integers (batch targets, block
#: arithmetic), so the tier declines rather than degrade silently.
ANALYTIC_MAX_N_ITEMS = 1 << 63

#: Tolerance contract for analytic-vs-simulated success probabilities on
#: the overlap range — the analytic twin of
#: :data:`repro.kernels.COMPLEX64_SUCCESS_ATOL`.  Exact-regime models must
#: agree with the complex128 simulator per target to this absolute
#: tolerance (the subspace model and the statevector agree to ~1e-12; the
#: slack covers accumulation over the longest n<=12 schedules).
ANALYTIC_SUCCESS_ATOL = 1e-9


class AnalyticUnsupported(ValueError):
    """This request cannot be answered analytically (and why).

    Raised by a model's ``check``/``evaluate`` when the geometry, options,
    or numerics fall outside the model's validity.  Under ``engine="auto"``
    the engine catches it and falls through to simulation; under
    ``engine="analytic"`` it propagates to the caller (the gateway maps it
    to a structured 400).
    """


@dataclass(frozen=True)
class AnalyticAnswer:
    """One closed-form evaluation, ready to shape into a ``SearchReport``.

    Attributes:
        success_probability: probability the answered block is correct.
        queries: oracle queries the modelled run spends.  For
            ``answer_kind="expected"`` this is the rounded expectation;
            the exact real value rides in ``schedule["expected_queries"]``.
        block_guess: the answered block (``None`` without a known target).
        schedule: model provenance (``l1``/``l2``/``iterations``/...),
            merged into the report's ``schedule`` mapping.
        answer_kind: ``"exact"`` — this run's success/queries are
            deterministic functions of the request; ``"expected"`` — the
            method is stochastic (random left-out block, random probe
            order) and the answer is the exact expectation over that
            randomness.
    """

    success_probability: float
    queries: int
    block_guess: int | None = None
    schedule: Mapping[str, Any] = field(default_factory=dict)
    answer_kind: str = "exact"


@dataclass(frozen=True)
class AnalyticBatchAnswer:
    """One closed-form batch evaluation, ready to shape into a ``BatchReport``.

    Attributes:
        success_probabilities: per-row success, float64, shape ``(B,)``.
        queries: per-row query counts, intp, shape ``(B,)``.
        block_guesses: per-row answered block, intp, shape ``(B,)``.
        schedule: provenance shared by every row, equal to the first
            row's :attr:`AnalyticAnswer.schedule`.
        answer_kind: shared by every row, as in :class:`AnalyticAnswer`.

    The arrays are freshly allocated: the report keeps them.
    """

    success_probabilities: np.ndarray
    queries: np.ndarray
    block_guesses: np.ndarray
    schedule: Mapping[str, Any] = field(default_factory=dict)
    answer_kind: str = "exact"


@dataclass(frozen=True)
class AnalyticModel:
    """A closed-form model of one registered method.

    Attributes:
        method: the method-registry name this model answers for.
        regime: ``"exact"`` (finite-``(N, K)`` formulas) or
            ``"asymptotic"`` (large-``K`` formulas with validity bounds).
        description: one-line provenance (paper + formula family).
        check: structural validity gate — raises
            :class:`AnalyticUnsupported` for geometry/options the model
            cannot answer.  Must be cheap (no solves): it runs inside
            request fingerprinting and planner routing.
        evaluate: ``(request, target) -> AnalyticAnswer``.  May raise
            :class:`AnalyticUnsupported` for evaluation-time failures the
            structural check cannot see (e.g. a phase solve that does not
            converge).  Single calls run it.
        evaluate_batch: ``(request, targets) -> AnalyticBatchAnswer`` for
            a validated, non-empty ``intp`` array of addresses.  Row ``i``
            must equal ``evaluate(request, targets[i])`` exactly; batches
            run it, and it raises :class:`AnalyticUnsupported` where
            ``evaluate`` would.  Build it from ``evaluate`` or from a
            helper ``evaluate`` calls, never from a copied formula.
        max_n_items: inclusive ``N`` bound this model accepts.
    """

    method: str
    regime: str
    description: str
    check: Callable[[Any], None]
    evaluate: Callable[[Any, int | None], AnalyticAnswer]
    evaluate_batch: Callable[[Any, np.ndarray], AnalyticBatchAnswer]
    max_n_items: int = ANALYTIC_MAX_N_ITEMS

    def __post_init__(self):
        if self.regime not in ("exact", "asymptotic"):
            raise ValueError(
                f"regime={self.regime!r} must be 'exact' or 'asymptotic'"
            )


_REGISTRY: dict[str, AnalyticModel] = {}


def register_model(model: AnalyticModel, *, replace: bool = False) -> None:
    """Add *model* to the registry (``replace=True`` to overwrite)."""
    if not replace and model.method in _REGISTRY:
        raise ValueError(
            f"analytic model for {model.method!r} already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[model.method] = model


def unregister_model(method: str) -> None:
    """Remove the model for *method* (missing names are a no-op)."""
    _REGISTRY.pop(method, None)


def get_model(method: str) -> AnalyticModel:
    """The registered model for *method*, or raise with the known names."""
    try:
        return _REGISTRY[method]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise AnalyticUnsupported(
            f"no analytic model registered for method {method!r} "
            f"(modelled: {known})"
        ) from None


def has_model(method: str) -> bool:
    """True when *method* has a registered analytic model."""
    return method in _REGISTRY


def available_models() -> tuple[str, ...]:
    """Registered method names, sorted."""
    return tuple(sorted(_REGISTRY))


def describe_models() -> list[dict]:
    """JSON-safe capability rows for ``/v1/methods`` and ``repro methods``."""
    return [
        {
            "method": m.method,
            "regime": m.regime,
            "description": m.description,
            "max_n_items": m.max_n_items,
        }
        for _, m in sorted(_REGISTRY.items())
    ]


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------

def _check_size(request) -> None:
    if request.n_items > ANALYTIC_MAX_N_ITEMS:
        raise AnalyticUnsupported(
            f"n_items={request.n_items} exceeds the analytic bound "
            f"{ANALYTIC_MAX_N_ITEMS} (2**63)"
        )


def _check_blocks(request) -> None:
    _check_size(request)
    if request.n_blocks < 2:
        raise AnalyticUnsupported(
            f"n_blocks={request.n_blocks}: partial-search models need a "
            "block structure (K >= 2)"
        )
    if request.block_size < 2:
        raise AnalyticUnsupported(
            f"block size N/K = {request.block_size} must be >= 2"
        )


def _reject_options(request, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(request.options) - set(allowed))
    if extra:
        raise AnalyticUnsupported(
            f"method {request.method!r} options {extra} have no analytic "
            f"form (modelled options: {sorted(allowed) or '<none>'})"
        )


def _check_options(request, *keys: str) -> None:
    """Read each option in *keys* through
    :meth:`~repro.engine.request.SearchRequest.checked_option`, the check
    the simulate tier runs, and refuse a bad value.  A request without
    options, the common case, skips the loop."""
    if not request.options:
        return
    try:
        for key in keys:
            request.checked_option(key)
    except ValueError as exc:
        raise AnalyticUnsupported(str(exc)) from None


def _target_block(request, target):
    """The block holding *target*: one address, an int64 array of them, or
    ``None``."""
    if target is None:
        return None
    if request.n_blocks == 1:
        # One block holds every address.  Its size N reaches 2**63, which
        # int64 array arithmetic cannot divide by.
        return target * 0
    return target // request.block_size


def _uniform_batch(request, targets, answer) -> AnalyticBatchAnswer:
    """Batch rows that all share *answer* apart from their block guess."""
    rows = targets.size
    return AnalyticBatchAnswer(
        success_probabilities=np.full(rows, answer.success_probability),
        queries=np.full(rows, answer.queries, dtype=np.intp),
        block_guesses=_target_block(request, targets),
        schedule=answer.schedule,
        answer_kind=answer.answer_kind,
    )


# --------------------------------------------------------------------------
# grk, grk-simplified, grk-sure-success, grk-cwb — the method's plan
# --------------------------------------------------------------------------

#: The shared sure-success/CWB plan caches (perfbench's phase-solve counter
#: reads their ``cache_info()``).
_cached_sure_success_plan = FAMILY["grk-sure-success"].solve
_cached_cwb_plan = FAMILY["grk-cwb"].solve

_GRK_FAMILY_DESCRIPTIONS = {
    "grk": "planned (l1, l2) schedule in the exact 3-coordinate subspace "
           "model (quant-ph/0407122)",
    "grk-simplified": "ancilla-free final iteration in the exact subspace "
                      "model (quant-ph/0504157, optimised per "
                      "quant-ph/0510179)",
    "grk-sure-success": "solved phased-tail plan: success 1 minus the "
                        "machine-precision residual",
    "grk-cwb": "solved CWB plan (quant-ph/0603136): certainty within "
               "extra_queries of the plain GRK budget",
}


def _check_grk_family(request) -> None:
    _check_blocks(request)
    _reject_options(request, (FAMILY[request.method].option,))


def _eval_grk_family(request, target: int | None) -> AnalyticAnswer:
    try:
        plan = resolve_plan(request)
    except RuntimeError as exc:
        raise AnalyticUnsupported(
            f"{request.method} phase solve failed for (N={request.n_items}, "
            f"K={request.n_blocks}): {exc}"
        ) from exc
    except ValueError as exc:
        raise AnalyticUnsupported(str(exc)) from exc
    return AnalyticAnswer(
        success_probability=plan.predicted_success,
        queries=plan.queries,
        block_guess=_target_block(request, target),
        schedule=plan.provenance(),
    )


def _eval_grk_family_batch(request, targets) -> AnalyticBatchAnswer:
    return _uniform_batch(request, targets, _eval_grk_family(request, None))


# --------------------------------------------------------------------------
# naive-blocks — restricted Grover over (K-1) N / K items
# --------------------------------------------------------------------------

def _check_naive(request) -> None:
    _check_blocks(request)
    _reject_options(request, ("left_out_block", "iterations"))
    _check_options(request, "left_out_block", "iterations")


def _naive_run(request) -> tuple[int, float, dict]:
    """``(queries, p_searched, schedule)`` of the restricted Grover run:
    its query cost, its success when the target is among the searched
    addresses, and its provenance."""
    from repro.grover.angles import optimal_iterations, success_probability_after

    m = request.n_items - request.block_size  # the searched (K-1) N / K items
    iterations = request.option("iterations")
    if iterations is None:
        iterations = optimal_iterations(m)
    queries = iterations + 1  # quantum iterations + one verification probe
    schedule = {
        "iterations": iterations,
        "searched_items": m,
        "left_out_block": request.option("left_out_block"),
    }
    return queries, success_probability_after(m, iterations), schedule


def _eval_naive(request, target: int | None) -> AnalyticAnswer:
    queries, p_searched, schedule = _naive_run(request)
    left_out = request.option("left_out_block")
    if left_out is not None and target is not None:
        # Fully pinned: this run is deterministic in distribution.
        hit_left_out = target // request.block_size == left_out
        return AnalyticAnswer(
            success_probability=1.0 if hit_left_out else p_searched,
            queries=queries,
            block_guess=_target_block(request, target),
            schedule=schedule,
        )
    # Random left-out block (the paper's prescription): with probability
    # 1/K the target sits in the untouched block and verification failure
    # identifies it with certainty; otherwise the restricted Grover angle
    # applies.  (An unpinned target under a pinned left-out block averages
    # identically over the uniform target.)
    k = request.n_blocks
    expected = (1.0 / k) + (1.0 - 1.0 / k) * p_searched
    return AnalyticAnswer(
        success_probability=expected,
        queries=queries,
        block_guess=_target_block(request, target),
        schedule=schedule,
        answer_kind="expected",
    )


def _eval_naive_batch(request, targets) -> AnalyticBatchAnswer:
    left_out = request.option("left_out_block")
    if left_out is None:
        return _uniform_batch(request, targets, _eval_naive(request, None))
    queries, p_searched, schedule = _naive_run(request)
    blocks = _target_block(request, targets)
    return AnalyticBatchAnswer(
        success_probabilities=np.where(blocks == left_out, 1.0, p_searched),
        queries=np.full(targets.size, queries, dtype=np.intp),
        block_guesses=blocks,
        schedule=schedule,
    )


# --------------------------------------------------------------------------
# grover-full — the closed-form Grover angle (+ Long's exact variant)
# --------------------------------------------------------------------------

def _check_grover_full(request) -> None:
    _check_size(request)
    _reject_options(request, ("exact", "iterations"))
    _check_options(request, "exact", "iterations")


def _eval_grover_full(request, target: int | None) -> AnalyticAnswer:
    from repro.grover.angles import optimal_iterations, success_probability_after
    from repro.grover.exact import minimum_iterations

    n = request.n_items
    iterations = request.option("iterations")
    if bool(request.option("exact", False)):
        # Long's phase-matched variant: success is exactly 1 by
        # construction at any admissible iteration count.
        if iterations is None:
            iterations = minimum_iterations(n) + 1
        elif iterations < minimum_iterations(n) + 1:
            raise AnalyticUnsupported(
                f"exact Grover needs >= {minimum_iterations(n) + 1} "
                f"iterations at N={n}, got {iterations}"
            )
        return AnalyticAnswer(
            success_probability=1.0,
            queries=iterations,
            block_guess=_target_block(request, target),
            schedule={"iterations": iterations, "exact": True},
        )
    if iterations is None:
        iterations = optimal_iterations(n)
    return AnalyticAnswer(
        success_probability=success_probability_after(n, iterations),
        queries=iterations,
        block_guess=_target_block(request, target),
        schedule={"iterations": iterations, "exact": False},
    )


def _eval_grover_full_batch(request, targets) -> AnalyticBatchAnswer:
    return _uniform_batch(request, targets, _eval_grover_full(request, None))


# --------------------------------------------------------------------------
# classical — Section 1.1 scan accounting
# --------------------------------------------------------------------------

def _check_classical(request) -> None:
    _check_blocks(request)
    _reject_options(request, ("strategy", "left_out_block"))
    strategy = request.option("strategy", "deterministic")
    if strategy not in ("deterministic", "randomized"):
        raise AnalyticUnsupported(
            f"unknown classical strategy {strategy!r} "
            "(modelled: deterministic, randomized)"
        )
    _check_options(request, "left_out_block")


def _scan_left_out(request) -> int:
    """The block the deterministic scan skips (the runner's default: the
    last one)."""
    left_out = request.option("left_out_block")
    return request.n_blocks - 1 if left_out is None else left_out


def _scan(target, n: int, b: int, left_out: int):
    """``(block, queries)`` of the deterministic scan for *target*.

    The scan probes blocks 0..K-1 (skipping *left_out*) in address order
    and stops on the hit.  A target in the left-out block costs every
    probe, ``N - b``, and is answered by elimination.  The two cases blend
    by arithmetic instead of a branch, so one expression takes a Python
    int and an int64 array of targets alike.  Ranking the left-out block
    below itself (``>=``) keeps every intermediate within int64 up to
    ``N = 2**63``; the blend discards that row's ``found`` anyway.
    """
    block = target // b
    found = (block - (block >= left_out)) * b + (target - block * b) + 1
    return block, found + (block == left_out) * (n - b - found)


def _eval_classical(request, target: int | None) -> AnalyticAnswer:
    n, k, b = request.n_items, request.n_blocks, request.block_size
    strategy = request.option("strategy", "deterministic")
    if strategy == "randomized":
        # Appendix A-optimal: zero error; exact finite-N expectation
        # (N/2)(1 - 1/K^2) + (1 - 1/K)/2 over the random left-out block
        # and probe order (matches classical.partial's docstring/tests).
        m = n - b
        expected = (1.0 - 1.0 / k) * (m + 1) / 2.0 + (1.0 / k) * m
        return AnalyticAnswer(
            success_probability=1.0,
            queries=round(expected),
            block_guess=_target_block(request, target),
            schedule={"strategy": strategy, "expected_queries": expected},
            answer_kind="expected",
        )
    left_out = _scan_left_out(request)
    if target is not None:
        target_block, queries = _scan(target, n, b, left_out)
        return AnalyticAnswer(
            success_probability=1.0,
            queries=queries,
            block_guess=target_block,
            schedule={"strategy": strategy, "left_out_block": left_out},
        )
    # Unknown target: exact expectation over a uniform target.  Scanned
    # blocks occupy ranks 0..K-2; a target in rank r costs r*b + offset+1
    # (offset uniform over b); the left-out block costs the full N - b.
    expected = (
        (1.0 / k) * (n - b)
        + ((k - 1.0) / k) * ((k - 2.0) / 2.0 * b + (b - 1.0) / 2.0 + 1.0)
    )
    return AnalyticAnswer(
        success_probability=1.0,
        queries=round(expected),
        block_guess=None,
        schedule={
            "strategy": strategy,
            "left_out_block": left_out,
            "expected_queries": expected,
        },
        answer_kind="expected",
    )


def _eval_classical_batch(request, targets) -> AnalyticBatchAnswer:
    if request.option("strategy", "deterministic") == "randomized":
        return _uniform_batch(request, targets, _eval_classical(request, None))
    left_out = _scan_left_out(request)
    blocks, queries = _scan(
        targets, request.n_items, request.block_size, left_out
    )
    return AnalyticBatchAnswer(
        success_probabilities=np.ones(targets.size),
        queries=queries,
        block_guesses=blocks,
        schedule={"strategy": "deterministic", "left_out_block": left_out},
    )


# --------------------------------------------------------------------------
# registration
# --------------------------------------------------------------------------

def register_builtin_models(*, replace: bool = False) -> None:
    """Register the built-in models (idempotent with ``replace=True``)."""
    for method, description in _GRK_FAMILY_DESCRIPTIONS.items():
        register_model(AnalyticModel(
            method=method,
            regime="exact",
            description=description,
            check=_check_grk_family,
            evaluate=_eval_grk_family,
            evaluate_batch=_eval_grk_family_batch,
        ), replace=replace)
    register_model(AnalyticModel(
        method="naive-blocks",
        regime="exact",
        description="restricted Grover angle over (K-1)N/K items; exact "
                    "expectation over the random left-out block",
        check=_check_naive,
        evaluate=_eval_naive,
        evaluate_batch=_eval_naive_batch,
    ), replace=replace)
    register_model(AnalyticModel(
        method="grover-full",
        regime="exact",
        description="sin^2((2j+1) beta) at the optimal j (+ Long's exact "
                    "variant at success 1)",
        check=_check_grover_full,
        evaluate=_eval_grover_full,
        evaluate_batch=_eval_grover_full_batch,
    ), replace=replace)
    register_model(AnalyticModel(
        method="classical",
        regime="exact",
        description="Section 1.1 scan accounting: deterministic position "
                    "arithmetic / Appendix A expectation, success 1",
        check=_check_classical,
        evaluate=_eval_classical,
        evaluate_batch=_eval_classical_batch,
    ), replace=replace)

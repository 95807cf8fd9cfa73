"""One plan resolver and one plan cache per GRK-family method.

A plan (:class:`~repro.core.parameters.GRKSchedule`,
:class:`~repro.core.simplified.SimplifiedSchedule`,
:class:`~repro.core.sure_success.SureSuccessPlan` or
:class:`~repro.core.cwb.CWBPlan`) is target-independent, so each geometry
is planned once per process and every tier shares it: the simulate tier
runs ``plan.program`` (:mod:`repro.engine.methods`), the analytic tier
answers with ``plan.predicted_success`` (:mod:`repro.analytic.models`),
and both report ``plan.provenance()``.  A request may carry its own plan
instead, under its method's option key (``schedule`` for grk and
grk-simplified, ``plan`` for grk-sure-success and grk-cwb).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple

from repro.core.cwb import CWBPlan, plan_cwb
from repro.core.parameters import GRKSchedule, plan_schedule
from repro.core.simplified import SimplifiedSchedule, plan_simplified_schedule
from repro.core.sure_success import SureSuccessPlan, plan_sure_success

__all__ = ["FAMILY", "FamilyPlanner", "resolve_plan"]

#: Phase-solve retries for sure-success/CWB.  ``None`` is the planners'
#: default tolerance, so the ladder changes a plan only where that solve
#: raises; the relaxed rungs only matter at huge ``N``, where float64
#: cancellation in the scaled residual floors around ``1e-6 * sqrt(N)``
#: for some geometries even though the *failure probability* (the residual
#: squared) stays far below any physical relevance.
_SOLVE_TOLERANCE_LADDER = (None, 1e-8, 2e-5)

#: A relaxed solve is only accepted while the plan's residual failure
#: probability stays below this — "sure success" must remain sure.
_MAX_RESIDUAL_FAILURE = 1e-9


def _solve_with_ladder(planner, n_items: int, n_blocks: int, epsilon):
    last: Exception | None = None
    for tol in _SOLVE_TOLERANCE_LADDER:
        kwargs = {} if tol is None else {"tolerance": tol}
        try:
            plan = planner(n_items, n_blocks, epsilon, **kwargs)
        except RuntimeError as exc:
            last = exc
            continue
        if plan.predicted_failure < _MAX_RESIDUAL_FAILURE:
            return plan
        last = RuntimeError(
            f"solved plan's residual failure {plan.predicted_failure:.3e} "
            f"exceeds {_MAX_RESIDUAL_FAILURE}"
        )
    raise last


def _simplified(n_items: int, n_blocks: int, epsilon):
    return plan_simplified_schedule(n_items, n_blocks)  # no epsilon to choose


class FamilyPlanner(NamedTuple):
    """How one method's plan is found.

    Attributes:
        option: the request option key that carries an explicit plan.
        plan_type: the plan class that key must hold.
        solve: ``(n_items, n_blocks, epsilon) -> plan``, cached per process.
    """

    option: str
    plan_type: type
    solve: Callable


FAMILY: dict[str, FamilyPlanner] = {
    "grk": FamilyPlanner(
        "schedule", GRKSchedule, lru_cache(maxsize=256)(plan_schedule)
    ),
    "grk-simplified": FamilyPlanner(
        "schedule", SimplifiedSchedule, lru_cache(maxsize=256)(_simplified)
    ),
    "grk-sure-success": FamilyPlanner(
        "plan", SureSuccessPlan,
        lru_cache(maxsize=256)(partial(_solve_with_ladder, plan_sure_success)),
    ),
    "grk-cwb": FamilyPlanner(
        "plan", CWBPlan,
        lru_cache(maxsize=256)(partial(_solve_with_ladder, plan_cwb)),
    ),
}


def resolve_plan(request):
    """The plan *request* runs: its own ``options[key]`` or the cached one.

    *request* needs ``method``, ``n_items``, ``n_blocks``, ``epsilon`` and
    ``option(key)`` (a :class:`~repro.engine.request.SearchRequest`).

    Raises:
        ValueError: the explicit plan has the wrong type or geometry.
        RuntimeError: no phase solve reached its tolerance ladder.
    """
    option, plan_type, solve = FAMILY[request.method]
    plan = request.option(option)
    if plan is None:
        return solve(request.n_items, request.n_blocks, request.epsilon)
    if not isinstance(plan, plan_type):
        raise ValueError(
            f"{request.method} takes a {plan_type.__name__} in "
            f"options[{option!r}] (got {type(plan).__name__})"
        )
    spec = plan.spec
    if spec.n_items != request.n_items or spec.n_blocks != request.n_blocks:
        raise ValueError(
            f"{option} is for (N={spec.n_items}, K={spec.n_blocks}), but the "
            f"request has (N={request.n_items}, K={request.n_blocks})"
        )
    return plan

"""Closed-form engine tier: huge-N answers without a statevector.

The source papers give success probability and query count in closed form
as functions of ``(N, K, l1, l2)``; this package registers one
:class:`AnalyticModel` per method that has such a form and lets the
engine answer probability-class requests in O(1) at ``N = 2**40`` and
beyond — the simulator fleet is reserved for requests that genuinely
need amplitudes or samples.

Importing this package registers the built-in models.  See
:mod:`repro.analytic.models` for the registry and
:mod:`repro.analytic.engine` for report shaping and the analytic half of
:func:`repro.engine.route`, the one tier decision.
"""

from repro.analytic.engine import (
    ANALYTIC_BATCH_ALL_TARGETS_MAX,
    evaluate_analytic,
    evaluate_analytic_batch,
    resolve_model,
)
from repro.analytic.models import (
    ANALYTIC_MAX_N_ITEMS,
    ANALYTIC_SUCCESS_ATOL,
    AnalyticAnswer,
    AnalyticBatchAnswer,
    AnalyticModel,
    AnalyticUnsupported,
    available_models,
    describe_models,
    get_model,
    has_model,
    register_builtin_models,
    register_model,
    unregister_model,
)

__all__ = [
    "ANALYTIC_MAX_N_ITEMS",
    "ANALYTIC_SUCCESS_ATOL",
    "ANALYTIC_BATCH_ALL_TARGETS_MAX",
    "AnalyticAnswer",
    "AnalyticBatchAnswer",
    "AnalyticModel",
    "AnalyticUnsupported",
    "available_models",
    "describe_models",
    "get_model",
    "has_model",
    "register_builtin_models",
    "register_model",
    "unregister_model",
    "evaluate_analytic",
    "evaluate_analytic_batch",
    "resolve_model",
]

register_builtin_models(replace=True)

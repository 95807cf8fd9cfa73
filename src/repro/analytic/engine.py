"""The analytic half of routing, and closed-form answers as normal reports.

This is the glue between the :mod:`repro.analytic.models` registry and the
:class:`~repro.engine.engine.SearchEngine`: :func:`resolve_model` is the
closed-form half of :func:`repro.engine.route`, and
:func:`evaluate_analytic` / :func:`evaluate_analytic_batch` shape the
routed model's :class:`~repro.analytic.models.AnalyticAnswer` (one call,
from ``evaluate``) or :class:`~repro.analytic.models.AnalyticBatchAnswer`
(a whole batch, from one ``evaluate_batch`` call) into the same
``SearchReport`` / ``BatchReport`` every simulated run produces — same
cache, same wire, same gateway encoding, zero shards, no executor.

Routing rules (:func:`repro.engine.route`; documented in the README
"Analytic fast path" section):

- ``engine="simulate"`` always simulates.
- ``engine="analytic"`` forces the closed-form tier and *raises*
  (:class:`~repro.analytic.models.AnalyticUnsupported`) when no model
  covers the request — the caller asked for a tier that cannot answer.
- ``engine="auto"`` routes to the analytic tier exactly when the caller
  asked for ``wants="probability"``, did not ask to trace, and a
  registered model's structural check accepts the request; anything else
  (including a check failure) falls through to simulation.

Evaluation happens under an ``analytic.eval`` span so stage-latency
attribution shows the closed-form tier next to ``shards.plan`` /
``merge`` / worker compute in the same flame tree.
"""

from __future__ import annotations

from repro.analytic.models import AnalyticUnsupported, get_model, has_model
from repro.engine.report import BatchReport, SearchReport
from repro.engine.request import batch_targets

__all__ = [
    "ANALYTIC_BATCH_ALL_TARGETS_MAX",
    "resolve_model",
    "evaluate_analytic",
    "evaluate_analytic_batch",
]

#: Largest ``N`` for which a batch with ``targets=None`` materialises the
#: all-targets sweep.  Per-target analytic answers are O(1), but *listing*
#: 2**40 targets is not; past this bound the engine refuses the batch and
#: the caller must pass explicit targets.
ANALYTIC_BATCH_ALL_TARGETS_MAX = 1 << 20


def resolve_model(request):
    """The checked model that answers *request*, or ``None`` to simulate.

    :func:`repro.engine.route` calls it for ``engine="analytic"``, and for
    an ``engine="auto"`` request that wants ``"probability"`` untraced.

    Raises:
        AnalyticUnsupported: ``engine="analytic"`` was forced but no model
            covers the request (unknown model, bad geometry, unmodelled
            options, or a ``wants`` that needs the statevector).
    """
    if request.engine == "analytic":
        if request.wants in ("amplitudes", "samples"):
            raise AnalyticUnsupported(
                f"wants={request.wants!r} needs the statevector tier; the "
                "analytic tier answers probability/report requests only"
            )
        if request.trace:
            raise AnalyticUnsupported(
                "trace=True needs the statevector tier (stage snapshots "
                "have no closed form)"
            )
    elif not has_model(request.method):
        return None
    model = get_model(request.method)
    try:
        model.check(request)
    except AnalyticUnsupported:
        if request.engine == "analytic":
            raise
        return None
    return model


def _answer_to_schedule(answer, model) -> dict:
    schedule = {
        "engine": "analytic",
        "regime": model.regime,
        "answer_kind": answer.answer_kind,
    }
    schedule.update(answer.schedule)
    return schedule


def _target_for(request, database) -> int | None:
    if request.target is not None:
        return request.target
    if database is not None:
        marked = database.reveal_marked()
        if len(marked) == 1:
            return next(iter(marked))
        if len(marked) > 1:
            raise AnalyticUnsupported(
                f"database has {len(marked)} marked items; the analytic "
                "models cover the unique-target problem"
            )
    return None


def evaluate_analytic(request, model, database=None) -> SearchReport:
    """Answer *request* from *model*, as a ``SearchReport``.

    The report's ``backend`` is ``"analytic"`` and its ``schedule``
    carries ``{"engine": "analytic", "regime": ..., "answer_kind": ...}``
    plus the model's provenance, so provenance-reading callers (cache
    encode, gateway reply, CLI rendering) see which tier answered without
    any new report fields.

    Args:
        request: the typed problem description (any ``N`` up to the
            model's bound — no state is allocated).
        model: the model whose check accepted *request*
            (:attr:`repro.engine.Route.model`); it is not checked again.
        database: optional database; a unique marked item doubles as the
            target when ``request.target`` is ``None``.  Queries are
            *not* counted on it: nothing probes the oracle.
    """
    from repro.engine.methods import ANALYTIC_BACKEND
    from repro.observability.spans import span

    target = _target_for(request, database)
    with span("analytic.eval", method=request.method) as sp:
        answer = model.evaluate(request, target)
        sp.attrs["regime"] = model.regime
        sp.attrs["answer_kind"] = answer.answer_kind
        sp.attrs["n_items"] = request.n_items
    return SearchReport(
        method=request.method,
        backend=ANALYTIC_BACKEND,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=answer.block_guess,
        success_probability=answer.success_probability,
        queries=answer.queries,
        schedule=_answer_to_schedule(answer, model),
        answer=answer.block_guess,
        raw=answer,
    )


def evaluate_analytic_batch(request, model, targets=None) -> BatchReport:
    """Closed-form batch — zero shards, no executor, no per-row loop.

    *model* is the model whose check accepted *request*
    (:attr:`repro.engine.Route.model`); it is not checked again.  Its
    ``evaluate_batch`` answers every row at once: one scalar evaluation
    per geometry plus numpy arithmetic on the target array, so a batch
    costs well under a microsecond per row.  Its rows equal per-row
    ``evaluate`` answers exactly.  An
    :class:`~repro.analytic.models.AnalyticUnsupported` it raises
    propagates, so ``engine="auto"`` falls through to simulation as it
    does for a single call.  Targets go through
    :func:`~repro.engine.request.batch_targets`, the simulate tier's
    validation; ``None`` lists every address, which the engine allows
    only up to :data:`ANALYTIC_BATCH_ALL_TARGETS_MAX` items.
    """
    from repro.engine.methods import ANALYTIC_BACKEND
    from repro.observability.spans import span

    targets = batch_targets(targets, request.n_items)
    with span("analytic.eval", method=request.method, rows=targets.size) as sp:
        answer = model.evaluate_batch(request, targets)
        sp.attrs["regime"] = model.regime
        sp.attrs["n_items"] = request.n_items
    return BatchReport(
        method=request.method,
        backend=ANALYTIC_BACKEND,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        targets=targets,
        success_probabilities=answer.success_probabilities,
        block_guesses=answer.block_guesses,
        queries=answer.queries,
        schedule=_answer_to_schedule(answer, model),
        execution={"engine": "analytic", "n_shards": 0},
    )

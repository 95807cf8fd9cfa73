"""Tier resolution and evaluation: closed-form answers as normal reports.

This is the glue between the :mod:`repro.analytic.models` registry and the
:class:`~repro.engine.engine.SearchEngine`: :func:`resolve_engine_tier`
decides whether a request runs closed-form or on the statevector tier, and
:func:`evaluate_analytic` / :func:`evaluate_analytic_batch` shape a model's
:class:`~repro.analytic.models.AnalyticAnswer` (one call, from
``evaluate``) or :class:`~repro.analytic.models.AnalyticBatchAnswer` (a
whole batch, from one ``evaluate_batch`` call) into the same
``SearchReport`` / ``BatchReport`` every simulated run produces — same
cache, same wire, same gateway encoding, zero shards, no executor.

Routing rules (also enforced by the gateway schema and documented in the
README "Analytic fast path" section):

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
    "resolve_engine_tier",
    "analytic_eligible",
    "evaluate_analytic",
    "evaluate_analytic_batch",
]

#: Largest ``N`` for which a batch with ``targets=None`` materialises the
#: all-targets sweep.  Per-target analytic answers are O(1), but *listing*
#: 2**40 targets is not; past this bound the caller must pass explicit
#: targets.
ANALYTIC_BATCH_ALL_TARGETS_MAX = 1 << 20


def resolve_engine_tier(request) -> str:
    """``"analytic"`` or ``"simulate"`` for *request*, applying the rules.

    Raises:
        AnalyticUnsupported: ``engine="analytic"`` was forced but no model
            covers the request (unknown model, bad geometry, unmodelled
            options, or a ``wants`` that needs the statevector).
    """
    if request.engine == "simulate":
        return "simulate"
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
        get_model(request.method).check(request)
        return "analytic"
    # engine == "auto": opt in via wants="probability", never by surprise.
    if request.wants != "probability" or request.trace:
        return "simulate"
    if not has_model(request.method):
        return "simulate"
    try:
        get_model(request.method).check(request)
    except AnalyticUnsupported:
        return "simulate"
    return "analytic"


def analytic_eligible(request) -> bool:
    """Would *request* resolve to the analytic tier?  Never raises.

    The gateway uses this to pick the engine-aware ``n_items`` bound
    before the request object exists, so it also accepts any object with
    ``engine`` / ``wants`` / ``trace`` / ``method`` attributes.
    """
    try:
        return resolve_engine_tier(request) == "analytic"
    except (AnalyticUnsupported, ValueError):
        return False


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


def evaluate_analytic(request, database=None) -> SearchReport:
    """Answer *request* from its registered model, as a ``SearchReport``.

    The report's ``backend`` is ``"analytic"`` and its ``schedule``
    carries ``{"engine": "analytic", "regime": ..., "answer_kind": ...}``
    plus the model's provenance, so provenance-reading callers (cache
    encode, gateway reply, CLI rendering) see which tier answered without
    any new report fields.

    Args:
        request: the typed problem description (any ``N`` up to the
            model's bound — no state is allocated).
        database: optional database; a unique marked item doubles as the
            target when ``request.target`` is ``None``.  Queries are
            *not* counted on it: nothing probes the oracle.
    """
    from repro.engine.methods import ANALYTIC_BACKEND
    from repro.observability.spans import span

    model = get_model(request.method)
    model.check(request)
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


def evaluate_analytic_batch(request, targets=None) -> BatchReport:
    """Closed-form batch — zero shards, no executor, no per-row loop.

    The model's ``evaluate_batch`` answers every row at once: one scalar
    evaluation per geometry plus numpy arithmetic on the target array, so
    a batch costs well under a microsecond per row.  Its rows equal
    per-row ``evaluate`` answers exactly.  An
    :class:`~repro.analytic.models.AnalyticUnsupported` it raises
    propagates, so ``engine="auto"`` falls through to simulation as it
    does for a single call.  Targets go through
    :func:`~repro.engine.request.batch_targets`, the simulate tier's
    validation.

    ``targets=None`` materialises the all-targets sweep only up to
    :data:`ANALYTIC_BATCH_ALL_TARGETS_MAX` items; beyond that, listing the
    targets would itself be O(N) memory, so the caller must pass an
    explicit (small) collection.
    """
    from repro.engine.methods import ANALYTIC_BACKEND
    from repro.observability.spans import span

    model = get_model(request.method)
    model.check(request)
    if targets is None and request.n_items > ANALYTIC_BATCH_ALL_TARGETS_MAX:
        raise AnalyticUnsupported(
            f"all-targets analytic batch at n_items={request.n_items} "
            f"would materialise > {ANALYTIC_BATCH_ALL_TARGETS_MAX} "
            "targets; pass an explicit targets collection"
        )
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

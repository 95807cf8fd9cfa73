"""Versioned JSON schema for edge requests and replies — **no pickle**.

The intra-fleet wire (:mod:`repro.service.wire`) ships pickles because both
ends are trusted and numpy state must round-trip bit-exactly.  The edge is
the opposite trust regime: anything may connect, so the gateway speaks only
**data** — a versioned JSON object schema with strict validation, decoded
into the same typed :class:`~repro.engine.request.SearchRequest` the rest
of the stack executes.  Nothing in ``repro.gateway`` imports :mod:`pickle`
(pinned by ``tests/gateway/test_no_pickle.py``); pickle remains only for
SHA-256-verified intra-cluster cache payloads.

**Schema versioning rule** (the edge analogue of the wire rule): any change
an old client cannot survive — removing or renaming a field, changing a
field's type or meaning, tightening validation so previously-valid
payloads now reject — MUST bump :data:`SCHEMA_VERSION`.  *Adding* optional
request fields or new reply fields is compatible and does not bump.
Requests may pin ``"schema_version"``; the gateway rejects pinned versions
it does not speak, and every reply envelope states the version it was
encoded at.

Validation philosophy: collect **every** field error before rejecting, so
a client fixes its payload in one round trip.  :class:`SchemaError` carries
the machine-readable ``[{"field", "message"}, ...]`` list that the gateway
returns as a structured 400 body.  One bound waits for a second round:
whether a request simulates is the engine's routing decision
(:func:`repro.engine.route`), which needs a valid request, so the
simulation bound on ``n_items`` is checked only once every field is valid
and never joins the first round's error list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.util.jsonsafe import json_safe

__all__ = [
    "SCHEMA_VERSION",
    "MAX_SCHEMA_N_ITEMS",
    "MAX_SCHEMA_TARGETS",
    "SchemaError",
    "DecodedSubmit",
    "decode_submit",
    "encode_report",
    "encode_error",
    "encode_methods",
    "CONTENT_TYPE_JSON",
    "dumps",
    "loads",
]

#: Version of the edge request/reply schema (see the rule in the module
#: docstring).  Independent of the intra-fleet ``WIRE_VERSION``.  One
#: exception to the rule: the kernel-backend request field and its
#: methods reply field went without a bump, since no client outside this
#: build exists and a payload still carrying the field gets a 400 that
#: names it.
SCHEMA_VERSION = 1

#: Largest database size the edge accepts for requests that will
#: *simulate* (:func:`repro.engine.route` says so).  The simulator tiers
#: top out far below this; the bound exists so a hostile payload cannot
#: ask the planner to model a 2**60-item state.  Requests the analytic
#: tier answers allocate no state and go up to the models' own validity
#: limit, :data:`repro.analytic.ANALYTIC_MAX_N_ITEMS`.
MAX_SCHEMA_N_ITEMS = 1 << 24

#: Largest explicit batch-target list the edge accepts in one request.
MAX_SCHEMA_TARGETS = 1 << 16

#: Nesting depth / entry bound for the free-form ``options`` mapping.
MAX_OPTIONS_ENTRIES = 32

CONTENT_TYPE_JSON = "application/json"

_DTYPES = ("complex128", "complex64")


class SchemaError(ValueError):
    """A payload failed validation; ``errors`` lists every offending field.

    Attributes:
        errors: ``[{"field": name, "message": why}, ...]`` — one entry per
            problem, in payload-field order, ready to serialise into the
            gateway's structured 400 body.
    """

    def __init__(self, errors: list[dict]):
        self.errors = list(errors)
        summary = "; ".join(f"{e['field']}: {e['message']}" for e in self.errors)
        super().__init__(f"invalid request payload ({summary})")


@dataclass(frozen=True)
class DecodedSubmit:
    """A validated edge submit, ready for ``SearchService.submit``."""

    request: Any  # repro.engine.SearchRequest
    targets: list[int] | None
    batch: bool
    timeout: float | None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_float(value) -> float | None:
    """A JSON number as a float; ``None`` for anything else, including an
    integer beyond float range (``10**400`` is valid JSON)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _check_options(options, errors) -> dict:
    if options is None:
        return {}
    if not isinstance(options, dict):
        errors.append({"field": "options", "message": "must be an object"})
        return {}
    if len(options) > MAX_OPTIONS_ENTRIES:
        errors.append({
            "field": "options",
            "message": f"at most {MAX_OPTIONS_ENTRIES} entries",
        })
        return {}
    for key, value in options.items():
        if not isinstance(key, str):
            errors.append({"field": "options",
                           "message": f"non-string key {key!r}"})
            return {}
        if not isinstance(value, (str, int, float, bool, type(None))):
            errors.append({
                "field": f"options.{key}",
                "message": "edge options must be JSON scalars",
            })
    return dict(options)


_KNOWN_FIELDS = frozenset({
    "schema_version", "n_items", "n_blocks", "method", "backend", "epsilon",
    "target", "targets", "batch", "seed", "dtype", "row_threads",
    "options", "timeout", "wants", "engine",
})


def decode_submit(payload, *, batch: bool = False) -> DecodedSubmit:
    """Validate one ``POST /v1/search`` (or ``/v1/batch``) body.

    Every field problem is collected into one :class:`SchemaError`; a
    clean payload returns a :class:`DecodedSubmit` whose ``request``
    passed the engine's own constructor validation as well, and whose
    ``n_items`` is within :data:`MAX_SCHEMA_N_ITEMS` if the engine's route
    simulates it (checked last, as a second :class:`SchemaError`).

    Args:
        payload: the decoded JSON body (must be an object).
        batch: validate under the batch schema (``targets`` allowed,
            ``target`` not required).
    """
    from repro.analytic import ANALYTIC_MAX_N_ITEMS, has_model
    from repro.engine import route
    from repro.engine.registry import available_methods
    from repro.engine.request import SearchRequest
    from repro.kernels import ExecutionPolicy

    errors: list[dict] = []
    if not isinstance(payload, dict):
        raise SchemaError([{"field": "", "message": "body must be a JSON object"}])

    for field in sorted(set(payload) - _KNOWN_FIELDS):
        errors.append({"field": field, "message": "unknown field"})

    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errors.append({
            "field": "schema_version",
            "message": f"this gateway speaks schema v{SCHEMA_VERSION}, "
                       f"got {version!r}",
        })

    n_items = payload.get("n_items")
    if not _is_int(n_items) or n_items < 2:
        errors.append({"field": "n_items",
                       "message": "required: an integer >= 2"})
        n_items = None
    elif n_items > ANALYTIC_MAX_N_ITEMS:
        errors.append({
            "field": "n_items",
            "message": f"{n_items} exceeds the analytic-tier bound "
                       f"{ANALYTIC_MAX_N_ITEMS}",
        })
        n_items = None

    n_blocks = payload.get("n_blocks")
    if not _is_int(n_blocks) or n_blocks < 1:
        errors.append({"field": "n_blocks",
                       "message": "required: an integer >= 1"})
        n_blocks = None
    elif n_items is not None and n_items % n_blocks != 0:
        errors.append({
            "field": "n_blocks",
            "message": f"{n_blocks} does not divide n_items={n_items}",
        })

    method = payload.get("method", "grk")
    if not isinstance(method, str) or not method:
        errors.append({"field": "method",
                       "message": "must be a non-empty string"})
    else:
        known = available_methods()
        if method not in known:
            errors.append({
                "field": "method",
                "message": f"unknown method {method!r}; "
                           f"one of: {', '.join(known)}",
            })

    # Optional fields — compatible schema growth, no version bump: absent
    # means the historical behaviour (full report, planner-routed tier).
    from repro.engine.request import ENGINE_VALUES, WANTS_VALUES

    wants = payload.get("wants", "report")
    if wants not in WANTS_VALUES:
        errors.append({
            "field": "wants",
            "message": f"must be one of: {', '.join(WANTS_VALUES)}",
        })
        wants = "report"

    engine = payload.get("engine", "auto")
    if engine not in ENGINE_VALUES:
        errors.append({
            "field": "engine",
            "message": f"must be one of: {', '.join(ENGINE_VALUES)}",
        })
        engine = "auto"

    if engine == "analytic" and isinstance(method, str) and not has_model(method):
        errors.append({
            "field": "engine",
            "message": f"method {method!r} has no analytic model; "
                       "see GET /v1/methods for the analytic column",
        })

    backend = payload.get("backend")
    if backend is not None and (not isinstance(backend, str) or not backend):
        errors.append({"field": "backend",
                       "message": "must be a non-empty string or null"})

    epsilon = payload.get("epsilon")
    if epsilon is not None:
        epsilon = _as_float(epsilon)
        if epsilon is None or not 0.0 < epsilon < 1.0:
            errors.append({"field": "epsilon",
                           "message": "must be a number in (0, 1) or null"})
            epsilon = None

    target = payload.get("target")
    if target is not None:
        if not _is_int(target) or target < 0:
            errors.append({"field": "target",
                           "message": "must be a non-negative integer or null"})
            target = None
        elif n_items is not None and target >= n_items:
            errors.append({
                "field": "target",
                "message": f"{target} out of range for n_items={n_items}",
            })
            target = None

    targets = payload.get("targets")
    if targets is not None and not batch:
        errors.append({"field": "targets",
                       "message": "only valid for batch requests"})
        targets = None
    elif targets is not None:
        if not isinstance(targets, list) or not targets:
            errors.append({"field": "targets",
                           "message": "must be a non-empty array or null"})
            targets = None
        elif len(targets) > MAX_SCHEMA_TARGETS:
            errors.append({
                "field": "targets",
                "message": f"{len(targets)} targets exceed the edge bound "
                           f"{MAX_SCHEMA_TARGETS}",
            })
            targets = None
        else:
            bad = [t for t in targets if not _is_int(t) or t < 0
                   or (n_items is not None and t >= n_items)]
            if bad:
                errors.append({
                    "field": "targets",
                    "message": f"{len(bad)} entr{'y' if len(bad) == 1 else 'ies'} "
                               f"out of range (first: {bad[0]!r})",
                })
                targets = None
            else:
                targets = [int(t) for t in targets]

    want_batch = payload.get("batch", batch)
    if not isinstance(want_batch, bool):
        errors.append({"field": "batch", "message": "must be a boolean"})
        want_batch = batch
    elif want_batch != batch:
        errors.append({
            "field": "batch",
            "message": "conflicts with the endpoint (/v1/search is "
                       "single-shot; /v1/batch is batched)",
        })

    seed = payload.get("seed")
    if seed is not None and not _is_int(seed):
        errors.append({"field": "seed", "message": "must be an integer or null"})
        seed = None

    dtype = payload.get("dtype", "complex128")
    if dtype not in _DTYPES:
        errors.append({
            "field": "dtype",
            "message": f"must be one of: {', '.join(_DTYPES)}",
        })
        dtype = "complex128"

    row_threads = payload.get("row_threads", "auto")
    if row_threads != "auto" and (not _is_int(row_threads) or row_threads < 1):
        errors.append({"field": "row_threads",
                       "message": "must be an integer >= 1 or 'auto'"})
        row_threads = "auto"

    options = _check_options(payload.get("options"), errors)

    timeout = payload.get("timeout")
    if timeout is not None:
        timeout = _as_float(timeout)
        if timeout is None or not timeout > 0:
            errors.append({"field": "timeout",
                           "message": "must be a positive number or null"})
            timeout = None

    if errors:
        raise SchemaError(errors)

    try:
        request = SearchRequest(
            n_items=n_items,
            n_blocks=n_blocks,
            method=method,
            backend=backend,
            epsilon=epsilon,
            target=target,
            rng=seed,
            policy=ExecutionPolicy(dtype=dtype, row_threads=row_threads),
            options=options,
            wants=wants,
            engine=engine,
        )
    except ValueError as exc:
        # Cross-field constraints the engine enforces beyond the per-field
        # checks above (kept as the single source of truth for them).
        raise SchemaError([{"field": "", "message": str(exc)}]) from exc
    if n_items > MAX_SCHEMA_N_ITEMS:
        try:
            simulates = route(request).tier == "simulate"
        except ValueError:
            # The engine refuses the request with this same error before
            # it allocates anything, and the gateway answers it as a 400.
            simulates = False
        if simulates:
            raise SchemaError([{
                "field": "n_items",
                "message": f"{n_items} exceeds the simulation bound "
                           f"{MAX_SCHEMA_N_ITEMS}; probability-only "
                           "requests can go far beyond it via "
                           '"engine": "analytic" (or "engine": "auto" '
                           'with "wants": "probability")',
            }])
    return DecodedSubmit(request=request, targets=targets, batch=batch,
                         timeout=timeout)


# ------------------------------------------------------------------ replies

def encode_report(report) -> dict:
    """The versioned JSON reply envelope for a search or batch report.

    ``raw`` (method-native result objects, amplitude arrays) never crosses
    the edge; everything else is converted through
    :func:`repro.util.jsonsafe.json_safe` so numpy provenance scalars
    serialise cleanly.
    """
    from repro.engine.report import BatchReport

    if isinstance(report, BatchReport):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "batch",
            "method": report.method,
            "backend": report.backend,
            "n_items": int(report.n_items),
            "n_blocks": int(report.n_blocks),
            "n_rows": report.n_rows,
            "targets": json_safe(report.targets),
            "success_probabilities": json_safe(report.success_probabilities),
            "block_guesses": json_safe(report.block_guesses),
            "queries": json_safe(report.queries),
            "worst_success": report.worst_success,
            "all_correct": report.all_correct,
            "queries_per_run": report.queries_per_run,
            "schedule": json_safe(dict(report.schedule)),
            "execution": json_safe(dict(report.execution)),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "search",
        "method": report.method,
        "backend": report.backend,
        "n_items": int(report.n_items),
        "n_blocks": int(report.n_blocks),
        "block_guess": json_safe(report.block_guess),
        "answer": json_safe(report.answer),
        "success_probability": float(report.success_probability),
        "queries": int(report.queries),
        "schedule": json_safe(dict(report.schedule)),
    }


def encode_error(code: str, message: str, *, errors: list[dict] | None = None,
                 retry_after: float | None = None) -> dict:
    """The structured error envelope every non-2xx gateway reply carries.

    Args:
        code: machine-readable error class (``invalid-request``,
            ``rate-limited``, ``overloaded``, ``deadline``,
            ``unavailable``, ``internal``, ...).
        message: human-readable summary.
        errors: optional field-level detail (schema validation).
        retry_after: optional client backoff hint in seconds (also sent as
            the ``Retry-After`` header for 429/503).
    """
    body = {
        "schema_version": SCHEMA_VERSION,
        "kind": "error",
        "error": code,
        "message": message,
    }
    if errors:
        body["errors"] = [dict(e) for e in errors]
    if retry_after is not None:
        body["retry_after_s"] = round(float(retry_after), 3)
    return body


def encode_methods() -> dict:
    """The ``GET /v1/methods`` reply: the live method registry with the
    per-method ``analytic`` capability column, so edge clients can
    discover which methods the closed-form tier answers (``null`` =
    simulation only; otherwise the model's validity regime, ``exact`` vs
    large-``K`` ``asymptotic``, and its ``n_items`` bound)."""
    from repro.analytic import get_model, has_model
    from repro.engine.registry import available_methods, get_method

    methods = []
    for name in available_methods():
        spec = get_method(name)
        analytic = None
        if has_model(name):
            model = get_model(name)
            analytic = {
                "regime": model.regime,
                "max_n_items": model.max_n_items,
                "description": model.description,
            }
        methods.append({
            "name": name,
            "backends": list(spec.backends),
            "description": spec.description,
            "analytic": analytic,
        })
    return {"schema_version": SCHEMA_VERSION, "kind": "methods",
            "methods": methods}


# ----------------------------------------------------------- body encodings

def dumps(obj, content_type: str = CONTENT_TYPE_JSON) -> bytes:
    """Serialise a reply body as strict JSON, the edge's one encoding.

    ``allow_nan=False`` keeps the output strict — non-finite floats must
    have been normalised away upstream
    (:func:`repro.util.jsonsafe.json_safe` maps them to ``null``).

    Raises:
        ValueError: *content_type* is not :data:`CONTENT_TYPE_JSON`.
    """
    if content_type != CONTENT_TYPE_JSON:
        raise ValueError(f"unsupported reply encoding {content_type!r}")
    return json.dumps(obj, allow_nan=False).encode("utf-8")


def loads(data: bytes):
    """Decode a JSON request body, whatever its declared content type.

    Raises :class:`SchemaError` for undecodable bodies (the gateway maps it
    to a 400).
    """
    try:
        return json.loads(data.decode("utf-8"))
    except Exception as exc:
        raise SchemaError([{
            "field": "",
            "message": f"undecodable JSON body ({type(exc).__name__}: {exc})",
        }]) from exc

"""Conversion of arbitrary stats/report structures into JSON-safe values.

The serving stack accumulates telemetry from many layers — numpy scalars in
execution provenance, tuple-keyed dicts in ad-hoc counters, sets of
addresses, mapping proxies on frozen dataclasses — and all of it eventually
wants to leave the process as JSON: ``repro submit``, the gateway's
``GET /stats``, the Prometheus exposition assembled from the same snapshot.
:func:`json_safe` normalises a value into something :func:`json.dumps` (and
every strict JSON consumer) accepts, without the callers having to know
which layer produced which exotic type.

The transformation is lossy only where JSON forces it to be: non-string
mapping keys become strings (tuples join with ``:`` — ``("a", 1)`` becomes
``"a:1"`` — everything else through ``str``), sets become sorted lists,
NaN/Inf floats become ``None`` (strict JSON has no spelling for them).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence, Set

import numpy as np

__all__ = ["json_safe"]


def _safe_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return ":".join(str(part) for part in key)
    if isinstance(key, bool):
        return "true" if key else "false"
    return str(key)


def json_safe(value):
    """Recursively convert *value* into plain JSON-compatible types.

    Handles numpy scalars and arrays, non-string dict keys, tuples, sets,
    bytes (decoded as latin-1 — stats never carry real binary payloads, but
    a stray digest must not crash the endpoint), and non-finite floats
    (``None``).  Objects with no JSON analogue fall back to ``repr``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        return out if math.isfinite(out) else None
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [json_safe(item) for item in value.tolist()]
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, Mapping):
        return {_safe_key(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, Set):
        return sorted(json_safe(item) for item in value)
    if isinstance(value, Sequence):
        return [json_safe(item) for item in value]
    return repr(value)

"""The method registry: algorithms as data, mirroring the backend registry.

A *method* is one way of answering the partial-search question — the GRK
algorithm and its simplified and sure-success variants, the naive
K−1-block baseline, full Grover search, or the classical scans.  Each
is described by a :class:`MethodSpec` naming its compatible backends and
its adapter callables, and registered under a stable string name.  Adding a
new algorithm (e.g. the Korepin–Grover simplified partial search of
quant-ph/0504157) is a :func:`register_method` call, not a new top-level
function: the :class:`~repro.engine.engine.SearchEngine` facade dispatches
on the registry and callers never grow a new signature.

The built-in methods are registered by :mod:`repro.engine.methods` when
:mod:`repro.engine` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "MethodSpec",
    "register_method",
    "unregister_method",
    "get_method",
    "available_methods",
    "method_backends",
]


@dataclass(frozen=True)
class MethodSpec:
    """Registry entry for one search method.

    Attributes:
        name: stable registry key (kebab-case by convention).
        description: one-line summary shown in listings.
        backends: backend names this method can execute on, in preference
            order; the first entry is the default.
        run: adapter ``(request, backend, database) -> SearchReport``
            executing one search against a counted database.
        batch: adapter ``(request, backend, targets, executor) ->
            BatchReport`` answering one row per target.  Every method
            needs one; there is no per-target fallback.  Simulated
            methods run a program through the sharded sweep
            (:func:`repro.engine.plan.run_grk_batch_sharded`), dispatching
            its shards through ``executor``, the engine's shard executor;
            stateless methods answer in-process and leave it unused.
        needs_blocks: whether the method requires ``K >= 2`` (everything
            except full search).
        supports_trace: whether ``request.trace=True`` is honoured.
        honours_policy: whether the method's runners thread the request's
            :class:`~repro.kernels.ExecutionPolicy` into their kernels.
            When ``False`` (the classical scans and runners that pin
            float64 state) the engine normalises the request back to the
            default policy so shard plans and execution provenance stay
            truthful — a non-default policy is silently a no-op there,
            never a mis-sized shard.
    """

    name: str
    description: str
    backends: tuple[str, ...]
    run: Callable[..., Any]
    batch: Callable[..., Any]
    needs_blocks: bool = True
    supports_trace: bool = False
    honours_policy: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("method name must be non-empty")
        if not self.backends:
            raise ValueError(f"method {self.name!r} must declare >= 1 backend")

    @property
    def default_backend(self) -> str:
        """The backend used when a request leaves ``backend=None``."""
        return self.backends[0]

    def resolve_backend(self, backend: str | None) -> str:
        """Validate *backend* against this method (``None`` -> default).

        Raises:
            ValueError: when the name is not among :attr:`backends`.
        """
        if backend is None:
            return self.default_backend
        if backend not in self.backends:
            raise ValueError(
                f"method {self.name!r} does not support backend {backend!r} "
                f"(supported: {', '.join(self.backends)})"
            )
        return backend


_METHODS: dict[str, MethodSpec] = {}


def register_method(spec: MethodSpec, *, replace: bool = False) -> MethodSpec:
    """Register *spec* under ``spec.name``; returns it for chaining.

    Raises:
        ValueError: when the name is taken and ``replace`` is not set.
    """
    if spec.name in _METHODS and not replace:
        raise ValueError(
            f"method {spec.name!r} is already registered (pass replace=True "
            "to override)"
        )
    _METHODS[spec.name] = spec
    return spec


def unregister_method(name: str) -> None:
    """Remove a registered method (primarily for tests of the registry)."""
    _METHODS.pop(name, None)


def get_method(name: str) -> MethodSpec:
    """Look up a method by registry name.

    Raises:
        ValueError: for unknown names, listing the known ones.
    """
    try:
        return _METHODS[name]
    except KeyError:
        known = ", ".join(sorted(_METHODS)) or "<none registered>"
        raise ValueError(f"unknown method {name!r} (known: {known})") from None


def available_methods() -> tuple[str, ...]:
    """Sorted names of every registered method."""
    return tuple(sorted(_METHODS))


def method_backends(name: str) -> tuple[str, ...]:
    """The backend names method *name* supports (default first)."""
    return get_method(name).backends

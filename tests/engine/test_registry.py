"""Method registry: round-trips, backend resolution, registration rules."""

import pytest

from repro.core.backends import CIRCUIT_BACKENDS, KERNEL_BACKEND
from repro.engine import (
    MethodSpec,
    SearchEngine,
    SearchRequest,
    available_methods,
    get_method,
    method_backends,
    register_method,
    unregister_method,
)

BUILTINS = (
    "grk",
    "grk-sure-success",
    "naive-blocks",
    "grover-full",
    "classical",
)


class TestRegistryContents:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(available_methods())

    def test_every_method_has_a_batch_adapter(self):
        for name in available_methods():
            assert callable(get_method(name).batch)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_get_method_round_trip(self, name):
        spec = get_method(name)
        assert spec.name == name
        assert spec.backends
        assert spec.default_backend == spec.backends[0]
        assert method_backends(name) == spec.backends

    def test_grk_supports_all_simulator_backends(self):
        assert set(method_backends("grk")) == {KERNEL_BACKEND, *CIRCUIT_BACKENDS}

    def test_unknown_method_lists_known(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_method("grk-typo")

    def test_backend_resolution(self):
        spec = get_method("grk")
        assert spec.resolve_backend(None) == KERNEL_BACKEND
        assert spec.resolve_backend("compiled") == "compiled"
        with pytest.raises(ValueError, match="does not support backend"):
            spec.resolve_backend("analytic")


class TestEveryMethodOnEveryCompatibleBackend:
    """The registry's promise: method x compatible backend always executes."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_search_round_trip(self, name):
        for backend in method_backends(name):
            report = SearchEngine().search(
                SearchRequest(
                    n_items=64,
                    n_blocks=4,
                    method=name,
                    backend=backend,
                    target=37,
                    rng=11,
                )
            )
            assert report.method == name
            assert report.backend == backend
            assert report.block_guess == 37 // 16
            assert 0.0 <= report.success_probability <= 1.0 + 1e-12
            assert report.queries > 0
            assert report.provenance["method"] == name


class TestRegistration:
    def test_register_and_replace(self):
        spec = MethodSpec(
            name="test-noop",
            description="registry round-trip fixture",
            backends=("kernels",),
            run=lambda request, backend, database: None,
            batch=lambda request, backend, targets, executor: None,
        )
        try:
            register_method(spec)
            assert get_method("test-noop") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_method(spec)
            register_method(spec, replace=True)  # idempotent with replace
        finally:
            unregister_method("test-noop")
        with pytest.raises(ValueError):
            get_method("test-noop")

    def test_spec_needs_a_batch_adapter(self):
        with pytest.raises(TypeError, match="batch"):
            MethodSpec(name="no-batch", description="", backends=("kernels",),
                       run=lambda *a: None)

    def test_spec_needs_backends(self):
        with pytest.raises(ValueError, match="backend"):
            MethodSpec(
                name="broken", description="", backends=(),
                run=lambda *a: None, batch=lambda *a: None,
            )

"""The public API surface: imports, __all__, version, docstrings."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.util",
    "repro.statevector",
    "repro.oracle",
    "repro.circuits",
    "repro.grover",
    "repro.core",
    "repro.classical",
    "repro.lowerbounds",
    "repro.analysis",
    "repro.engine",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_top_level_all_resolves(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


class TestDocstrings:
    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestQuickstartSnippet:
    def test_readme_snippet_runs(self):
        # The docstring/README quickstart: the SearchEngine facade.
        from repro import SearchEngine, SearchRequest

        engine = SearchEngine()
        report = engine.search(
            SearchRequest(n_items=4096, n_blocks=4, target=2717, method="grk")
        )
        assert report.block_guess == 2717 // 1024
        assert report.queries < 3.1415 / 4 * 64
        assert report.success_probability > 0.999
        assert report.provenance["method"] == "grk"

    def test_legacy_snippet_still_runs(self):
        # The pre-engine entry points stay importable and correct (the
        # documented deprecation path keeps them alive).
        from repro import SingleTargetDatabase, run_partial_search

        db = SingleTargetDatabase(n_items=4096, target=2717)
        result = run_partial_search(db, n_blocks=4)
        assert result.block_guess == 2717 // 1024
        assert result.queries < 3.1415 / 4 * 64
        assert result.success_probability > 0.999


class TestImportCost:
    def test_engine_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize only serves cold plans (optimal epsilon, phase
        # solves); a fresh interpreter importing the engine must not pay
        # for it.  Run out of process: this pytest process has long since
        # imported it.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.engine; "
             "print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEngineSurface:
    def test_engine_exports_resolve(self):
        import repro.engine as engine

        for symbol in engine.__all__:
            assert hasattr(engine, symbol), f"repro.engine.__all__ lists {symbol}"

    def test_builtin_methods_cover_every_runner(self):
        from repro import available_methods

        assert set(available_methods()) >= {
            "grk",
            "grk-sure-success",
            "naive-blocks",
            "grover-full",
            "classical",
        }

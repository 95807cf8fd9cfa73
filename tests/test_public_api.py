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

    def test_package_metadata_reads_the_runtime_version(self):
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parent.parent
        project = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] \
            == {"attr": "repro.__version__"}


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


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run *code* in a fresh interpreter with this checkout's ``src`` first
    on its path (this pytest process has long since imported everything)."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env=env,
    )


class TestImportCost:
    def test_engine_import_leaves_scipy_optimize_unloaded(self):
        # A fresh interpreter importing the engine must not pay for
        # scipy.optimize.
        proc = _run_fresh(
            "import sys, repro.engine; print('scipy.optimize' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_default_batch_loads_no_multiprocessing(self):
        # A local batch runs its shards in-process; row threads are its
        # only parallelism, so no process-pool machinery loads, and its
        # executor lives in the engine, so none of the serving stack does.
        proc = _run_fresh("""
import sys
import repro.engine
report = repro.engine.SearchEngine().search_batch(
    repro.engine.SearchRequest(n_items=256, n_blocks=4))
assert report.execution["executor"] == "local"
roots = ("multiprocessing", "asyncio", "ssl")
print(sorted(m for m in sys.modules
             if m.split(".")[0] in roots or m.startswith("repro.service")))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_default_calls_route_without_the_analytic_tier(self):
        # The route's fast path: a request that cannot reach the analytic
        # tier never imports it.
        proc = _run_fresh("""
import sys
import repro.engine
engine = repro.engine.SearchEngine()
engine.search(repro.engine.SearchRequest(n_items=256, n_blocks=4, target=7))
engine.search_batch(repro.engine.SearchRequest(n_items=256, n_blocks=4))
print(sorted(m for m in sys.modules if m.startswith("repro.analytic")))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cold_plans_and_analytic_answers_need_no_scipy(self):
        # numpy is the only runtime dependency: every cold path (the 1-D
        # optima, the phase solves, the closed-form tier) runs with scipy
        # unimportable.
        proc = _run_fresh("""
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError

from repro.analytic import available_models
from repro.core.cwb import plan_cwb
from repro.core.optimizer import coefficient_table
from repro.core.parameters import plan_schedule
from repro.core.plans import FAMILY
from repro.core.simplified import plan_simplified_schedule, simplified_query_coefficient
from repro.core.sure_success import plan_sure_success
from repro.engine import SearchEngine, SearchRequest

plan_cwb(1024, 4)
plan_sure_success(1024, 4)
for n, k in ((1024, 4), (1 << 60, 8)):
    plan_schedule(n, k)
    plan_simplified_schedule(n, k)
    for method in ("grk-sure-success", "grk-cwb"):
        FAMILY[method].solve(n, k, None)
assert len(coefficient_table()) == 7
assert 0.6 < simplified_query_coefficient(8) < 0.7
engine = SearchEngine()
for method in available_models():
    report = engine.search(SearchRequest(
        n_items=1 << 20, n_blocks=8, method=method, target=3,
        wants="probability", engine="analytic"))
    assert report.backend == "analytic", (method, report.backend)
assert [m for m in sys.modules if m.split(".")[0] == "scipy"] == ["scipy"]
print("ok", len(available_models()))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == "ok"
        assert int(proc.stdout.split()[1]) >= 7


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

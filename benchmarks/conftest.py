"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper, named in
its module docstring.  Conventions:

- the computational kernel is timed with pytest-benchmark (``--benchmark-only``);
- the regenerated rows/series are rendered as ASCII and written to
  ``benchmarks/results/<name>.txt`` via the ``report`` fixture (and echoed to
  stdout, visible with ``pytest -s``), so the paper-facing numbers survive
  independent of pytest's capture settings;
- every bench *asserts* the qualitative shape the paper reports (who wins,
  rough factors, crossovers), so a regression in the science fails the
  bench run, not just the unit tests.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Write a named ASCII artifact to benchmarks/results/ and echo it."""

    def _write(name: str, text: str) -> pathlib.Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")
        return path

    return _write


def run_once(benchmark, fn, *args, **kwargs):
    """Time *fn* with a single measured round (for second-scale kernels)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

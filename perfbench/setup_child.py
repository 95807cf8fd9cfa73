"""Fresh-interpreter probes for the benchmark's cold paths.

Run as ``python3 perfbench/setup_child.py <mode> [args]`` with ``src`` on
``PYTHONPATH``; prints one JSON object as its last line.  The parent times
the whole process from spawn to exit; the child adds its own breakdown.

Modes:

- ``grk-allrows``: import the engine, then run the first batch of every
  (method, geometry) pair on a few targets (cold schedules and phase
  solves included).
- ``analytic-sweep``: import the engine, then answer one probability
  request per (method, geometry) of the grid and one small batch per
  method, counting the cold phase solves.
- ``plans``: time the public core planners cold, per (method, geometry).
- ``import <module>``: time one import.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

T0 = time.perf_counter()


def _grk_allrows() -> dict:
    from grk_allrows import GEOMETRIES, METHODS, SETUP_TARGETS, request

    from repro.engine import SearchEngine

    imported = time.perf_counter()
    engine = SearchEngine()
    first = {}
    for geometry, (n, k) in GEOMETRIES.items():
        for method in METHODS:
            t0 = time.perf_counter()
            engine.search_batch(request(method, n, k), targets=range(SETUP_TARGETS))
            first[f"{method}.{geometry}"] = time.perf_counter() - t0
    return {"import_s": imported - T0, "first_batch_s": first}


def _analytic_sweep() -> dict:
    import analytic_sweep as sweep

    from repro.engine import SearchEngine

    imported = time.perf_counter()
    engine = SearchEngine()
    solve_s = 0.0
    for n, k in sweep.GRID:
        for method in sweep.METHODS:
            t0 = time.perf_counter()
            engine.search(sweep.single_request(method, n, k, target=0))
            if method in sweep.PHASE_SOLVED:
                solve_s += time.perf_counter() - t0
    for method in sweep.METHODS:
        engine.search_batch(sweep.batch_request(method), targets=range(16))
    return {"import_s": imported - T0, "phase_solve_s": solve_s,
            "phase_solves": sweep.phase_solve_count()}


def _plans() -> dict:
    from grk_allrows import GEOMETRIES

    from repro.core.cwb import plan_cwb
    from repro.core.parameters import plan_schedule
    from repro.core.simplified import plan_simplified_schedule
    from repro.core.sure_success import plan_sure_success

    planners = {
        "grk": lambda n, k: plan_schedule(n, k),
        "grk-simplified": plan_simplified_schedule,
        "grk-sure-success": lambda n, k: plan_sure_success(n, k),
        "grk-cwb": lambda n, k: plan_cwb(n, k),
    }
    times = {}
    for geometry, (n, k) in GEOMETRIES.items():
        for method, plan in planners.items():
            t0 = time.perf_counter()
            plan(n, k)
            times[f"{method}.{geometry}"] = time.perf_counter() - t0
    return {"plan_s": times, "total_s": sum(times.values())}


def _import(module: str) -> dict:
    t0 = time.perf_counter()
    importlib.import_module(module)
    return {"module": module, "import_s": time.perf_counter() - t0}


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "grk-allrows":
        report = _grk_allrows()
    elif mode == "analytic-sweep":
        report = _analytic_sweep()
    elif mode == "plans":
        report = _plans()
    elif mode == "import" and len(argv) == 2:
        report = _import(argv[1])
    else:
        print(f"usage: setup_child.py grk-allrows|analytic-sweep|plans|"
              f"import MODULE (got {argv})", file=sys.stderr)
        return 2
    report["child_s"] = time.perf_counter() - T0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

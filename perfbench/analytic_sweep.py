"""``analytic-sweep``: the paper's (N, K) sweep answered in closed form.

In-process ``SearchEngine`` calls with ``wants="probability"`` and
``engine="auto"``, so the planner routes them to the analytic tier:

- single-target ``search`` calls over a fixed grid (N in 2^10, 2^20,
  2^60; K in 2, 8, 32, 64) for the seven methods with an analytic model,
  each with a seeded random target;
- ``search_batch`` calls of 2^14 seeded targets per method at N=2^20.

One *round* is a ``harness.HostProbe`` tick (untraced runs), one batch
per method and ``SINGLE_PASSES`` passes over the grid; rounds repeat
until ``--seconds`` have passed, and throughput comes from the
per-round rates (rows over time inside the calls).
Within a pass, each (method, N, K) is called ``GROUP`` times back to back
and one sample is the group's mean.  A grid point's latency is the median
of its samples over the whole run, and the reported p50/p90 are taken
over the grid points: a single call takes about 15 us, so a 10 us
interruption from the host would otherwise decide the p90.

All of this is interpreter work, the kind ``harness.HostProbe`` times,
so the figures are scaled by the probe, each by the matching statistic:
the latencies (medians) by the median tick, and the rate by the fast end
of both, the p90 round rate over the p10 tick, as a round's 2^14-row
batches are slowed by short host interruptions that the median round
keeps and the fast rounds shed.
"""

from __future__ import annotations

import math
import statistics
import time

import harness

#: N=2^30..2^50 are left out: their cold CWB solves (1-4 s each) would make
#: every set-up repeat cost tens of seconds.  N=2^10 and 2^60 still solve
#: cold (about 2 s per set-up).
GRID = tuple((1 << e, k) for e in (10, 20, 60) for k in (2, 8, 32, 64))
METHODS = ("grk", "grk-simplified", "grk-sure-success", "grk-cwb",
           "naive-blocks", "grover-full", "classical")
#: Methods whose models solve phases (cached per geometry after the first).
PHASE_SOLVED = ("grk-sure-success", "grk-cwb")
BATCH_N, BATCH_K, BATCH_ROWS = 1 << 20, 8, 1 << 14
SINGLE_PASSES = 5
GROUP = 8
#: Table 1 of the paper: queries / sqrt(N) for grk as N grows.
TABLE1 = {2: 0.555, 8: 0.664, 32: 0.725}
TABLE1_N = 1 << 60
#: The table is printed to three decimals.
TABLE1_TOL = 6e-4
#: Closed forms may land an ulp outside [0, 1].
ULP_SLACK = 1e-12
#: Below this N, rounding to whole queries can eat grk's saving at K=64.
CLAIM_MIN_N = 1 << 20


def single_request(method: str, n: int, k: int, target: int):
    from repro.engine import SearchRequest

    return SearchRequest(n_items=n, n_blocks=k, method=method, target=target,
                         wants="probability", engine="auto")


def batch_request(method: str):
    from repro.engine import SearchRequest

    return SearchRequest(n_items=BATCH_N, n_blocks=BATCH_K, method=method,
                         wants="probability", engine="auto")


def phase_solve_count() -> int:
    """Cold phase solves so far in this process (the models' plan-cache
    misses)."""
    from repro.analytic import models

    return sum(getattr(models, name).cache_info().misses
               for name in ("_cached_sure_success_plan", "_cached_cwb_plan"))


def _wrong_answer(report) -> bool:
    if report.backend != "analytic":
        return True
    return not -ULP_SLACK <= report.success_probability <= 1.0 + ULP_SLACK \
        or report.queries < 0


def _grid_claims(queries: dict) -> int:
    """Violations of the paper's claims in one pass over the grid:
    grk never costs more than grover-full and costs less from
    ``CLAIM_MIN_N`` up, and at N=2^60 grk's queries/sqrt(N) sits on the
    Table 1 coefficient."""
    bad = 0
    for n, k in GRID:
        grk, full = queries[("grk", n, k)], queries[("grover-full", n, k)]
        if grk > full or (n >= CLAIM_MIN_N and grk == full):
            bad += 1
        if n == TABLE1_N and k in TABLE1:
            if abs(queries[("grk", n, k)] / math.sqrt(n) - TABLE1[k]) > TABLE1_TOL:
                bad += 1
    return bad


class _Run:
    """Counters shared by the untraced and the traced loop."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.calls = 0
        self.served = 0
        self.rows = 0
        self.call_s = 0.0
        self.single_s: dict[tuple, list[float]] = {}
        self.round_rates: list[float] = []

    def single_pass(self, engine, rng, call):
        queries = {}
        for n, k in GRID:
            for method in METHODS:
                reqs = [single_request(method, n, k, rng.randrange(n))
                        for _ in range(GROUP)]
                t0 = time.perf_counter()
                reports = [call(lambda: engine.search(req)) for req in reqs]
                dt = time.perf_counter() - t0
                self.single_s.setdefault((method, n, k), []).append(dt / GROUP)
                for report in reports:
                    self._count(report, 1, dt / GROUP, _wrong_answer(report))
                queries[(method, n, k)] = reports[-1].queries
        claims = _grid_claims(queries)
        self.attempted += 1
        self.failed += claims

    def batches(self, engine, np_rng, call):
        for method in METHODS:
            targets = np_rng.choice(BATCH_N, BATCH_ROWS, replace=False)
            req = batch_request(method)
            t0 = time.perf_counter()
            report = call(lambda: engine.search_batch(req, targets=targets))
            dt = time.perf_counter() - t0
            success = report.success_probabilities
            wrong = report.backend != "analytic" or report.n_rows != BATCH_ROWS \
                or not ((-ULP_SLACK <= success) & (success <= 1.0 + ULP_SLACK)).all()
            self._count(report, BATCH_ROWS, dt, wrong)

    def _count(self, report, rows, dt, wrong):
        self.attempted += 1
        self.calls += 1
        self.rows += rows
        self.call_s += dt
        if report.backend == "analytic":
            self.served += 1
        if wrong:
            self.failed += 1


def _rngs(rng):
    import numpy as np

    return np.random.default_rng(rng.getrandbits(64))


def _warm(engine):
    for n, k in GRID:
        for method in METHODS:
            engine.search(single_request(method, n, k, 0))
    for method in METHODS:
        engine.search_batch(batch_request(method), targets=range(16))


def _rounds(engine, rng, seconds: float, single_call=None, batch_call=None,
            probe=None):
    """Rounds until *seconds* have passed; the optional wrappers run each
    call (the traced run records spans through them), and *probe* ticks
    once per round."""
    direct = lambda fn: fn()  # noqa: E731
    np_rng = _rngs(rng)
    run = _Run()
    started = time.perf_counter()
    while True:
        if probe is not None:
            probe.tick()
        rows, call_s = run.rows, run.call_s
        run.batches(engine, np_rng, batch_call or direct)
        for _ in range(SINGLE_PASSES):
            run.single_pass(engine, rng, single_call or direct)
        run.rounds += 1
        run.round_rates.append((run.rows - rows) / (run.call_s - call_s))
        if time.perf_counter() - started >= seconds:
            return run


def measure(seconds: float, rng) -> dict:
    from repro.engine import SearchEngine

    engine = SearchEngine()
    _warm(engine)
    probe = harness.HostProbe()
    run = _rounds(engine, rng, seconds, probe=probe)
    lat = harness.summarize(statistics.median(v) for v in run.single_s.values())
    fast_rate = harness.percentile(run.round_rates, 90.0)
    scale = probe.scale()
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": run.rounds,
        "rows_per_s": fast_rate / probe.scale(10.0),
        "latency": {"n": lat["n"], "p50_ms": lat["p50"] * 1e3 * scale,
                    "p90_ms": lat["p90"] * 1e3 * scale,
                    "beyond_p90": lat["beyond_p90"]},
        "samples_per_grid_point": min(len(v) for v in run.single_s.values()),
        "served_ratio": run.served / run.calls,
        "probe": probe.summary(),
        "unscaled": {"rows_per_s_p90_round": fast_rate,
                     "rows_per_s_median_round": statistics.median(run.round_rates),
                     "latency_p50_ms": lat["p50"] * 1e3,
                     "latency_p90_ms": lat["p90"] * 1e3},
    }


def traced(seconds: float, rng) -> tuple[dict, dict]:
    """Rounds under a span recorder for *seconds*, plus one cold child."""
    from repro.engine import SearchEngine

    _, cold = harness.run_child(["analytic-sweep"])
    engine = SearchEngine()
    _warm(engine)
    traces: list = []
    batch_traces: list = []

    def call_into(sink):
        def call(fn):
            report, spans = harness.recorded(fn, "bench.analytic")
            sink.append(spans)
            return report
        return call

    run = _rounds(engine, rng, seconds, call_into(traces), call_into(batch_traces))
    single_evals = [s["duration_s"] for s in harness.spans_named(traces, "analytic.eval")]
    batch_eval_s = sum(s["duration_s"]
                       for s in harness.spans_named(batch_traces, "analytic.eval"))
    requests = len(traces) + len(batch_traces)
    breakdown = harness.stage_breakdown(traces + batch_traces)
    metrics = {
        "analytic.eval_us": harness.percentile(single_evals, 50.0) * 1e6,
        "analytic.batch_us_per_row":
            batch_eval_s / (len(batch_traces) * BATCH_ROWS) * 1e6,
        "analytic.phase_solves": cold["phase_solves"],
        "analytic.phase_solve_s": cold["phase_solve_s"],
        "analytic.served_ratio": run.served / requests,
        "analytic.fallthroughs": requests - run.served,
        "trace.analytic-sweep.unattributed_share": breakdown["unattributed_share"],
    }
    detail = {
        "attempted": run.attempted,
        "failed": run.failed,
        "single_calls": len(traces),
        "batch_calls": len(batch_traces),
        "stages_s": breakdown["stages"],
        "total_s": breakdown["total_s"],
    }
    return metrics, detail

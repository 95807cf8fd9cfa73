"""``gateway-mix``: the real serving stack, out of process, under load.

Boots ``repro gateway --remote-worker`` plus one ``repro worker`` (both
``python3 -m`` from ``src``) and drives ``POST /v1/search`` and
``POST /v1/batch`` over ``CONNECTIONS`` persistent keep-alive connections,
in two phases on the same booted stack:

- open loop: arrivals follow a seeded schedule at a fixed ``RATE`` (a
  Poisson process conditioned on fixed per-class counts); each latency
  runs from the request's due time, so a stall also charges the requests
  queued behind it, and the generator reports how late it sent;
- closed loop: the connections send the same mix back to back for the
  last ``SATURATION_SHARE`` of the run, which measures capacity.

Request classes:

- ``cached``: a hot set of ``HOT_SET`` grk requests (N=1024, K=4) replayed;
- ``analytic``: probability requests at N=2^40, K=4, distinct targets;
- ``sim``: single-target grk at N=4096, K=4, distinct targets, computed
  in the gateway's engine;
- ``batch``: ``/v1/batch`` grk at N=1024, K=4 with 256 targets, sharded
  over the wire to the worker.

Every 200 reply is checked against a reference the benchmark computes in
its own process, outside the timed windows.
"""

from __future__ import annotations

import http.client
import json
import re
import statistics
import subprocess
import sys
import threading
import time

import harness

#: p50 of each class alone on the stack (keep-alive, tracing off, one
#: connection, 2-vCPU Xeon).
CLASS_P50_MS = {"cached": 0.44, "analytic": 0.98, "sim": 2.5, "batch": 16.5}
#: Request shares that give each class the same share of server time at
#: those p50s (share proportional to 1/p50): about .61/.27/.11/.02.
SHARES = {c: (1.0 / p) / sum(1.0 / q for q in CLASS_P50_MS.values())
          for c, p in CLASS_P50_MS.items()}
#: A request meets its class's limit (``slo_ratio``) if answered within
#: ``SLO_FACTOR`` times the class's unloaded p50, from its due time.
SLO_FACTOR = 10.0
LIMITS_MS = {c: SLO_FACTOR * p for c, p in CLASS_P50_MS.items()}
#: About half the capacity the closed-loop phase measures (830-990
#: requests/s on a 2-vCPU Xeon).
RATE = 450.0
CONNECTIONS = 2
#: Share of the run spent in the closed-loop capacity phase.
SATURATION_SHARE = 0.25
#: Requests prepared for the capacity phase (rounded up to whole blocks);
#: more than it can send.
SATURATION_POOL = 12000
HOT_SET = 4
BATCH_ROWS = 256
GEOMETRY = {"cached": (1024, 4), "analytic": (1 << 40, 4),
            "sim": (4096, 4), "batch": (1024, 4)}
TOLERANCE = 1e-12
BOOT_TIMEOUT = 60.0
#: Untraced/traced boot pairs behind ``trace.overhead_ratio``.
OVERHEAD_PAIRS = 3
#: Span trees fetched per class from each traced boot.
TRACE_FETCH_PER_CLASS = 25

_WORKER_READY = re.compile(r"repro-worker ready on (\S+):(\d+)")
_GATEWAY_READY = re.compile(r"repro gateway ready on http://([^:/\s]+):(\d+)/")


# ------------------------------------------------------------------ stack
class Stack:
    """One worker plus one gateway, each a child process with a log file."""

    def __init__(self, tag: str, tracing: bool):
        self.tag = tag
        self.tracing = tracing
        self.procs: list[subprocess.Popen] = []
        self.logs = []
        self.host = self.port = None

    def _spawn(self, name: str, args: list[str], ready: re.Pattern):
        harness.OUT.mkdir(exist_ok=True)
        log_path = harness.OUT / f"{self.tag}-{name}.log"
        log = open(log_path, "w")
        self.logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", *args], stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=harness.child_env(),
            cwd=str(harness.ROOT),
        )
        self.procs.append(proc)
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            match = ready.search(log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        raise harness.BenchError(
            f"{name} did not come up: {log_path.read_text(errors='replace')[-800:]}"
        )

    def start(self) -> None:
        w_host, w_port = self._spawn(
            "worker",
            ["repro.service.worker", "--port", "0", "--drain-timeout", "1"],
            _WORKER_READY,
        )
        args = ["repro.service.cli", "gateway", "--remote-worker",
                f"{w_host}:{w_port}", "--port", "0", "--http-port", "0"]
        if not self.tracing:
            args.append("--no-tracing")
        self.host, self.port = self._spawn("gateway", args, _GATEWAY_READY)

    def peak_rss_mb(self) -> float:
        return sum(harness.pid_peak_rss_mb(p.pid) for p in self.procs)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        for log in self.logs:
            log.close()
        self.procs.clear()
        self.logs.clear()


class Client:
    """One persistent HTTP/1.1 keep-alive connection."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def send(self, method: str, path: str, body: bytes | None = None,
             trace_id=None) -> tuple[int, bytes]:
        """One request; returns ``(status, raw reply body)``."""
        headers = {"Content-Type": "application/json"}
        if trace_id is not None:
            headers["X-Request-ID"] = trace_id
        for attempt in (0, 1):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                resp = self.conn.getresponse()
                return resp.status, resp.read()
            except (ConnectionError, http.client.HTTPException):
                self.conn.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def call(self, method: str, path: str, payload=None, trace_id=None):
        """:meth:`send` with a JSON body and a decoded JSON reply."""
        body = None if payload is None else json.dumps(payload).encode()
        status, data = self.send(method, path, body, trace_id)
        return status, json.loads(data) if data else None

    def close(self):
        self.conn.close()


# ----------------------------------------------------------------- inputs
def payload(cls: str, target):
    n, k = GEOMETRY[cls]
    body = {"schema_version": 1, "n_items": n, "n_blocks": k, "method": "grk"}
    if cls == "batch":
        body["targets"] = list(target)
        return "/v1/batch", body
    body["target"] = target
    if cls == "analytic":
        body["wants"] = "probability"
    return "/v1/search", body


class Inputs:
    """Everything a run sends, generated from the seed: the open-loop
    ``requests`` (``(due_offset_s, class, target)``) and the capacity
    phase's ``saturation`` pool (due offset 0, so sent back to back)."""

    def __init__(self, rng, seconds: float):
        schedule = harness.open_loop_schedule(rng, RATE, seconds, SHARES)
        # Shuffled blocks of fixed composition, so whatever prefix the
        # capacity phase sends, its mix is within one block of SHARES.
        block = [c for c, share in SHARES.items()
                 for _ in range(max(1, round(share / min(SHARES.values()))))]
        pool = []
        while len(pool) < SATURATION_POOL:
            rng.shuffle(block)
            pool += block
        classes = [c for _, c in schedule] + pool
        counts = {c: classes.count(c) for c in SHARES}
        self.hot = rng.sample(range(GEOMETRY["cached"][0]), HOT_SET)
        analytic = rng.sample(range(GEOMETRY["analytic"][0]), counts["analytic"] + 1)
        sim = rng.sample(range(GEOMETRY["sim"][0]), counts["sim"] + 1)
        batches = [sorted(rng.sample(range(GEOMETRY["batch"][0]), BATCH_ROWS))
                   for _ in range(counts["batch"] + 1)]
        # The first of each draw is the set-up request; the rest are sent.
        self.first = {"cached": self.hot[0], "analytic": analytic[0],
                      "sim": sim[0], "batch": batches[0]}
        pools = {"analytic": iter(analytic[1:]), "sim": iter(sim[1:]),
                 "batch": iter(batches[1:])}

        def target(cls):
            return rng.choice(self.hot) if cls == "cached" else next(pools[cls])

        self.requests = [(due, cls, target(cls)) for due, cls in schedule]
        self.saturation = [(0.0, cls, target(cls)) for cls in pool]


# ------------------------------------------------------------------- load
def drive(host, port, requests, stop_after=None, trace_prefix=None) -> list[dict]:
    """Send *requests* (``(due_offset_s, class, target)``) in order over
    ``CONNECTIONS`` keep-alive connections, none before its due time; one
    record per sent request.  With *stop_after*, the connections take no
    new request that many seconds after the start.  Bodies are encoded
    before the clock starts and replies decoded after it stops, so the
    generator does as little as it can between sends."""
    encoded = [(path, json.dumps(body).encode())
               for path, body in (payload(cls, t) for _, cls, t in requests)]
    records: list[dict] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    stop = None if stop_after is None else start + stop_after
    errors = []

    def lane():
        client = Client(host, port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests) or (stop and time.perf_counter() >= stop):
                    return
                due_offset, cls, target = requests[i]
                due = start + due_offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                path, body = encoded[i]
                trace_id = None if trace_prefix is None else f"{trace_prefix}-{i}"
                sent = time.perf_counter()
                try:
                    status, raw = client.send("POST", path, body, trace_id)
                except (OSError, http.client.HTTPException) as exc:
                    status, raw = None, repr(exc).encode()
                done = time.perf_counter()
                records[i] = {"cls": cls, "target": target, "due": due,
                              "sent": sent, "done": done, "status": status,
                              "raw": raw, "trace_id": trace_id}
        except BaseException as exc:
            errors.append(exc)
            raise
        finally:
            client.close()

    threads = [threading.Thread(target=lane, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise harness.BenchError(f"load generator failed: {errors[0]!r}")
    sent = [r for r in records if r is not None]
    if stop and len(sent) == len(requests):
        raise harness.BenchError("capacity phase ran out of prepared requests")
    return sent


class Reference:
    """Expected replies, computed in this process by the same engine."""

    def __init__(self):
        from repro.engine import SearchEngine

        self.engine = SearchEngine()
        self._single = {}
        self._rows = None

    def single(self, cls: str, target: int):
        key = (cls, target)
        if key not in self._single:
            from repro.engine import SearchRequest

            n, k = GEOMETRY[cls]
            rep = self.engine.search(SearchRequest(
                n_items=n, n_blocks=k, method="grk", target=target,
                wants="probability" if cls == "analytic" else "report",
            ))
            self._single[key] = (rep.success_probability, rep.block_guess,
                                 rep.queries)
        return self._single[key]

    def rows(self):
        """All-targets reference batch: rows are independent, so any
        batch's row for target t equals this batch's row t."""
        if self._rows is None:
            from repro.engine import SearchRequest

            n, k = GEOMETRY["batch"]
            rep = self.engine.search_batch(
                SearchRequest(n_items=n, n_blocks=k, method="grk"))
            self._rows = (rep.success_probabilities.tolist(),
                          rep.block_guesses.tolist(), rep.queries.tolist())
        return self._rows

    def prepare(self, requests) -> None:
        """Compute the answers for *requests* (``{class: target}``) now,
        so checking them later costs no engine work."""
        for cls, target in requests.items():
            if cls == "batch":
                self.rows()
            else:
                self.single(cls, target)

    def matches(self, cls: str, target, reply) -> bool:
        if cls == "batch":
            success, guesses, queries = self.rows()
            got = reply.get("success_probabilities") or []
            return (
                len(got) == len(target)
                and all(abs(a - success[t]) <= TOLERANCE
                        for a, t in zip(got, target))
                and reply.get("block_guesses") == [guesses[t] for t in target]
                and reply.get("queries") == [queries[t] for t in target]
            )
        success, guess, queries = self.single(cls, target)
        return (
            abs(reply.get("success_probability", -1.0) - success) <= TOLERANCE
            and reply.get("block_guess") == guess
            and reply.get("queries") == queries
        )


def first_requests(stack: Stack, inputs: Inputs, reference: Reference) -> int:
    """One request of each class (the end of set-up), sequentially on one
    connection; returns how many were not answered correctly."""
    client = Client(stack.host, stack.port)
    wrong = 0
    try:
        for cls, target in inputs.first.items():
            path, body = payload(cls, target)
            status, reply = client.call("POST", path, body)
            if status != 200 or not reference.matches(cls, target, reply):
                wrong += 1
    finally:
        client.close()
    return wrong


def warm_hot_set(stack: Stack, inputs: Inputs) -> None:
    client = Client(stack.host, stack.port)
    try:
        for t in inputs.hot:
            path, body = payload("cached", t)
            client.call("POST", path, body)
    finally:
        client.close()


def _correct(r: dict, reference: Reference) -> bool:
    return r["status"] == 200 and reference.matches(
        r["cls"], r["target"], json.loads(r["raw"]))


def score(records: list[dict], reference: Reference) -> dict:
    """Latency, SLO and error figures of one open-loop phase."""
    by_class = {c: [] for c in SHARES}
    wrong = failed = within = 0
    for r in records:
        ok = _correct(r, reference)
        if r["status"] != 200:
            failed += 1
        elif not ok:
            wrong += 1
        latency = r["done"] - r["due"]
        by_class[r["cls"]].append(latency)
        if ok and latency * 1e3 <= LIMITS_MS[r["cls"]]:
            within += 1
    everything = [x for v in by_class.values() for x in v]
    lat = harness.summarize(everything)
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "error_ratio": (failed + wrong) / len(records),
        "slo_ratio": within / len(records),
        "latency": {"n": lat["n"], "p50_ms": lat["p50"] * 1e3,
                    "p90_ms": lat["p90"] * 1e3, "beyond_p90": lat["beyond_p90"]},
        "class_p50_ms": {c: harness.percentile(v, 50.0) * 1e3
                         for c, v in by_class.items()},
        "class_n": {c: len(v) for c, v in by_class.items()},
        "lateness": harness.lateness_summary((r["due"], r["sent"]) for r in records),
        "rejected": sum(1 for r in records if r["status"] in (429, 503)),
    }


def score_capacity(records: list[dict], reference: Reference) -> dict:
    """Rows answered correctly per second by the closed-loop phase."""
    ok = [r for r in records if _correct(r, reference)]
    rows = sum(BATCH_ROWS if r["cls"] == "batch" else 1 for r in ok)
    window = max(r["done"] for r in records) - min(r["sent"] for r in records)
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "rows_per_s": rows / window,
        "requests_per_s": len(records) / window,
        "window_s": window,
    }


# ------------------------------------------------------------------- runs
def measure(seconds: float, rng, setup_repeats: int) -> dict:
    """Set-up *setup_repeats* times, then an open-loop phase and a
    closed-loop capacity phase on the last booted stack."""
    saturation_s = seconds * SATURATION_SHARE
    inputs = Inputs(rng, seconds - saturation_s)
    reference = Reference()
    reference.prepare(inputs.first)
    setup_s, setup_bad = [], 0
    stack = None
    try:
        for i in range(setup_repeats):
            t0 = time.perf_counter()
            stack = Stack(f"setup{i}", tracing=False)
            stack.start()
            wrong = first_requests(stack, inputs, reference)
            setup_s.append(time.perf_counter() - t0)
            setup_bad += wrong
            if i < setup_repeats - 1:
                stack.stop()
        warm_hot_set(stack, inputs)
        records = drive(stack.host, stack.port, inputs.requests)
        capacity = drive(stack.host, stack.port, inputs.saturation,
                         stop_after=saturation_s)
        rss = stack.peak_rss_mb()
    finally:
        if stack is not None:
            stack.stop()
    result = score(records, reference)
    result["capacity"] = score_capacity(capacity, reference)
    result["setup_s"] = setup_s
    result["setup_wrong"] = setup_bad
    result["peak_rss_mb"] = rss
    result["rate_per_s"] = RATE
    result["connections"] = CONNECTIONS
    return result


def _fetch_traces(stack: Stack, records: list[dict]) -> list:
    """Span trees of the last ``TRACE_FETCH_PER_CLASS`` requests of each
    class, so the rare classes are sampled too."""
    client = Client(stack.host, stack.port)
    traces = []
    chosen = [r for cls in SHARES
              for r in [r for r in records if r["cls"] == cls][-TRACE_FETCH_PER_CLASS:]]
    try:
        for r in chosen:
            status, body = client.call("GET", f"/v1/trace/{r['trace_id']}")
            if status == 200:
                traces.append(body["spans"])
    finally:
        client.close()
    return traces


def _stats(stack: Stack) -> dict:
    client = Client(stack.host, stack.port)
    try:
        return client.call("GET", "/stats")[1]
    finally:
        client.close()


def _boot_and_load(inputs: Inputs, reference: Reference, tracing: bool, tag: str):
    """One boot with one open-loop phase: ``(score, setup_wrong, cache
    hits, cache lookups, span trees)``; span trees only when traced."""
    stack = Stack(tag, tracing)
    try:
        stack.start()
        setup_bad = first_requests(stack, inputs, reference)
        warm_hot_set(stack, inputs)
        before = _stats(stack)["cache"]
        records = drive(stack.host, stack.port, inputs.requests,
                        trace_prefix="pb" if tracing else None)
        after = _stats(stack)["cache"]
        traces = _fetch_traces(stack, records) if tracing else []
    finally:
        stack.stop()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return score(records, reference), setup_bad, hits, lookups, traces


def traced(seconds: float, rng) -> tuple[dict, dict]:
    """``OVERHEAD_PAIRS`` untraced/traced boot pairs, alternating, each
    boot with the same open-loop phase; then the traced boots' span trees
    from ``GET /v1/trace/{id}``.  Boot-to-boot drift is larger than the
    tracing cost, so ``trace.overhead_ratio`` is the median of the
    per-pair p50 ratios."""
    inputs = Inputs(rng, seconds / (2 * OVERHEAD_PAIRS))
    reference = Reference()
    reference.prepare(inputs.first)
    ratios, scores, traces = [], [], []
    setup_bad = hits = lookups = 0
    for pair in range(OVERHEAD_PAIRS):
        p50 = {}
        for tracing in (False, True):
            tag = f"{'traced' if tracing else 'untraced'}{pair}"
            scored, bad, h, n, t = _boot_and_load(inputs, reference, tracing, tag)
            p50[tracing] = scored["latency"]["p50_ms"]
            scores.append(scored)
            setup_bad += bad
            if tracing:
                hits, lookups = hits + h, lookups + n
                traces += t
        ratios.append(p50[True] / p50[False])

    def p(name, q=50.0):
        values = [s["duration_s"] for s in harness.spans_named(traces, name)]
        return harness.percentile(values, q) * 1e3 if values else 0.0

    overheads, attempts, retries = [], 0, 0
    roots_self = []
    for spans in traces:
        own = harness.exclusive_times(spans)
        ids = {s["span_id"] for s in spans}
        roots_self += [own[s["span_id"]] for s in spans
                       if s["parent_id"] not in ids]
        shard_ids = set()
        for s in spans:
            if s["name"] != "shard.attempt":
                continue
            attempts += 1
            shard_ids.add(s["attrs"].get("shard"))
            kids = [c for c in spans if c["parent_id"] == s["span_id"]]
            wire = sum(c["duration_s"] for c in kids if c["name"] == "wire.roundtrip")
            compute = sum(c["duration_s"] for c in kids if c["name"] == "worker.compute")
            overheads.append(wire - compute)
        retries += sum(1 for s in spans if s["name"] == "shard.attempt") - len(shard_ids)
    breakdown = harness.stage_breakdown(traces)
    metrics = {
        "gateway.parse_ms": p("gateway.parse"),
        "gateway.self_ms": harness.percentile(roots_self, 50.0) * 1e3,
        "gateway.rejected": sum(s["rejected"] for s in scores),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.cache_lookup_ms": p("cache.lookup"),
        "service.queue_wait_p50_ms": p("queue.wait"),
        "service.queue_wait_p90_ms": p("queue.wait", 90.0),
        "service.engine_execute_ms": p("engine.execute"),
        "service.wire_roundtrip_ms": p("wire.roundtrip"),
        "service.worker_compute_ms": p("worker.compute"),
        "service.wire_overhead_ms":
            harness.percentile(overheads, 50.0) * 1e3 if overheads else 0.0,
        "service.shard_attempts": attempts,
        "service.shard_retries": retries,
        "trace.overhead_ratio": statistics.median(ratios),
        "trace.gateway-mix.unattributed_share": breakdown["unattributed_share"],
    }
    detail = {
        "attempted": sum(s["attempted"] for s in scores)
        + len(scores) * len(SHARES),
        "failed": sum(s["failed"] + s["wrong"] for s in scores) + setup_bad,
        "traces_fetched": len(traces),
        "cache_lookups": lookups,
        "stages_s": breakdown["stages"],
        "total_s": breakdown["total_s"],
        "overhead_pair_ratios": ratios,
        "overhead_pair_samples": [s["latency"]["n"] for s in scores[::2]],
        "traced_class_p50_ms": [s["class_p50_ms"] for s in scores[1::2]],
        "lateness": [s["lateness"] for s in scores],
    }
    return metrics, detail

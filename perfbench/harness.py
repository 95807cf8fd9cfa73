"""Shared helpers for the repository benchmark: statistics, span-tree
attribution, open-loop accounting, provenance, host probes and child
processes.

Everything here is stdlib (plus numpy for the bandwidth and host probes)
and knows nothing about a particular workload, so ``perfbench/tests`` can
check it on hand-built inputs.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch directory for daemon logs and result files (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Each buffer of the bandwidth probe: over 4x a 105 MiB L3, so the copy
#: streams from memory.
MEMCPY_MIB = 448
MEMCPY_REPEATS = 5
#: Wall-clock limit of one fresh-interpreter child.
CHILD_TIMEOUT_S = 120.0
#: Time of one ``HostProbe.tick`` on the reference host (2-vCPU Xeon,
#: 105 MiB L3, in its fast state).
PROBE_REFERENCE_S = 1.7e-3
#: Probe ticks at each gap around the set-up children.
SETUP_PROBE_TICKS = 5

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a daemon that never
    came up); distinct from a wrong answer, which is counted, not raised."""


# ------------------------------------------------------------------ stats
def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between the
    closest ranks (numpy's default ``linear`` method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(values) -> dict:
    """``{n, p50, p90, beyond_p90}`` for one latency sample.

    ``beyond_p90`` is how many samples lie above the p90 rank, so a
    reader can tell whether the sample supports that percentile.
    """
    data = list(values)
    if not data:
        raise ValueError("summary of an empty sample")
    return {
        "n": len(data),
        "p50": percentile(data, 50.0),
        "p90": percentile(data, 90.0),
        "beyond_p90": len(data) - 1 - math.floor((len(data) - 1) * 0.9),
    }


def check_metric_names(names, units=()) -> None:
    """Raise ``ValueError`` on a metric name or unit outside the charset
    the result format allows, or on a name used twice."""
    seen = set()
    for name in names:
        if not isinstance(name, str) or not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)
    for unit in units:
        if not isinstance(unit, str) or not UNIT_NAME.match(unit):
            raise ValueError(f"bad unit {unit!r}")


# ------------------------------------------------------------- span trees
def exclusive_times(spans: list[dict]) -> dict[str, float]:
    """Seconds each span is the innermost active span of its trace.

    For properly nested spans this is the usual self time: the span's
    duration minus the part of it its children cover.  Where siblings
    overlap (a wire round-trip and the worker compute it carries), each
    instant goes to the span that started last, so no time is counted
    twice.  Children are clipped to the root interval, which absorbs
    small clock differences between processes on one host.
    """
    if not spans:
        return {}
    by_id = {s["span_id"]: s for s in spans}
    roots = [s for s in spans if s.get("parent_id") not in by_id]
    lo = min(s["start_s"] for s in roots)
    hi = max(s["start_s"] + s["duration_s"] for s in roots)

    def depth(s):
        d, seen = 0, set()
        while s.get("parent_id") in by_id and s["span_id"] not in seen:
            seen.add(s["span_id"])
            s = by_id[s["parent_id"]]
            d += 1
        return d

    intervals = []
    for s in spans:
        a = max(lo, s["start_s"])
        b = min(hi, s["start_s"] + s["duration_s"])
        if b > a:
            intervals.append((a, b, s["start_s"], depth(s), s["span_id"]))
    cuts = sorted({p for iv in intervals for p in iv[:2]})
    own = {s["span_id"]: 0.0 for s in spans}
    for a, b in zip(cuts, cuts[1:]):
        active = [iv for iv in intervals if iv[0] <= a and iv[1] >= b]
        if active:
            winner = max(active, key=lambda iv: (iv[2], iv[3]))
            own[winner[4]] += b - a
    return own


def stage_breakdown(traces: list[list[dict]]) -> dict:
    """Aggregate self time by span name over many traces.

    Returns ``{"total_s", "stages": {name: self_s}, "unattributed_share"}``
    where *total* sums each trace's outermost spans, and
    ``unattributed_share = (total - sum of inner stage self time) / total``
    is the part of the requests no inner stage explains.
    """
    total = 0.0
    stages: dict[str, float] = {}
    for spans in traces:
        if not spans:
            continue
        ids = {s["span_id"] for s in spans}
        own = exclusive_times(spans)
        for s in spans:
            if s.get("parent_id") in ids:
                stages[s["name"]] = stages.get(s["name"], 0.0) + own[s["span_id"]]
            else:
                total += s["duration_s"]
    inner = sum(stages.values())
    share = (total - inner) / total if total > 0 else 0.0
    return {
        "total_s": total,
        "stages": stages,
        "unattributed_share": max(0.0, share),
    }


def spans_named(traces, name: str) -> list[dict]:
    return [s for spans in traces for s in spans if s["name"] == name]


class instrument:
    """Context manager wrapping public functions in spans, for traced runs.

    *targets* is ``[(module_name, attribute, span_name), ...]``; each
    attribute is replaced by a wrapper that opens ``span(span_name)``
    around the call and restored on exit.  Only callers that look the
    attribute up at call time see the wrapper.  Untraced runs never
    enter this.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self._saved = []

    def __enter__(self):
        import functools
        import importlib

        from repro.observability.spans import span

        for module_name, attr, span_name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _f=original, _n=span_name, **kwargs):
                with span(_n):
                    return _f(*args, **kwargs)

            functools.update_wrapper(wrapper, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return None


def recorded(fn, name: str):
    """Run ``fn()`` under a fresh span recorder with one root span *name*.

    Returns ``(result, spans)`` where *spans* are plain dicts, the root
    among them.
    """
    from repro.observability.spans import SpanRecorder, recording_scope, span

    recorder = SpanRecorder("bench")
    with recording_scope(recorder):
        with span(name):
            result = fn()
    return result, [s.to_dict() for s in recorder.drain()]


# ---------------------------------------------------------- open-loop load
def open_loop_schedule(rng, rate: float, seconds: float, shares: dict) -> list:
    """A seeded arrival schedule: ``[(due_offset_s, class_name), ...]``.

    The count of each class is fixed (``round(rate * seconds * share)``),
    so every seed offers the same work; arrival times are a Poisson
    process conditioned on that count (sorted uniform points), and the
    class order is a seeded shuffle.
    """
    counts = {name: max(1, round(rate * seconds * share))
              for name, share in shares.items()}
    classes = [name for name, count in counts.items() for _ in range(count)]
    rng.shuffle(classes)
    times = sorted(rng.uniform(0.0, seconds) for _ in classes)
    return list(zip(times, classes))


def lateness_summary(records) -> dict:
    """Generator lateness from ``(due_s, sent_s)`` pairs: how long after
    its due time each request actually went out."""
    late = [max(0.0, sent - due) for due, sent in records]
    if not late:
        raise ValueError("no requests sent")
    return {
        "n": len(late),
        "p50_ms": percentile(late, 50.0) * 1e3,
        "p90_ms": percentile(late, 90.0) * 1e3,
        "max_ms": max(late) * 1e3,
        "share_over_1ms": sum(1 for x in late if x > 1e-3) / len(late),
    }


# -------------------------------------------------------------- provenance
def _cache_size(level: str) -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == level.lstrip("L") and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_state() -> dict:
    def git(*args):
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(git("status", "--porcelain"))}


def provenance(workload: str, seed: int, trace: bool) -> dict:
    """Host, commit and library versions for one result."""
    import importlib.util

    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        **_git_state(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_cache": _cache_size("L2"),
        "l3_cache": _cache_size("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ------------------------------------------------------------- host probes
def memcpy_bandwidth() -> dict:
    """Host copy bandwidth from ``numpy.copyto`` between two
    ``MEMCPY_MIB``-MiB buffers, in this process.  Bytes moved count the
    read and the write; the best of ``MEMCPY_REPEATS`` copies is
    reported."""
    import numpy as np

    n = MEMCPY_MIB * 1024 * 1024 // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in off the clock
    best = math.inf
    for _ in range(MEMCPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    moved = 2 * src.nbytes
    return {"array_mib": MEMCPY_MIB, "bytes_moved_per_copy": moved,
            "gbps": moved / best / 1e9, "best_s": best}


class HostProbe:
    """How fast the host runs a fixed reference computation right now.

    The benchmark shares a few cores of a host whose speed moves by up to
    1.7x for minutes at a time with its neighbours' load.  ``tick`` times a
    fixed interpreter loop plus a run of small numpy calls, interleaved
    with the measured work; a workload made of that kind of work
    multiplies its times by ``scale(q)``, the reference host's probe time
    over this run's *q*-th percentile tick, so they read as times on the
    reference host.  The probe is the benchmark's own code, so a change to
    the program moves the scaled figures and the probe does not.
    """

    LOOP = 20000
    CALLS = 300

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.linspace(0.0, 1.0, 64)
        self.samples: list[float] = []

    def tick(self) -> None:
        np, small = self._np, self._small
        t0 = time.perf_counter()
        x = 0
        for i in range(self.LOOP):
            x += i
        y = 0.0
        for i in range(self.CALLS):
            y += float(np.sin(small * i).sum())
        self.samples.append(time.perf_counter() - t0)

    def scale(self, q: float = 50.0) -> float:
        return PROBE_REFERENCE_S / percentile(self.samples, q)

    def summary(self) -> dict:
        return {"ticks": len(self.samples),
                "median_s": percentile(self.samples, 50.0),
                "p10_s": percentile(self.samples, 10.0),
                "reference_s": PROBE_REFERENCE_S}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------- child processes
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str]) -> tuple[float, dict]:
    """Run ``python3 perfbench/setup_child.py *args`` in a fresh
    interpreter.  Returns ``(wall_s, report)``: wall time from spawn to
    exit, and the JSON object the child printed last."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_child.py")), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-800:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(mode: str, repeats: int,
                probe: HostProbe) -> tuple[list[float], list[dict]]:
    """Wall times and reports of *repeats* fresh ``setup_child.py MODE``
    runs, with ``SETUP_PROBE_TICKS`` ticks of *probe* before, between and
    after them."""
    walls, reports = [], []
    for _ in range(repeats):
        for _ in range(SETUP_PROBE_TICKS):
            probe.tick()
        wall, report = run_child([mode])
        walls.append(wall)
        reports.append(report)
    for _ in range(SETUP_PROBE_TICKS):
        probe.tick()
    return walls, reports


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no sources to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

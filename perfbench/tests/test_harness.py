"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gateway_mix  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402


def span(name, span_id, parent, start, end):
    return {"name": name, "span_id": span_id, "parent_id": parent,
            "start_s": start, "duration_s": end - start}


# ------------------------------------------------------------ percentiles
def test_percentile_interpolates_between_ranks():
    data = [5, 1, 4, 2, 3]
    assert harness.percentile(data, 50) == 3
    assert harness.percentile(data, 90) == pytest.approx(4.6)
    assert harness.percentile(data, 0) == 1
    assert harness.percentile(data, 100) == 5
    assert harness.percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1, 2], 101)


def test_summarize_counts_samples_beyond_p90():
    s = harness.summarize(range(100))
    assert s["n"] == 100
    assert s["p50"] == pytest.approx(49.5)
    assert s["p90"] == pytest.approx(89.1)
    assert s["beyond_p90"] == 10
    assert harness.summarize([3.0])["beyond_p90"] == 0


# ------------------------------------------------------------- span trees
def test_self_times_on_nested_tree():
    spans = [
        span("root", "r", None, 0.0, 10.0),
        span("a", "a", "r", 1.0, 4.0),
        span("b", "b", "r", 5.0, 9.0),
        span("c", "c", "b", 6.0, 7.0),
    ]
    own = harness.exclusive_times(spans)
    assert own == pytest.approx({"r": 3.0, "a": 3.0, "b": 3.0, "c": 1.0})
    out = harness.stage_breakdown([spans])
    assert out["total_s"] == pytest.approx(10.0)
    assert out["unattributed_share"] == pytest.approx(0.3)
    # Stage self times plus the unattributed share account for the total.
    inner = sum(out["stages"].values())
    assert inner + out["unattributed_share"] * out["total_s"] == pytest.approx(10.0)


def test_overlapping_siblings_are_not_counted_twice():
    # A shard attempt whose wire round-trip and remote compute overlap.
    spans = [
        span("shard.attempt", "s", None, 0.0, 10.0),
        span("wire.roundtrip", "w", "s", 1.0, 9.0),
        span("worker.compute", "c", "s", 2.0, 8.0),
    ]
    own = harness.exclusive_times(spans)
    assert own == pytest.approx({"s": 2.0, "w": 2.0, "c": 6.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_children_are_clipped_to_the_root():
    spans = [span("root", "r", None, 0.0, 4.0), span("x", "x", "r", 3.0, 6.0)]
    out = harness.stage_breakdown([spans])
    assert out["stages"]["x"] == pytest.approx(1.0)
    assert out["unattributed_share"] == pytest.approx(0.75)


def test_breakdown_sums_over_traces():
    t1 = [span("root", "r1", None, 0.0, 2.0), span("x", "x1", "r1", 0.0, 1.0)]
    t2 = [span("root", "r2", None, 5.0, 9.0), span("x", "x2", "r2", 5.0, 8.0)]
    out = harness.stage_breakdown([t1, t2, []])
    assert out["total_s"] == pytest.approx(6.0)
    assert out["stages"] == pytest.approx({"x": 4.0})
    assert out["unattributed_share"] == pytest.approx(2.0 / 6.0)


# ---------------------------------------------------------- open-loop load
def test_schedule_is_seeded_with_fixed_class_counts():
    shares = {"a": 0.5, "b": 0.3, "c": 0.2}
    one = harness.open_loop_schedule(random.Random(7), 100.0, 2.0, shares)
    two = harness.open_loop_schedule(random.Random(7), 100.0, 2.0, shares)
    other = harness.open_loop_schedule(random.Random(8), 100.0, 2.0, shares)
    assert one == two
    assert one != other
    counts = {c: sum(1 for _, x in one if x == c) for c in shares}
    assert counts == {"a": 100, "b": 60, "c": 40}
    assert counts == {c: sum(1 for _, x in other if x == c) for c in shares}
    dues = [d for d, _ in one]
    assert dues == sorted(dues)
    assert 0.0 <= dues[0] and dues[-1] <= 2.0


def test_gateway_inputs_are_seeded_distinct_and_blocked():
    one = gateway_mix.Inputs(random.Random(3), 2.0)
    two = gateway_mix.Inputs(random.Random(3), 2.0)
    assert one.requests == two.requests and one.saturation == two.saturation
    sent = one.requests + one.saturation
    for cls in ("analytic", "sim"):
        targets = [t for _, c, t in sent if c == cls] + [one.first[cls]]
        assert len(set(targets)) == len(targets)
    # Any prefix of the capacity pool keeps the mix within one block.
    shares = gateway_mix.SHARES
    per_block = {c: round(s / min(shares.values())) for c, s in shares.items()}
    block = sum(per_block.values())
    classes = [c for _, c, _ in one.saturation]
    for length in range(0, len(classes), 97):
        for cls, n in per_block.items():
            expected = length * n / block
            assert abs(classes[:length].count(cls) - expected) <= n


def test_lateness_counts_only_sends_after_the_due_time():
    records = [(1.0, 0.9), (2.0, 2.0005), (3.0, 3.002), (4.0, 4.01)]
    out = harness.lateness_summary(records)
    assert out["n"] == 4
    assert out["max_ms"] == pytest.approx(10.0)
    assert out["share_over_1ms"] == pytest.approx(0.5)
    assert out["p50_ms"] == pytest.approx((0.5 + 2.0) / 2)
    with pytest.raises(ValueError):
        harness.lateness_summary([])


# -------------------------------------------------------------- host probe
def test_host_probe_scales_by_reference_over_median():
    probe = harness.HostProbe()
    probe.samples = [1e-3, 4e-3, 2e-3]
    assert probe.scale() == pytest.approx(harness.PROBE_REFERENCE_S / 2e-3)
    assert probe.scale(0.0) == pytest.approx(harness.PROBE_REFERENCE_S / 1e-3)
    probe.tick()
    assert len(probe.samples) == 4 and probe.samples[-1] > 0.0


# ------------------------------------------------------------ metric names
def test_metric_name_charset():
    harness.check_metric_names(["rows_per_s", "core.grk-cwb.n4096.batch_s",
                                "9lives"], ["1/s", "ms", "%", "GB/s", "count"])
    for bad in ("", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                "semi;colon"):
        with pytest.raises(ValueError):
            harness.check_metric_names([bad])
    with pytest.raises(ValueError):
        harness.check_metric_names(["a", "a"])
    for unit in ("", "way-too-long-unit-name", "m s"):
        with pytest.raises(ValueError):
            harness.check_metric_names(["a"], [unit])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    harness.check_metric_names(names, list(run.END_TO_END.values())
                               + list(run.PER_LAYER.values()))
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


# ------------------------------------------------------- traced run wiring
def test_instrument_wraps_and_restores():
    harness.require_sources()
    module = types.ModuleType("perfbench_fake_layer")
    module.work = lambda x: x + 1
    sys.modules[module.__name__] = module
    original = module.work
    try:
        with harness.instrument([(module.__name__, "work", "fake.work")]):
            result, spans = harness.recorded(lambda: module.work(1), "bench.root")
        assert result == 2
        assert module.work is original
        names = {s["name"]: s for s in spans}
        assert set(names) == {"bench.root", "fake.work"}
        assert names["fake.work"]["parent_id"] == names["bench.root"]["span_id"]
    finally:
        del sys.modules[module.__name__]

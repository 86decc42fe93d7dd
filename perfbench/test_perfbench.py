"""Tests of the benchmark's own arithmetic, plus a reduced-size smoke run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from hostclock import REFERENCE_PROBE_S, Probes  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

ROOT = HERE.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def advance(dt):
        clock.now += dt

    def leaf():
        advance(1.0)

    def child():
        advance(2.0)
        traced_leaf()
        advance(3.0)

    def root():
        advance(0.5)
        traced_child()
        traced_leaf()
        advance(0.25)

    traced_leaf = tracer.wrap("cache", leaf)
    traced_child = tracer.wrap("sim", child)
    tracer.wrap("bench", root)()

    assert tracer.self_s["cache"] == pytest.approx(2.0)
    assert tracer.self_s["sim"] == pytest.approx(5.0)
    assert tracer.self_s["bench"] == pytest.approx(0.75)
    assert tracer.calls["cache"] == 2
    # Self times partition the root span exactly.
    assert sum(tracer.self_s.values()) == pytest.approx(7.75)
    # Per-event spans are aggregated; the coarse root is kept whole.
    assert tracer.records == [("bench", 0.0, 7.75, -1)]


def test_span_records_keep_parents_and_survive_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def audit():
        clock.now += 1.0
        raise ValueError("audit failed")

    traced_audit = tracer.wrap("verify.audit", audit)

    def root():
        clock.now += 1.0
        with pytest.raises(ValueError):
            traced_audit()

    tracer.wrap("bench", root)()
    assert tracer.records == [("bench", 0.0, 2.0, -1), ("verify.audit", 1.0, 2.0, 0)]
    assert tracer.self_s["verify.audit"] == pytest.approx(1.0)
    assert tracer.layer_self_times()["verify.audit_s"] == pytest.approx(1.0)
    assert tracer.layer_self_times()["network.self_s"] == 0.0


def test_instrument_wraps_entry_points_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from tracer import instrument

    from repro.cache.controller import CacheController
    from repro.machine import machine as machine_mod

    def entry_points():
        return (CacheController.__dict__["hit"], machine_mod.audit_machine,
                machine_mod.AlewifeMachine.__dict__["harvest"])

    before = entry_points()
    restore = instrument(Tracer(), lambda machine: None)
    try:
        assert all(a is not b for a, b in zip(entry_points(), before))
    finally:
        restore()
    assert entry_points() == before


def point(label, digest="d", error=None, simulated=True, **counts):
    base = dict.fromkeys(
        ("cycles", "ops", "hits", "misses", "busy_retries", "remote_stalls",
         "dir_packets", "invalidations", "busy_sent", "read_overflow", "traps",
         "trap_cycles", "utilization", "miss_latency_mean", "packets", "hops",
         "contention_cycles", "total_latency", "entries_audited"),
        0,
    )
    base.update(counts)
    p = {"label": label, "error": error, "simulated": simulated, "wall_s": 1.0}
    if error is None:
        p.update(digest=digest, counts=base)
    return p


#: one probe at reference speed, before any window: times read as host seconds
AT_REFERENCE = [(-1.0, -1.0 + REFERENCE_PROBE_S)]


def sample(points, first=1.0, end=3.0, start=0.9, rss=10.0, spawned=0.5,
           probes=AT_REFERENCE):
    return {"points": points, "first": first, "end": end, "start": start,
            "rss_mb": rss, "spawned": spawned, "probes": probes}


def test_reference_seconds_scale_gaps_by_neighbouring_probes():
    ref = 0.001
    probes = [(0.0, 0.001), (1.001, 1.003)]
    reference, host = metrics.reference_seconds(0.0, 2.0, probes, ref)
    # 1.0 s between probes at 1.5 ms mean, then 0.997 s after a 2 ms probe.
    assert host == pytest.approx(1.997)
    assert reference == pytest.approx(1.0 / 1.5 + 0.997 / 2)
    # A window inside one gap, and one before the first probe.
    assert metrics.reference_seconds(0.5, 0.6, probes, ref)[0] == pytest.approx(0.1 / 1.5)
    assert metrics.reference_seconds(-0.2, 0.0, probes, ref) == pytest.approx((0.2, 0.2))
    with pytest.raises(ValueError):
        metrics.reference_seconds(0.0, 1.0, [], ref)


def test_reference_seconds_cancel_a_uniformly_slower_host():
    def run(slowdown):
        t, probes = 0.0, []
        for _ in range(5):
            probes.append((t, t + 0.001 * slowdown))
            t += 0.001 * slowdown + 0.05 * slowdown
        return metrics.reference_seconds(0.0, t, probes, 0.001)

    fast, slow = run(1.0), run(1.7)
    assert slow[1] == pytest.approx(1.7 * fast[1])
    assert slow[0] == pytest.approx(fast[0]) == pytest.approx(fast[1])


def test_probes_run_on_cpu_time_and_stop():
    probes = Probes()
    probes.start()
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    finally:
        probes.stop()
    count = len(probes.intervals)
    assert count >= 4  # start, about six periodic, stop
    assert all(a < b <= c for (a, b), (c, _) in zip(probes.intervals, probes.intervals[1:]))
    deadline = time.process_time() + 0.15
    while time.process_time() < deadline:
        pass
    assert len(probes.intervals) == count


def test_sample_times_split_setup_and_wall():
    s = sample([], first=1.0, end=3.0, start=0.9, spawned=0.5)
    times = metrics.sample_times(s)
    assert times == pytest.approx(
        {"setup_s": 0.5, "wall_s": 2.0, "wall_host_s": 2.0, "run_host_s": 2.1}
    )


def test_failures_count_errors_and_nondeterminism():
    runs = [
        sample([point("a", "x"), point("b", "y")]),
        sample([point("a", "x"), point("b", "CHANGED")]),
        sample([point("a", error="LivenessError: deadlock"), point("b", "y")]),
    ]
    attempted, failed, reasons = metrics.failures(runs)
    assert (attempted, failed) == (6, 2)
    assert any("differ between runs" in r for r in reasons)
    assert any("LivenessError" in r for r in reasons)


def test_end_to_end_medians_and_ok_frac():
    runs = [
        sample([point("a", ops=100, cycles=50)], first=1.0, end=3.0),
        sample([point("a", ops=100, cycles=50)], first=11.0, end=15.0),
        sample([point("a", ops=100, cycles=50)], first=21.0, end=22.0),
    ]
    e2e = metrics.end_to_end(runs, [0.5, 1.0, 0.2, 0.4], attempted=4, failed=1)
    assert e2e["wall_s"] == pytest.approx(2.0)
    assert e2e["setup_s"] == pytest.approx(0.45)
    assert e2e["sim_ops_per_s"] == pytest.approx(50.0)
    assert e2e["sim_cycles"] == 50
    assert e2e["ok_frac"] == pytest.approx(0.75)
    assert set(e2e) == set(metrics.END_TO_END)


def test_per_layer_ratios_and_dedup():
    pts = [
        point("p1", hits=90, misses=10, ops=100, cycles=100, utilization=0.5,
              miss_latency_mean=20.0, packets=10, total_latency=50),
        point("p2", hits=30, misses=30, ops=60, cycles=300, utilization=0.9,
              miss_latency_mean=40.0, packets=30, total_latency=250),
        point("p1-dup", simulated=False),
    ]
    traced = sample(pts, first=1.0, end=4.0, start=0.5)
    traced["trace"] = {
        "wall_s": 3.5,
        "self_s": dict.fromkeys(LAYER_METRICS.values(), 0.0),
        "calls": {"sim": 5, "cache": 3},
        "harvest": {"events": 1000, "allocated": 1, "recycled": 3},
    }
    plain = sample(pts, first=1.0, end=3.0, start=0.5)
    layer = metrics.per_layer(plain, traced)
    assert layer["cache.hit_ratio"] == pytest.approx(120 / 160)
    assert layer["cache.miss_latency_mean"] == pytest.approx((200 + 1200) / 40)
    assert layer["proc.utilization"] == pytest.approx((50 + 270) / 400)
    assert layer["network.latency_mean"] == pytest.approx(300 / 40)
    assert layer["network.pool_recycle_ratio"] == pytest.approx(0.75)
    assert layer["sweep.points"] == 3 and layer["sweep.simulated"] == 2
    assert layer["sweep.dedup_ratio"] == pytest.approx(1 / 3)
    assert layer["sweep.overhead_s"] == pytest.approx(0.0)
    assert layer["sim.ns_per_event"] == pytest.approx(2e9 / 1000)
    assert layer["trace.overhead_s"] == pytest.approx(3.5 - 2.5)
    assert layer["host.wall_s"] == pytest.approx(2.0)
    assert layer["host.speed"] == pytest.approx(1.0)
    assert set(layer) == set(metrics.PER_LAYER)
    assert metrics.ratio(1, 0) == 0.0


def test_compiled_layers_are_named():
    layer = dict.fromkeys(metrics.PER_LAYER, 0)
    layer.update({"sim.events": 10, "network.packets": 4})
    traced = {"trace": {"calls": {"sim": 3}}}
    assert metrics.compiled_layers(traced, layer) == ["network", "network.nic"]


FIGURES = {
    "Figure 8: Weather": {"Dir1NB": 40, "Dir2NB": 37, "Dir4NB": 18, "Full-Map": 8},
    "Figure 9: Weather": {"Dir4NB": 18, "LimitLESS4 Ts=150": 12, "LimitLESS4 Ts=100": 11,
                          "LimitLESS4 Ts=50": 9, "LimitLESS4 Ts=25": 8.5, "Full-Map": 8},
    "Figure 10: Weather": {"LimitLESS1 Ts=50": 12, "LimitLESS2 Ts=50": 10,
                           "LimitLESS4 Ts=50": 9, "Full-Map": 8},
    "Ablation: exact vs approximation": {"LimitLESS4 exact": 9.0,
                                         "LimitLESS4 approx": 9.5},
}


def test_shape_check_passes_the_paper_shape_and_flags_breaches():
    assert metrics.shape_breaches(FIGURES) == {}
    broken = json.loads(json.dumps(FIGURES))
    broken["Figure 9: Weather"]["LimitLESS4 Ts=25"] = 13
    broken["Ablation: exact vs approximation"]["LimitLESS4 approx"] = 12.0
    assert set(metrics.shape_breaches(broken)) == {
        "Figure 9: Weather", "Ablation: exact vs approximation",
    }


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.METRIC_NAME.match(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        units = {**metrics.END_TO_END, **metrics.PER_LAYER}
        assert m["unit"] == units[m["name"]]
        assert m["better"] in ("higher", "lower")
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert not metrics.METRIC_NAME.match("bad name")
    assert not metrics.METRIC_NAME.match("_leading")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("workload", ["figures", "weather256", "thrash64"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--scale", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if trace == "1":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(values[m] for m in LAYER_METRICS.values())
        assert self_sum == pytest.approx(values["trace.wall_s"], rel=1e-9)
        assert values["sim.events"] > 0 and values["proc.ops"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "figures", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

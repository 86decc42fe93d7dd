"""Arithmetic that turns sample records into the benchmark's metrics.

Pure functions over the JSON records ``sample.py`` prints, so the tests
can check them on hand-made records.
"""

from __future__ import annotations

import re
import statistics

from hostclock import REFERENCE_PROBE_S

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: end-to-end metric -> unit (the ``--trace 0`` output)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "ok_frac": "ratio",
}

#: per-layer metric -> unit (the ``--trace 1`` output)
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.self_s": "s",
    "proc.ops": "count",
    "proc.utilization": "ratio",
    "proc.trap_cycles": "cycles",
    "proc.remote_stalls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.busy_retries": "count",
    "cache.miss_latency_mean": "cycles",
    "cache.self_s": "s",
    "coherence.dir_packets": "count",
    "coherence.invalidations": "count",
    "coherence.busy_sent": "count",
    "coherence.read_overflow": "count",
    "coherence.traps": "count",
    "coherence.self_s": "s",
    "coherence.limitless_s": "s",
    "network.packets": "count",
    "network.hops": "count",
    "network.contention_cycles": "cycles",
    "network.latency_mean": "cycles",
    "network.pool_recycle_ratio": "ratio",
    "network.self_s": "s",
    "network.nic_s": "s",
    "machine.build_s": "s",
    "machine.run_s": "s",
    "verify.audit_s": "s",
    "verify.entries_audited": "count",
    "stats.collect_s": "s",
    "sweep.points": "count",
    "sweep.simulated": "count",
    "sweep.dedup_ratio": "ratio",
    "sweep.overhead_s": "s",
    "sweep.self_s": "s",
    "sweep.cache_store_s": "s",
    "sweep.fingerprint_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "host.wall_s": "s",
    "host.speed": "ratio",
}

#: largest tolerated approx-vs-exact cycle gap (measured: 3.8% at seed 42,
#: 5.8% at seed 7)
APPROX_TOLERANCE = 0.10

#: a layer whose Python entry points saw no call although the counts
#: show the layer worked ran compiled (or was inlined by the backend).
#: span name -> the count that proves the layer did work.
LAYER_WORK = {
    "sim": "sim.events",
    "cache": "proc.ops",
    "coherence": "coherence.dir_packets",
    "coherence.limitless": "coherence.traps",
    "network": "network.packets",
    "network.nic": "network.packets",
}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def reference_seconds(
    t0: float, t1: float, probes: list, reference: float = REFERENCE_PROBE_S
) -> tuple[float, float]:
    """``(reference seconds, host seconds)`` of program time in ``[t0, t1]``.

    ``probes`` are sorted, disjoint ``(start, end)`` intervals (see
    :mod:`hostclock`).  Probe time is left out of both figures.  Each gap
    between two probes is scaled by ``reference`` over the mean of their
    durations; time before the first or after the last probe by that
    probe alone.
    """
    if not probes:
        raise ValueError("no host-speed probe in the sample")
    durations = [end - start for start, end in probes]
    gaps = [(float("-inf"), probes[0][0], durations[0])]
    for i in range(len(probes) - 1):
        gaps.append((probes[i][1], probes[i + 1][0],
                     (durations[i] + durations[i + 1]) / 2))
    gaps.append((probes[-1][1], float("inf"), durations[-1]))
    ref = host = 0.0
    for a, b, probe_s in gaps:
        overlap = min(b, t1) - max(a, t0)
        if overlap > 0:
            host += overlap
            ref += overlap * reference / probe_s
    return ref, host


def sample_times(sample: dict) -> dict[str, float]:
    """A sample's set-up and wall time in reference and host seconds.

    Set-up runs from the parent's spawn to the first simulated cycle,
    wall from there to the final stats; ``run_host_s`` is the host time
    of the whole timed body, for the tracing overhead.
    """
    probes = sample["probes"]
    setup, _ = reference_seconds(sample["spawned"], sample["first"], probes)
    wall, wall_host = reference_seconds(sample["first"], sample["end"], probes)
    _, run_host = reference_seconds(sample["start"], sample["end"], probes)
    return {"setup_s": setup, "wall_s": wall, "wall_host_s": wall_host,
            "run_host_s": run_host}


def simulated_points(sample: dict) -> list[dict]:
    """Points of a sample that were simulated (not deduplicated) and ran."""
    return [p for p in sample["points"] if p["simulated"] and "counts" in p]


def total(sample: dict, key: str) -> int:
    return sum(p["counts"][key] for p in simulated_points(sample))


def failures(samples: list[dict]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, reasons)`` over every point of every sample.

    A point fails on an error its sample reported (exception, liveness,
    audit, shape check) or when its statistics differ from the first
    sample's at the same seed.
    """
    attempted, failed, reasons = 0, 0, []
    reference: dict[str, str] = {}
    for sample in samples:
        for point in sample["points"]:
            attempted += 1
            error = point.get("error")
            if error is None:
                expected = reference.setdefault(point["label"], point["digest"])
                if point["digest"] != expected:
                    error = "statistics differ between runs at one seed"
            if error is not None:
                failed += 1
                reasons.append(f"{point['label']}: {error}")
    return attempted, failed, reasons


def end_to_end(
    samples: list[dict], setups: list[float], attempted: int, failed: int
) -> dict[str, float]:
    """Median end-to-end metrics over untraced samples.

    Timings are reference seconds (see :func:`sample_times`).  ``setups``
    are the set-up times of these and of any set-up-only samples; they
    include interpreter start-up.  ``attempted``/``failed`` count points
    (see :func:`failures`) plus samples that crashed.
    """
    walls = [sample_times(s)["wall_s"] for s in samples]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "sim_ops_per_s": statistics.median(
            ratio(total(s, "ops"), w) for s, w in zip(samples, walls)
        ),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "sim_cycles": statistics.median(total(s, "cycles") for s in samples),
        "ok_frac": 1.0 - ratio(failed, attempted),
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics from one untraced and one traced sample.

    Simulated counts come from the traced sample (the caller checks they
    equal the untraced ones); host self times come from its spans, which
    run without probes.  The tracing overhead, the host record and the
    time per event come from the untraced run, the last in reference
    seconds.
    """
    pts = simulated_points(traced)
    times = sample_times(plain)
    plain_wall = times["wall_s"]
    trace = traced["trace"]
    harvest = trace["harvest"]
    ops = total(traced, "ops")
    misses = total(traced, "misses")
    points = traced["points"]
    # Point walls are host seconds with probes inside; so is first..end.
    swept = sum(p["wall_s"] for p in plain["points"] if p["simulated"])
    outside = 1.0 - ratio(swept, plain["end"] - plain["first"])
    metrics = {
        "sim.events": harvest["events"],
        "sim.ns_per_event": ratio(plain_wall * 1e9, harvest["events"]),
        "proc.ops": ops,
        "proc.utilization": ratio(
            sum(p["counts"]["utilization"] * p["counts"]["cycles"] for p in pts),
            total(traced, "cycles"),
        ),
        "proc.trap_cycles": total(traced, "trap_cycles"),
        "proc.remote_stalls": total(traced, "remote_stalls"),
        "cache.hits": total(traced, "hits"),
        "cache.misses": misses,
        "cache.hit_ratio": ratio(total(traced, "hits"), ops),
        "cache.busy_retries": total(traced, "busy_retries"),
        "cache.miss_latency_mean": ratio(
            sum(p["counts"]["miss_latency_mean"] * p["counts"]["misses"] for p in pts),
            misses,
        ),
        "coherence.dir_packets": total(traced, "dir_packets"),
        "coherence.invalidations": total(traced, "invalidations"),
        "coherence.busy_sent": total(traced, "busy_sent"),
        "coherence.read_overflow": total(traced, "read_overflow"),
        "coherence.traps": total(traced, "traps"),
        "network.packets": total(traced, "packets"),
        "network.hops": total(traced, "hops"),
        "network.contention_cycles": total(traced, "contention_cycles"),
        "network.latency_mean": ratio(
            total(traced, "total_latency"), total(traced, "packets")
        ),
        "network.pool_recycle_ratio": ratio(
            harvest["recycled"], harvest["allocated"] + harvest["recycled"]
        ),
        "verify.entries_audited": total(traced, "entries_audited"),
        "sweep.points": len(points),
        "sweep.simulated": len(pts),
        "sweep.dedup_ratio": 1.0 - ratio(len(pts), len(points)),
        "sweep.overhead_s": plain_wall * outside,
        "trace.wall_s": trace["wall_s"],
        "trace.overhead_s": trace["wall_s"] - times["run_host_s"],
        "host.wall_s": times["wall_host_s"],
        "host.speed": ratio(plain_wall, times["wall_host_s"]),
    }
    metrics.update(trace["self_s"])
    return metrics


def compiled_layers(traced: dict, layer_metrics: dict[str, float]) -> list[str]:
    """Layers that did work but were never entered through Python."""
    calls = traced["trace"]["calls"]
    return sorted(
        name for name, work in LAYER_WORK.items()
        if layer_metrics[work] > 0 and calls.get(name, 0) == 0
    )


def shape_breaches(figures: dict[str, dict[str, int]]) -> dict[str, str]:
    """The paper's qualitative results, checked on a figure suite's cycles.

    ``figures`` maps figure title -> point label -> cycles.  Returns
    title -> reason for every figure whose shape does not hold.
    Absolute cycles are not checked: they are unvalidated against the
    paper.
    """
    breaches = {}

    def find(word: str) -> dict[str, int]:
        for title, cycles in figures.items():
            if word in title:
                return cycles
        raise KeyError(word)

    def need(title_word: str, ok: bool, reason: str) -> None:
        if not ok:
            title = next(t for t in figures if title_word in t)
            breaches.setdefault(title, reason)

    f8 = find("Figure 8")
    need("Figure 8", f8["Dir1NB"] >= f8["Dir2NB"] >= f8["Dir4NB"] > f8["Full-Map"],
         "expected Dir1NB >= Dir2NB >= Dir4NB > Full-Map")
    f9 = find("Figure 9")
    ts = [f9[f"LimitLESS4 Ts={t}"] for t in (150, 100, 50, 25)]
    need("Figure 9", all(a >= b for a, b in zip(ts, ts[1:])),
         "expected cycles monotone in Ts")
    need("Figure 9", all(f9["Dir4NB"] > c >= f9["Full-Map"] for c in ts),
         "expected LimitLESS4 between Dir4NB and Full-Map")
    f10 = find("Figure 10")
    ll = [f10[f"LimitLESS{p} Ts=50"] for p in (1, 2, 4)]
    need("Figure 10", ll[0] >= ll[1] >= ll[2] >= f10["Full-Map"],
         "expected cycles monotone in pointers")
    ab = find("exact vs approx")
    gap = abs(ab["LimitLESS4 approx"] - ab["LimitLESS4 exact"]) / ab["LimitLESS4 exact"]
    need("exact vs approx", gap <= APPROX_TOLERANCE,
         f"approx is {gap:.1%} from exact (limit {APPROX_TOLERANCE:.0%})")
    return breaches

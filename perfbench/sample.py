"""One benchmark sample: a single workload run in a fresh interpreter.

``run.py`` starts this script once per sample with only the built
package on ``PYTHONPATH`` and reads one JSON record from its standard
output.  The record carries the sample's clock marks (``CLOCK_MONOTONIC``,
comparable with the parent's spawn time), a digest and the layer counts
of every simulated point, the failures found, peak memory, the backend
that ran, and a calibration loop timed in the same process.  An untraced
sample also carries its host-speed probes (:mod:`hostclock`), started
before the program is imported.  With ``--trace 1`` the run is wrapped
by :mod:`tracer`, without probes, and the record carries per-layer self
times instead.

    PYTHONPATH=<built lib> python3 perfbench/sample.py \\
        --workload weather256 --seed 42 --scale full --trace 0 --tmp DIR
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import metrics
from hostclock import Probes, spin

# The program is imported inside the functions below, after the probes
# start, so that its import is timed as set-up.

#: workload -> scale -> size parameters.  ``smoke`` is the reduced size
#: the benchmark's own tests run.
SIZES = {
    "figures": {"full": {"procs": 64, "iters": 8}, "smoke": {"procs": 16, "iters": 1}},
    "weather256": {"full": {"procs": 256, "iters": 4}, "smoke": {"procs": 16, "iters": 1}},
    "thrash64": {"full": {"procs": 64, "iters": 16}, "smoke": {"procs": 16, "iters": 1}},
}

#: single-machine workloads: (protocol, pointers, ts)
MACHINES = {
    "weather256": ("limitless", 4, 50),
    "thrash64": ("limited", 1, 50),
}

def digest(stats) -> str:
    """SHA-256 over every simulated statistic of one point."""
    blob = json.dumps(stats.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def point_counts(stats) -> dict:
    """The simulated per-layer numbers of one point, from public stats."""
    c = stats.counters
    hits = sum(c.get(f"cache.hits.{k}") for k in ("load", "store", "rmw"))
    misses = sum(c.get(f"cache.misses.{k}") for k in ("load", "store", "rmw"))
    net = stats.network
    return {
        "cycles": stats.cycles,
        "ops": hits + misses,
        "hits": hits,
        "misses": misses,
        "busy_retries": c.get("cache.busy_retries"),
        "remote_stalls": c.get("cpu.remote_stalls"),
        "dir_packets": c.get("dir.packets"),
        "invalidations": c.get("dir.invalidations"),
        "busy_sent": c.get("dir.busy_sent"),
        "read_overflow": c.get("dir.read_overflow"),
        "traps": stats.traps_taken,
        "trap_cycles": stats.trap_cycles,
        "utilization": stats.utilization,
        "miss_latency_mean": stats.mean_miss_latency,
        "packets": net.packets,
        "hops": net.hops,
        "contention_cycles": net.contention_cycles,
        "total_latency": net.total_latency,
        "entries_audited": stats.entries_audited,
    }


class SetupDone(Exception):
    """Raised at the first simulated cycle of a set-up-only sample."""


def run_figures(seed: int, size: dict, tmp: Path, scale: str, setup_only: bool) -> dict:
    """The figure suite through the public sweep API, on a cold cache."""
    from repro.sweep import runner
    from repro.sweep.cache import ResultCache
    from repro.sweep.grids import figure_grids
    from repro.sweep.manifest import CampaignManifest

    grids = figure_grids(size["procs"], size["iters"])
    titles, jobs = [], []
    for title, grid in grids.items():
        for job in grid:
            titles.append(title)
            jobs.append(replace(job, config=replace(job.config, seed=seed)))
    cache = ResultCache(tmp / "cache")
    cache.fingerprint.value()
    first = time.monotonic()
    if setup_only:
        return {"first": first, "end": first, "points": []}
    # As ``repro sweep`` runs by default: serial, manifest, one retry.
    with CampaignManifest(cache.directory / "sweep-manifest.ndjson") as manifest:
        results = runner.run_jobs(
            jobs, workers=1, cache=cache, on_error="record",
            manifest=manifest, retries=1,
        )
    end = time.monotonic()
    points, by_figure = [], {}
    for title, result in zip(titles, results):
        point = {"label": f"{title} / {result.job.label}", "error": result.error,
                 "simulated": not result.cached, "wall_s": result.wall_seconds}
        if result.stats is not None:
            point["digest"] = digest(result.stats)
            point["counts"] = point_counts(result.stats)
            by_figure.setdefault(title, {})[result.job.label] = result.stats.cycles
        points.append(point)
    if scale == "full" and all(p["error"] is None for p in points):
        for title, reason in metrics.shape_breaches(by_figure).items():
            for point in points:
                if point["label"].startswith(title + " / "):
                    point["error"] = f"shape: {reason}"
    return {"first": first, "end": end, "points": points}


def run_machine(workload: str, seed: int, size: dict, setup_only: bool) -> dict:
    """One machine through ``AlewifeMachine(config).run(workload)``."""
    from repro.machine import AlewifeConfig, AlewifeMachine
    from repro.sweep.spec import WorkloadSpec

    protocol, pointers, ts = MACHINES[workload]
    config = AlewifeConfig(
        n_procs=size["procs"], protocol=protocol, pointers=pointers, ts=ts,
        seed=seed,
    )
    program = WorkloadSpec("weather", {"iterations": size["iters"]}).build()
    marks = {}

    def driver(machine) -> None:
        marks["first"] = time.monotonic()
        if setup_only:
            raise SetupDone
        machine.sim.run()

    point = {"label": workload, "error": None, "simulated": True}
    try:
        stats = AlewifeMachine(config).run(program, driver=driver)
    except SetupDone:
        return {"first": marks["first"], "end": marks["first"], "points": []}
    except Exception as exc:  # a failed point is a result, not a crash
        point["error"] = f"{type(exc).__name__}: {exc}"
    else:
        point["digest"] = digest(stats)
        point["counts"] = point_counts(stats)
    end = time.monotonic()
    point["wall_s"] = end - marks.get("first", end)
    return {"first": marks.get("first", end), "end": end, "points": [point]}


def calibrate(rounds: int = 3) -> float:
    """Fastest of a few runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        spin(200_000)
        best = min(best, time.perf_counter() - start)
    return best


def run_sample(
    workload: str, seed: int, scale: str, trace: bool, tmp: Path,
    setup_only: bool, probes: Probes | None,
) -> dict:
    size = SIZES[workload][scale]
    if workload == "figures":
        body = functools.partial(run_figures, seed, size, tmp, scale, setup_only)
    else:
        body = functools.partial(run_machine, workload, seed, size, setup_only)
    tracer = restore = None
    harvests = {"events": 0, "allocated": 0, "recycled": 0}
    if trace:
        from tracer import Tracer, instrument

        def on_harvest(machine) -> None:
            harvests["events"] += machine.sim.events_executed
            harvests["allocated"] += machine.pool.allocated
            harvests["recycled"] += machine.pool.recycled

        tracer = Tracer(clock=time.monotonic)
        restore = instrument(tracer, on_harvest)
        body = tracer.wrap("bench", body)
    start = time.monotonic()
    try:
        record = body()
    finally:
        if restore is not None:
            restore()
        if probes is not None:
            probes.stop()
    record["start"] = start
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        bench = next(r for r in tracer.records if r[0] == "bench")
        record["trace"] = {
            "wall_s": bench[2] - bench[1],
            "self_s": tracer.layer_self_times(),
            "calls": dict(tracer.calls),
            "harvest": harvests,
            "spans": tracer.records,
        }
    # Imported after the timed region: a default reference run never
    # loads the extension, so its import must not count as set-up.
    from repro.backend import get_backend, native
    from repro.machine import AlewifeConfig

    backend = get_backend(AlewifeConfig().backend)
    loaded, reason = native.load_status()
    record.update(
        backend=backend.name,
        backend_notes=backend.notes,
        native_loaded=loaded,
        native_reason=reason,
        calibration_s=calibrate(),
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop at the first simulated cycle (extra set-up samples)",
    )
    args = parser.parse_args(argv)
    probes = None if args.trace else Probes()
    if probes is not None:
        probes.start()
    record = run_sample(
        args.workload, args.seed, args.scale, bool(args.trace), args.tmp,
        args.setup_only, probes,
    )
    record["probes"] = probes.intervals if probes is not None else []
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

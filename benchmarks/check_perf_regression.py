#!/usr/bin/env python3
"""Perf-regression gate: fail when a fresh benchmark run regresses.

Compares a freshly measured benchmark report against the committed
baseline (same JSON shape: ``{"scenarios": {name: {metric: value}}}``,
as written by ``microbench_kernel.py`` and ``bench_hotpath.py``) and
exits nonzero when any scenario's ``events_per_sec`` throughput falls
more than ``--tolerance`` below the baseline.  CI runs this after each microbench so a hot-path regression
fails the perf-smoke job instead of merely shipping a slower artifact.

The tolerance band absorbs runner-to-runner jitter; it can be widened for
noisy environments via ``--tolerance`` or ``REPRO_PERF_TOLERANCE``.

``--update`` turns the gate into a ratchet: after the (unchanged) check,
any scenario whose fresh gated metric beats the committed baseline has
its baseline raised to the fresh value, and the baseline file is
rewritten in place.  Baselines only move up — a run inside the tolerance
band never lowers them — so the committed numbers track the best honest
measurement instead of decaying with runner noise.  Scenarios new in the
fresh report are adopted wholesale.

``--allow-missing`` exempts baseline scenarios absent from the fresh
run (they are reported as skipped instead of failing).  The extension-
free perf-smoke job uses it for the hot-path gate: its fresh run never
measures the ``:native`` rows, which are gated strictly by the
``native-smoke`` job that builds the extension.

The committed baselines are duplicated at the repo root and under
``benchmarks/`` (the root copies are the PR-facing artifacts, the
``benchmarks/`` copies are what CI gates against).  The gate verifies
the two copies are byte-identical before checking anything, and
``--update`` rewrites both, so the pair can never drift silently.

Run:  python benchmarks/check_perf_regression.py \
          --fresh BENCH_kernel.json --baseline benchmarks/BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load_scenarios(path: str) -> dict[str, dict]:
    with open(path) as fh:
        report = json.load(fh)
    return report.get("scenarios", report)


def mirror_path(baseline: str) -> str | None:
    """The other committed copy of ``baseline``, if the repo keeps one.

    BENCH_*.json baselines live both at the repo root and under
    ``benchmarks/``; given either copy this returns its counterpart, or
    ``None`` when the counterpart does not exist (uncommitted root
    artifacts from local runs are not mirrors).
    """
    directory, name = os.path.split(os.path.abspath(baseline))
    if os.path.basename(directory) == "benchmarks":
        candidate = os.path.join(os.path.dirname(directory), name)
    else:
        candidate = os.path.join(directory, "benchmarks", name)
    return candidate if os.path.exists(candidate) else None


def check_mirror(baseline: str) -> str | None:
    """Error message when the root/benchmarks copies of ``baseline`` differ."""
    mirror = mirror_path(baseline)
    if mirror is None:
        return None
    with open(baseline, "rb") as fh:
        ours = fh.read()
    with open(mirror, "rb") as fh:
        theirs = fh.read()
    if ours == theirs:
        return None
    return (
        f"baseline copies differ: {baseline} vs {mirror}; "
        f"sync with: cp {baseline} {mirror}"
    )


#: the gated higher-is-better metric: wall-clock event throughput
_METRIC = "events_per_sec"


def check(
    fresh: dict[str, dict],
    baseline: dict[str, dict],
    tolerance: float,
    allow_missing: bool = False,
) -> list[str]:
    """Regression messages (empty when the fresh run passes the gate)."""
    problems = []
    for name, base in sorted(baseline.items()):
        base_rate = base.get(_METRIC)
        if not base_rate:
            continue
        if name not in fresh:
            if allow_missing:
                print(f"{name:18s} skipped (not measured in this run)")
            else:
                problems.append(f"{name}: scenario missing from fresh run")
            continue
        rate = fresh[name].get(_METRIC) or 0
        floor = base_rate * (1.0 - tolerance)
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(
            f"{name:18s} fresh {rate:>12,.0f} ev/s    "
            f"baseline {base_rate:>12,.0f}   floor {floor:>12,.0f}   "
            f"{verdict}"
        )
        if rate < floor:
            problems.append(
                f"{name}: {rate:,.0f} ev/s is "
                f"{1 - rate / base_rate:.1%} below the committed baseline "
                f"{base_rate:,.0f} (tolerance {tolerance:.0%})"
            )
    return problems


def ratchet(
    fresh: dict[str, dict], baseline: dict[str, dict]
) -> tuple[dict[str, dict], list[str]]:
    """Raise baseline throughputs to any better fresh value.

    Returns the updated scenario mapping and a list of human-readable
    change descriptions (empty when nothing improved).  Non-gated keys in
    improved scenarios (event counts, wall times) are refreshed alongside
    so the committed record stays one coherent measurement.
    """
    updated = {name: dict(values) for name, values in baseline.items()}
    changes = []
    for name, values in sorted(fresh.items()):
        base = updated.get(name)
        if base is None:
            updated[name] = dict(values)
            changes.append(f"{name}: adopted new scenario")
            continue
        new, old = values.get(_METRIC), base.get(_METRIC) or 0
        if not new or new <= old:
            continue
        updated[name] = dict(values)
        changes.append(f"{name}: {_METRIC} {old:,.0f} -> {new:,.0f} ev/s")
    return updated, changes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="just-measured report")
    parser.add_argument(
        "--baseline", required=True, help="committed baseline report"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE", "0.20")),
        help="allowed fractional slowdown before failing (default: 0.20)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="after the gate, ratchet the baseline file up to any better "
        "fresh numbers (baselines never move down)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="skip baseline scenarios absent from the fresh run instead of "
        "failing (for jobs that measure a backend subset)",
    )
    args = parser.parse_args()

    fresh = load_scenarios(args.fresh)
    baseline = load_scenarios(args.baseline)
    problems = check(fresh, baseline, args.tolerance, args.allow_missing)
    mirror_problem = check_mirror(args.baseline)
    if mirror_problem and not args.update:
        problems.append(mirror_problem)

    if args.update:
        updated, changes = ratchet(fresh, baseline)
        if changes or mirror_problem:
            with open(args.baseline) as fh:
                report = json.load(fh)
            if "scenarios" in report:
                report["scenarios"] = updated
            else:
                report = updated
            blob = json.dumps(report, indent=2) + "\n"
            targets = [args.baseline]
            mirror = mirror_path(args.baseline)
            if mirror is not None:
                targets.append(mirror)
            for path in targets:
                with open(path, "w") as fh:
                    fh.write(blob)
            print(f"\nratcheted {' and '.join(targets)}:")
            for change in changes:
                print(f"  {change}")
        else:
            print("\nratchet: no scenario beat the committed baseline")

    if problems:
        print(f"\nperf gate FAILED ({len(problems)} regression(s)):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

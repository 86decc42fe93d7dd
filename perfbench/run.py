"""The repository benchmark: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload figures --seed 42 --seconds 30 --trace 0

Builds the package out of tree from a copy of the checkout (with the
optional C extension when a compiler is present), then runs samples of
the workload one at a time, each in a fresh interpreter that sees only
the built package, for about ``--seconds`` seconds (at least two
samples, plus set-up-only samples until nine set-up times are in).
Every execution setting is left at the program's default.

``--trace 0`` reports the end-to-end metrics as medians over the
samples, timings in reference seconds (host seconds rescaled by speed
probes run inside each sample; see :mod:`hostclock`).  ``--trace 1``
alternates untraced and traced samples and reports the per-layer
metrics.  Either way every point is audited, its
statistics must repeat exactly across the samples, and on ``figures``
the paper's shape must hold; the last line of output is the JSON result.
Everything the benchmark writes goes under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
#: files besides ``src/repro`` that the package build reads
BUILD_FILES = ("setup.py", "pyproject.toml", "README.md")
#: a sample is started only if it should end this long before the
#: 180-second limit on a whole run
MARGIN_S = 15.0
MIN_SAMPLES = 2
#: set-up times per untraced run; samples that stop at the first
#: simulated cycle make up the count when full samples are few
SETUP_SAMPLES = 9


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (nothing is printed)."""


def source_files() -> list[Path]:
    package = ROOT / "src" / "repro"
    if not package.is_dir() or not all((ROOT / f).is_file() for f in BUILD_FILES):
        raise BenchError(f"no package source to build under {ROOT}")
    files = [
        p for p in package.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
        and p.suffix not in (".pyc", ".so")
    ]
    return [ROOT / f for f in BUILD_FILES] + sorted(files)


def compiler_version() -> str | None:
    try:
        out = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None


def clean_env(**extra: str) -> dict[str, str]:
    """The caller's environment minus any setting that steers the program,
    with temporary files (the compiler's too) kept inside the checkout."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(TMPDIR=str(WORK / "tmp"), **extra)
    return env


def build(gcc: str | None) -> tuple[Path, dict, bool]:
    """Build the package from a copy of the source; reuse an identical build.

    Returns ``(lib dir, build record, built now)``.
    """
    files = source_files()
    digest = hashlib.sha256(f"{sys.version}|{gcc}".encode())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    final = WORK / "build" / digest.hexdigest()[:16]
    if (final / "build.json").is_file():
        return final / "lib", json.loads((final / "build.json").read_text()), False
    (WORK / "build").mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="staging-", dir=WORK / "build"))
    try:
        tree = staging / "tree"
        for path in files:
            target = tree / path.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "setup.py", "build", "--build-lib", str(staging / "lib"),
             "--build-temp", str(staging / "obj")],
            cwd=tree, env=clean_env(), capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            raise BenchError(f"package build failed:\n{out.stderr[-2000:]}")
        # Byte-compile as an install does, so no sample pays for it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(staging / "lib")],
            check=True, env=clean_env(), capture_output=True, timeout=600,
        )
        record = {
            "build_s": time.monotonic() - start,
            "extension_built": any((staging / "lib").rglob("_native*.so")),
        }
        shutil.rmtree(tree)
        shutil.rmtree(staging / "obj", ignore_errors=True)
        (staging / "build.json").write_text(json.dumps(record))
        for stale in (WORK / "build").iterdir():
            if stale != staging:
                shutil.rmtree(stale, ignore_errors=True)
        staging.rename(final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final / "lib", record, True


def spawn(
    lib: Path, args, trace: bool, deadline: float, setup_only: bool = False
) -> tuple[float, dict | None, str | None]:
    """Run one sample; returns ``(spawn time, record or None, error)``."""
    tmp = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    cmd = [
        sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale,
        "--trace", str(int(trace)), "--tmp", str(tmp),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, env=clean_env(PYTHONPATH=str(lib)),
            capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return spawned, None, "sample timed out"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if out.returncode != 0 or not out.stdout.strip():
        return spawned, None, f"sample exited {out.returncode}: {out.stderr[-1500:]}"
    return spawned, json.loads(out.stdout.splitlines()[-1]), None


def host_record(gcc: str | None, build_info: dict, samples: list[dict]) -> dict:
    first = samples[0]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "gcc": gcc,
        "extension_built": build_info["extension_built"],
        "extension_loaded": first["native_loaded"],
        "extension_reason": first["native_reason"],
        "backend": sorted({s["backend"] for s in samples}),
        "backend_notes": first["backend_notes"],
        "calibration_s": statistics.median(s["calibration_s"] for s in samples),
    }


def measure(args) -> dict:
    started = time.monotonic()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    gcc = compiler_version()
    lib, build_info, built = build(gcc)
    # The first run in a checkout may build; the rest must end in 180 s.
    deadline = (time.monotonic() + 150.0) if built else (started + 180.0 - MARGIN_S)
    measure_from = time.monotonic()
    plain, traced, crashes = [], [], []
    durations = []
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            t0 = time.monotonic()
            when, record, error = spawn(lib, args, trace, deadline)
            durations.append(time.monotonic() - t0)
            if record is None:
                crashes.append(error)
            elif trace:
                traced.append(record)
            else:
                record["spawned"] = when
                plain.append(record)
        done = len(plain) + len(traced) + len(crashes)
        now = time.monotonic()
        step = statistics.median(durations) * (2 if args.trace else 1)
        if now + step > deadline:
            break
        if done >= MIN_SAMPLES and now - measure_from + step > args.seconds:
            break
    setups = [metrics.sample_times(s)["setup_s"] for s in plain]
    while not args.trace and len(setups) < SETUP_SAMPLES and time.monotonic() + 10 < deadline:
        when, record, error = spawn(lib, args, False, deadline, setup_only=True)
        if record is None:
            crashes.append(error)
        else:
            record["spawned"] = when
            setups.append(metrics.sample_times(record)["setup_s"])
    samples = plain + traced
    if not samples:
        raise BenchError("every sample failed:\n" + "\n".join(crashes))
    attempted, failed, reasons = metrics.failures(samples)
    attempted += len(crashes)
    failed += len(crashes)
    reasons += crashes
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "host": host_record(gcc, build_info, samples),
        "build": build_info,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "samples": len(plain),
        "traced_samples": len(traced),
    }
    if args.trace:
        pairs = [metrics.per_layer(p, t) for p, t in zip(plain, traced)]
        if not pairs:
            raise BenchError("no untraced/traced sample pair completed")
        # Report one whole pair, the one with the median traced wall, so
        # its self times still sum exactly to its trace.wall_s.
        walls = [pair["trace.wall_s"] for pair in pairs]
        chosen = walls.index(statistics.median_low(walls))
        values = pairs[chosen]
        units = metrics.PER_LAYER
        result["compiled_layers"] = metrics.compiled_layers(traced[chosen], values)
        result["self_s_sum"] = sum(values[m] for m in LAYER_METRICS.values())
        result["spans"] = traced[chosen]["trace"]["spans"]
    else:
        if not plain:
            raise BenchError("no untraced sample completed")
        values = metrics.end_to_end(plain, setups, attempted, failed)
        units = metrics.END_TO_END
        result["per_sample"] = {
            "wall_s": [metrics.sample_times(s)["wall_s"] for s in plain],
            "wall_host_s": [metrics.sample_times(s)["wall_host_s"] for s in plain],
            "setup_s": setups,
        }
        result["setup_samples"] = len(setups)
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def report(result: dict) -> None:
    host = result["host"]
    print(
        f"perfbench {result['workload']} seed={result['seed']} "
        f"scale={result['scale']} trace={result['trace']}: "
        f"{result['samples']} untraced + {result['traced_samples']} traced samples"
    )
    print(
        f"host: cpus={host['cpus']} (usable {host['cpus_usable']}) "
        f"python={host['python']} gcc={host['gcc']!r} "
        f"extension built={host['extension_built']} loaded={host['extension_loaded']} "
        f"backend={','.join(host['backend'])} notes={host['backend_notes']!r} "
        f"calibration_s={host['calibration_s']:.4f}"
    )
    how = "pair with the median traced wall" if result["trace"] else "median"
    for name, metric in result["metrics"].items():
        n = result["setup_samples"] if name == "setup_s" else result["samples"]
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']:6s} ({how}, n={n})")
    if result["trace"]:
        wall = result["metrics"]["trace.wall_s"]["value"]
        print(f"  self times sum to {result['self_s_sum']:.6f}s of traced wall {wall:.6f}s")
        layers = ", ".join(result["compiled_layers"]) or "none"
        print(f"  layers not entered through Python (compiled): {layers}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "weather256", "thrash64"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", default="full", choices=("full", "smoke"),
        help="smoke = reduced sizes for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    report(result)
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

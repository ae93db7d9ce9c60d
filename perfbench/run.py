#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The default seed (1) is fixed, so two runs without --seed use identical
inputs; pass another seed for a held-out check. `--workload all` runs
every workload in turn and also lists each metric on stderr.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles
the sbmp libraries from src/) into .bench_build/perfbench, runs the
statistics self-test, then runs one workload and passes its output
through. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's context (inputs fingerprint, host facts, sample counts). The
metric names are checked against BENCHMARK.json. Exits non-zero, without
a result line, when the build, the self-test or the run fails, and with
the program's own non-zero code when a correctness gate fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_REL = Path(".bench_build") / "perfbench"
BUILD = ROOT / BUILD_REL
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", BUILD_JOBS, "--target",
         "perfbench", "perfbench_selftest"],
        stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec, spec["per_layer" if trace else "end_to_end"]


def run_workload(name, args, metrics):
    """Runs one workload; returns its exit code and output lines (None
    when it printed no valid result)."""
    # Relative to ROOT, so the Unix socket path stays short.
    workdir = BUILD_REL / "work" / str(os.getpid())
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    try:
        run = subprocess.run(
            [str(BUILD / "perfbench"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{name}: run exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if not lines:
        log(f"{name}: no output (exit code {run.returncode})")
        return run.returncode or 1, None
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in metrics}
    got = {metric: m["unit"] for metric, m in result["metrics"].items()}
    if got != want:
        log(f"{name}: metrics differ from BENCHMARK.json: got {sorted(got)}, "
            f"want {sorted(want)}")
        return 1, None
    return run.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec, metrics = expected_metrics(args.trace)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        selected = names
    elif args.workload in names:
        selected = [args.workload]
    else:
        log(f"unknown workload {args.workload!r}; one of {names} or 'all'")
        return 2
    if not build():
        log("build failed")
        return 1
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("statistics self-test failed")
        return 1

    status = 0
    for name in selected:
        code, lines = run_workload(name, args, metrics)
        status = status or code
        if lines is None:
            continue
        print("\n".join(lines), flush=True)
        if len(selected) > 1:
            for metric, m in json.loads(lines[-1])["metrics"].items():
                log(f"{name:14} {metric:26} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

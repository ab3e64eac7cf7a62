#!/usr/bin/env python3
"""Same-host benchmark of salign: sequential vs Sample-Align-D on the
genome-2000 headline, plus PREFAB accuracy (see perfbench/README.md).

Builds perfbench/ -- the salign library of this checkout plus the in-process
harness perfbench.cpp -- into .bench_build/perfbench, runs one workload, and
prints one JSON object as the last line of stdout:

    python3 perfbench/run.py --workload genome2k-p16 --seed 7 --seconds 25 --trace 0

With --trace 0 the result carries every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. Everything else the harness measured,
and the run's context (nproc, compiler, build type, git commit, source
digest, output digest), goes to stdout above that line and to
.bench_build/reports/<workload>-seed<N>-trace<T>.json.

    python3 perfbench/run.py --self-test

runs every workload at a tiny size and checks the metrics and the failure
accounting (exit 0 when all checks pass).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REPORTS = ROOT / ".bench_build" / "reports"
BINARY = BUILD / "perfbench"
DEFAULT_SEED = 2008
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no salign sources in {ROOT}")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_harness(workload, seed, seconds, trace, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: harness timed out") from e
    if done.returncode != 0:
        raise BenchError(f"{workload}: harness exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: harness printed nothing")
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result, wanted):
    """Every wanted metric is present, finite and in its declared unit."""
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']} not finite")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, "
                            f"declared {m['unit']!r}")
    return problems


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the sources the harness is built from, so a report
    names the code it measured even where git is not available."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "cmake", "perfbench"):
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def measure(args):
    build()
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    lines, result = run_harness(args.workload, args.seed, args.seconds,
                                args.trace)
    problems = check_metrics(result, wanted)
    if problems:
        raise BenchError("; ".join(problems))

    context = dict(result["context"], git_commit=git_commit(),
                   source_digest=source_digest())
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": result["metrics"],
              "context": context}
    REPORTS.mkdir(parents=True, exist_ok=True)
    path = REPORTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    for line in lines:
        print(line)
    print("  context " + json.dumps(context))
    print(f"  report {path.relative_to(ROOT)}")
    out = {"correct": result["correct"],
           "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {m["name"]: result["metrics"][m["name"]]
                       for m in wanted}}
    print(json.dumps(out))
    return 0


def self_test():
    """Each workload at a tiny size: every declared metric is present,
    finite and carries its unit, nothing fails, and a deliberately
    corrupted output is counted as a failure."""
    build()
    spec = load_spec()
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, r = run_harness(w, 1, 0.05, trace, ["--tiny"])
            got = [f"{w} trace {trace}: {p}" for p in check_metrics(r, wanted)]
            if not r["correct"] or r["failed"] != 0 or \
                    r["metrics"]["error_rate"]["value"] != 0:
                got.append(f"{w} trace {trace}: unexpected failures")
            problems += got
            log(f"{w} trace {trace}: {'ok' if not got else 'FAILED'}")
        _, r = run_harness(w, 1, 0.05, 0, ["--tiny", "--corrupt"])
        if r["correct"] or r["failed"] < 1:
            problems.append(f"{w}: corrupted output not counted as failed")
        log(f"{w} corrupted output: failed {r['failed']} of {r['attempted']}")
    for p in problems:
        log(p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="align wall time to measure (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return measure(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

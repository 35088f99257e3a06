#!/usr/bin/env python3
"""End-to-end benchmark of alive-cpp: verify, infer, alived and the rewrite pass.

Run from the root of a checkout:

  python3 e2ebench/run.py --workload verify-corpus --seed 1 --seconds 15 --trace 0
  python3 e2ebench/run.py --self-test

It builds alivec and alived with the repository's own CMake build, builds the
benchmark driver against those libraries (both under .bench_build/), and runs
the driver. The driver's last line of stdout is the result as one JSON object;
build output goes to stderr. WORKLOADS.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = Path(".bench_build")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ["verify-corpus", "infer-corpus", "service-mixed", "optimize-ir"]


def run_quiet(cmd, log):
    """Runs a build step with its output in a log; on failure, shows the tail."""
    with open(log, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        sys.stderr.write("\n".join(tail) + "\n")
        sys.exit(f"error: build step failed: {' '.join(map(str, cmd))}")


def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"error: {ROOT} holds no alive-cpp sources to build")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    repo = BUILD / "alive"
    driver = BUILD / "driver"
    if not (repo / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(repo),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], log)
    run_quiet(["cmake", "--build", str(repo), "-j", str(jobs),
               "--target", "alivec", "alived"], log)
    if not (driver / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(driver),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                   f"-DALIVE_BUILD_DIR={repo.resolve()}"], log)
    run_quiet(["cmake", "--build", str(driver), "-j", str(jobs)], log)
    return repo / "src", driver / "e2ebench"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, commit = out.stdout.split()
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "unknown"  # a checkout without git metadata
    # A checkout nested in another repository must not report that one.
    return commit if Path(top).resolve() == ROOT else "unknown"


def spec_matches_driver(driver):
    """Checks that BENCHMARK.json names the driver's workloads and metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([str(driver), "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    printed = {"end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    ok = [w["name"] for w in spec["workloads"]] == WORKLOADS and all(
        [(m["name"], m["unit"]) for m in spec[kind]] == printed[kind]
        for kind in printed)
    print(("PASS" if ok else "FAIL") +
          " BENCHMARK.json names the driver's workloads and metrics")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run each workload on a slice and pin the seed "
                         "failure counts")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    os.chdir(ROOT)

    jobs = min(4, len(os.sched_getaffinity(0)))
    bin_dir, driver = build(jobs)
    # A short relative scratch path keeps alived's unix socket path short.
    cmd = [str(driver), "--alivec", str(bin_dir / "alivec"),
           "--alived", str(bin_dir / "alived"),
           "--dir", str(BUILD / f"run-{os.getpid()}")]
    if args.self_test:
        ok = spec_matches_driver(driver)
        sys.stdout.flush()
        return subprocess.run(cmd + ["--self-test"]).returncode or (not ok)
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its metrics.

    python3 perfbench/run.py --workload search_tcp --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first call builds the engine and
perfbench_e2e from source under .bench_build/perfbench/; later calls
only rebuild what changed. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search_tcp", "search_batch_sq8", "ingest_mixed")
# A whole run must end within 180 s; perfbench_e2e gets this much of it.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds perfbench_e2e; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not (build_dir / "CMakeCache.txt").exists():
        configure = [cmake, "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return build_dir / "perfbench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = Path.cwd() / ".bench_build" / "perfbench"
    exe = build(out_dir / "build")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = out_dir / "records" / f"{tag}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.unlink(missing_ok=True)
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(record_path), "--work-dir", str(out_dir / "work")]
    try:
        status = subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if status != 0:
        sys.exit(f"perfbench: perfbench_e2e exited with {status}")

    record = report.read_record(record_path)
    result, notes, reasons = report.summarize(record)
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']:6s} {notes[name]}")
    for reason in reasons:
        print(f"CHECK FAILED: {reason}")
    print(f"host CPU steal during the load: {record['load']['steal_pct']:.1f}% "
          f"({record['repeats']:g} disturbed windows repeated)")
    report.write_result(out_dir / "results" / f"{tag}.json", args.workload, args.seed,
                        args.trace, record["fingerprint"], result, notes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

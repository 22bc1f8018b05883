#!/usr/bin/env python3
"""End-to-end benchmark of the enclaves group protocol.

Run from the repository root:

    python3 perfbench/run.py --workload relay_tcp --seed 1 --seconds 20 --trace 0

It builds perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, runs one workload, prints a readable report, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list. The exit code is 0 only when the correctness gate passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("relay_tcp", "churn_tree", "rekey_flat_obs")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "core" / "leader.h").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("corrupt_aead", "drop_send"),
                        help="self-test only: inject a fault the gate must catch")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"{args.workload} printed no result (exit {proc.returncode})")

    print(f"# context {json.dumps(raw['context'], sort_keys=True)}")
    for why in raw["violations"]:
        print(f"# gate violation: {why}")
    print(f"# {args.workload}: headline metrics")
    for name, (value, unit) in sorted(raw["named"].items()):
        print(f"{name:<28} {value:>16.6g} {unit}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = raw["layer"] if args.trace else raw["e2e"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        die("metrics missing from the run: " + ", ".join(missing))
    print(f"# {args.workload}: {'per-layer' if args.trace else 'end-to-end'}"
          " metrics")
    metrics = {}
    for m in wanted:
        value = source[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<34} {value:>16.6g} {m['unit']}")

    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0 if raw["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-speed benchmark of the simulator.

Builds the `tis-perfbench` package next to this file (release profile, offline) and runs one
workload in a child process:

    python3 crates/bench/perfbench/run.py --workload er-stream --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer breakdown. The last
line of stdout is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Peak RSS is the lowest over five child processes that each run exactly one rep
of the workload, so it does not depend on how many reps fit in `--seconds`. The Figure 7/9
fidelity errors come from one more child that runs both figures in full.

    python3 crates/bench/perfbench/run.py --all --seed 1 --seconds 10

runs every workload both ways, the profiling-only chain-stream included, and prints every
metric by name with its unit, plus each workload's fail_frac (failed runs / attempted
runs). It exits non-zero if any run failed a check. Metric names, units and the layer map
are in BENCHMARK.json and README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["chain-stream", "er-stream", "paper-repro", "tenants-mesh"]
# One-rep processes whose lowest peak RSS is reported. A rep's peak can land on one of two
# levels a few MB apart from process to process; the lower one is the memory the rep needs.
RSS_SAMPLES = 5


def build():
    """Builds the benchmark and returns the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: building the benchmark failed (cargo exit {proc.returncode})")
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "tis-perfbench":
            return msg["executable"]
    sys.exit("error: cargo reported no tis-perfbench executable")


def run_child(binary, args):
    """Runs the benchmark binary and returns the JSON object on its last stdout line."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(binary, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    result = run_child(binary, args)
    if trace:
        return result
    once = [run_child(binary, ["--workload", workload, "--seed", str(seed), "--once"])
            for _ in range(RSS_SAMPLES)]
    rss = min(c["metrics"]["peak_rss_mb"]["value"] for c in once)
    fidelity = run_child(binary, ["--fidelity"])
    children = once + [fidelity]
    metrics = result["metrics"]
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    for key in ("fig7_err_pct", "fig9_err_pct"):
        metrics[key] = fidelity["metrics"][key]
    for child in children:
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
    result["correct"] = result["failed"] == 0
    return result


def run_all(binary, seed, seconds):
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(binary, workload, seed, seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            frac = result["failed"] / result["attempted"]
            print(f"== {workload}: {kind}; fail_frac {frac:g} "
                  f"({result['failed']} of {result['attempted']} runs)")
            for name, m in result["metrics"].items():
                print(f"  {name:<34} {m['value']:>18.6f} {m['unit']}")
            failed += result["failed"]
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    binary = build()
    if args.all:
        sys.exit(run_all(binary, args.seed, args.seconds))
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

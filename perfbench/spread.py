"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--write-baseline]
                                [WORKLOAD ...]

Runs ``run.py`` once per seed for each workload, sequentially, and prints
for every end-to-end metric its median and the distance between its first
and third quartile as a share of the median, beside the bound in
``BENCHMARK.json``.  With ``--write-baseline`` it also runs one traced run
per workload and stores the medians of the workloads run in ``baseline.json``,
the numbers later changes report against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode or not result["correct"]:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, p.stderr))
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    baseline = {
        "provenance": {"git_commit": git.stdout.strip() or None,
                       "python": platform.python_version(), "platform": platform.platform(),
                       "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
                       "seeds": [args.first_seed, args.first_seed + args.runs - 1]},
        "end_to_end": {}, "per_layer": {},
    }
    worst = 0.0
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"], 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        medians = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            medians[name] = med
            print("%-15s %-12s median %12.6g  spread %6.3f  bound %.2f  values %s" % (
                workload, name, med, spread, bounds[name],
                " ".join("%.4g" % v for v in vals)), flush=True)
        baseline["end_to_end"][workload] = medians
        if args.write_baseline:
            traced = run_once(workload, args.first_seed, bench["run_seconds"], 1)
            baseline["per_layer"][workload] = {
                n: m["value"] for n, m in traced["metrics"].items()}
    print("largest spread as a share of its bound (setup_s excluded): %.3f" % worst)
    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        if os.path.exists(path):  # keep the workloads not run this time
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
            for kind in ("end_to_end", "per_layer"):
                baseline[kind] = {**old.get(kind, {}), **baseline[kind]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

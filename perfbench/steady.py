"""Check that the benchmark is steady: run workloads over several seeds
and print each end-to-end metric's median and spread (interquartile
distance over median) against a third of its bound.

    python3 perfbench/steady.py --workloads camera_shm fleet_ws --seeds 1 2 3 4 5

Runs are sequential; each one is the command BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.ledger import spread  # noqa: E402


def run_once(bench: dict, workload: str, seed: int) -> dict:
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    blocks = {
        line.split()[1]: [float(v) for v in line.split()[2:]]
        for line in lines if line.startswith("blocks ")
    }
    return {name: m["value"] for name, m in doc["metrics"].items()}, blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--out", help="append every run's metrics here "
                        "as JSON lines")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            values, blocks = run_once(bench, workload, seed)
            runs.append(values)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "metrics": values,
                                          "blocks": blocks}) + "\n")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            share = spread(values)
            ok = share <= bound / 3
            steady = steady and ok
            print(f"{workload:14s} {name:18s} median {statistics.median(values):11.5g}"
                  f"  spread {share:7.2%}  bound {bound:.0%}"
                  f"  {'ok' if ok else 'NOISY'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

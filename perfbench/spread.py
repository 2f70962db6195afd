"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] \
        [--first-seed 1] [--seconds N]

Runs ``run.py --trace 0`` once per seed and workload, one process at a
time, and prints for every end-to-end metric its median and the
distance between its first and third quartiles as a share of the
median, next to the metric's bound and a third of it from
BENCHMARK.json.  A spread above the bound means the metric cannot tell
a regression of that size from noise on this machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def relative_iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} checks failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            spread = relative_iqr(vals)
            bound = bounds[name]
            if name != "setup_s":
                worst = max(worst, spread / bound)
            median = statistics.median(vals)
            print(f"  {workload:<14} {name:<12} median {median:10.4g}"
                  f"  spread {spread:6.3f}  bound {bound:.3f}"
                  f"  third {bound / 3:.3f}"
                  f"{'  WIDE' if spread > bound / 3 else ''}", flush=True)
    print(f"largest spread / bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

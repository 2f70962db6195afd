"""Traced-run report: where each workload's step time goes.

    python3 perfbench/report.py [--workloads a,b] [--seed 1] [--seconds N]

For each workload, runs ``run.py`` untraced and then traced with the same
seed, one process at a time, and prints:

* the end-to-end metrics with units, and ``failed_frac``;
* self time per span name per step, with its share of the traced step;
* the tracing overhead: traced against untraced step time and rate;
* whether the workload's stated reason holds (the CLAIMS below).
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import ROOT, run_once

OUT_DIR = ROOT / ".perfbench_out"

# Each workload's reason for existing, as shares of the traced step time.
# Terms are (span, "self" | "incl"); a claim holds when the summed share
# is at least the minimum, or below the maximum for a "max" claim.
CLAIMS = {
    "vae_train": [
        ("conv2d forward + backward hold most of a step",
         [("tensor.conv2d.fwd", "self"), ("tensor.conv2d.bwd", "self")],
         ("min", 0.5)),
        ("the QuantumLayer holds under 1% of a step",
         [("layers.QuantumLayer.fwd", "incl"),
          ("layers.QuantumLayer.bwd", "incl")], ("max", 0.01)),
    ],
    "ddpm_train_q6": [
        ("the QuantumLayer backward (parameter shift) holds most of a step",
         [("layers.QuantumLayer.bwd", "incl")], ("min", 0.5)),
        ("the QuantumLayer and statevector hold most of a step",
         [("layers.QuantumLayer.fwd", "incl"),
          ("layers.QuantumLayer.bwd", "incl")], ("min", 0.6)),
    ],
    "noisy_sample": [
        ("noise trajectories and apply_gate hold most of a step",
         [("noise.sample_noisy", "self"), ("noise.mitigate", "self"),
          ("statevector.apply_gate", "self"),
          ("statevector.apply_pauli", "self"),
          ("statevector.sample_bitstrings", "self")], ("min", 0.5)),
    ],
    "ansatz_study": [
        ("batched forward simulation holds a large share",
         [("statevector.batch", "self")], ("min", 0.25)),
        ("gate-noise trajectories hold a large share",
         [("noise.sample_noisy", "incl")], ("min", 0.2)),
        ("the two together hold most of a grid point",
         [("statevector.batch", "self"), ("noise.sample_noisy", "incl")],
         ("min", 0.6)),
    ],
}


def _record(workload: str, trace: int) -> dict:
    return json.loads(
        (OUT_DIR / f"{workload}.trace{trace}.json").read_text())


def _share(rows: dict, terms, step_s: float) -> float:
    return sum(rows[span][f"{kind}_s"] for span, kind in terms
               if span in rows) / step_s


def report(workload: str, units: dict):
    plain, traced = _record(workload, 0), _record(workload, 1)
    e2e = plain["end_to_end"]
    print(f"== {workload} (seed {plain['seed']}, "
          f"holdout seed {plain['holdout_seed']}, "
          f"{plain['steps']} steps untraced, {traced['steps']} traced)")
    for name, unit in units.items():
        print(f"  {name:<12} {e2e[name]:12.6g} {unit}")
    print(f"  {'failed_frac':<12} {plain['failed_frac']:12.6g} fraction "
          f"({plain['failed']} of {plain['attempted']})")
    print(f"  step_s_tail is p{plain['step_s_tail_percentile']:.1f}, "
          f"{plain['step_s_tail_samples_beyond']} samples beyond it")

    t_e2e = traced["end_to_end"]
    step_plain = plain["timed_wall_s"] - plain["check_s"]
    step_traced = traced["timed_wall_s"] - traced["check_s"]
    per_plain = step_plain / max(plain["steps"], 1)
    per_traced = step_traced / max(traced["steps"], 1)
    print(f"  tracing overhead: step_s_p50 {e2e['step_s_p50']:.4g} s -> "
          f"{t_e2e['step_s_p50']:.4g} s, mean step {per_plain:.4g} s -> "
          f"{per_traced:.4g} s ({per_traced / per_plain - 1:+.1%}), "
          f"items_per_s {e2e['items_per_s']:.4g} -> "
          f"{t_e2e['items_per_s']:.4g}")

    rows = {row["span"]: row for row in traced["spans"]
            if row["phase"] == "timed"}
    print(f"  {'span (timed, per step)':<34}{'calls':>10}{'self s':>11}"
          f"{'incl s':>11}{'share':>8}")
    for row in traced["spans"]:
        if row["phase"] != "timed" or row["share"] < 0.001:
            continue
        print(f"  {row['span']:<34}{row['calls']:10.1f}{row['self_s']:11.4g}"
              f"{row['incl_s']:11.4g}{row['share']:8.1%}")
    for text, terms, (kind, limit) in CLAIMS.get(workload, []):
        share = _share(rows, terms, per_traced)
        held = share >= limit if kind == "min" else share < limit
        print(f"  claim: {text}: {share:.1%} of the step "
              f"({kind} {limit:.0%}) -> {'confirmed' if held else 'refuted'}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            run_once(workload, args.seed, args.seconds, trace)
        report(workload, {m["name"]: m["unit"] for m in spec["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qlatent benchmark: run one workload for a fixed time and print metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a source checkout; it imports the library from
``src/`` there and from nowhere else.  The process is the workload's
only client, with BLAS threads pinned to the CPUs it may use.  Set-up
runs several times and its median is reported; then the closed loop
runs whole units of work for about ``--seconds``: it starts another
unit when that unit, at the mean length so far, would end less than
half a unit past ``--seconds`` (always at least one).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the library calls are wrapped in
spans (see ``spans.py``) and the JSON holds the per-layer metrics.  A
run record (machine, versions, seeds, every metric) and, for traced
runs, the spans are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = str(NPROC)

SETUP_REPEATS = 5
# A seed no change is tuned on; a claimed gain must also hold on it.
HOLDOUT_SEED = 90001
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "items/s",
                    "step_s_p50": "s", "step_s_tail": "s",
                    "peak_rss_mb": "MB"}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile
    that still has at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100 and zero samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    """Hardware and software the numbers were measured on."""
    import numpy as np

    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC, "cpu_model": cpu or platform.processor(),
        "caches": caches, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def import_library():
    """Import qlatent from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "qlatent" / "__init__.py").is_file():
        print(f"no qlatent sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import qlatent

    if Path(qlatent.__file__).resolve().parent != (src / "qlatent").resolve():
        print(f"qlatent imported from {qlatent.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(
            f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        spans.install(tracer)
    import layer_metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]()
    meter = workloads.Meter(tracer)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        state = None
        for _ in range(SETUP_REPEATS):
            # free the previous set-up, cycles included, before timing anew
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.set_phase("timed")
        start = time.perf_counter()
        done = 0
        while True:
            workload.unit(state, meter)
            done += 1
            elapsed = time.perf_counter() - start
            # one more unit of the mean length would end more than half a
            # unit past --seconds: stop, so runs end closest to --seconds
            if elapsed + 0.5 * elapsed / done > args.seconds:
                break
        wall_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    timed_s = wall_s - meter.check_s
    tail_value, tail_pct, beyond = tail(meter.step_s)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": meter.items / timed_s,
        "step_s_p50": statistics.median(meter.step_s),
        "step_s_tail": tail_value,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed_frac = meter.failed / max(meter.attempted, 1)

    record = {
        "workload": args.workload, "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "setup_s_all": setup_times, "timed_wall_s": wall_s,
        "check_s": meter.check_s, "steps": len(meter.step_s),
        "items": meter.items, "step_s": meter.step_s,
        "step_s_tail_percentile": tail_pct,
        "step_s_tail_samples_beyond": beyond,
        "attempted": meter.attempted, "failed": meter.failed,
        "failed_frac": failed_frac, "failures": meter.failures,
        "end_to_end": e2e, **meter.extra,
    }
    if tracer:
        metrics = layer_metrics.per_layer(tracer, meter, e2e, setup_times)
        record["per_layer"] = metrics
        record["spans"] = layer_metrics.span_table(tracer, meter, timed_s,
                                                   setup_times)
        units = layer_metrics.UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(OUT_DIR / f"{stem}.npz")

    print(f"workload {args.workload} seed {args.seed} "
          f"(holdout seed {HOLDOUT_SEED}), trace {args.trace}, "
          f"{NPROC} CPUs, BLAS threads {NPROC}")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_frac':<12} {failed_frac:12.6g} fraction "
          f"({meter.failed} of {meter.attempted} checked operations)")
    print(f"  step_s_tail is p{tail_pct:.1f} of {len(meter.step_s)} steps, "
          f"{beyond} beyond it")
    print(json.dumps({
        "correct": meter.failed == 0,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

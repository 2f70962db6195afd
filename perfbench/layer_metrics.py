"""Per-layer metrics from a traced run.

Values from the timed phase are per timed step: the phase total divided
by the number of steps, so runs of different lengths compare and counts
repeat exactly.  Values from set-up are per set-up (set-up runs several
times in a run).  A ``*_s`` metric is self time: span durations minus
their child spans.  Byte and flop counts are computed from array shapes,
not measured.
"""

from __future__ import annotations

import statistics

from spans import PHASES

SETUP, TIMED = PHASES.index("setup"), PHASES.index("timed")
MODULES = ("tensor", "layers", "statevector", "noise", "diagnostics",
           "routing", "optim", "vae", "diffusion", "metrics", "data",
           "checkpoint")

# (metric, unit, how, source, phase); how is "self" or "incl" (span
# times), "count" (exact counter), "max" or "last" (unnormalized values)
_TABLE = [
    ("tensor.conv2d.fwd_s", "s", "self", "tensor.conv2d.fwd", TIMED),
    ("tensor.conv2d.bwd_s", "s", "self", "tensor.conv2d.bwd", TIMED),
    ("tensor.conv2d.calls", "count", "count", "tensor.conv2d.calls", TIMED),
    ("tensor.conv2d.flops", "flop", "count", "tensor.conv2d.flops", TIMED),
    ("tensor.conv2d.im2col_bytes", "B", "count",
     "tensor.conv2d.im2col_bytes", TIMED),
    ("tensor.backward_s", "s", "self", "tensor.backward", TIMED),
    ("tensor.graph_nodes", "count", "count", "tensor.graph_nodes", TIMED),
    ("layers.GroupNorm.fwd_s", "s", "self", "layers.GroupNorm.fwd", TIMED),
    ("layers.QuantumLayer.fwd_s", "s", "self", "layers.QuantumLayer.fwd",
     TIMED),
    ("layers.QuantumLayer.bwd_s", "s", "self", "layers.QuantumLayer.bwd",
     TIMED),
    ("layers.QuantumLayer.fwd_incl_s", "s", "incl",
     "layers.QuantumLayer.fwd", TIMED),
    ("layers.QuantumLayer.bwd_incl_s", "s", "incl",
     "layers.QuantumLayer.bwd", TIMED),
    ("layers.QuantumLayer.calls", "count", "count",
     "layers.QuantumLayer.calls", TIMED),
    ("layers.QuantumLayer.sampled_s", "s", "self",
     "layers.QuantumLayer.sampled", TIMED),
    ("layers.QuantumLayer.sampled_calls", "count", "count",
     "layers.QuantumLayer.sampled_calls", TIMED),
    ("statevector.batch_s", "s", "self", "statevector.batch", TIMED),
    ("statevector.batch_calls", "count", "count", "statevector.batch_calls",
     TIMED),
    ("statevector.batch_rows", "count", "count", "statevector.batch_rows",
     TIMED),
    ("statevector.gate_rows", "count", "count", "statevector.gate_rows",
     TIMED),
    ("statevector.batch_ws_max_bytes", "B", "max",
     "statevector.batch_ws_max_bytes", TIMED),
    ("statevector.apply_gate_s", "s", "self", "statevector.apply_gate",
     TIMED),
    ("statevector.apply_gate_calls", "count", "count",
     "statevector.apply_gate_calls", TIMED),
    ("statevector.sample_bitstrings_s", "s", "self",
     "statevector.sample_bitstrings", TIMED),
    ("noise.sample_noisy_s", "s", "self", "noise.sample_noisy", TIMED),
    ("noise.trajectories", "count", "count", "noise.trajectories", TIMED),
    ("noise.shots", "count", "count", "noise.shots", TIMED),
    ("noise.mitigate_s", "s", "self", "noise.mitigate", TIMED),
    ("noise.observed_strings", "count", "count", "noise.observed_strings",
     TIMED),
    ("diagnostics.grad_samples_s", "s", "self", "diagnostics.grad_samples",
     TIMED),
    ("diagnostics.ee_stats_s", "s", "self", "diagnostics.ee_stats", TIMED),
    ("routing.route_s", "s", "self", "routing.route", TIMED),
    ("routing.swaps", "count", "count", "routing.swaps", TIMED),
    ("optim.adam_s", "s", "self", "optim.adam", TIMED),
    ("vae.forward_s", "s", "self", "vae.forward", TIMED),
    ("vae.loss_s", "s", "self", "vae.loss", TIMED),
    ("vae.encode_s", "s", "self", "vae.encode", TIMED),
    ("vae.decode_s", "s", "self", "vae.decode", TIMED),
    ("vae.loss_last", "loss", "last", "vae.loss_last", TIMED),
    ("diffusion.unet_forward_s", "s", "self", "diffusion.unet_forward",
     TIMED),
    ("diffusion.unet_calls", "count", "count", "diffusion.unet_calls",
     TIMED),
    ("diffusion.loss_last", "loss", "last", "diffusion.loss_last", TIMED),
    ("metrics.evaluate_s", "s", "self", "metrics.evaluate", TIMED),
    ("data.generate_s", "s", "self", "data.generate", SETUP),
    ("data.load_s", "s", "self", "data.load", SETUP),
    ("checkpoint.save_s", "s", "self", "checkpoint.save", SETUP),
    ("checkpoint.load_s", "s", "self", "checkpoint.load", SETUP),
    ("checkpoint.bytes", "B", "count", "checkpoint.bytes", SETUP),
    ("setup.vae.encode_s", "s", "self", "vae.encode", SETUP),
    ("setup.tensor.conv2d.fwd_s", "s", "self", "tensor.conv2d.fwd", SETUP),
    ("setup.tensor.graph_nodes", "count", "count", "tensor.graph_nodes",
     SETUP),
]

UNITS = {name: unit for name, unit, *_ in _TABLE}
UNITS["layers.QuantumLayer.bwd_fwd_ratio"] = "ratio"
UNITS.update({f"{m}.errors": "count" for m in MODULES})
UNITS.update({"trace.setup_s": "s", "trace.items_per_s": "items/s",
              "trace.step_s_p50": "s", "trace.spans_per_step": "count"})


def per_layer(tracer, meter, e2e: dict, setup_times: list) -> dict:
    """Every per-layer metric of the traced run, named as in UNITS."""
    totals = tracer.totals()
    per = {SETUP: len(setup_times), TIMED: max(len(meter.step_s), 1)}
    out = {}
    for name, _, how, source, phase in _TABLE:
        if how in ("self", "incl"):
            span = totals.get((phase, source))
            value = span[f"{how}_s"] if span else 0.0
            out[name] = value / per[phase]
        elif how == "count":
            out[name] = tracer.counts[(phase, source)] / per[phase]
        elif how == "max":
            out[name] = tracer.maxima.get(source, 0.0)
        else:
            out[name] = tracer.lasts.get(source, 0.0)
    fwd = out["layers.QuantumLayer.fwd_incl_s"]
    out["layers.QuantumLayer.bwd_fwd_ratio"] = (
        out["layers.QuantumLayer.bwd_incl_s"] / fwd if fwd else 0.0)
    for module in MODULES:
        out[f"{module}.errors"] = sum(
            tracer.counts[(p, f"{module}.errors")] for p in per)
    timed = [s for (p, _), s in totals.items() if p == TIMED]
    out["trace.setup_s"] = e2e["setup_s"]
    out["trace.items_per_s"] = e2e["items_per_s"]
    out["trace.step_s_p50"] = e2e["step_s_p50"]
    out["trace.spans_per_step"] = sum(s["spans"] for s in timed) / per[TIMED]
    return out


def span_table(tracer, meter, timed_s: float,
               setup_times: list) -> list[dict]:
    """Self and inclusive time per span name and phase, per step or set-up.

    ``share`` is the self time as a fraction of the mean timed step (the
    timed phase, checks excluded, divided by the steps) or of the median
    set-up; shares of one phase add up to at most 1.
    """
    steps = max(len(meter.step_s), 1)
    basis = {SETUP: statistics.mean(setup_times), TIMED: timed_s / steps}
    per = {SETUP: len(setup_times), TIMED: steps}
    rows = []
    for (phase, name), t in sorted(tracer.totals().items(),
                                   key=lambda kv: -kv[1]["self_s"]):
        rows.append({
            "phase": PHASES[phase], "span": name,
            "calls": t["spans"] / per[phase],
            "self_s": t["self_s"] / per[phase],
            "incl_s": t["incl_s"] / per[phase],
            "share": t["self_s"] / per[phase] / basis[phase],
        })
    return rows

"""Spans around calls into qlatent, recorded from outside the library.

``install(tracer)`` replaces public functions and methods of the qlatent
modules with thin wrappers that open a span, call the original, and
close the span.  A module function is replaced in its defining module
and in every module that imported it by name (``qlatent.layers.conv2d``
is the same object as ``qlatent.tensor.conv2d``).  Backward time is
caught by wrapping the ``_backward`` closure that a traced op attaches
to the ``Tensor`` it returns.  Nothing in the library is edited.

Spans live in flat in-memory arrays (name, start, end, parent, phase)
and are written out once, when the run ends.  Exact work counts
(calls, rows, flops, bytes computed from shapes) are kept next to them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

PHASES = ("setup", "timed")


class Tracer:
    """In-memory span store plus exact work counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.phase = array("b")
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.lasts: dict[str, float] = {}
        self.enabled = True
        self.current_phase = 0
        self._stack = [-1]
        self._last_error = None

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_phase(self, phase: str):
        self.current_phase = PHASES.index(phase)

    def count(self, key: str, value: float = 1):
        self.counts[(self.current_phase, key)] += value

    def maximum(self, key: str, value: float):
        if value > self.maxima.get(key, 0.0):
            self.maxima[key] = value

    def last(self, key: str, value: float):
        self.lasts[key] = float(value)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def error(self, span: str, exc: BaseException):
        # an exception crossing nested spans counts once, at the innermost
        if exc is not self._last_error:
            self._last_error = exc
            self.count(span.split(".", 1)[0] + ".errors")

    def traced(self, span: str, fn, on_result=None):
        """``fn`` in a span; ``on_result(args, kwargs, out)`` counts work."""
        sid = self.name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(sid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.error(span, exc)
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    # ---- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
        }

    def totals(self) -> dict[tuple[int, str], dict[str, float]]:
        """(phase, span name) -> inclusive time, self time and span count.

        Self time is a span's duration minus the durations of its direct
        children; children always nest inside their parent's interval.
        """
        a = self.arrays()
        if a["name"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        out = {}
        key = a["phase"].astype(np.int64) * len(self.names) + a["name"]
        size = len(PHASES) * len(self.names)
        incl = np.bincount(key, weights=dur, minlength=size)
        excl = np.bincount(key, weights=own, minlength=size)
        calls = np.bincount(key, minlength=size)
        for k in np.flatnonzero(calls):
            phase, nid = divmod(int(k), len(self.names))
            out[(phase, self.names[nid])] = {
                "incl_s": float(incl[k]), "self_s": float(excl[k]),
                "spans": int(calls[k])}
        return out

    def write(self, path: Path):
        """Spans as arrays plus the name table and run id, in one .npz."""
        arrays = self.arrays()
        np.savez(path, run_id=np.array(self.run_id),
                 names=np.array(json.dumps(self.names)),
                 phases=np.array(json.dumps(PHASES)), **arrays)


# ---- installing the wrappers ----------------------------------------------


def _rebind(old, new):
    """Point every qlatent module global bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("qlatent"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _wrap_function(tracer, module, attr, span, on_result=None):
    old = getattr(module, attr)
    _rebind(old, tracer.traced(span, old, on_result))


def _wrap_method(tracer, cls, attr, span, on_result=None):
    old = cls.__dict__[attr]
    setattr(cls, attr, tracer.traced(span, old, on_result))


def _wrap_backward(tracer, out, span, on_call=None):
    """Time the closure a traced op attached to its output ``Tensor``."""
    fn = out._backward
    if fn is None:
        return
    if on_call is None:
        out._backward = tracer.traced(span, fn)
        return

    def counted():
        on_call()
        fn()

    out._backward = tracer.traced(span, counted)


def install(tracer: Tracer):
    """Wrap the public qlatent calls that the benchmark measures."""
    from qlatent import (checkpoint, data, diagnostics, diffusion, layers,
                         metrics, noise, optim, routing, statevector, tensor,
                         vae)

    t = tracer

    # tensor: conv2d forward and backward, the backward sweep, graph size
    def conv_counts(args, kwargs, out):
        x, weight = args[0], args[1]
        n, c = x.shape[0], x.shape[1]
        f, _, k, _ = weight.shape
        cols = out.shape[2] * out.shape[3]
        macs = n * f * cols * c * k * k
        t.count("tensor.conv2d.calls")
        t.count("tensor.conv2d.flops", 2 * macs)
        t.count("tensor.conv2d.im2col_bytes", 8 * n * c * k * k * cols)
        grads = int(x.requires_grad) + int(weight.requires_grad)
        _wrap_backward(t, out, "tensor.conv2d.bwd",
                       lambda: t.count("tensor.conv2d.flops",
                                       2 * macs * grads))

    _wrap_function(t, tensor, "conv2d", "tensor.conv2d.fwd", conv_counts)
    _wrap_method(t, tensor.Tensor, "backward", "tensor.backward")
    from_op = tensor.Tensor.__dict__["_from_op"].__func__

    def counting_from_op(data, parents, backward_fn):
        out = from_op(data, parents, backward_fn)
        if t.enabled and out.requires_grad:
            t.count("tensor.graph_nodes")
        return out

    tensor.Tensor._from_op = staticmethod(counting_from_op)

    # layers
    _wrap_method(t, layers.GroupNorm, "forward", "layers.GroupNorm.fwd")

    def ql_counts(args, kwargs, out):
        t.count("layers.QuantumLayer.calls")
        _wrap_backward(t, out, "layers.QuantumLayer.bwd")

    _wrap_method(t, layers.QuantumLayer, "circuit_expectations",
                 "layers.QuantumLayer.fwd", ql_counts)
    _wrap_method(t, layers.QuantumLayer, "forward_sampled",
                 "layers.QuantumLayer.sampled",
                 lambda a, k, o: t.count("layers.QuantumLayer.sampled_calls"))

    # statevector
    def batch_counts(args, kwargs, out):
        circuit = args[0]
        rows = out.shape[0]
        t.count("statevector.batch_calls")
        t.count("statevector.batch_rows", rows)
        t.count("statevector.gate_rows", rows * len(circuit.ops))
        t.maximum("statevector.batch_ws_max_bytes", out.nbytes)

    def gate_counts(args, kwargs, out):
        t.count("statevector.apply_gate_calls")
        t.count("statevector.gate_rows")

    _wrap_function(t, statevector, "run_circuit_batch", "statevector.batch",
                   batch_counts)
    _wrap_function(t, statevector, "apply_gate", "statevector.apply_gate",
                   gate_counts)
    _wrap_function(t, statevector, "apply_pauli", "statevector.apply_pauli")
    _wrap_function(t, statevector, "sample_bitstrings",
                   "statevector.sample_bitstrings")

    # noise
    def noisy_counts(args, kwargs, out):
        model = args[2] if len(args) > 2 else kwargs["noise"]
        shots = args[3] if len(args) > 3 else kwargs["shots"]
        t.count("noise.sample_noisy_calls")
        t.count("noise.trajectories", model.trajectories)
        t.count("noise.shots", shots)

    _wrap_function(t, noise, "sample_noisy", "noise.sample_noisy",
                   noisy_counts)
    _wrap_function(t, noise, "mitigate_confusion", "noise.mitigate",
                   lambda a, k, o: t.count("noise.observed_strings",
                                           len(a[0].counts)))
    _wrap_function(t, noise, "expected_hamming_distance", "noise.hamming")
    _wrap_function(t, noise, "sampling_control_distance", "noise.control")

    # diagnostics and routing
    _wrap_function(t, diagnostics, "first_param_gradient_samples",
                   "diagnostics.grad_samples")
    _wrap_function(t, diagnostics, "entanglement_entropy_stats",
                   "diagnostics.ee_stats")
    _wrap_function(t, routing, "route_to_linear_chain", "routing.route",
                   lambda a, k, o: t.count("routing.swaps", o.swap_count))

    # optimizer and models
    _wrap_method(t, optim.Adam, "step", "optim.adam")
    _wrap_method(t, vae.VAE, "forward", "vae.forward")
    _wrap_method(t, vae.VAE, "encode", "vae.encode")
    _wrap_method(t, vae.VAE, "decode", "vae.decode")
    _wrap_function(t, vae, "vae_loss", "vae.loss",
                   lambda a, k, o: t.last("vae.loss_last",
                                                  o[1]["total"]))
    _wrap_function(t, vae, "encode_dataset", "vae.encode_dataset")
    _wrap_method(t, diffusion.UNet, "forward", "diffusion.unet_forward",
                 lambda a, k, o: t.count("diffusion.unet_calls"))
    _wrap_function(t, diffusion, "ddpm_train_step", "diffusion.train_step",
                   lambda a, k, o: t.last("diffusion.loss_last", o))
    _wrap_function(t, diffusion, "sample_latents", "diffusion.sample_latents")
    _wrap_function(t, diffusion, "generate_images", "diffusion.generate")

    # metrics, data, checkpoints
    _wrap_function(t, metrics, "evaluate_sets", "metrics.evaluate")
    _wrap_function(t, data, "generate_dataset", "data.generate")
    _wrap_function(t, data, "load_split", "data.load")
    _wrap_function(t, checkpoint, "save_checkpoint", "checkpoint.save",
                   lambda a, k, o: t.count("checkpoint.bytes",
                                           Path(o).stat().st_size))
    _wrap_function(t, checkpoint, "load_checkpoint", "checkpoint.load")

"""The four benchmark workloads and the oracle checks that guard them.

Each workload is a closed loop with one client: ``unit`` runs one piece
of user work and returns only when it is finished, and the runner calls
it again until the time is up.  ``setup`` builds everything the loop
needs from the seed alone: generated data and freshly seeded models.

Checks compare outputs with oracles (parameter-shift gradients, central
differences, exact expectation values, analytic bounds), never with
frozen digests, so a change of RNG stream or of rounding in a faster
kernel does not count as a failure.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from qlatent import (checkpoint, data, diagnostics, diffusion, layers,
                     metrics, noise, optim, routing, statevector, tensor, vae)
from qlatent.ansatz import AnsatzKind, AnsatzSpec, build_ansatz, param_count
from qlatent.tensor import Tensor

TRAIN_BATCH = 16
# n_images with a 60/20/20 split that leaves 32 training images: two full
# batches per epoch, so every timed training step has the same shapes
TRAIN_DATASET_IMAGES = 52
# standard errors allowed between a mitigated sampled <Z> and the exact one
PROBE_SIGMAS = 5.0


class Meter:
    """Closed-loop bookkeeping: step times, items, checked operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.step_s: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0
        self.extra: dict = {}  # workload-specific detail for the run record

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def error(self, what: str):
        """Record an operation that raised; the loop keeps running."""
        traceback.print_exc(file=sys.stderr)
        self.record(False, f"{what}: {sys.exc_info()[1]!r}")

    @contextmanager
    def checking(self):
        """Oracle work: untraced and left out of the timed phase."""
        t0 = time.perf_counter()
        enabled = self.tracer.enabled if self.tracer else False
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = enabled
            self.check_s += time.perf_counter() - t0

    def check(self, what: str, fn):
        """Run one oracle comparison; raising counts as failing."""
        with self.checking():
            try:
                ok = bool(fn())
            except Exception as exc:  # a broken oracle path is a failure
                traceback.print_exc(file=sys.stderr)
                ok, what = False, f"{what}: {exc!r}"
        self.record(ok, what)


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _quantum_layers(model):
    return [m for m in model.iter_modules()
            if isinstance(m, layers.QuantumLayer)]


def _capture_inputs(layer) -> dict:
    """Keep the first angle batch and theta a layer's exact path sees."""
    seen: dict = {}
    method = type(layer).circuit_expectations

    def capturing(angles):
        if not seen:
            seen["angles"] = angles.data.copy()
            seen["theta"] = layer.theta.data.copy()
        return method(layer, angles)

    layer.circuit_expectations = capturing
    return seen


def quantum_gradient_check(layer, angles, theta, rng) -> bool:
    """Exact-path angle gradients against ``parameter_shift_gradient``.

    The upstream gradient is a fixed random weighting of the per-qubit
    <Z> outputs, so the check is not vacuous when the layer's output map
    is still zero.  Checks three ansatz slots summed over every row and
    two encoder slots on two rows.
    """
    n = layer.n_qubits
    rows = angles.shape[0]
    weights = rng.standard_normal((rows, n))
    probe = copy.deepcopy(layer)
    probe.theta = Tensor(theta, requires_grad=True)
    a = Tensor(angles, requires_grad=True)
    (probe.circuit_expectations(a) * Tensor(weights)).sum().backward()
    full = np.concatenate(
        [angles, np.broadcast_to(theta, (rows, theta.size))], axis=1)
    scale = 1.0 + np.abs(weights).sum()

    def oracle(row, slot):
        return sum(weights[row, q] * diagnostics.parameter_shift_gradient(
            layer._template, full[row], slot, cost_qubit=q)
            for q in range(n))

    for s in (0, theta.size // 2, theta.size - 1):
        ref = sum(oracle(b, n + s) for b in range(rows))
        if abs(probe.theta.grad[s] - ref) > 1e-8 * scale:
            return False
    for b in (0, rows - 1):
        for s in (0, n - 1):
            if abs(a.grad[b, s] - oracle(b, s)) > 1e-8 * scale:
                return False
    return True


def conv_gradient_check(x, weight, stride, padding, rng) -> bool:
    """conv2d input and weight gradients against central differences."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(weight, requires_grad=True)
    out = tensor.conv2d(xt, wt, stride=stride, padding=padding)
    upstream = rng.standard_normal(out.shape)
    (out * Tensor(upstream)).sum().backward()

    def loss(xd, wd):
        y = tensor.conv2d(Tensor(xd), Tensor(wd), stride=stride,
                          padding=padding)
        return float((y.data * upstream).sum())

    h = 1e-5
    for arr, grad, is_x in ((x, xt.grad, True), (weight, wt.grad, False)):
        for flat in rng.choice(arr.size, size=3, replace=False):
            idx = np.unravel_index(flat, arr.shape)
            plus, minus = arr.copy(), arr.copy()
            plus[idx] += h
            minus[idx] -= h
            if is_x:
                fd = (loss(plus, weight) - loss(minus, weight)) / (2 * h)
            else:
                fd = (loss(x, plus) - loss(x, minus)) / (2 * h)
            if abs(fd - grad[idx]) > 1e-6 * (1.0 + abs(grad[idx])):
                return False
    return True


class _Batches:
    """Epoch-wise shuffled full batches, like the training commands."""

    def __init__(self, n: int, rng):
        self.n, self.rng = n, rng
        self.queue: list[np.ndarray] = []

    def next(self) -> np.ndarray:
        if not self.queue:
            perm = self.rng.permutation(self.n)
            self.queue = [perm[lo:lo + TRAIN_BATCH]
                          for lo in range(0, self.n, TRAIN_BATCH)]
        return self.queue.pop(0)


class _Training:
    """One optimizer step per unit; oracle checks on the first batch."""

    @staticmethod
    def state(model, n_items: int, seed: int, **extra) -> dict:
        rng = np.random.default_rng(seed)
        return dict(extra, model=model, rng=rng,
                    optimizer=optim.Adam(model.parameters(), lr=1e-3),
                    batches=_Batches(n_items, rng),
                    check_rng=np.random.default_rng([seed, 1]), steps=0)

    def unit(self, st, meter):
        model = st["model"]
        idx = st["batches"].next()
        first = st["steps"] == 0
        layer = _quantum_layers(model)[0]
        seen = _capture_inputs(layer) if first else None
        what = f"{self.name} step {st['steps']}"
        t0 = time.perf_counter()
        try:
            ok = _finite(self.step(st, idx))
        except Exception:
            meter.error(what)
            ok = None
        finally:
            meter.step_s.append(time.perf_counter() - t0)
            if first:
                del layer.circuit_expectations
        st["steps"] += 1
        if ok is not None:
            meter.record(ok, f"{what}: non-finite loss")
            meter.items += idx.size if ok else 0
        if not seen:
            return
        rng = st["check_rng"]
        meter.check(
            f"{self.name} QuantumLayer gradient vs parameter shift",
            lambda: quantum_gradient_check(layer, seen["angles"],
                                           seen["theta"], rng))
        for label, conv, x in self.conv_inputs(st, idx, rng):
            meter.check(
                f"{self.name} {label} conv2d gradient vs central differences",
                lambda conv=conv, x=x: conv_gradient_check(
                    x, conv.weight.data, conv.stride, conv.padding, rng))


# ---- vae_train ------------------------------------------------------------


class VaeTrain(_Training):
    """Hybrid VAE optimizer steps on synthetic fundus images."""

    name = "vae_train"
    config = vae.VAEConfig(base_channels=8, quantum=True, q_qubits=4,
                           q_layers=2, q_kind=AnsatzKind.ESE2)

    def setup(self, seed, workdir):
        manifest = data.generate_dataset(workdir / "data",
                                         TRAIN_DATASET_IMAGES, seed)
        images, _ = data.load_split(manifest, "train")
        return self.state(vae.VAE(self.config, seed=seed), images.shape[0],
                          seed, images=images)

    def step(self, st, idx):
        parts = vae.vae_train_step(st["model"], st["optimizer"],
                                   st["images"][idx], st["rng"])
        return list(parts.values())

    def conv_inputs(self, st, idx, rng):
        model = st["model"]
        return [("stem", model.enc_stem, st["images"][idx[:2]]),
                ("stride-2", model.enc_down1.conv,
                 rng.standard_normal((2, self.config.base_channels, 16, 16)))]


# ---- ddpm_train_q6 --------------------------------------------------------


class DdpmTrainQ6(_Training):
    """Quantum DDPM steps: 24 QuantumLayers of 6 qubits x 4 ESE2 layers."""

    name = "ddpm_train_q6"
    vae_config = vae.VAEConfig(base_channels=8)
    config = diffusion.UNetConfig(base_channels=8, quantum=True, q_qubits=6,
                                  q_layers=4, q_kind=AnsatzKind.ESE2)

    def setup(self, seed, workdir):
        manifest = data.generate_dataset(workdir / "data",
                                         TRAIN_DATASET_IMAGES, seed)
        images, labels = data.load_split(manifest, "train")
        frozen = vae.VAE(self.vae_config, seed=seed)
        latents = vae.encode_dataset(frozen, images)
        z = latents * diffusion.latent_scale(latents)
        return self.state(diffusion.UNet(self.config, seed=seed), z.shape[0],
                          seed, z=z, labels=labels,
                          schedule=diffusion.build_schedule())

    def step(self, st, idx):
        return diffusion.ddpm_train_step(
            st["model"], st["optimizer"], st["z"][idx], st["labels"][idx],
            st["schedule"], st["rng"])

    def conv_inputs(self, st, idx, rng):
        model = st["model"]
        down = model.down_stages[0].down.conv
        return [("stem", model.stem, st["z"][idx[:2]]),
                ("stride-2", down,
                 rng.standard_normal((2, down.weight.shape[1], 8, 8)))]


# ---- noisy_sample ---------------------------------------------------------


def _config_echo(config) -> dict:
    echo = dataclasses.asdict(config)
    echo["q_kind"] = config.q_kind.value
    return echo


def _config_from_echo(cls, echo: dict):
    names = {f.name for f in dataclasses.fields(cls)}
    values = {k: v for k, v in echo.items() if k in names}
    values["q_kind"] = AnsatzKind(values["q_kind"])
    return cls(**values)


def _round_trip(path, kind, model, echo, cls, model_cls):
    """Save a model as .qldm and rebuild it from the file, like ``sample``."""
    checkpoint.save_checkpoint(path, kind, echo,
                               checkpoint.state_dict(model))
    ckpt = checkpoint.load_checkpoint(path)
    fresh = model_cls(_config_from_echo(cls, ckpt.config), seed=0)
    checkpoint.load_state_dict(fresh, ckpt.tensors)
    return fresh, ckpt.config


def mitigated_probe_check(layer, model: noise.NoiseModel, shots: int,
                          seed: int, rng) -> bool:
    """Sampled, mitigated <Z> of one probe row against the exact <Z>.

    Runs ``forward_sampled`` on a copy of the layer whose output map is
    the identity on the qubit outputs, so the returned values are the
    mitigated <Z_q> themselves.  Each must lie within PROBE_SIGMAS
    standard errors of the exact value from ``run_circuit_batch``; the
    error of the mitigated estimate is the raw binomial error divided by
    (1 - 2 alpha).
    """
    n = layer.n_qubits
    probe = copy.deepcopy(layer)
    out_features = probe.post_map.weight.shape[1]
    identity = np.zeros((n, out_features))
    identity[:, :n] = np.eye(n)
    probe.post_map.weight = Tensor(identity)
    probe.post_map.bias = Tensor(np.zeros(out_features))
    x = rng.standard_normal((1, probe.pre_map.weight.shape[0]))
    z_mit = probe.forward_sampled(Tensor(x), shots, model, seed,
                                  mitigate=True).data[0, :n]
    angles = probe.pre_map(Tensor(x)).data
    full = np.concatenate([angles, probe.theta.data[None, :]], axis=1)
    z_exact = statevector.pauli_z_expectations_batch(
        statevector.run_circuit_batch(probe._template, full), n)[0]
    shrink = 1.0 - 2.0 * model.readout_alpha
    stderr = np.sqrt((1.0 - (shrink * z_exact) ** 2) / shots) / shrink
    return bool(np.all(np.abs(z_mit - z_exact) <= PROBE_SIGMAS * stderr))


class NoisySample:
    """Shot-based class-conditional generation under readout noise."""

    name = "noisy_sample"
    vae_config = vae.VAEConfig(base_channels=8, quantum=True, q_qubits=4,
                               q_layers=2, q_kind=AnsatzKind.ESE2)
    unet_config = diffusion.UNetConfig(base_channels=8, quantum=True,
                                       q_qubits=4, q_layers=2,
                                       q_kind=AnsatzKind.ESE2)
    noise_model = noise.NoiseModel(readout_alpha=0.05, p1=0.0, p2=0.0,
                                   trajectories=50)
    shots = 1000
    # two schedule points per image: every timed step is a sampled UNet
    # call at the paper's nonzero alpha, and a round stays a few seconds
    sampling_steps = 2
    knn_k = 2  # one image per class: precision/recall needs k < 3

    def setup(self, seed, workdir):
        manifest = data.generate_dataset(workdir / "data", 20, seed)
        train, _ = data.load_split(manifest, "train")
        test, _ = data.load_split(manifest, "test")
        model = vae.VAE(self.vae_config, seed=seed)
        scale = diffusion.latent_scale(vae.encode_dataset(model, train))
        v, _ = _round_trip(workdir / "vae.qldm", "vae", model,
                           _config_echo(self.vae_config), vae.VAEConfig,
                           vae.VAE)
        echo = dict(_config_echo(self.unet_config), latent_scale=scale)
        u, echo = _round_trip(workdir / "ddpm.qldm", "unet",
                              diffusion.UNet(self.unet_config, seed=seed + 1),
                              echo, diffusion.UNetConfig, diffusion.UNet)
        settings = layers.SamplingSettings(self.shots, self.noise_model,
                                           seed=seed, mitigate=True)
        for m in (v, u):
            layers.set_sampling(m, settings)
        return {"vae": v, "unet": u, "scale": echo["latent_scale"],
                "test": test, "schedule": diffusion.build_schedule(),
                "rng": np.random.default_rng(seed),
                "check_rng": np.random.default_rng([seed, 1]),
                "seed": seed, "rounds": 0}

    def unit(self, st, meter):
        unet = st["unet"]
        forward = type(unet).forward

        def timed_forward(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return forward(unet, *args, **kwargs)
            finally:
                meter.step_s.append(time.perf_counter() - t0)

        labels = np.arange(unet.config.num_classes)
        unet.forward = timed_forward
        try:
            images = diffusion.generate_images(
                st["vae"], unet, st["schedule"], labels.size, labels,
                st["rng"], st["scale"], steps=self.sampling_steps)
        except Exception:
            images = None
            for label in labels:
                meter.error(f"round {st['rounds']} image of class {label}")
        finally:
            del unet.forward
        if images is not None:
            for label, img in zip(labels, images):
                ok = _finite(img) and 0.0 <= img.min() and img.max() <= 1.0
                meter.record(ok, f"round {st['rounds']} class {label}: "
                                 "image non-finite or outside [0, 1]")
                meter.items += int(ok)
            try:
                report = metrics.evaluate_sets(st["test"], images,
                                               k=self.knn_k)
                meter.record(_finite(list(dataclasses.astuple(report))),
                             f"round {st['rounds']}: non-finite metrics")
            except Exception:
                meter.error(f"round {st['rounds']} evaluate_sets")
        if st["rounds"] == 0:
            meter.check(
                "mitigated sampled <Z> vs exact <Z>",
                lambda: mitigated_probe_check(
                    _quantum_layers(unet)[0], self.noise_model, self.shots,
                    st["seed"] + 104729, st["check_rng"]))
        st["rounds"] += 1


# ---- ansatz_study -----------------------------------------------------------


class AnsatzStudy:
    """The per-point calls of ``ansatz-bench`` over a kinds x qubits grid."""

    name = "ansatz_study"
    kinds = ("S2D", "BE", "SE", "ESE1", "ESE2")
    qubits = (4, 6, 8, 10, 12)
    n_layers = 6
    gv_samples = 100
    ee_draws = 30
    shots = 2000
    noise_model = noise.NoiseModel(readout_alpha=0.05, p1=5e-4, p2=1e-2,
                                   trajectories=50)
    gv_oracle_rows = (0, 1, gv_samples - 1)

    def setup(self, seed, workdir):
        grid = []
        for kind in self.kinds:
            for n in self.qubits:
                spec = AnsatzSpec(AnsatzKind(kind), n, self.n_layers)
                pcount = param_count(spec)
                grid.append((spec, pcount,
                             build_ansatz(spec, np.zeros(pcount))))
        return {"grid": grid, "seed": seed, "passes": 0}

    def unit(self, st, meter):
        """One pass over the whole grid: the step, and its 25 items.

        Point times span about 50x (4 to 12 qubits), so the median and
        tail over points fall on the edge between qubit counts and jump
        from run to run; a whole pass is a step the user waits for and
        keeps the mix of points the same in every run.  The per-point
        times go to the run record.
        """
        base = st["seed"] + 10007 * st["passes"]
        pass_s = 0.0
        for i, (spec, pcount, circuit) in enumerate(st["grid"]):
            what = f"pass {st['passes']} {spec.kind.value} n={spec.n_qubits}"
            t0 = time.perf_counter()
            try:
                out = self.point(spec, pcount, circuit, base + 100 * i)
            except Exception:
                out = None
                meter.error(what)
            point_s = time.perf_counter() - t0
            pass_s += point_s
            meter.extra.setdefault("point_s", []).append(
                [spec.kind.value, spec.n_qubits, point_s])
            if out is None:
                continue
            n = spec.n_qubits
            ok = (_finite(list(out["values"]))
                  and all(0.0 <= h <= n for h in out["hamming"]))
            meter.record(ok, f"{what}: outputs non-finite or out of range")
            meter.items += int(ok)
            meter.check(f"{what}: GV samples vs parameter shift",
                        lambda: self.gv_oracle(circuit, out["grads"],
                                               base + 100 * i))
            meter.check(f"{what}: EE within floor(n/2) ln 2",
                        lambda: -1e-12 <= out["ee"]
                        <= n // 2 * np.log(2.0) + 1e-9)
        meter.step_s.append(pass_s)
        st["passes"] += 1

    def point(self, spec, pcount, circuit, row_seed):
        n = spec.n_qubits
        alpha = self.noise_model.readout_alpha
        routed = routing.route_to_linear_chain(circuit)
        grads = diagnostics.first_param_gradient_samples(
            circuit, self.gv_samples, row_seed)
        gv = float(np.var(grads, ddof=1))
        gv_err = diagnostics.variance_stderr(grads)
        ee_mean, ee_err = diagnostics.entanglement_entropy_stats(
            spec, self.ee_draws, row_seed + 1)
        theta = np.random.default_rng(row_seed + 2).uniform(
            0.0, 2 * np.pi, pcount)
        state = statevector.run_circuit(circuit, theta)
        exact = noise.EmpiricalDistribution(n, {
            statevector.index_to_bitstring(i, n): float(p)
            for i, p in enumerate(state.probabilities) if p > 0})
        noisy = noise.sample_noisy(circuit, theta, self.noise_model,
                                   self.shots, row_seed + 3)
        raw_h = noise.expected_hamming_distance(noisy, exact)
        mitigated = noise.EmpiricalDistribution(n, noise.mitigate_confusion(
            noisy, noise.ConfusionMatrix.symmetric(n, alpha)))
        mit_h = noise.expected_hamming_distance(mitigated, exact)
        control = noise.sampling_control_distance(
            state, self.shots, (row_seed + 4, row_seed + 5))
        return {"grads": grads, "ee": ee_mean,
                "hamming": (raw_h, mit_h, control),
                "values": (gv, gv_err, ee_mean, ee_err, raw_h, mit_h,
                           control, routed.swap_count)}

    def gv_oracle(self, circuit, grads, row_seed) -> bool:
        """GV samples equal single-slot parameter-shift gradients.

        Redraws the angle rows the way ``first_param_gradient_samples``
        documents it: i.i.d. uniform on [0, 2 pi) from ``row_seed``.
        """
        thetas = np.random.default_rng(row_seed).uniform(
            0.0, 2 * np.pi, size=(self.gv_samples, circuit.n_params))
        return all(
            abs(grads[r] - diagnostics.parameter_shift_gradient(
                circuit, thetas[r], 0, 0)) <= 1e-10
            for r in self.gv_oracle_rows)


WORKLOADS = {w.name: w for w in (VaeTrain, DdpmTrainQ6, NoisySample,
                                 AnsatzStudy)}

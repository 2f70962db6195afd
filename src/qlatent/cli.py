"""Command-line harness tying the toolkit into runnable experiments.

    qlatent <command> --config <path> [--set key=value ...] --out <dir>

Commands: ansatz-bench, make-dataset, train-vae, train-ddpm, sample,
evaluate, compare-models.  Exit codes: 0 success, 1 validation error,
2 runtime failure.  Every command writes only inside ``--out``, echoes
its resolved configuration, and reruns with identical settings rewrite
byte-identical CSV/SVG/PPM outputs; wall-clock timing goes to a
separate ``*_runinfo.txt`` sidecar so the data files stay stable.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ansatz import AnsatzKind, AnsatzSpec, build_ansatz, param_count
from .checkpoint import (
    config_from_echo,
    load_checkpoint,
    load_state_dict,
    save_checkpoint,
    state_dict,
)
from .config import (
    Field,
    load_config_file,
    parse_overrides,
    render_resolved,
    resolve,
)
from .data import (
    FundusParams,
    generate_dataset,
    load_images,
    load_manifest,
    load_split,
    write_ppm,
)
from .diagnostics import (
    GradientVarianceSweep,
    entanglement_entropy_stats,
    first_param_gradient_samples,
    fit_bp_slope,
    variance_stderr,
)
from .diffusion import (
    UNet,
    UNetConfig,
    build_schedule,
    ddpm_train_step,
    generate_images,
    latent_scale,
    zero_prediction_baseline,
)
from .layers import QuantumLayer, SamplingSettings, set_sampling
from .metrics import MetricReport, evaluate_sets
from .noise import (
    NoiseModel,
    hamming_from_marginals,
    index_marginals,
    readout_marginals,
    sample_noisy_counts,
    sampling_control_distance,
)
from .optim import Adam
from .routing import route_to_linear_chain
from .statevector import run_circuit
from .svgplot import LineSeries, write_line_plot
from .vae import VAE, VAEConfig, encode_dataset, vae_train_step


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _f(value: float) -> str:
    """Fixed CSV float formatting so reruns stay byte-identical."""
    return f"{value:.8f}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(v) for v in row])


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers: {text!r}") \
            from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers: {text!r}") \
            from None


def _parse_kinds(text: str) -> list[AnsatzKind]:
    kinds = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            kinds.append(AnsatzKind(tok.upper()))
        except ValueError:
            names = ", ".join(k.value for k in AnsatzKind)
            raise ValueError(
                f"unknown ansatz kind {tok!r} (choose from {names})") \
                from None
    if not kinds:
        raise ValueError("no ansatz kinds given")
    return kinds


def _one_kind(text: str) -> AnsatzKind:
    kinds = _parse_kinds(text)
    if len(kinds) != 1:
        raise ValueError(f"q_kind: name exactly one ansatz kind, got {text!r}")
    return kinds[0]


def _alpha_tag(alpha: float) -> str:
    return "a" + f"{alpha:g}".replace(".", "p")


# ---- shared schema pieces ----------------------------------------------

_SEED = Field("seed", int, 0, help="base RNG seed")
_QUANTUM_FIELDS = [
    Field("quantum", bool, False, help="use quantum residual blocks"),
    Field("q_qubits", int, 4, help="qubits per quantum layer"),
    Field("q_layers", int, 2, help="ansatz layers per quantum layer"),
    Field("q_kind", str, "ESE2", help="ansatz kind for quantum layers"),
]
_EVAL_FIELDS = [
    Field("embed_method", str, "pool", choices=("pool", "project"),
          help="feature embedding for distribution metrics"),
    Field("knn_k", int, 3, help="k for precision/recall neighbourhoods"),
]


def _require_min(cfg: dict, **lows: int) -> None:
    """Reject the first integer setting below its lower bound."""
    for key, low in lows.items():
        if cfg[key] < low:
            raise ValueError(f"{key}: must be >= {low}")


def _require_file(path_text: str, what: str) -> Path:
    if not path_text:
        raise ValueError(f"config key {what!r} must be set")
    path = Path(path_text)
    if not path.is_file():
        raise ValueError(f"{what}: no such file: {path}")
    return path


_MODELS = {"vae": (VAE, VAEConfig), "unet": (UNet, UNetConfig)}


def _load_model(path_text: str, key: str, kind: str):
    """(model, config echo) from the ``kind`` checkpoint at key ``key``."""
    path = _require_file(path_text, key)
    try:
        ckpt = load_checkpoint(path)
    except ValueError as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc}") from None
    if ckpt.kind != kind:
        raise ValueError(
            f"{path} holds a {ckpt.kind!r} checkpoint, expected {kind!r}")
    model_cls, config_cls = _MODELS[kind]
    model = model_cls(config_from_echo(config_cls, ckpt.config), seed=0)
    load_state_dict(model, ckpt.tensors)
    return model, ckpt.config


def _load_pair(cfg: dict, vae_key: str, ddpm_key: str):
    """(vae, unet, schedule, latent scale) from a matching checkpoint pair."""
    vae, _ = _load_model(cfg[vae_key], vae_key, "vae")
    unet, echo = _load_model(cfg[ddpm_key], ddpm_key, "unet")
    if unet.config.latent_size != vae.config.latent_size \
            or unet.config.latent_channels != vae.config.latent_channels:
        raise ValueError("checkpoint mismatch: the UNet latent geometry "
                         "does not match the autoencoder")
    schedule = build_schedule(echo["timesteps"], echo["beta_start"],
                              echo["beta_end"])
    return vae, unet, schedule, echo["latent_scale"]


def _generate(pair, labels: np.ndarray, seed: int, a_idx: int, steps: int,
              batch_size: int, settings) -> np.ndarray:
    """Images for ``labels`` from the stream ``(seed, a_idx)``, quantised
    as ``write_ppm`` stores them; ``settings`` None samples exactly."""
    vae, unet, schedule, scale = pair
    for model in (vae, unet):
        set_sampling(model, settings)
    rng = np.random.default_rng(np.random.SeedSequence((seed, a_idx)))
    images = generate_images(vae, unet, schedule, labels.size, labels, rng,
                             scale, steps=steps, batch_size=batch_size)
    for model in (vae, unet):
        set_sampling(model, None)
    return np.clip(np.round(images * 255), 0, 255) / 255


def _quantum_log(model) -> tuple[str, list[str]]:
    """Log lines: the quantum-layer count, and each layer's circuit size."""
    layers = [m for m in model.iter_modules()
              if isinstance(m, QuantumLayer)]
    count = f"quantum layers = {len(layers)}"
    if not layers:
        return count, []
    spec = layers[0].spec
    n, depth = spec.n_qubits, spec.n_layers
    if spec.kind == AnsatzKind.S2D:
        terms = f"{n} + 2 * {depth} layers * {n - 1} pairs"
    elif spec.kind == AnsatzKind.BE:
        terms = f"{depth} layers * {n} qubits"
    else:
        terms = f"3 * {depth} layers * {n} qubits"
    return count, [f"quantum circuit parameters per layer = "
                   f"{param_count(spec)} ({terms})"]


def _fit(cfg: dict, out: Path, model, kind: str, stem: str, echo: dict,
         n: int, step, columns: list[str]) -> tuple[list[list], list[float]]:
    """Train on ``n`` rows; returns the loss CSV rows and epoch means.

    Each epoch draws one permutation from the run RNG, then per batch
    ``step(optimizer, idx, rng)`` returns the losses named in ``columns``
    (total last).  Writes ``<stem>_ep<k>.qldm``, ``<stem>.qldm`` and
    ``<stem>_loss.csv``.
    """
    rng = np.random.default_rng(cfg["seed"])
    optimizer = Adam(model.parameters(), lr=cfg["learning_rate"])
    rows, epoch_means = [], []
    for epoch in range(1, cfg["epochs"] + 1):
        perm = rng.permutation(n)
        totals = []
        for lo in range(0, n, cfg["batch_size"]):
            losses = step(optimizer, perm[lo:lo + cfg["batch_size"]], rng)
            totals.append(losses[columns[-1]])
            rows.append([epoch, len(rows) + 1,
                         *(_f(losses[c]) for c in columns)])
        epoch_means.append(float(np.mean(totals)))
        save_checkpoint(out / f"{stem}_ep{epoch}.qldm", kind, echo,
                        state_dict(model))
    save_checkpoint(out / f"{stem}.qldm", kind, echo, state_dict(model))
    _write_csv(out / f"{stem}_loss.csv", ["epoch", "step", *columns], rows)
    return rows, epoch_means


def _load_images_for_training(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    manifest = _require_file(cfg["data"], "data")
    images, labels = load_split(manifest, "train",
                                quarter_train=cfg["quarter_train"])
    if cfg["max_images"] > 0:
        images = images[:cfg["max_images"]]
        labels = labels[:cfg["max_images"]]
    return images, labels


# ---- ansatz-bench ------------------------------------------------------

SCHEMA_BENCH = [
    _SEED,
    Field("kinds", str, "SE,ESE1,ESE2", help="comma list of ansatz kinds"),
    Field("qubits", str, "4,6,8", help="comma list of qubit counts"),
    Field("layers", int, 6, help="ansatz depth L"),
    Field("gv_samples", int, 100, help="gradient samples per point"),
    Field("ee_draws", int, 30, help="random draws for entropy stats"),
    Field("shots", int, 2000, help="shots per noisy sampling run"),
    Field("readout_alpha", float, 0.05, help="readout flip probability"),
    Field("p1", float, 5e-4, help="one-qubit depolarizing rate"),
    Field("p2", float, 1e-2, help="two-qubit depolarizing rate"),
    Field("trajectories", int, 50, help="Pauli trajectories per run"),
]


def check_bench(cfg: dict, out: Path) -> dict:
    kinds = _parse_kinds(cfg["kinds"])
    qubits = _parse_ints(cfg["qubits"])
    if not qubits or any(n < 2 for n in qubits):
        raise ValueError("qubits: need counts >= 2")
    if sorted(set(qubits)) != qubits:
        raise ValueError("qubits: must be strictly increasing")
    _require_min(cfg, gv_samples=30, ee_draws=2, shots=1)
    noise = NoiseModel(readout_alpha=cfg["readout_alpha"], p1=cfg["p1"],
                       p2=cfg["p2"], trajectories=cfg["trajectories"])
    for n in qubits:
        for kind in kinds:
            AnsatzSpec(kind, n, cfg["layers"])
    return {"kinds": kinds, "qubits": qubits, "noise": noise}


def run_bench(cfg: dict, out: Path, ctx: dict) -> None:
    kinds, qubits, noise = ctx["kinds"], ctx["qubits"], ctx["noise"]
    layers = cfg["layers"]
    rows = []
    per_kind: dict[AnsatzKind, dict[str, list]] = {}
    row_seed = cfg["seed"]
    for kind in kinds:
        track = per_kind.setdefault(kind, {
            "params": [], "gv": [], "ee": [], "raw": [], "mitigated": [],
            "control": []})
        for n in qubits:
            spec = AnsatzSpec(kind, n, layers)
            pcount = param_count(spec)
            circuit = build_ansatz(spec, np.zeros(pcount))
            routed = route_to_linear_chain(circuit)
            grads = first_param_gradient_samples(
                circuit, cfg["gv_samples"], row_seed)
            gv = float(np.var(grads, ddof=1))
            gv_err = variance_stderr(grads)
            ee_mean, ee_err = entanglement_entropy_stats(
                spec, cfg["ee_draws"], row_seed + 1)
            rng = np.random.default_rng(row_seed + 2)
            theta = rng.uniform(0.0, 2 * np.pi, pcount)
            state = run_circuit(circuit, theta)
            exact = index_marginals(state.probabilities[None], n)[0]
            counts = sample_noisy_counts(
                circuit, np.zeros((1, 0)), noise, cfg["shots"],
                np.random.default_rng(row_seed + 3), shared=theta)
            raw_h = hamming_from_marginals(readout_marginals(counts)[0],
                                           exact)
            mit_h = hamming_from_marginals(
                readout_marginals(counts, noise.readout_alpha)[0], exact)
            control = sampling_control_distance(
                state, cfg["shots"], (row_seed + 4, row_seed + 5))
            rows.append([kind.value, n, layers, pcount,
                         circuit.two_qubit_gate_count(),
                         routed.two_qubit_gate_count(), routed.swap_count,
                         _f(gv), _f(gv_err), _f(ee_mean), _f(ee_err),
                         _f(raw_h), _f(mit_h), _f(control)])
            track["params"].append(pcount)
            track["gv"].append(gv)
            track["ee"].append(ee_mean)
            track["raw"].append(raw_h)
            track["mitigated"].append(mit_h)
            track["control"].append(control)
            row_seed += 100
    _write_csv(out / "ansatz_bench.csv",
               ["kind", "n_qubits", "n_layers", "param_count",
                "two_qubit_gates", "routed_two_qubit_gates",
                "inserted_swaps", "gv", "gv_stderr", "ee_mean",
                "ee_stderr", "hamming_raw", "hamming_mitigated",
                "hamming_control"], rows)

    slope_rows = []
    if len(qubits) >= 3:
        for kind in kinds:
            sweep = GradientVarianceSweep(
                kind, layers, list(qubits), cfg["gv_samples"],
                variances=list(per_kind[kind]["gv"]))
            slope_rows.append([kind.value, _f(fit_bp_slope(sweep))])
    _write_csv(out / "bp_slopes.csv", ["kind", "log10_gv_slope"],
               slope_rows)

    write_line_plot(
        out / "gv_vs_qubits.svg",
        [LineSeries(k.value, tuple(qubits),
                    tuple(np.log10(per_kind[k]["gv"])))
         for k in kinds],
        title="gradient variance scaling", xlabel="qubits",
        ylabel="log10 GV")
    write_line_plot(
        out / "ee_vs_params.svg",
        [LineSeries(k.value, tuple(per_kind[k]["params"]),
                    tuple(per_kind[k]["ee"])) for k in kinds],
        title="entanglement entropy", xlabel="parameters",
        ylabel="EE (nats)")
    hamming_series = [
        LineSeries(f"{k.value} {key}", tuple(per_kind[k]["params"]),
                   tuple(per_kind[k][key]))
        for k in kinds for key in ("raw", "mitigated", "control")]
    write_line_plot(out / "hamming_vs_params.svg", hamming_series,
                    title="noisy Hamming distance", xlabel="parameters",
                    ylabel="expected Hamming distance")


# ---- make-dataset ------------------------------------------------------

SCHEMA_MAKE_DATASET = [
    _SEED,
    Field("n_images", int, 300, help="total images to generate"),
    Field("image_size", int, 64, help="square image side in pixels"),
]


def check_make_dataset(cfg: dict, out: Path) -> dict:
    _require_min(cfg, n_images=5)
    params = FundusParams(size=cfg["image_size"])
    return {"params": params}


def run_make_dataset(cfg: dict, out: Path, ctx: dict) -> None:
    manifest = generate_dataset(out / "dataset", cfg["n_images"],
                                cfg["seed"], params=ctx["params"])
    rows = load_manifest(manifest)
    counts = {"train": 0, "val": 0, "test": 0}
    for row in rows:
        counts[row["split"]] += 1
    log = [f"manifest = {manifest}"]
    log += [f"{split} images = {counts[split]}"
            for split in ("train", "val", "test")]
    (out / "make_dataset_log.txt").write_text("\n".join(log) + "\n")


# ---- train-vae ---------------------------------------------------------

SCHEMA_TRAIN_VAE = [
    _SEED,
    Field("data", str, "", help="path to a dataset manifest.csv"),
    Field("epochs", int, 2, help="training epochs"),
    Field("batch_size", int, 16, help="images per step"),
    Field("learning_rate", float, 1e-3, help="Adam learning rate"),
    Field("base_channels", int, 32, help="first conv width"),
    Field("latent_channels", int, 4, help="latent channels"),
    Field("kl_weight", float, 1e-6, help="KL term weight"),
    Field("ssim_weight", float, 1.0, help="SSIM term weight"),
    Field("quarter_train", bool, False, help="keep every 4th train row"),
    Field("max_images", int, 0, help="cap train images (0 = all)"),
] + _QUANTUM_FIELDS


def check_train_vae(cfg: dict, out: Path) -> dict:
    _require_min(cfg, epochs=1, batch_size=1)
    if cfg["learning_rate"] <= 0:
        raise ValueError("learning_rate: must be > 0")
    images, labels = _load_images_for_training(cfg)
    config = config_from_echo(VAEConfig, dict(
        cfg, q_kind=_one_kind(cfg["q_kind"]), image_size=images.shape[2]))
    return {"config": config, "images": images}


def run_train_vae(cfg: dict, out: Path, ctx: dict) -> None:
    config, images = ctx["config"], ctx["images"]
    model = VAE(config, seed=cfg["seed"])
    rows, epoch_means = _fit(
        cfg, out, model, "vae", "vae", asdict(config), images.shape[0],
        lambda opt, idx, rng: vae_train_step(model, opt, images[idx], rng),
        ["l1", "ssim", "kl", "total"])
    write_line_plot(
        out / "vae_loss.svg",
        [LineSeries("total", tuple(range(1, len(rows) + 1)),
                    tuple(float(r[-1]) for r in rows))],
        title="autoencoder training loss", xlabel="step", ylabel="loss")
    quantum_count, quantum_detail = _quantum_log(model)
    log = [
        f"train images = {images.shape[0]}",
        f"model parameters = {model.parameter_count()}",
        quantum_count,
        *quantum_detail,
    ]
    for epoch, mean in enumerate(epoch_means, start=1):
        log.append(f"epoch {epoch}: mean total loss = {_f(mean)}")
    (out / "train_vae_log.txt").write_text("\n".join(log) + "\n")


# ---- train-ddpm --------------------------------------------------------

SCHEMA_TRAIN_DDPM = [
    _SEED,
    Field("data", str, "", help="path to a dataset manifest.csv"),
    Field("vae_checkpoint", str, "", help="trained VAE (.qldm)"),
    Field("epochs", int, 2, help="training epochs"),
    Field("batch_size", int, 16, help="latents per step"),
    Field("learning_rate", float, 1e-3, help="Adam learning rate"),
    Field("base_channels", int, 32, help="UNet stem width"),
    Field("time_dim", int, 64, help="time embedding width"),
    Field("timesteps", int, 1000, help="diffusion steps T"),
    Field("beta_start", float, 1e-4, help="first beta"),
    Field("beta_end", float, 0.02, help="last beta"),
    Field("quarter_train", bool, False, help="keep every 4th train row"),
    Field("max_images", int, 0, help="cap train images (0 = all)"),
] + _QUANTUM_FIELDS


def check_train_ddpm(cfg: dict, out: Path) -> dict:
    _require_min(cfg, epochs=1, batch_size=1)
    if cfg["learning_rate"] <= 0:
        raise ValueError("learning_rate: must be > 0")
    vae, _ = _load_model(cfg["vae_checkpoint"], "vae_checkpoint", "vae")
    images, labels = _load_images_for_training(cfg)
    if images.shape[2] != vae.config.image_size:
        raise ValueError(
            f"dataset images are {images.shape[2]}px but the autoencoder "
            f"was trained at {vae.config.image_size}px")
    schedule = build_schedule(cfg["timesteps"], cfg["beta_start"],
                              cfg["beta_end"])
    config = config_from_echo(UNetConfig, dict(
        cfg, q_kind=_one_kind(cfg["q_kind"]),
        latent_channels=vae.config.latent_channels,
        latent_size=vae.config.latent_size, num_classes=3))
    return {"vae": vae, "images": images, "labels": labels,
            "schedule": schedule, "config": config}


def run_train_ddpm(cfg: dict, out: Path, ctx: dict) -> None:
    vae, images, labels = ctx["vae"], ctx["images"], ctx["labels"]
    schedule, config = ctx["schedule"], ctx["config"]
    latents = encode_dataset(vae, images)
    scale = latent_scale(latents)
    z = latents * scale
    model = UNet(config, seed=cfg["seed"])
    baseline = zero_prediction_baseline(
        z[:min(64, z.shape[0])], schedule,
        np.random.default_rng(cfg["seed"] + 1))
    echo = dict(asdict(config), timesteps=cfg["timesteps"],
                beta_start=cfg["beta_start"], beta_end=cfg["beta_end"],
                latent_scale=scale, image_size=vae.config.image_size)
    rows, epoch_means = _fit(
        cfg, out, model, "unet", "ddpm", echo, z.shape[0],
        lambda opt, idx, rng: {"loss": ddpm_train_step(
            model, opt, z[idx], labels[idx], schedule, rng)},
        ["loss"])
    write_line_plot(
        out / "ddpm_loss.svg",
        [LineSeries("loss", tuple(range(1, len(rows) + 1)),
                    tuple(float(r[-1]) for r in rows)),
         LineSeries("zero baseline", (1, len(rows)), (baseline, baseline))],
        title="noise prediction loss", xlabel="step", ylabel="mse")
    quantum_count, quantum_detail = _quantum_log(model)
    log = [
        f"train latents = {z.shape[0]}",
        f"latent scale = {_f(scale)}",
        f"model parameters = {model.parameter_count()}",
        quantum_count,
        f"zero-prediction baseline = {_f(baseline)}",
        *quantum_detail,
    ]
    for epoch, mean in enumerate(epoch_means, start=1):
        log.append(f"epoch {epoch}: mean loss = {_f(mean)}")
    log.append(f"final epoch loss / baseline = "
               f"{_f(epoch_means[-1] / baseline)}")
    (out / "train_ddpm_log.txt").write_text("\n".join(log) + "\n")


# ---- sample ------------------------------------------------------------

SCHEMA_SAMPLE = [
    _SEED,
    Field("vae_checkpoint", str, "", help="trained VAE (.qldm)"),
    Field("ddpm_checkpoint", str, "", help="trained UNet (.qldm)"),
    Field("n_per_class", int, 4, help="images per class per alpha"),
    Field("steps", int, 100, help="sampling steps"),
    Field("alphas", str, "0", help="comma list of readout error rates"),
    Field("shots", int, 1000, help="shots for the sampled quantum path"),
    Field("trajectories", int, 50, help="Pauli trajectories per run"),
    Field("p1", float, 0.0, help="one-qubit gate error while sampling"),
    Field("p2", float, 0.0, help="two-qubit gate error while sampling"),
    Field("mitigate", bool, False, help="apply confusion-matrix mitigation"),
    Field("batch_size", int, 16, help="sampling batch size"),
]


def check_sample(cfg: dict, out: Path) -> dict:
    pair = _load_pair(cfg, "vae_checkpoint", "ddpm_checkpoint")
    alphas = _parse_floats(cfg["alphas"])
    if not alphas:
        raise ValueError("alphas: need at least one value")
    written = [f"{a:g}" for a in alphas]
    clash = [repr(a) for a, w in zip(alphas, written) if written.count(w) > 1]
    if clash:
        raise ValueError(f"alphas: {', '.join(clash)} print as one value")
    _require_min(cfg, n_per_class=1, steps=2, batch_size=1, shots=1)
    # the noise model per alpha, None for exact runs; any nonzero setting
    # builds one, so values out of range are rejected here
    noises = [NoiseModel(readout_alpha=a, p1=cfg["p1"], p2=cfg["p2"],
                         trajectories=cfg["trajectories"])
              if a or cfg["p1"] or cfg["p2"] else None for a in alphas]
    return {"pair": pair, "alphas": alphas, "noises": noises}


def run_sample(cfg: dict, out: Path, ctx: dict) -> None:
    labels = np.repeat(np.arange(ctx["pair"][1].config.num_classes),
                       cfg["n_per_class"])
    n = labels.size
    manifest_rows = []
    for a_idx, (alpha, noise) in enumerate(zip(ctx["alphas"],
                                               ctx["noises"])):
        settings = None if noise is None else SamplingSettings(
            cfg["shots"], noise, seed=cfg["seed"] + 7919 * a_idx,
            mitigate=cfg["mitigate"])
        images = _generate(ctx["pair"], labels, cfg["seed"], a_idx,
                           cfg["steps"], cfg["batch_size"], settings)
        tag = _alpha_tag(alpha)
        set_dir = out / "samples" / tag
        set_dir.mkdir(parents=True, exist_ok=True)
        for i in range(n):
            name = f"img_c{labels[i]}_{i:03d}.ppm"
            write_ppm(set_dir / name, images[i].transpose(1, 2, 0))
            manifest_rows.append([f"{alpha:g}", f"samples/{tag}/{name}",
                                  int(labels[i])])
    _write_csv(out / "samples.csv", ["alpha", "filename", "label"],
               manifest_rows)
    (out / "sample_log.txt").write_text(
        f"alphas = {cfg['alphas']}\n"
        f"images per alpha = {n}\n"
        f"sampling steps = {cfg['steps']}\n")


# ---- evaluate ----------------------------------------------------------

SCHEMA_EVALUATE = [
    _SEED,
    Field("data", str, "", help="path to the real dataset manifest.csv"),
    Field("split", str, "test", choices=("train", "val", "test"),
          help="real split to compare against"),
    Field("generated", str, "", help="path to a samples.csv manifest"),
] + _EVAL_FIELDS


def check_evaluate(cfg: dict, out: Path) -> dict:
    _require_min(cfg, knn_k=1)
    real_manifest = _require_file(cfg["data"], "data")
    gen_manifest = _require_file(cfg["generated"], "generated")
    real_images, real_labels = load_split(real_manifest, cfg["split"])
    groups: dict[str, list[dict]] = {}
    for row in load_manifest(gen_manifest, ("alpha", "filename", "label")):
        groups.setdefault(row["alpha"], []).append(row)
    loaded = {}
    for alpha, rows in groups.items():
        try:
            float(alpha)
        except ValueError:
            raise ValueError(
                f"generated: alpha {alpha!r} is not a number") from None
        images, labels = load_images(gen_manifest, rows)
        if images.shape[1:] != real_images.shape[1:]:
            raise ValueError(
                f"generated images {images.shape[1:]} do not match real "
                f"images {real_images.shape[1:]}")
        _require_scorable(cfg, "generated", f"alpha {alpha}", labels,
                          real_labels)
        loaded[alpha] = (images, labels)
    return {"real_images": real_images, "real_labels": real_labels,
            "generated": loaded}


def _require_scorable(cfg: dict, gen_key: str, what: str,
                      gen_labels: np.ndarray, real_labels: np.ndarray) -> None:
    """Reject a generated set, or the class-matched real subset it is
    scored against, with fewer than 2 images or not more than knn_k."""
    n_real = sum(min(np.sum(gen_labels == c), np.sum(real_labels == c))
                 for c in np.unique(gen_labels))
    need = max(2, cfg["knn_k"] + 1)
    for key, noun, size in (
            (gen_key, "generated set", gen_labels.size),
            ("split", f"class-matched {cfg['split']} subset", n_real)):
        if size < need:
            raise ValueError(
                f"{key}: the {noun} for {what} holds {size} images; "
                f"knn_k={cfg['knn_k']} needs at least {need}")


def _score(cfg: dict, ctx: dict, gen_images: np.ndarray,
           gen_labels: np.ndarray, warnings: list[str]):
    """(n_real, report) against a real subset whose class counts mirror
    the generated set; both sets go in class order, generated images
    without a real partner last, so every SSIM pair shares a label."""
    rng = np.random.default_rng(cfg["seed"])
    picks, paired, unpaired = [], [], []
    for cls in np.unique(gen_labels):
        gen = np.flatnonzero(gen_labels == cls)
        have = np.flatnonzero(ctx["real_labels"] == cls)
        if have.size < gen.size:
            warnings.append(
                f"class {cls}: only {have.size} real images for "
                f"{gen.size} generated; using all {have.size}")
            picks.append(have)
        else:
            picks.append(np.sort(rng.permutation(have)[:gen.size]))
        paired.append(gen[:picks[-1].size])
        unpaired.append(gen[picks[-1].size:])
    real = ctx["real_images"][np.concatenate(picks)]
    report = evaluate_sets(real, gen_images[np.concatenate(paired + unpaired)],
                           method=cfg["embed_method"], seed=cfg["seed"],
                           k=cfg["knn_k"])
    return real.shape[0], report


def _write_log(path: Path, log: list[str], warnings: list[str]) -> None:
    """Write ``log`` and the warnings to ``path``; echo the warnings."""
    warned = [f"warning: {w}" for w in warnings]
    path.write_text("\n".join(log + warned) + "\n")
    for line in warned:
        print(line, file=sys.stderr)


def run_evaluate(cfg: dict, out: Path, ctx: dict) -> None:
    rows = []
    warnings: list[str] = []
    alphas = sorted(ctx["generated"], key=float)
    for alpha in alphas:
        gen_images, gen_labels = ctx["generated"][alpha]
        n_real, report = _score(cfg, ctx, gen_images, gen_labels, warnings)
        rows.append([alpha, n_real, gen_images.shape[0], *report.csv_row()])
    _write_csv(out / "metrics.csv",
               ["alpha", "n_real", "n_generated",
                *MetricReport.CSV_HEADER], rows)
    _write_log(out / "evaluate_log.txt",
               [f"alphas evaluated = {', '.join(alphas)}"], warnings)


# ---- compare-models ----------------------------------------------------

SCHEMA_COMPARE_BASE = [
    _SEED,
    Field("data", str, "", help="path to the real dataset manifest.csv"),
    Field("split", str, "test", choices=("train", "val", "test"),
          help="real split to compare against"),
    Field("variants", str, "", help="comma list of variant names"),
    Field("n_per_class", int, 4, help="samples per class per variant"),
    Field("steps", int, 50, help="sampling steps"),
] + _EVAL_FIELDS


def _compare_schema(raw: dict[str, str]) -> list[Field]:
    names = [tok.strip() for tok in raw.get("variants", "").split(",")
             if tok.strip()]
    schema = list(SCHEMA_COMPARE_BASE)
    for name in names:
        schema.append(Field(f"{name}_vae", str, "",
                            help=f"VAE checkpoint for variant {name}"))
        schema.append(Field(f"{name}_ddpm", str, "",
                            help=f"UNet checkpoint for variant {name}"))
        schema.append(Field(f"{name}_cdcnn_nodes", int, 0,
                            help="report a CDCNN stand-in of this width"))
    return schema


def check_compare(cfg: dict, out: Path) -> dict:
    names = [tok.strip() for tok in cfg["variants"].split(",")
             if tok.strip()]
    if not names:
        raise ValueError("variants: need at least one name")
    _require_min(cfg, n_per_class=1, steps=2, knn_k=1)
    real_manifest = _require_file(cfg["data"], "data")
    real_images, real_labels = load_split(real_manifest, cfg["split"])
    variants = {}
    for name in names:
        try:
            pair = _load_pair(cfg, f"{name}_vae", f"{name}_ddpm")
        except ValueError as exc:
            raise ValueError(f"variant {name}: {exc}") from None
        labels = np.repeat(np.arange(pair[1].config.num_classes),
                           cfg["n_per_class"])
        _require_scorable(cfg, "n_per_class", f"variant {name}", labels,
                          real_labels)
        variants[name] = (pair, labels)
    return {"names": names, "variants": variants,
            "real_images": real_images, "real_labels": real_labels}


def run_compare(cfg: dict, out: Path, ctx: dict) -> None:
    rows = []
    warnings: list[str] = []
    for name in ctx["names"]:
        pair, labels = ctx["variants"][name]
        # sample's alpha-index-0 set at its default batch, exact
        images = _generate(pair, labels, cfg["seed"], 0, cfg["steps"], 16,
                           None)
        _, report = _score(cfg, ctx, images, labels, warnings)
        vae, unet = pair[:2]
        layers = [m for model in (vae, unet) for m in model.iter_modules()
                  if isinstance(m, QuantumLayer)]
        nodes = cfg[f"{name}_cdcnn_nodes"]
        rows.append([
            name, vae.parameter_count(), unet.parameter_count(),
            len(layers), max((param_count(m.spec) for m in layers), default=0),
            4 * nodes ** 4, *report.csv_row()])
    _write_csv(out / "compare_models.csv",
               ["variant", "vae_params", "unet_params", "quantum_layers",
                "quantum_params_per_layer", "cdcnn_added_params",
                *MetricReport.CSV_HEADER], rows)
    _write_log(out / "compare_models_log.txt",
               [f"variants = {', '.join(ctx['names'])}"], warnings)


# ---- driver ------------------------------------------------------------

COMMANDS = {
    "ansatz-bench": (SCHEMA_BENCH, check_bench, run_bench),
    "make-dataset": (SCHEMA_MAKE_DATASET, check_make_dataset,
                     run_make_dataset),
    "train-vae": (SCHEMA_TRAIN_VAE, check_train_vae, run_train_vae),
    "train-ddpm": (SCHEMA_TRAIN_DDPM, check_train_ddpm, run_train_ddpm),
    "sample": (SCHEMA_SAMPLE, check_sample, run_sample),
    "evaluate": (SCHEMA_EVALUATE, check_evaluate, run_evaluate),
    "compare-models": (None, check_compare, run_compare),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qlatent",
                     description="hybrid latent diffusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None,
                         help="INI config file (key = value)")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", dest="overrides",
                         help="override one config key")
        cmd.add_argument("--out", required=True,
                         help="output directory (all writes go here)")
    return parser


def _resolve_command_config(command: str, config_path,
                            overrides: list[str]) -> dict:
    file_values = load_config_file(config_path) if config_path else {}
    override_values = parse_overrides(overrides)
    schema, _, _ = COMMANDS[command]
    if schema is None:
        merged = dict(file_values)
        merged.update(override_values)
        schema = _compare_schema(merged)
    return resolve(schema, file_values, override_values)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    started = time.time()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    _, check, run = COMMANDS[args.command]
    try:
        cfg = _resolve_command_config(args.command, args.config,
                                      args.overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ctx = check(cfg, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tag = args.command.replace("-", "_")
    (out / f"{tag}_config.txt").write_text(render_resolved(cfg))
    try:
        run(cfg, out, ctx)
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    (out / f"{tag}_runinfo.txt").write_text(
        f"started = {stamp}\n"
        f"duration_seconds = {time.time() - started:.3f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Release acceptance checks, one test per criterion.

Each criterion gets exactly one test that prints a ``[PASS]``/``[FAIL]``
line with the measured numbers (visible under ``pytest -rA`` or ``-s``)
and asserts the same condition, so ``pytest -v`` shows one verdict per
criterion.  Criteria 8 and 10 share module-scoped fixtures that train
small models end to end through the command-line harness.
"""

import csv
import re
import time

import numpy as np
import pytest

from oracles import check_grads, dense_run, random_circuit
from qlatent.ansatz import (AnsatzKind, AnsatzSpec, build_ansatz,
                            build_trainable_encoder, param_count)
from qlatent.checkpoint import config_from_echo, load_checkpoint
from qlatent.cli import main as cli_main
from qlatent.diagnostics import (entanglement_entropy,
                                 entanglement_entropy_stats, fit_bp_slope,
                                 parameter_shift_gradient, run_gv_sweep)
from qlatent.diffusion import UNet, UNetConfig, build_schedule, forward_diffuse
from qlatent.layers import (CDCNNLayer, Conv2d, GroupNorm, Linear,
                            QResBlock, QuantumLayer, ResBlock)
from qlatent.metrics import (cmmd_rbf, frechet_distance, precision_recall_knn,
                             ssim_pairs)
from qlatent.noise import (ConfusionMatrix, EmpiricalDistribution, NoiseModel,
                           expected_hamming_distance, mitigate_confusion,
                           sample_noisy)
from qlatent.routing import route_to_linear_chain
from qlatent.statevector import Circuit, pauli_z_expectations, run_circuit
from qlatent.tensor import Tensor
from qlatent.vae import VAE, VAEConfig


def _report(num: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _epoch_means(csv_path, column: str) -> list[float]:
    sums: dict[int, list[float]] = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            sums.setdefault(int(row["epoch"]), []).append(float(row[column]))
    return [float(np.mean(sums[e])) for e in sorted(sums)]


def _log_float(log_path, label: str) -> float:
    text = log_path.read_text()
    match = re.search(rf"^{re.escape(label)} = (.+)$", text, re.MULTILINE)
    assert match is not None, f"{label!r} not found in {log_path}"
    return float(match.group(1))


# ---------------------------------------------------------------------------
# shared end-to-end fixtures (criteria 8 and 10)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_data")
    rc = cli_main(["make-dataset", "--out", str(out), "--set", "n_images=300"])
    assert rc == 0, "dataset generation failed"
    return out


@pytest.fixture(scope="module")
def classical_run(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_classical")
    manifest = dataset_dir / "dataset" / "manifest.csv"
    rc = cli_main([
        "train-vae", "--out", str(out),
        "--set", f"data={manifest}",
        "--set", "base_channels=8",
        "--set", "epochs=3",
        "--set", "batch_size=16",
    ])
    assert rc == 0, "classical autoencoder training failed"
    rc = cli_main([
        "train-ddpm", "--out", str(out),
        "--set", f"data={manifest}",
        "--set", f"vae_checkpoint={out / 'vae.qldm'}",
        "--set", "base_channels=8",
        "--set", "epochs=8",
        "--set", "batch_size=16",
        "--set", "learning_rate=0.003",
    ])
    assert rc == 0, "classical denoiser training failed"
    return out


@pytest.fixture(scope="module")
def quantum_run(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_quantum")
    manifest = dataset_dir / "dataset" / "manifest.csv"
    quantum = ["--set", "quantum=true", "--set", "q_qubits=4",
               "--set", "q_layers=2"]
    rc = cli_main([
        "train-vae", "--out", str(out),
        "--set", f"data={manifest}",
        "--set", "base_channels=8",
        "--set", "epochs=1",
        "--set", "batch_size=16",
    ] + quantum)
    assert rc == 0, "quantum autoencoder training failed"
    rc = cli_main([
        "train-ddpm", "--out", str(out),
        "--set", f"data={manifest}",
        "--set", f"vae_checkpoint={out / 'vae.qldm'}",
        "--set", "base_channels=8",
        "--set", "epochs=1",
        "--set", "batch_size=16",
        "--set", "learning_rate=0.003",
    ] + quantum)
    assert rc == 0, "quantum denoiser training failed"
    return out


# ---------------------------------------------------------------------------
# criterion 1: simulator correctness against a dense-matrix oracle


def test_criterion_01_simulator_matches_dense_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_amp = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        circ = random_circuit(rng, n, 12)
        params = rng.uniform(0.0, 2 * np.pi, circ.n_params)
        state = run_circuit(circ, params)
        ref = dense_run(circ, params)
        worst_amp = max(worst_amp, float(np.max(np.abs(state.amplitudes - ref))))
    worst_norm = 0.0
    for _ in range(100):
        circ = random_circuit(rng, 10, 20)
        params = rng.uniform(0.0, 2 * np.pi, circ.n_params)
        state = run_circuit(circ, params)
        worst_norm = max(worst_norm,
                         abs(float(np.linalg.norm(state.amplitudes)) - 1.0))
    elapsed = time.time() - start
    ok = worst_amp <= 1e-9 and worst_norm <= 1e-9 and elapsed < 60.0
    _report(1, ok,
            "simulator vs dense oracle: worst amplitude error "
            f"{worst_amp:.2e}, worst norm drift {worst_norm:.2e} "
            f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: parameter accounting across the ansatz family


def test_criterion_02_parameter_accounting():
    deep = param_count(AnsatzSpec(AnsatzKind.ESE2, 12, 6))
    mismatches = []
    for kind in AnsatzKind:
        for n in range(2, 13):
            for layers in range(1, 9):
                spec = AnsatzSpec(kind, n, layers)
                expected = param_count(spec)
                circ = build_ansatz(spec, np.zeros(expected))
                if circ.n_params != expected:
                    mismatches.append((kind.value, n, layers))
    for spec in (AnsatzSpec(AnsatzKind.S2D, 2, 1),
                 AnsatzSpec(AnsatzKind.ESE2, 12, 8)):
        with pytest.raises(ValueError):
            build_ansatz(spec, np.zeros(param_count(spec) + 1))
        with pytest.raises(ValueError):
            build_ansatz(spec, np.zeros(param_count(spec) - 1))
    ok = deep == 216 and not mismatches
    _report(2, ok,
            f"param_count(ESE2, 12, 6) = {deep} (want 216); builder slots "
            f"match param_count on all 5 kinds, n 2..12, L 1..8 "
            f"({len(mismatches)} mismatches)")


# ---------------------------------------------------------------------------
# criterion 3: gradient-variance decay slopes across qubit count


def test_criterion_03_gradient_variance_slopes():
    start = time.time()
    slopes = {}
    for kind in (AnsatzKind.SE, AnsatzKind.ESE1, AnsatzKind.ESE2):
        sweep = run_gv_sweep(kind, 6, (4, 6, 8, 10, 12), 200, seed=11)
        assert sweep.fitted_slope == fit_bp_slope(sweep)
        slopes[kind.value] = sweep.fitted_slope
    gap = slopes["ESE2"] - slopes["SE"]
    ok = all(s < 0 for s in slopes.values()) and gap > 0.1
    _report(3, ok,
            "log10 gradient-variance slopes at L=6, n in 4..12: "
            + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
            + f"; ESE2 - SE gap {gap:.3f} > 0.1 "
            f"({time.time() - start:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: entanglement entropy exact values and depth saturation


def test_criterion_04_entanglement_entropy():
    bell = Circuit(2)
    bell.add("RY", (0,), (np.pi / 2,))
    bell.add("CNOT", (0, 1))
    bell_err = abs(entanglement_entropy(run_circuit(bell), (0,)) - np.log(2.0))

    product = Circuit(3)
    product.add("RY", (0,), (0.3,))
    product.add("RZ", (1,), (1.1,))
    product.add("U3", (2,), (0.7, 0.2, 1.9))
    product.add("RY", (0,), (2.2,))
    state = run_circuit(product)
    product_err = max(abs(entanglement_entropy(state, part))
                      for part in ((0,), (1,), (0, 1)))

    depths = (1, 2, 4, 8, 16, 24)
    shape_ok, finals = True, {}
    for kind in AnsatzKind:
        means, errs = [], []
        for layers in depths:
            mean, stderr = entanglement_entropy_stats(
                AnsatzSpec(kind, 6, layers), 50, seed=23)
            means.append(mean)
            errs.append(stderr)
        counts = [param_count(AnsatzSpec(kind, 6, layers)) for layers in depths]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)
        mono = all(means[i + 1] >= means[i] - 3 * np.hypot(errs[i], errs[i + 1])
                   for i in range(len(means) - 1))
        plateau = abs(means[-1] - means[-2]) <= 3 * np.hypot(errs[-1], errs[-2])
        shape_ok = shape_ok and mono and plateau and means[-1] >= 1.4
        finals[kind.value] = means[-1]

    ok = bell_err <= 1e-9 and product_err <= 1e-9 and shape_ok
    _report(4, ok,
            f"Bell entropy error {bell_err:.1e}, product-state error "
            f"{product_err:.1e}; mean half-chain entropy at n=6 rises then "
            "plateaus for every ansatz (final values "
            + ", ".join(f"{k}={v:.2f}" for k, v in finals.items()) + ")")


# ---------------------------------------------------------------------------
# criterion 5: readout-noise statistics, mitigation, and routing cost


def test_criterion_05_noise_pipeline_and_routing():
    circ = Circuit(4)
    exact = EmpiricalDistribution(4, {"0000": 1.0})
    hamming_ok, mass_ok, details = True, True, []
    for i, alpha in enumerate((0.025, 0.05, 0.1)):
        model = NoiseModel(readout_alpha=alpha, p1=0.0, p2=0.0, trajectories=1)
        noisy = sample_noisy(circ, (), model, 100000, seed=50 + i)
        dist = expected_hamming_distance(noisy, exact)
        tol = 3.0 * np.sqrt(4 * alpha * (1 - alpha) / 100000)
        hamming_ok = hamming_ok and abs(dist - 4 * alpha) <= tol
        mitigated = mitigate_confusion(noisy,
                                       ConfusionMatrix.symmetric(4, alpha))
        mass = mitigated.get("0000", 0.0)
        mass_ok = mass_ok and mass >= 0.99
        details.append(f"a={alpha:g}: d={dist:.4f} (want {4 * alpha:g} "
                       f"+-{tol:.4f}), mass={mass:.4f}")

    routing_ok = True
    for n in (4, 6, 8, 12):
        for layers in (1, 3, 6):
            counts = {}
            for kind in (AnsatzKind.ESE2, AnsatzKind.SE):
                spec = AnsatzSpec(kind, n, layers)
                circ = build_ansatz(spec, np.zeros(param_count(spec)))
                counts[kind] = route_to_linear_chain(circ).two_qubit_gate_count()
            routing_ok = routing_ok and counts[AnsatzKind.ESE2] < counts[AnsatzKind.SE]

    ok = hamming_ok and mass_ok and routing_ok
    _report(5, ok,
            "; ".join(details) + "; routed ESE2 uses strictly fewer "
            "two-qubit gates than routed SE at every (n, L) tried")


# ---------------------------------------------------------------------------
# criterion 6: gradient checks on every layer, shift rule on raw circuits


def _case_linear(rng):
    layer = Linear(int(rng.integers(3, 7)), int(rng.integers(2, 5)), rng)
    x = Tensor(rng.standard_normal((2, layer.weight.data.shape[0])),
               requires_grad=True)
    return lambda: (layer(x) ** 2).mean(), [x, layer.weight, layer.bias]


def _case_conv(rng):
    cin, cout = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    layer = Conv2d(cin, cout, rng, stride=int(rng.choice((1, 2))))
    x = Tensor(rng.standard_normal((2, cin, 5, 5)), requires_grad=True)
    return lambda: (layer(x) ** 2).mean(), [x, layer.weight, layer.bias]


def _case_groupnorm(rng):
    layer = GroupNorm(4)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
    return lambda: (layer(x) ** 2).mean(), [x, layer.gamma, layer.beta]


def _case_resblock(rng):
    layer = ResBlock(3, 5, rng, time_dim=6)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    t_emb = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    tensors = [x, t_emb] + [p for _, p in layer.named_parameters()]
    return lambda: (layer(x, t_emb) ** 2).mean(), tensors


def _unlock(qlayer: QuantumLayer, rng):
    # fresh layers have a zero output map, which would make every
    # upstream gradient trivially zero; give it trained-looking weights
    qlayer.post_map.weight = Tensor(
        rng.standard_normal(qlayer.post_map.weight.data.shape) * 0.5,
        requires_grad=True)


def _case_quantum_layer(rng):
    kind = AnsatzKind(rng.choice([k.value for k in AnsatzKind]))
    layer = QuantumLayer(3, 2, AnsatzSpec(kind, int(rng.integers(2, 4)), 1),
                         rng)
    _unlock(layer, rng)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    tensors = [x] + [p for _, p in layer.named_parameters()]
    return lambda: (layer(x) ** 2).mean(), tensors


def _case_cdcnn(rng):
    layer = CDCNNLayer(int(rng.integers(2, 4)), rng)
    x = Tensor(rng.standard_normal((2, layer.nodes ** 2)), requires_grad=True)
    tensors = [x] + [p for _, p in layer.named_parameters()]
    return lambda: (layer(x) ** 2).mean(), tensors


def _case_qresblock(rng):
    spec = AnsatzSpec(AnsatzKind.ESE2, 2, 1)
    layer = QResBlock(4, 4, rng, spec)
    _unlock(layer.qmix1, rng)
    _unlock(layer.qmix2, rng)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
    tensors = [x] + [p for _, p in layer.named_parameters()]
    return lambda: (layer(x) ** 2).mean(), tensors


def test_criterion_06_layer_and_circuit_gradients():
    start = time.time()
    rng = np.random.default_rng(606)
    builders = (_case_linear, _case_conv, _case_groupnorm, _case_resblock,
                _case_quantum_layer, _case_cdcnn, _case_qresblock)
    for i in range(20):
        fn, tensors = builders[i % len(builders)](rng)
        check_grads(fn, tensors, rtol=1e-3, atol=1e-7)

    worst = 0.0
    kinds = list(AnsatzKind)
    for i in range(10):
        spec = AnsatzSpec(kinds[i % len(kinds)], int(rng.integers(2, 5)),
                          int(rng.integers(1, 3)))
        template = build_trainable_encoder(spec.n_qubits).extended(
            build_ansatz(spec, np.zeros(param_count(spec))))
        params = rng.uniform(0.0, 2 * np.pi, template.n_params)
        for cost_qubit in (0, spec.n_qubits - 1):
            def cost(p):
                state = run_circuit(template, p)
                return float(pauli_z_expectations(state)[cost_qubit])

            for idx in {0, template.n_params // 2, template.n_params - 1}:
                shift = parameter_shift_gradient(template, params, idx,
                                                 cost_qubit)
                h = 1e-5
                up, dn = params.copy(), params.copy()
                up[idx] += h
                dn[idx] -= h
                fd = (cost(up) - cost(dn)) / (2 * h)
                worst = max(worst, abs(shift - fd))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 600.0
    _report(6, ok,
            "20 random layer configs pass finite-difference checks at "
            f"rtol 1e-3; shift rule vs finite differences worst gap "
            f"{worst:.2e} <= 1e-6 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 7: closed-form noising statistics and terminal schedule decay


def test_criterion_07_forward_diffusion_statistics():
    schedule = build_schedule()
    terminal = float(schedule.alpha_bars[-1])

    rng = np.random.default_rng(707)
    draws = 10000
    x0 = np.full((draws, 4), 0.5)
    worst_rel = 0.0
    for t_val in (1, schedule.timesteps // 2, schedule.timesteps - 1):
        t = np.full(draws, t_val)
        noise = rng.standard_normal(x0.shape)
        x_t = forward_diffuse(x0, t, noise, schedule)
        abar = float(schedule.alpha_bars[t_val])
        resid = x_t - np.sqrt(abar) * x0
        rel = abs(float(resid.var()) - (1.0 - abar)) / (1.0 - abar)
        worst_rel = max(worst_rel, rel)

    ok = worst_rel <= 0.05 and terminal < 1e-4
    _report(7, ok,
            f"Monte Carlo noising variance off by {worst_rel:.3%} at worst "
            f"(10^4 draws, t in {{1, T/2, T-1}}); terminal alpha-bar "
            f"{terminal:.2e} < 1e-4 at T=1000")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end training, classical and quantum variants


def _quantum_update_norms(ckpt_path, model_cls,
                          config_cls) -> tuple[float, float]:
    ckpt = load_checkpoint(ckpt_path)
    fresh = model_cls(config_from_echo(config_cls, ckpt.config), seed=0)
    init = {name: p.data for name, p in fresh.named_parameters()}
    qnames = [name for name in ckpt.tensors if "qmix" in name]
    assert qnames, "checkpoint holds no quantum-layer parameters"
    total = np.sqrt(sum(float(((ckpt.tensors[n] - init[n]) ** 2).sum())
                        for n in qnames))
    theta = np.sqrt(sum(float(((ckpt.tensors[n] - init[n]) ** 2).sum())
                        for n in qnames if "theta" in n))
    return float(total), float(theta)


def test_criterion_08_end_to_end_training(classical_run, quantum_run):
    for name in ("vae.qldm", "ddpm.qldm", "vae_loss.csv", "ddpm_loss.csv",
                 "vae_loss.svg", "ddpm_loss.svg", "train_vae_log.txt",
                 "train_ddpm_log.txt"):
        assert (classical_run / name).exists(), f"missing artifact {name}"

    vae_means = _epoch_means(classical_run / "vae_loss.csv", "total")
    ddpm_means = _epoch_means(classical_run / "ddpm_loss.csv", "loss")
    vae_mono = all(b < a for a, b in zip(vae_means, vae_means[1:]))
    ddpm_mono = all(b < a + 0.005 for a, b in zip(ddpm_means, ddpm_means[1:]))
    baseline = _log_float(classical_run / "train_ddpm_log.txt",
                          "zero-prediction baseline")
    ratio = ddpm_means[-1] / baseline

    q_vae_losses = [float(r["total"]) for r in
                    csv.DictReader(open(quantum_run / "vae_loss.csv"))]
    q_ddpm_losses = [float(r["loss"]) for r in
                     csv.DictReader(open(quantum_run / "ddpm_loss.csv"))]
    finite = (np.all(np.isfinite(q_vae_losses))
              and np.all(np.isfinite(q_ddpm_losses)))
    vae_norm, vae_theta = _quantum_update_norms(quantum_run / "vae.qldm",
                                                VAE, VAEConfig)
    unet_norm, unet_theta = _quantum_update_norms(quantum_run / "ddpm.qldm",
                                                  UNet, UNetConfig)
    moved = min(vae_norm, vae_theta, unet_norm, unet_theta) > 0

    ok = vae_mono and ddpm_mono and ratio < 0.9 and bool(finite) and moved
    _report(8, ok,
            "classical epoch losses decrease (vae "
            + " -> ".join(f"{v:.3f}" for v in vae_means)
            + f"); final denoiser loss {ratio:.3f}x the zero-prediction "
            f"baseline (< 0.9); quantum variant finishes with finite losses "
            f"and nonzero quantum updates (vae {vae_norm:.3g}/theta "
            f"{vae_theta:.3g}, unet {unet_norm:.3g}/theta {unet_theta:.3g})")


# ---------------------------------------------------------------------------
# criterion 9: metric implementations against closed forms


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(909)
    mean_shift = np.array([1.0, 0.0, 0.0, 0.0])
    scale = np.sqrt(np.array([2.0, 1.0, 1.0, 1.0]))
    x = rng.standard_normal((80000, 4))
    y = mean_shift + rng.standard_normal((80000, 4)) * scale
    analytic = 10.0 - 2.0 * (np.sqrt(2.0) + 3.0)
    frechet_rel = abs(frechet_distance(x, y) - analytic) / analytic

    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0], [2.0, 2.0]])
    sigma = 10.0

    def kernel(u, v):
        return np.exp(-float(np.sum((u - v) ** 2)) / (2.0 * sigma ** 2))

    def brute(u_set, v_set, unbiased):
        n, m = len(u_set), len(v_set)
        xx = sum(kernel(u_set[i], u_set[j]) for i in range(n)
                 for j in range(n) if not unbiased or i != j)
        yy = sum(kernel(v_set[i], v_set[j]) for i in range(m)
                 for j in range(m) if not unbiased or i != j)
        xy = sum(kernel(u_set[i], v_set[j]) for i in range(n)
                 for j in range(m))
        if unbiased:
            return xx / (n * (n - 1)) + yy / (m * (m - 1)) - 2 * xy / (n * m)
        return xx / n ** 2 + yy / m ** 2 - 2 * xy / (n * m)

    cmmd_gap = max(
        abs(cmmd_rbf(a, b, sigma=sigma, unbiased=True) - brute(a, b, True)),
        abs(cmmd_rbf(a, b, sigma=sigma, unbiased=False) - brute(a, b, False)))

    images = rng.random((3, 3, 32, 32))
    ssim_gap = abs(ssim_pairs(images, images) - 1.0)

    real = rng.standard_normal((8, 5))
    p_same, r_same = precision_recall_knn(real, real.copy(), k=3)
    p_far, r_far = precision_recall_knn(real, real + 1e6, k=3)

    ok = (frechet_rel <= 0.02 and cmmd_gap <= 1e-12 and ssim_gap <= 1e-12
          and (p_same, r_same) == (1.0, 1.0) and (p_far, r_far) == (0.0, 0.0))
    _report(9, ok,
            f"sampled Frechet within {frechet_rel:.2%} of the Gaussian "
            f"closed form (<= 2%); kernel-discrepancy vs 4-point brute force "
            f"gap {cmmd_gap:.1e} (<= 1e-12); SSIM(x, x) off by "
            f"{ssim_gap:.1e}; precision/recall exact on identical and "
            "far-apart sets")


# ---------------------------------------------------------------------------
# criterion 10: readout-noise sweep protocol through the harness


def test_criterion_10_noise_sweep_protocol(dataset_dir, quantum_run):
    manifest = dataset_dir / "dataset" / "manifest.csv"
    alphas = (0.0, 0.025, 0.05, 0.1)
    rc = cli_main([
        "sample", "--out", str(quantum_run),
        "--set", f"vae_checkpoint={quantum_run / 'vae.qldm'}",
        "--set", f"ddpm_checkpoint={quantum_run / 'ddpm.qldm'}",
        "--set", "n_per_class=2",
        "--set", "steps=3",
        "--set", "alphas=" + ",".join(f"{a:g}" for a in alphas),
        "--set", "shots=1000",
    ])
    assert rc == 0, "noisy sampling failed"
    rc = cli_main([
        "evaluate", "--out", str(quantum_run),
        "--set", f"data={manifest}",
        "--set", f"generated={quantum_run / 'samples.csv'}",
        "--set", "knn_k=2",
    ])
    assert rc == 0, "evaluation failed"

    with open(quantum_run / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got_alphas = sorted(float(r["alpha"]) for r in rows)
    metric_cols = ("frechet", "cmmd", "ssim", "precision", "recall")
    finite = all(np.isfinite(float(r[c])) for r in rows for c in metric_cols)
    counts_ok = all(int(r["n_generated"]) == 6 for r in rows)

    ok = (len(rows) == 4 and got_alphas == sorted(alphas) and finite
          and counts_ok)
    _report(10, ok,
            "sample + evaluate at alphas 0/0.025/0.05/0.1 with 1000 shots "
            f"emits {len(rows)} complete metric rows, all values finite; "
            "no claim asserted about which alpha scores best")

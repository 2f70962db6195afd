import numpy as np
import pytest

from oracles import (
    bind_params,
    build_angle_encoder,
    check_grads,
    group_norm_oracle,
    numeric_grad,
    random_circuit,
    record_graph_nodes,
)
from qlatent.ansatz import (
    AnsatzKind,
    AnsatzSpec,
    build_ansatz,
    param_count,
)
from qlatent.diagnostics import parameter_shift_gradient
from qlatent.diffusion import UNet, UNetConfig
from qlatent.layers import (
    CDCNNLayer,
    Conv2d,
    Downsample,
    GroupNorm,
    Linear,
    Module,
    QuantumLayer,
    ResBlock,
    Upsample,
    default_groups,
    trunc_normal,
)
from qlatent.noise import NoiseModel, sample_noisy
from qlatent.statevector import (
    Circuit,
    GateOp,
    run_circuit,
    run_circuit_batch,
    z_expectations,
)
from qlatent.tensor import Tensor
from qlatent.vae import VAE, VAEConfig


def test_trunc_normal_bounds_and_determinism():
    a = trunc_normal((1000,), np.random.default_rng(0), std=0.02)
    b = trunc_normal((1000,), np.random.default_rng(0), std=0.02)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a).max() <= 0.04
    assert 0.005 < a.std() < 0.03


def test_default_groups():
    assert default_groups(64) == 8
    assert default_groups(4) == 4
    assert default_groups(6) == 2
    assert default_groups(3) == 1


def test_linear_forward_and_grads(monkeypatch):
    rng = np.random.default_rng(1)
    layer = Linear(3, 2, rng)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    recorded = record_graph_nodes(monkeypatch)
    out = layer(x)
    assert recorded == [True]  # the matmul and its bias: one node
    np.testing.assert_allclose(
        out.data, x.data @ layer.weight.data + layer.bias.data)
    check_grads(lambda: (layer(x) ** 2).sum(),
                [x, layer.weight, layer.bias], rtol=1e-4, atol=1e-7)
    with pytest.raises(ValueError, match="2-D"):
        layer(Tensor(np.ones((2, 4, 3))))


def test_linear_and_conv2d_record_one_node_each(monkeypatch):
    # the bias add lives inside the op: no reshape or add node of its own,
    # on every conv path (1x1 GEMM, dense operator on a 2x2 map, taps)
    rng = np.random.default_rng(4)
    recorded = record_graph_nodes(monkeypatch)
    Linear(3, 2, rng)(Tensor(rng.normal(size=(4, 3)), requires_grad=True))
    assert recorded == [True]
    for kernel, stride, hw in ((1, 1, 5), (3, 1, 2), (3, 2, 6)):
        recorded.clear()
        layer = Conv2d(3, 4, rng, kernel=kernel, stride=stride)
        layer(Tensor(rng.normal(size=(2, 3, hw, hw)), requires_grad=True))
        assert recorded == [True]


def test_conv2d_module():
    rng = np.random.default_rng(2)
    layer = Conv2d(3, 5, rng, stride=2)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
    out = layer(x)
    assert out.shape == (2, 5, 4, 4)
    check_grads(lambda: layer(x).abs().sum(),
                [layer.weight, layer.bias], rtol=1e-4, atol=1e-6)
    with pytest.raises(ValueError):
        Conv2d(3, 5, rng, stride=3)


def test_groupnorm_statistics():
    rng = np.random.default_rng(3)
    gn = GroupNorm(8, num_groups=4)
    x = Tensor(rng.normal(2.0, 3.0, size=(2, 8, 5, 5)))
    out = gn(x).data
    grouped = out.reshape(2, 4, 2 * 25)
    np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-10)
    np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-4)


def test_groupnorm_matches_manual_formula():
    rng = np.random.default_rng(4)
    gn = GroupNorm(6, num_groups=2)
    gn.gamma.data[:] = rng.normal(size=6)
    gn.beta.data[:] = rng.normal(size=6)
    x = rng.normal(size=(3, 6, 2, 2))
    got = gn(Tensor(x)).data
    grouped = x.reshape(3, 2, 3 * 4)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    normed = ((grouped - mean) / np.sqrt(var + 1e-5)).reshape(3, 6, 2, 2)
    want = normed * gn.gamma.data.reshape(1, 6, 1, 1) \
        + gn.beta.data.reshape(1, 6, 1, 1)
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("groups", [1, 2, 4, 8])
def test_groupnorm_matches_composed_oracle(groups, monkeypatch):
    rng = np.random.default_rng(20 + groups)
    gn = GroupNorm(8, num_groups=groups)
    gn.gamma.data[:] = rng.normal(size=8)
    gn.beta.data[:] = rng.normal(size=8)
    x_data = rng.normal(1.5, 2.0, size=(3, 8, 5, 7))
    upstream = rng.normal(size=x_data.shape)
    oracle_params = [Tensor(gn.gamma.data.copy(), requires_grad=True),
                     Tensor(gn.beta.data.copy(), requires_grad=True)]
    x, x_ref = (Tensor(x_data, requires_grad=True) for _ in range(2))
    want = group_norm_oracle(x_ref, *oracle_params, groups, gn.eps)
    (want * Tensor(upstream)).sum().backward()

    recorded = record_graph_nodes(monkeypatch)
    got = gn(x)
    assert recorded == [True]
    (got * Tensor(upstream)).sum().backward()
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
    for fast, ref in [(x, x_ref), (gn.gamma, oracle_params[0]),
                      (gn.beta, oracle_params[1])]:
        np.testing.assert_allclose(fast.grad, ref.grad, rtol=0, atol=1e-10)


def test_groupnorm_gradients():
    rng = np.random.default_rng(5)
    gn = GroupNorm(4, num_groups=2)
    x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    check_grads(lambda: (gn(x) ** 2).sum(), [x, gn.gamma, gn.beta],
                rtol=1e-3, atol=1e-6)
    with pytest.raises(ValueError):
        GroupNorm(6, num_groups=4)


def test_resblock_shapes_and_gradients():
    rng = np.random.default_rng(6)
    block = ResBlock(4, 8, rng, time_dim=6)
    x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
    t = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    out = block(x, t)
    assert out.shape == (2, 8, 4, 4)
    check_grads(lambda: (block(x, t) ** 2).sum(), [x, t], rtol=1e-3,
                atol=1e-6)
    with pytest.raises(ValueError):
        block(x)


def test_resblock_without_channel_change_has_no_projection():
    rng = np.random.default_rng(7)
    block = ResBlock(4, 4, rng)
    assert block.skip is None
    x = Tensor(rng.normal(size=(1, 4, 3, 3)))
    assert block(x).shape == (1, 4, 3, 3)


def test_down_and_upsample_roundtrip_shapes():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 4, 8, 8)))
    down = Downsample(4, rng)
    up = Upsample(4, rng)
    assert down(x).shape == (2, 4, 4, 4)
    assert up(down(x)).shape == (2, 4, 8, 8)


def test_named_parameters_deterministic_and_nested():
    rng = np.random.default_rng(9)

    class Tiny(Module):
        def __init__(self):
            self.a = Linear(2, 3, rng)
            self.blocks = [Linear(3, 3, rng), GroupNorm(4)]

    names = [n for n, _ in Tiny().named_parameters()]
    assert names == [
        "a.weight", "a.bias",
        "blocks.0.weight", "blocks.0.bias",
        "blocks.1.gamma", "blocks.1.beta",
    ]


_MODELS = [
    pytest.param(VAE, VAEConfig, dict(image_size=16, base_channels=4),
                 id="vae"),
    pytest.param(UNet, UNetConfig, dict(latent_channels=2, latent_size=4,
                                        base_channels=4, time_dim=8),
                 id="unet"),
]


@pytest.mark.parametrize("model_cls, config_cls, sizes", _MODELS)
@pytest.mark.parametrize("seed, kind", [(0, "ESE2"), (1, "S2D"), (7, "BE")])
def test_quantum_variant_starts_from_the_classical_weights(
        model_cls, config_cls, sizes, seed, kind):
    hybrid = config_cls(**sizes, quantum=True, q_kind=kind, q_qubits=3)
    classical = dict(model_cls(config_cls(**sizes), seed=seed)
                     .named_parameters())
    quantum = dict(model_cls(hybrid, seed=seed).named_parameters())
    assert set(classical) < set(quantum)
    assert all(".qmix" in name for name in set(quantum) - set(classical))
    for name, p in classical.items():
        np.testing.assert_array_equal(quantum[name].data, p.data,
                                      err_msg=name)
    other = dict(model_cls(hybrid, seed=seed + 1).named_parameters())
    theta = next(n for n in quantum if n.endswith("qmix1.theta"))
    assert not np.array_equal(quantum[theta].data, other[theta].data)


@pytest.mark.parametrize("config_cls", [VAEConfig, UNetConfig])
@pytest.mark.parametrize("setting", [dict(q_qubits=1), dict(q_qubits=21),
                                     dict(q_layers=0)])
def test_configs_refuse_circuits_their_quantum_blocks_cannot_build(
        config_cls, setting):
    config_cls(**setting)  # unused while the blocks are classical
    with pytest.raises(ValueError, match="ansatz needs"):
        config_cls(quantum=True, **setting)


def test_quantum_layer_initial_output_is_zero():
    rng = np.random.default_rng(10)
    layer = QuantumLayer(5, 5, AnsatzSpec(AnsatzKind.ESE2, 3, 1), rng)
    x = Tensor(rng.normal(size=(4, 5)))
    np.testing.assert_array_equal(layer(x).data, np.zeros((4, 5)))


def test_quantum_layer_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    layer = QuantumLayer(3, 2, AnsatzSpec(AnsatzKind.ESE2, 2, 1), rng)
    # an all-zero output map would hide the upstream gradients
    layer.post_map.weight.data[:] = rng.normal(size=(2, 2))
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    params = [x, layer.theta, layer.pre_map.weight, layer.pre_map.bias,
              layer.post_map.weight, layer.post_map.bias]
    check_grads(lambda: (layer(x) ** 2).sum(), params, rtol=1e-3, atol=1e-6)


def test_quantum_layer_shift_rule_matches_fd_tightly():
    rng = np.random.default_rng(12)
    layer = QuantumLayer(2, 1, AnsatzSpec(AnsatzKind.BE, 2, 1), rng)
    layer.post_map.weight.data[:] = 1.0
    x = Tensor(rng.normal(size=(2, 2)))

    def loss():
        return layer(x).sum()

    layer.zero_grad()
    loss().backward()
    fd = numeric_grad(loss, layer.theta)
    np.testing.assert_allclose(layer.theta.grad, fd, rtol=1e-6, atol=1e-8)


def test_quantum_layer_batch_consistency():
    rng = np.random.default_rng(13)
    layer = QuantumLayer(4, 4, AnsatzSpec(AnsatzKind.SE, 3, 2), rng)
    layer.post_map.weight.data[:] = rng.normal(size=(3, 4))
    xs = rng.normal(size=(5, 4))
    full = layer(Tensor(xs)).data
    rows = [layer(Tensor(xs[i:i + 1])).data[0] for i in range(5)]
    np.testing.assert_allclose(full, np.array(rows), atol=1e-12)


def test_quantum_layer_sampled_approaches_exact():
    rng = np.random.default_rng(14)
    layer = QuantumLayer(3, 3, AnsatzSpec(AnsatzKind.ESE2, 2, 1), rng)
    layer.post_map.weight.data[:] = rng.normal(size=(2, 3))
    x = Tensor(rng.normal(size=(2, 3)))
    exact = layer(x).data
    noiseless = NoiseModel(readout_alpha=0.0, p1=0.0, p2=0.0, trajectories=1)
    sampled = layer.forward_sampled(x, shots=200_000, noise=noiseless,
                                    seed=0).data
    np.testing.assert_allclose(sampled, exact, atol=0.02)


def test_quantum_layer_sampled_mitigation_beats_raw_readout():
    rng = np.random.default_rng(15)
    layer = QuantumLayer(3, 3, AnsatzSpec(AnsatzKind.ESE2, 2, 1), rng)
    layer.post_map.weight.data[:] = rng.normal(size=(2, 3))
    x = Tensor(rng.normal(size=(2, 3)))
    exact = layer(x).data
    noisy = NoiseModel(readout_alpha=0.1, p1=0.0, p2=0.0, trajectories=1)
    raw = layer.forward_sampled(x, shots=100_000, noise=noisy, seed=1).data
    fixed = layer.forward_sampled(x, shots=100_000, noise=noisy, seed=1,
                                  mitigate=True).data
    assert np.abs(fixed - exact).max() < np.abs(raw - exact).max()


def test_quantum_layer_sampled_batch_is_one_stream():
    rng = np.random.default_rng(18)
    layer = QuantumLayer(3, 3, AnsatzSpec(AnsatzKind.ESE2, 3, 1), rng)
    layer.post_map.weight.data[:] = rng.normal(size=(3, 3))
    x = Tensor(rng.normal(size=(4, 3)))
    noise = NoiseModel(readout_alpha=0.05, p1=0.02, p2=0.05, trajectories=20)
    a = layer.forward_sampled(x, 400, noise, seed=5, mitigate=True).data
    b = layer.forward_sampled(x, 400, noise, seed=5, mitigate=True).data
    c = layer.forward_sampled(x, 400, noise, seed=6, mitigate=True).data
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, c)

    # with an identity output map a one-row call returns the sampled <Z>,
    # which must come from the very counts sample_noisy draws for the seed
    layer.post_map.weight = Tensor(np.eye(3))
    one = Tensor(x.data[:1])
    z = layer.forward_sampled(one, 400, noise, seed=5).data[0]
    params = np.concatenate([layer.pre_map(one).data[0], layer.theta.data])
    dist = sample_noisy(layer._template, params, noise, 400, seed=5)
    np.testing.assert_allclose(z, 1.0 - 2.0 * dist.marginals(), atol=1e-12)


def test_cdcnn_parameter_count():
    rng = np.random.default_rng(16)
    for nodes in (2, 3, 8):
        layer = CDCNNLayer(nodes, rng)
        assert layer.parameter_count() == 4 * nodes ** 4
    assert CDCNNLayer(8, rng).parameter_count() == 16_384


def test_cdcnn_forward_and_grads():
    rng = np.random.default_rng(17)
    layer = CDCNNLayer(2, rng)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = layer(x)
    assert out.shape == (3, 4)
    check_grads(lambda: (layer(x) ** 2).sum(),
                [x, layer.fc1.weight, layer.fc2.weight],
                rtol=1e-4, atol=1e-7)


def _weighted_shift_gradients(circuit, params, weights):
    """(rows, slots) gradients of sum_q weights[b, q] <Z_q> by parameter shift."""
    return np.array([
        [sum(weights[b, q] * parameter_shift_gradient(
            circuit, params[b], s, cost_qubit=q)
            for q in range(circuit.n_qubits))
         for s in range(circuit.n_params)]
        for b in range(params.shape[0])])


@pytest.mark.parametrize("kind, n_qubits", [
    (AnsatzKind.S2D, 2), (AnsatzKind.BE, 3), (AnsatzKind.SE, 4),
    (AnsatzKind.ESE1, 5), (AnsatzKind.ESE2, 3)])
def test_quantum_layer_adjoint_matches_parameter_shift(kind, n_qubits):
    rng = np.random.default_rng(18)
    layer = QuantumLayer(3, 3, AnsatzSpec(kind, n_qubits, 2), rng)
    rows = 3
    angles = Tensor(rng.uniform(-np.pi, np.pi, size=(rows, n_qubits)),
                    requires_grad=True)
    weights = rng.standard_normal((rows, n_qubits))  # one weighting per row
    (layer.circuit_expectations(angles) * Tensor(weights)).sum().backward()
    full = np.concatenate(
        [angles.data, np.broadcast_to(layer.theta.data,
                                      (rows, layer.theta.size))], axis=1)
    ref = _weighted_shift_gradients(layer._template, full, weights)
    # every slot, row by row: encoder RY angles and all ansatz angles
    np.testing.assert_allclose(
        z_expectations(layer._template, full)[1](weights)[0],
        ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(angles.grad, ref[:, :n_qubits],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(layer.theta.grad, ref[:, n_qubits:].sum(axis=0),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [AnsatzKind.S2D, AnsatzKind.SE])
def test_quantum_layer_backward_sweeps_the_forward_binding(kind):
    # the backward reads the forward's own angles and final state: theta
    # and the angle rows changed in place between forward and backward
    # leave the gradients as they are, and a vjp called twice finds the
    # forward's state untouched (S2D runs in float64, SE in complex128)
    rng = np.random.default_rng(29)
    layer = QuantumLayer(3, 3, AnsatzSpec(kind, 4, 2), rng)
    rows = rng.uniform(-np.pi, np.pi, size=(3, 4))
    weights = rng.standard_normal((3, 4))
    theta = layer.theta.data.copy()

    def grads(mutate):
        layer.theta.data[:] = theta
        layer.theta.zero_grad()
        angles = Tensor(rows.copy(), requires_grad=True)
        loss = (layer.circuit_expectations(angles) * Tensor(weights)).sum()
        if mutate:
            layer.theta.data += 1.0
            angles.data *= -1.0
        loss.backward()
        return angles.grad, layer.theta.grad

    for want, got in zip(grads(False), grads(True)):
        np.testing.assert_array_equal(got, want)
    _, vjp = z_expectations(layer._template, rows, shared=theta)
    for first, second in zip(vjp(weights), vjp(weights)):
        np.testing.assert_array_equal(second, first)


def test_adjoint_matches_parameter_shift_on_random_circuits():
    # the full gate set: RZ slots and SWAP/CZ in the reverse sweep
    rng = np.random.default_rng(23)
    for n in (1, 3, 4):
        circuit = random_circuit(rng, n, 24)
        params = rng.uniform(0.0, 2 * np.pi, size=(3, circuit.n_params))
        weights = rng.standard_normal((3, n))
        got, _ = z_expectations(circuit, params)[1](weights)
        np.testing.assert_allclose(
            got, _weighted_shift_gradients(circuit, params, weights),
            rtol=0, atol=1e-10)


def test_adjoint_matches_parameter_shift_around_fixed_gates():
    rng = np.random.default_rng(19)
    spec = AnsatzSpec(AnsatzKind.SE, 3, 2)
    # U3 gates with only some angles trainable: the others stay fixed
    partial = Circuit(3, [GateOp("U3", (1,), (0.4, 0.0, -0.9)),
                          GateOp("U3", (2,), (0.0, 0.7, 0.0))],
                      [(0, 1), (1, 0), (1, 2)])
    # fixed RY gates before the slots and after them, where the reverse
    # sweep must undo them before it reads any slot
    circuit = build_angle_encoder(rng.uniform(-np.pi, np.pi, 3), 3).extended(
        build_ansatz(spec, np.zeros(param_count(spec)))).extended(
        partial).extended(build_angle_encoder(rng.uniform(-np.pi, np.pi, 3), 3))
    params = rng.uniform(0.0, 2 * np.pi, size=(4, circuit.n_params))
    weights = rng.standard_normal((4, 3))
    amps = run_circuit_batch(circuit, params)
    for b in range(params.shape[0]):  # partly bound U3 angle columns
        np.testing.assert_allclose(
            amps[b], run_circuit(bind_params(circuit, params[b])).amplitudes,
            rtol=0, atol=1e-12)
    got, _ = z_expectations(circuit, params)[1](weights)
    np.testing.assert_allclose(
        got, _weighted_shift_gradients(circuit, params, weights),
        rtol=0, atol=1e-10)

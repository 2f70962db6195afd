import numpy as np
import pytest

from oracles import build_angle_encoder
from qlatent.ansatz import (
    AnsatzKind,
    AnsatzSpec,
    build_ansatz,
    param_count,
)
from qlatent import diagnostics
from qlatent.diagnostics import (
    GradientVarianceSweep,
    entanglement_entropy,
    entanglement_entropy_stats,
    first_param_gradient_samples,
    fit_bp_slope,
    half_partition,
    parameter_shift_gradient,
    run_gv_sweep,
    variance_stderr,
)
from qlatent.statevector import Circuit, GateOp, run_circuit


def _finite_difference(circuit, params, idx, cost_qubit=0, h=1e-6):
    from qlatent.statevector import pauli_z_expectations

    params = np.asarray(params, dtype=np.float64)
    up, down = params.copy(), params.copy()
    up[idx] += h
    down[idx] -= h
    e_up = pauli_z_expectations(run_circuit(circuit, up))[cost_qubit]
    e_dn = pauli_z_expectations(run_circuit(circuit, down))[cost_qubit]
    return (e_up - e_dn) / (2 * h)


def test_entropy_of_product_state_is_zero():
    st = run_circuit(build_angle_encoder([0.4, 1.3, 2.2], 3))
    for part in ([0], [1], [0, 1], [2]):
        assert abs(entanglement_entropy(st, part)) < 1e-9


def test_entropy_of_bell_pair_is_ln2():
    c = Circuit(2)
    c.add("RY", (0,), (np.pi / 2,))
    c.add("CNOT", (0, 1), ())
    st = run_circuit(c)
    assert abs(entanglement_entropy(st, [0]) - np.log(2)) < 1e-9
    assert abs(entanglement_entropy(st, [1]) - np.log(2)) < 1e-9


def test_entropy_of_ghz_state():
    c = Circuit(4)
    c.add("RY", (0,), (np.pi / 2,))
    for q in range(3):
        c.add("CNOT", (q, q + 1), ())
    st = run_circuit(c)
    # any bipartition of a GHZ state carries exactly one bit
    assert abs(entanglement_entropy(st, [0, 1]) - np.log(2)) < 1e-9
    assert abs(entanglement_entropy(st, [0, 2]) - np.log(2)) < 1e-9


def test_entropy_symmetric_under_complement():
    rng = np.random.default_rng(2)
    spec = AnsatzSpec(AnsatzKind.SE, 4, 2)
    p = rng.uniform(0, 2 * np.pi, param_count(spec))
    st = run_circuit(build_ansatz(spec, p), p)
    a = entanglement_entropy(st, [0, 1])
    b = entanglement_entropy(st, [2, 3])
    assert abs(a - b) < 1e-9


def test_half_partition():
    assert half_partition(4) == (0, 1)
    assert half_partition(5) == (0, 1)
    assert half_partition(2) == (0,)


def test_parameter_shift_on_single_rotation():
    c = Circuit(1)
    c.add("RY", (0,), (0.0,), trainable=True)
    # <Z> = cos(theta), gradient -sin(theta)
    for theta in (0.0, np.pi / 2, 1.234, -0.7):
        g = parameter_shift_gradient(c, [theta], 0)
        assert abs(g - (-np.sin(theta))) < 1e-12


def test_parameter_shift_matches_finite_difference():
    rng = np.random.default_rng(3)
    spec = AnsatzSpec(AnsatzKind.ESE2, 3, 2)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))
    params = rng.uniform(0, 2 * np.pi, param_count(spec))
    for idx in (0, 1, 2, 7, param_count(spec) - 1):
        for cost_qubit in (0, 2):
            ps = parameter_shift_gradient(circuit, params, idx, cost_qubit)
            fd = _finite_difference(circuit, params, idx, cost_qubit)
            assert abs(ps - fd) < 1e-6


def test_parameter_shift_validates_indices():
    c = Circuit(1)
    c.add("RY", (0,), (0.0,), trainable=True)
    with pytest.raises(ValueError):
        parameter_shift_gradient(c, [0.1], 1)
    with pytest.raises(ValueError):
        parameter_shift_gradient(c, [0.1], 0, cost_qubit=5)


def test_single_qubit_gradient_variance_is_half():
    # gradient of cos(theta) is -sin(theta); over uniform angles its
    # variance is exactly 1/2
    c = Circuit(1)
    c.add("RY", (0,), (0.0,), trainable=True)
    g = first_param_gradient_samples(c, samples=4000, seed=0)
    assert abs(np.var(g, ddof=1) - 0.5) < 0.05


def test_gradient_samples_deterministic():
    spec = AnsatzSpec(AnsatzKind.BE, 3, 2)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))
    a = first_param_gradient_samples(circuit, 50, seed=5)
    b = first_param_gradient_samples(circuit, 50, seed=5)
    np.testing.assert_array_equal(a, b)


def test_gradient_samples_must_be_positive():
    spec = AnsatzSpec(AnsatzKind.BE, 3, 2)
    inside = build_ansatz(spec, np.zeros(param_count(spec)))
    # slot 0 lies outside the cost qubit's light cone, so it would
    # return zeros without simulating; it must be refused all the same
    outside = _light_cone_example()
    for samples in (0, -1):
        for circuit in (inside, outside):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                first_param_gradient_samples(circuit, samples, seed=5)


def test_gradient_samples_validate_the_cost_qubit_before_simulating(
        monkeypatch):
    spec = AnsatzSpec(AnsatzKind.ESE2, 4, 2)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating the cost qubit")

    monkeypatch.setattr(diagnostics, "run_circuit_batch", no_simulation)
    for cost_qubit in (-1, 4):
        with pytest.raises(ValueError, match="cost qubit"):
            first_param_gradient_samples(circuit, 8, 0, cost_qubit=cost_qubit)


def _light_cone_example():
    c = Circuit(4)
    c.add("RY", (1,), (0.0,), trainable=True)  # slot 0: q1 never reaches q0
    c.add("RY", (2,), (0.0,), trainable=True)  # slot 1: reaches q0 by CNOT
    c.add("CNOT", (2, 0))
    c.add("CNOT", (1, 3))
    c.add("RY", (0,), (0.0,), trainable=True)  # slot 2: on the cost qubit
    c.add("RY", (2,), (0.0,), trainable=True)  # slot 3: after the CNOT
    return c


def test_light_cone_drops_ops_outside_and_remaps_qubits():
    cone, cols, cost = diagnostics._light_cone(_light_cone_example(), 0)
    assert cone.n_qubits == 2 and cost == 0
    assert cone.ops == [GateOp("RY", (1,), (0.0,)), GateOp("CNOT", (1, 0)),
                        GateOp("RY", (0,), (0.0,))]
    assert cone.param_slots == [(0, 0), (2, 0)]
    np.testing.assert_array_equal(cols, [1, 2])


def test_gradient_samples_outside_the_cone_are_exact_zeros():
    circuit = _light_cone_example()
    thetas = np.random.default_rng(3).uniform(0, 2 * np.pi, (6, 4))
    for idx in (0, 3):
        g = first_param_gradient_samples(circuit, 6, 3, param_idx=idx)
        assert g.shape == (6,) and not g.any()
    g = first_param_gradient_samples(circuit, 6, 3, param_idx=1)
    want = [parameter_shift_gradient(circuit, t, 1) for t in thetas]
    np.testing.assert_allclose(g, want, rtol=0, atol=1e-10)
    assert np.abs(g).max() > 0.05


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_light_cone_samples_equal_full_circuit_parameter_shift(kind):
    samples, seed = 3, 11
    for n in (4, 5, 7):
        for layers in (1, 3):
            spec = AnsatzSpec(kind, n, layers)
            circuit = build_ansatz(spec, np.zeros(param_count(spec)))
            thetas = np.random.default_rng(seed).uniform(
                0, 2 * np.pi, (samples, circuit.n_params))
            for cost_qubit in (0, n - 1):
                for idx in (0, circuit.n_params - 1):
                    g = first_param_gradient_samples(
                        circuit, samples, seed, cost_qubit, idx)
                    want = [parameter_shift_gradient(circuit, t, idx,
                                                     cost_qubit)
                            for t in thetas]
                    np.testing.assert_allclose(g, want, rtol=0, atol=1e-10)


def test_variance_stderr_shrinks_with_more_samples():
    rng = np.random.default_rng(7)
    small = variance_stderr(rng.normal(size=100))
    large = variance_stderr(rng.normal(size=10_000))
    assert large < small
    assert large > 0


def test_fit_bp_slope_on_synthetic_decay():
    sweep = GradientVarianceSweep(
        AnsatzKind.SE, 2, [4, 6, 8, 10], 100,
        variances=[10.0 ** -n for n in (4, 6, 8, 10)],
        stderrs=[0.0] * 4)
    assert abs(fit_bp_slope(sweep) - (-1.0)) < 1e-12

    flat = GradientVarianceSweep(
        AnsatzKind.SE, 2, [4, 6, 8], 100,
        variances=[0.25, 0.25, 0.25], stderrs=[0.0] * 3)
    assert abs(fit_bp_slope(flat)) < 1e-12


def test_fit_bp_slope_validation():
    with pytest.raises(ValueError):
        GradientVarianceSweep(AnsatzKind.SE, 2, [4, 4, 6], 100)
    two_points = GradientVarianceSweep(
        AnsatzKind.SE, 2, [4, 6], 100, variances=[0.1, 0.01],
        stderrs=[0.0, 0.0])
    with pytest.raises(ValueError):
        fit_bp_slope(two_points)
    nonpositive = GradientVarianceSweep(
        AnsatzKind.SE, 2, [4, 6, 8], 100, variances=[0.1, 0.0, 0.01],
        stderrs=[0.0] * 3)
    with pytest.raises(ValueError):
        fit_bp_slope(nonpositive)


def test_run_gv_sweep_deterministic_and_filled():
    sweep = run_gv_sweep(AnsatzKind.BE, 2, [2, 3, 4],
                         samples_per_point=60, seed=1)
    again = run_gv_sweep(AnsatzKind.BE, 2, [2, 3, 4],
                         samples_per_point=60, seed=1)
    assert sweep.variances == again.variances
    assert sweep.fitted_slope == again.fitted_slope
    assert len(sweep.variances) == len(sweep.stderrs) == 3
    assert all(v > 0 for v in sweep.variances)


def test_entropy_stats_orders_depths():
    shallow_mean, _ = entanglement_entropy_stats(
        AnsatzSpec(AnsatzKind.ESE2, 4, 1), draws=40, seed=3)
    deep_mean, _ = entanglement_entropy_stats(
        AnsatzSpec(AnsatzKind.ESE2, 4, 4), draws=40, seed=3)
    assert 0 < shallow_mean < deep_mean
    assert deep_mean <= 2 * np.log(2) + 1e-9

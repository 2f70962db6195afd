import dataclasses

import numpy as np
import pytest

from oracles import (
    bitstring_to_index,
    mitigation_oracle,
    noisy_marginals_oracle,
    random_circuit,
)
from qlatent.ansatz import AnsatzKind, AnsatzSpec, build_ansatz, param_count
from qlatent.noise import (
    ConfusionMatrix,
    EmpiricalDistribution,
    NoiseModel,
    expected_hamming_distance,
    index_marginals,
    mitigate_confusion,
    mitigate_probabilities,
    readout_marginals,
    sample_noisy,
    sample_noisy_counts,
    sampling_control_distance,
)
from qlatent.statevector import (
    Circuit,
    index_to_bitstring,
    run_circuit,
    sample_bitstrings,
)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(readout_alpha=0.5)
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.01)
    with pytest.raises(ValueError):
        NoiseModel(p2=0.7)
    with pytest.raises(ValueError):
        NoiseModel(trajectories=0)


def test_identity_circuit_noiseless():
    c = Circuit(3)
    noise = NoiseModel(readout_alpha=0.0, p1=0.0, p2=0.0, trajectories=10)
    dist = sample_noisy(c, (), noise, shots=1000, seed=0)
    assert dist.counts == {"000": 1000}


def test_readout_flip_rate_on_identity_circuit():
    n, alpha, shots = 8, 0.1, 100_000
    c = Circuit(n)
    noise = NoiseModel(readout_alpha=alpha, p1=0.0, p2=0.0, trajectories=100)
    dist = sample_noisy(c, (), noise, shots=shots, seed=7)
    m = dist.marginals()
    sigma = np.sqrt(alpha * (1 - alpha) / shots)
    assert np.all(np.abs(m - alpha) < 5 * sigma)


def test_zero_noise_matches_exact_distribution():
    rng = np.random.default_rng(3)
    spec = AnsatzSpec(AnsatzKind.SE, 3, 2)
    params = rng.uniform(0, 2 * np.pi, param_count(spec))
    circuit = build_ansatz(spec, params)
    noise = NoiseModel(readout_alpha=0.0, p1=0.0, p2=0.0, trajectories=50)
    dist = sample_noisy(circuit, params, noise, shots=100_000, seed=11)
    probs = run_circuit(circuit, params).probabilities
    emp = np.zeros(8)
    for s, c in dist.counts.items():
        emp[bitstring_to_index(s)] = c / dist.total
    assert 0.5 * np.abs(emp - probs).sum() < 0.02


def test_trajectories_are_capped_at_shots():
    # one shot per trajectory is already the device's law, so shots below
    # trajectories run exactly the trajectories == shots draws
    rng = np.random.default_rng(4)
    spec = AnsatzSpec(AnsatzKind.SE, 3, 2)
    params = rng.uniform(0, 2 * np.pi, param_count(spec))
    circuit = build_ansatz(spec, params)
    noise = NoiseModel(readout_alpha=0.05, p1=0.05, p2=0.1, trajectories=100)
    capped = sample_noisy(circuit, params, noise, shots=30, seed=2)
    exact_fit = sample_noisy(circuit, params,
                             dataclasses.replace(noise, trajectories=30),
                             shots=30, seed=2)
    assert capped.counts == exact_fit.counts
    assert capped.total == 30


def test_sampling_deterministic():
    rng = np.random.default_rng(5)
    spec = AnsatzSpec(AnsatzKind.BE, 3, 1)
    params = rng.uniform(0, 2 * np.pi, param_count(spec))
    circuit = build_ansatz(spec, params)
    noise = NoiseModel(readout_alpha=0.05, p1=1e-3, p2=1e-2, trajectories=20)
    a = sample_noisy(circuit, params, noise, shots=2000, seed=9)
    b = sample_noisy(circuit, params, noise, shots=2000, seed=9)
    assert a.counts == b.counts


def test_hamming_distance_exact_values():
    point = EmpiricalDistribution(8, {"00000000": 10})
    assert expected_hamming_distance(point, point) == 0.0

    # eight single-one strings once each plus the zero string twice:
    # every marginal is exactly 0.1
    counts = {"0" * 8: 2}
    for q in range(8):
        s = "".join("1" if i == q else "0" for i in range(8))
        counts[s] = 1
    flips = EmpiricalDistribution(8, counts)
    np.testing.assert_allclose(flips.marginals(), np.full(8, 0.1))
    assert abs(expected_hamming_distance(point, flips) - 0.8) < 1e-12

    uniform = EmpiricalDistribution(
        4, {format(i, "04b")[::-1]: 1 for i in range(16)})
    np.testing.assert_allclose(uniform.marginals(), np.full(4, 0.5))
    assert abs(expected_hamming_distance(uniform, uniform) - 2.0) < 1e-12

    a = EmpiricalDistribution(4, {"0000": 1})
    b = EmpiricalDistribution(4, {"1100": 1})
    assert abs(expected_hamming_distance(a, b) - 2.0) < 1e-12


def test_hamming_distance_qubit_mismatch():
    with pytest.raises(ValueError):
        expected_hamming_distance(
            EmpiricalDistribution(2, {"00": 1}),
            EmpiricalDistribution(3, {"000": 1}))


def test_sampling_control_distance_floor():
    # the two-shot-set control converges to the intrinsic distance
    # sum_q 2 m_q (1 - m_q): 1.0 for a Bell pair, 0 for a basis state
    c = Circuit(2)
    c.add("RY", (0,), (np.pi / 2,))
    c.add("CNOT", (0, 1), ())
    st = run_circuit(c)
    fine = sampling_control_distance(st, 100_000, seeds=(0, 1))
    assert abs(fine - 1.0) < 0.02

    basis = run_circuit(Circuit(2))
    assert sampling_control_distance(basis, 1000, seeds=(0, 1)) == 0.0


def _loop_marginals(dist):
    """The per-character reference: counts added in key order."""
    ones = np.zeros(dist.n_qubits)
    for key, c in dist.counts.items():
        for q, b in enumerate(key):
            if b == "1":
                ones[q] += c
    return ones / dist.total


def test_marginals_equal_the_per_character_loop():
    rng = np.random.default_rng(47)
    c = random_circuit(rng, 6, 30)
    probs = run_circuit(c, rng.uniform(0, 2 * np.pi, c.n_params)).probabilities
    exact = EmpiricalDistribution(6, {
        index_to_bitstring(i, 6): float(p) for i, p in enumerate(probs)
        if p > 0})
    sampled = EmpiricalDistribution.from_samples(
        sample_bitstrings(run_circuit(c, np.zeros(c.n_params)), 500, 3), 6)
    for dist in (exact, sampled):
        np.testing.assert_array_equal(dist.marginals(), _loop_marginals(dist))


def test_sampling_control_distance_equals_the_string_path():
    rng = np.random.default_rng(53)
    c = random_circuit(rng, 5, 25)
    st = run_circuit(c, rng.uniform(0, 2 * np.pi, c.n_params))
    a, b = (EmpiricalDistribution.from_samples(
        sample_bitstrings(st, 700, seed), 5) for seed in (11, 12))
    assert sampling_control_distance(st, 700, (11, 12)) == \
        expected_hamming_distance(a, b)


def test_keys_must_be_bitstrings():
    for counts, bad in (({"1x": 3, "01": 1}, "'1x'"),
                        ({"01": 1, "2 ": 1, "-1": 1}, "'2 '")):
        with pytest.raises(ValueError, match=bad):
            EmpiricalDistribution(2, counts)
    assert EmpiricalDistribution(2, {"10": 3, "01": 1}).total == 4


def test_counts_must_be_finite_and_non_negative():
    for counts, bad in (({"0": 5, "1": -2}, "'1'"),
                        ({"00": 1, "01": float("nan"), "10": -1}, "'01'"),
                        ({"0": float("inf")}, "'0'")):
        with pytest.raises(ValueError, match=bad):
            EmpiricalDistribution(len(next(iter(counts))), counts)
    assert EmpiricalDistribution(1, {"0": 0, "1": 0.5}).total == 0.5


@pytest.mark.parametrize("n", range(1, 13))
def test_mitigation_indices_equal_bitstring_to_index(n):
    # mitigation keyed by a random subset of strings equals the same
    # probabilities placed at bitstring_to_index of each key
    rng = np.random.default_rng(59 + n)
    idx = rng.choice(1 << n, size=int(rng.integers(1, min(1 << n, 300) + 1)),
                     replace=False)
    keys = [index_to_bitstring(int(i), n) for i in idx]
    dist = EmpiricalDistribution(n, dict(zip(keys, rng.integers(1, 50,
                                                               len(keys)))))
    cm = ConfusionMatrix.symmetric(n, 0.05)
    probs = np.zeros((1, 1 << n))
    mask = np.zeros(probs.shape, dtype=bool)
    for key, c in dist.counts.items():
        probs[0, bitstring_to_index(key)] = c / dist.total
        mask[0, bitstring_to_index(key)] = True
    want = mitigate_probabilities(probs, mask, cm)[0]
    got = mitigate_confusion(dist, cm)
    assert list(got) == sorted(keys)
    assert got == {key: want[bitstring_to_index(key)] for key in keys}


def test_mitigation_identity_confusion_is_noop():
    dist = EmpiricalDistribution(2, {"00": 70, "10": 20, "11": 10})
    cm = ConfusionMatrix.symmetric(2, 0.0)
    out = mitigate_confusion(dist, cm)
    for k, v in {"00": 0.7, "10": 0.2, "11": 0.1}.items():
        assert abs(out[k] - v) < 1e-12


def test_mitigation_recovers_exact_corrupted_point_mass():
    # point mass on 000 pushed through alpha = 1/4 symmetric readout
    # noise has probability (1/4)^k (3/4)^(3-k) on strings with k ones;
    # scaling by 64 gives exact integer counts
    alpha = 0.25
    counts = {}
    for i in range(8):
        ones = bin(i).count("1")
        s = "".join("1" if (i >> q) & 1 else "0" for q in range(3))
        counts[s] = round(64 * alpha ** ones * (1 - alpha) ** (3 - ones))
    dist = EmpiricalDistribution(3, counts)
    out = mitigate_confusion(dist, ConfusionMatrix.symmetric(3, alpha))
    assert abs(out["000"] - 1.0) < 1e-10
    for k, v in out.items():
        if k != "000":
            assert abs(v) < 1e-10


def test_mitigation_restores_sampled_point_mass():
    n, alpha = 4, 0.1
    c = Circuit(n)
    noise = NoiseModel(readout_alpha=alpha, p1=0.0, p2=0.0, trajectories=100)
    dist = sample_noisy(c, (), noise, shots=100_000, seed=21)
    out = mitigate_confusion(dist, ConfusionMatrix.symmetric(n, alpha))
    assert out["0" * n] >= 0.99


def test_mitigation_rejects_singular_confusion():
    dist = EmpiricalDistribution(1, {"0": 1, "1": 1})
    cm = ConfusionMatrix.symmetric(1, 0.5)
    with pytest.raises(ValueError, match="singular"):
        mitigate_confusion(dist, cm)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.05, 0.1, 0.25, 0.4])
@pytest.mark.parametrize("n", range(1, 9))
def test_mitigation_equals_per_qubit_inverse_oracle(n, alpha):
    # the closed-form symmetric inverse against np.linalg.inv of one
    # 2x2 matrix per qubit, on random rows with random observed masks
    rng = np.random.default_rng(1000 * n + int(1000 * alpha))
    probs = rng.random((3, 1 << n))
    observed = rng.random(probs.shape) < 0.6
    observed[:, 0] = True
    probs = np.where(observed, probs, 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    m = np.array([[1 - alpha, alpha], [alpha, 1 - alpha]])
    got = mitigate_probabilities(probs, observed,
                                 ConfusionMatrix.symmetric(n, alpha))
    want = mitigation_oracle(probs, observed, [m] * n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_confusion_matrix_is_one_symmetric_rate():
    cm = ConfusionMatrix.symmetric(3, 0.1)
    assert [f.name for f in dataclasses.fields(cm)] == ["n_qubits", "alpha"]
    assert cm == ConfusionMatrix(3, 0.1)
    for alpha in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            ConfusionMatrix.symmetric(2, alpha)
    assert ConfusionMatrix.symmetric(2, 1.0).alpha == 1.0


def test_mitigation_rejects_a_width_that_is_not_2_to_the_n():
    cm = ConfusionMatrix.symmetric(3, 0.05)
    for dim in (4, 16):
        probs = np.full((1, dim), 1.0 / dim)
        with pytest.raises(ValueError, match="3 qubits"):
            mitigate_probabilities(probs, probs > 0, cm)
    with pytest.raises(ValueError, match="3 qubits"):
        mitigate_confusion(EmpiricalDistribution(2, {"01": 1}), cm)


def test_mitigation_output_normalized_after_clipping():
    # heavily corrupted sparse counts produce negative quasi-probabilities
    dist = EmpiricalDistribution(2, {"00": 55, "10": 30, "01": 10, "11": 5})
    out = mitigate_confusion(dist, ConfusionMatrix.symmetric(2, 0.2))
    vals = np.array(list(out.values()))
    assert np.all(vals >= 0)
    assert abs(vals.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_readout_marginals_equal_the_inline_estimator(alpha):
    # counts / total, optional mitigation, then the index marginals:
    # sampled layers and ansatz-bench rows must agree to the last bit
    counts = np.array([[13, 0, 7, 1, 0, 22, 5, 2],
                       [0, 9, 0, 0, 31, 3, 6, 1]])
    probs = counts / 50
    if alpha > 0:
        probs = mitigate_probabilities(probs, counts > 0,
                                       ConfusionMatrix.symmetric(3, alpha))
    want = index_marginals(probs, 3)
    assert readout_marginals(counts, alpha).tobytes() == want.tobytes()


def test_gate_and_readout_noise_match_density_matrix_oracle():
    # one shot per trajectory makes every shot an independent draw from
    # the channel-averaged state, so each marginal is binomial
    rng = np.random.default_rng(13)
    circuit = random_circuit(rng, 4, 24)
    params = rng.uniform(0, 2 * np.pi, circuit.n_params)
    p1, p2, alpha, shots = 0.05, 0.15, 0.05, 20_000
    noise = NoiseModel(readout_alpha=alpha, p1=p1, p2=p2, trajectories=shots)
    want = noisy_marginals_oracle(circuit, params, p1, p2, alpha)
    sigma = np.sqrt(want * (1 - want) / shots)
    got = sample_noisy(circuit, params, noise, shots, seed=3).marginals()
    assert np.all(np.abs(got - want) <= 5 * sigma)
    # the gate noise moves the marginals far beyond that tolerance, so a
    # sampler that dropped it would fail the check above
    readout_only = noisy_marginals_oracle(circuit, params, 0.0, 0.0, alpha)
    assert np.max(np.abs(readout_only - want) / sigma) > 20


def test_trajectory_shot_split_sums_per_row():
    rng = np.random.default_rng(17)
    circuit = random_circuit(rng, 3, 12)
    params = rng.uniform(0, 2 * np.pi, (5, circuit.n_params))
    noise = NoiseModel(readout_alpha=0.1, p1=0.05, p2=0.1, trajectories=7)
    counts = sample_noisy_counts(circuit, params, noise, 50,
                                 np.random.default_rng(0))
    assert counts.shape == (5, 8)
    assert counts.dtype.kind == "i" and np.all(counts >= 0)
    np.testing.assert_array_equal(counts.sum(axis=1), np.full(5, 50))


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_sample_noisy_on_every_kind_matches_density_matrix_oracle(kind):
    # the row is bound as shared, so the trajectories run fused blocks
    # with the Pauli insertions applied to the rows they hit
    spec = AnsatzSpec(kind, 4, 2)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))
    params = np.random.default_rng(29).uniform(0, 2 * np.pi, circuit.n_params)
    p1, p2, alpha, shots = 0.05, 0.15, 0.05, 20_000
    noise = NoiseModel(readout_alpha=alpha, p1=p1, p2=p2, trajectories=shots)
    want = noisy_marginals_oracle(circuit, params, p1, p2, alpha)
    sigma = np.sqrt(want * (1 - want) / shots)
    got = sample_noisy(circuit, params, noise, shots, seed=5).marginals()
    assert np.all(np.abs(got - want) <= 5 * sigma)

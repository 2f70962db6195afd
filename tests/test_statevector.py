from collections import Counter

import numpy as np
import pytest

from oracles import (
    bind_params,
    bitstring_to_index,
    dense_run,
    dense_run_with_paulis,
    one_qubit_gate_count,
    random_circuit,
    reduced_density_oracle,
)
from qlatent.statevector import (
    _PAULI_STACK,
    Circuit,
    GateOp,
    SimulationError,
    StateVector,
    _apply_1q,
    _apply_block,
    index_to_bitstring,
    pauli_z_expectations,
    pauli_z_expectations_batch,
    reduced_density_matrix,
    run_circuit,
    run_circuit_batch,
    sample_bitstrings,
)


def test_zero_state():
    st = run_circuit(Circuit(3))
    want = np.zeros(8, dtype=np.complex128)
    want[0] = 1.0
    np.testing.assert_array_equal(st.amplitudes, want)


def test_state_norm_validation():
    with pytest.raises(SimulationError):
        StateVector(1, np.array([1.0, 1.0], dtype=np.complex128))


def test_qubit_count_cap():
    with pytest.raises(SimulationError):
        Circuit(21)


def test_single_gates_against_dense():
    cases = [
        ("RY", (0,), (0.7,)),
        ("RZ", (1,), (1.3,)),
        ("U3", (2,), (0.4, 1.1, -0.6)),
        ("CNOT", (0, 2), ()),
        ("CNOT", (2, 0), ()),
        ("CZ", (1, 2), ()),
        ("SWAP", (0, 1), ()),
    ]
    rng = np.random.default_rng(7)
    for kind, targets, params in cases:
        c = Circuit(3)
        # scramble the input so the gate acts on a generic state
        for q in range(3):
            c.add("U3", (q,), tuple(rng.uniform(0, 2 * np.pi, 3)))
        c.add(kind, targets, params)
        got = run_circuit(c).amplitudes
        want = dense_run(c)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_random_circuits_match_dense_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            c = random_circuit(rng, n, 12)
            params = rng.uniform(0, 2 * np.pi, len(c.param_slots))
            got = run_circuit(c, params).amplitudes
            want = dense_run(c, params)
            assert np.abs(got - want).max() < 1e-9


def test_norm_preserved_on_deep_circuit():
    rng = np.random.default_rng(3)
    c = random_circuit(rng, 6, 120)
    params = rng.uniform(0, 2 * np.pi, len(c.param_slots))
    st = run_circuit(c, params)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


def test_gate_inverses_restore_state():
    rng = np.random.default_rng(5)
    theta, phi, lam = rng.uniform(0, 2 * np.pi, 3)
    c = Circuit(2)
    c.add("RY", (0,), (theta,))
    c.add("RZ", (1,), (phi,))
    c.add("U3", (0,), (theta, phi, lam))
    c.add("CNOT", (0, 1), ())
    c.add("CZ", (0, 1), ())
    c.add("SWAP", (0, 1), ())
    c.add("SWAP", (0, 1), ())
    c.add("CZ", (0, 1), ())
    c.add("CNOT", (0, 1), ())
    c.add("U3", (0,), (-theta, -lam, -phi))
    c.add("RZ", (1,), (-phi,))
    c.add("RY", (0,), (-theta,))
    st = run_circuit(c)
    assert np.abs(st.amplitudes - np.eye(4)[0]).max() < 1e-9


def test_batched_execution_matches_loop():
    rng = np.random.default_rng(13)
    c = random_circuit(rng, 4, 20)
    k = 7
    params = rng.uniform(0, 2 * np.pi, (k, len(c.param_slots)))
    batch = run_circuit_batch(c, params)
    assert batch.shape == (k, 16)
    for i in range(k):
        single = run_circuit(c, params[i]).amplitudes
        assert np.abs(batch[i] - single).max() < 1e-12


def test_batched_pauli_insertions_match_dense_oracle():
    # row b gets Pauli codes[b] after the chosen ops; the dense oracle
    # multiplies the same Pauli matrices in between the gate unitaries
    rng = np.random.default_rng(19)
    c = random_circuit(rng, 3, 12)
    k = 4
    params = rng.uniform(0, 2 * np.pi, (k, len(c.param_slots)))
    paulis = {i: rng.integers(0, 16 if len(c.ops[i].targets) == 2 else 4, k)
              for i in (2, 7, 8)}
    batch = run_circuit_batch(c, params, paulis)
    for b in range(k):
        want = dense_run_with_paulis(c, params[b], paulis, b)
        assert np.abs(batch[b] - want).max() < 1e-12


def _scrambled(n, k, rng):
    """A circuit of trainable U3 on every qubit and k generic angle rows."""
    c = Circuit(n)
    for q in range(n):
        c.add("U3", (q,), (0.0, 0.0, 0.0), trainable=True)
    return c, rng.uniform(0, 2 * np.pi, (k, c.n_params))


def test_two_qubit_permutations_on_every_pair_match_dense():
    # control above and below the target, every pair, several rows
    rng = np.random.default_rng(37)
    n, k = 5, 3
    for kind in ("CNOT", "CZ", "SWAP"):
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                c, params = _scrambled(n, k, rng)
                c.add(kind, (a, b))
                got = run_circuit_batch(c, params)
                for r in range(k):
                    want = dense_run(c, params[r])
                    assert np.abs(got[r] - want).max() < 1e-12, (kind, a, b)


def test_real_gate_circuits_match_dense_with_zero_imaginary_part():
    # RY/CNOT/CZ/SWAP-only circuits without Pauli codes run in float64
    rng = np.random.default_rng(41)
    for n in (1, 2, 4, 5):
        c = Circuit(n)
        for _ in range(30):
            if n > 1 and rng.random() < 0.4:
                a, b = rng.choice(n, size=2, replace=False)
                c.add(str(rng.choice(["CNOT", "CZ", "SWAP"])),
                      (int(a), int(b)))
            else:
                c.add("RY", (int(rng.integers(n)),),
                      (rng.uniform(0, 2 * np.pi),),
                      trainable=bool(rng.random() < 0.5))
        params = rng.uniform(0, 2 * np.pi, (4, c.n_params))
        got = run_circuit_batch(c, params)
        assert got.dtype == np.complex128 and got.shape == (4, 2 ** n)
        assert not got.imag.any()
        for r in range(4):
            assert np.abs(got[r] - dense_run(c, params[r])).max() < 1e-12


def test_pauli_codes_on_a_real_circuit_run_complex():
    # Y has imaginary entries: a real-only circuit with Y codes must not
    # drop them on the float path
    rng = np.random.default_rng(43)
    n, k = 3, 4
    c = Circuit(n)
    for q in range(n):
        c.add("RY", (q,), (0.0,), trainable=True)
    c.add("CNOT", (0, 1))
    c.add("CZ", (1, 2))
    c.add("RY", (2,), (0.9,))
    params = rng.uniform(0, 2 * np.pi, (k, c.n_params))
    codes = np.array([2, 0, 2, 1])
    paulis = {1: codes, 3: 5 * codes[::-1]}
    got = run_circuit_batch(c, params, paulis)
    for b in range(k):
        want = dense_run_with_paulis(c, params[b], paulis, b)
        assert np.abs(got[b] - want).max() < 1e-12
    assert got.imag.any()


def _sparse_pauli_circuits():
    """Real RY/CZ and complex U3/CNOT plans on 4 qubits, slots trainable."""
    real, u3 = Circuit(4), Circuit(4)
    for layer in range(2):
        for q in range(4):
            real.add("RY", (q,), (0.0,), trainable=True)
            u3.add("U3", (q,), (0.0, 0.0, 0.0), trainable=True)
        for q in range(layer, 3, 2):
            real.add("CZ", (q, q + 1))
            u3.add("CNOT", (q, q + 1))
    return real, u3


def test_sparse_pauli_rows_match_dense_oracle():
    # most rows carry code 0 at each insertion, one insertion hits no row
    # and one two-qubit op has codes on both targets; only the hit rows
    # are touched, and every row still equals the gate-by-gate oracle
    rng = np.random.default_rng(53)
    k = 12
    for c in _sparse_pauli_circuits():
        params = rng.uniform(0, 2 * np.pi, (k, c.n_params))
        sparse = np.zeros((4, k), dtype=np.intp)
        sparse[0, [3]] = 2
        sparse[1, [0, 7]] = [1, 3]
        sparse[2, [7, 11]] = [2, 2]
        cz = next(i for i, op in enumerate(c.ops) if len(op.targets) == 2)
        paulis = {1: sparse[0], cz: 4 * sparse[1] + sparse[2],
                  len(c.ops) - 1: sparse[3]}
        got = run_circuit_batch(c, params, paulis)
        for r in range(k):
            want = dense_run_with_paulis(c, params[r], paulis, r)
            assert np.abs(got[r] - want).max() < 1e-12


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("kind", ["CNOT", "CZ", "SWAP"])
def test_two_qubit_codes_move_through_the_rest_of_their_run(kind, real):
    # row b gets code b (all 16) after the first gate of a run whose later
    # CNOT/CZ/SWAP gates act on its qubits both ways round; the plan
    # applies the codes after the whole run, through each op's frame, and
    # must match the gate-by-gate oracle, signs included
    rng = np.random.default_rng(61 + 2 * len(kind) + real)
    one, n_angles = ("RY", 1) if real else ("U3", 3)
    c = Circuit(4)
    for gates in ([], [(kind, (1, 2)), ("CNOT", (2, 1)), ("CZ", (1, 3)),
                       ("SWAP", (2, 0)), ("CNOT", (1, 2)), ("CZ", (2, 1)),
                       ("SWAP", (1, 2))]):
        for g, targets in gates:
            c.add(g, targets)
        for q in range(4):
            c.add(one, (q,), (0.0,) * n_angles, trainable=True)
    params = rng.uniform(0, 2 * np.pi, (16, c.n_params))
    first = np.arange(16)
    for paulis in ({4: first}, {4: first, 6: rng.permutation(16),
                                10: rng.integers(0, 16, 16)}):
        got = run_circuit_batch(c, params, paulis)
        for b in range(16):
            np.testing.assert_allclose(
                got[b], dense_run_with_paulis(c, params[b], paulis, b),
                rtol=0, atol=1e-12)


def test_all_zero_pauli_codes_leave_the_exact_run():
    rng = np.random.default_rng(59)
    for c in _sparse_pauli_circuits():
        params = rng.uniform(0, 2 * np.pi, (3, c.n_params))
        zero = np.zeros(3, dtype=np.intp)
        got = run_circuit_batch(c, params, {0: zero, 5: zero})
        for r in range(3):
            assert np.abs(got[r] - dense_run(c, params[r])).max() < 1e-12


def test_bind_params_freezes_slots():
    rng = np.random.default_rng(17)
    c = random_circuit(rng, 3, 15)
    params = rng.uniform(0, 2 * np.pi, len(c.param_slots))
    bound = bind_params(c, params)
    assert not bound.param_slots
    np.testing.assert_allclose(
        run_circuit(bound).amplitudes,
        run_circuit(c, params).amplitudes,
        atol=1e-12,
    )


def test_param_count_mismatch_raises():
    c = Circuit(2)
    c.add("RY", (0,), (0.0,), trainable=True)
    with pytest.raises(SimulationError):
        run_circuit(c, [0.1, 0.2])
    with pytest.raises(SimulationError, match=r"params shape \(0, 1\)"):
        run_circuit_batch(c, np.zeros((0, 1)))


def test_invalid_gates_rejected():
    c = Circuit(2)
    with pytest.raises(SimulationError):
        c.add("RX", (0,), (0.1,))
    with pytest.raises(SimulationError):
        c.add("CNOT", (0, 0), ())
    with pytest.raises(SimulationError):
        c.add("RY", (2,), (0.1,))
    with pytest.raises(SimulationError):
        c.add("RY", (0,), (0.1, 0.2))


@pytest.mark.parametrize("ops, slots, match", [
    ([GateOp("RY", (5,), (0.3,))], [], "target 5 out of range"),
    ([GateOp("RY", (-1,), (0.3,))], [], "target -1 out of range"),
    ([GateOp("CNOT", (0, 3))], [], "target 3 out of range"),
    ([GateOp("RY", (0,), (0.3,))], [(3, 0)], r"\(3, 0\) names no unbound"),
    ([GateOp("RY", (0,), (0.3,))], [(0, 1)], r"\(0, 1\) names no unbound"),
    ([GateOp("CNOT", (0, 1))], [(0, 0)], r"\(0, 0\) names no unbound"),
    ([GateOp("RY", (0,), (0.3,))], [(0, 0), (0, 0)],
     r"\(0, 0\) names no unbound"),
])
def test_circuits_built_from_ops_and_slots_are_checked(ops, slots, match):
    # the same target and slot checks as ``Circuit.add``, rather than a
    # gate silently dropped, a bare IndexError/KeyError or a lost angle
    with pytest.raises(SimulationError, match=match):
        Circuit(2, ops, slots)


def test_gates_given_as_lists_run_like_tuples():
    listed, tupled = Circuit(2), Circuit(2)
    listed.add("RY", [0], [0.3])
    listed.add("CNOT", [0, 1])
    listed.add("U3", [1], [0.1, 0.2, 0.3], trainable=True)
    tupled.add("RY", (0,), (0.3,))
    tupled.add("CNOT", (0, 1))
    tupled.add("U3", (1,), (0.1, 0.2, 0.3), trainable=True)
    assert listed.ops == tupled.ops
    theta = np.array([0.4, 0.5, 0.6])
    np.testing.assert_array_equal(run_circuit(listed, theta).amplitudes,
                                  run_circuit(tupled, theta).amplitudes)


def test_in_place_gate_lands_in_any_2d_layout():
    rng = np.random.default_rng(0)
    psi = (rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))).T
    want = psi[[i ^ 2 for i in range(8)]]  # X on qubit 1 flips bit 1
    assert not psi.flags.c_contiguous
    _apply_1q(psi, np.empty_like(psi), 1, _PAULI_STACK[:, :, [1]])
    np.testing.assert_array_equal(psi, want)


def test_in_place_gate_refuses_a_state_whose_writes_would_be_lost():
    x = np.arange(24, dtype=complex).reshape(3, 4, 2)
    psi = x.transpose(2, 1, 0)
    with pytest.raises(SimulationError, match="non-C-contiguous"):
        _apply_1q(psi, np.empty_like(psi), 0, _PAULI_STACK[:, :, [1]])
    state = np.ones((4, 2), complex)
    with pytest.raises(SimulationError, match="C-contiguous scratch"):
        _apply_block(state, np.empty((2, 4), complex).T, 0, 2,
                     np.eye(4, dtype=complex))


def test_pauli_z_expectations_on_basis_states():
    # |10> means qubit 0 is 1, qubit 1 is 0
    c = Circuit(2)
    c.add("RY", (0,), (np.pi,))
    z = pauli_z_expectations(run_circuit(c))
    np.testing.assert_allclose(z, [-1.0, 1.0], atol=1e-12)

    c2 = Circuit(2)
    c2.add("RY", (0,), (np.pi,))
    c2.add("RY", (1,), (np.pi,))
    z2 = pauli_z_expectations(run_circuit(c2))
    np.testing.assert_allclose(z2, [-1.0, -1.0], atol=1e-12)


def test_pauli_z_matches_dense_quadratic_form():
    rng = np.random.default_rng(23)
    c = random_circuit(rng, 4, 18)
    params = rng.uniform(0, 2 * np.pi, len(c.param_slots))
    psi = dense_run(c, params)
    got = pauli_z_expectations(run_circuit(c, params))
    for q in range(4):
        signs = np.array([1.0 - 2.0 * ((i >> q) & 1) for i in range(16)])
        want = float(np.real(np.sum(signs * np.abs(psi) ** 2)))
        assert abs(got[q] - want) < 1e-12


def test_pauli_z_batch_matches_dense_quadratic_form():
    rng = np.random.default_rng(29)
    batch = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
    got = pauli_z_expectations_batch(batch, 5)
    assert got.shape == (3, 5)
    for b in range(3):
        for q in range(5):
            signs = np.array([1.0 - 2.0 * ((i >> q) & 1) for i in range(32)])
            assert abs(got[b, q] - np.sum(signs * np.abs(batch[b]) ** 2)) < 1e-12


def test_pauli_z_batch_rejects_a_width_other_than_two_to_the_n():
    # a 4-qubit basis state with qubits 0 and 1 set, passed as 2 qubits
    state = np.zeros((1, 16), dtype=np.complex128)
    state[0, 0b0011] = 1.0
    np.testing.assert_allclose(pauli_z_expectations_batch(state, 4),
                               [[-1.0, -1.0, 1.0, 1.0]])
    for n in (2, 5):
        with pytest.raises(SimulationError):
            pauli_z_expectations_batch(state, n)


def test_bitstring_round_trip():
    # qubit 0 is the first character
    assert index_to_bitstring(1, 3) == "100"
    assert index_to_bitstring(4, 3) == "001"
    assert bitstring_to_index("100") == 1
    assert bitstring_to_index("001") == 4
    for i in range(16):
        assert bitstring_to_index(index_to_bitstring(i, 4)) == i
        assert index_to_bitstring(i, 4) == "".join(
            str((i >> q) & 1) for q in range(4))


def test_sampling_deterministic_given_seed():
    c = Circuit(2)
    c.add("RY", (0,), (1.1,))
    c.add("CNOT", (0, 1), ())
    st = run_circuit(c)
    a = sample_bitstrings(st, 500, seed=42)
    b = sample_bitstrings(st, 500, seed=42)
    assert a == b


def test_sampling_matches_born_rule():
    rng = np.random.default_rng(29)
    c = random_circuit(rng, 3, 14)
    params = rng.uniform(0, 2 * np.pi, len(c.param_slots))
    st = run_circuit(c, params)
    probs = np.abs(st.amplitudes) ** 2
    shots = 100_000
    samples = sample_bitstrings(st, shots, seed=1)
    emp = np.zeros(8)
    for s, k in Counter(samples).items():
        emp[bitstring_to_index(s)] = k / shots
    total_variation = 0.5 * np.abs(emp - probs).sum()
    assert total_variation < 0.02


def test_reduced_density_matrix_against_oracle():
    rng = np.random.default_rng(31)
    for n, keep in ((2, [0]), (3, [1]), (4, [0, 1]), (4, [1, 3]), (5, [0, 2, 4])):
        c = random_circuit(rng, n, 16)
        params = rng.uniform(0, 2 * np.pi, len(c.param_slots))
        st = run_circuit(c, params)
        got = reduced_density_matrix(st, keep)
        want = reduced_density_oracle(st.amplitudes, keep, n)
        assert np.abs(got - want).max() < 1e-12
        assert abs(np.trace(got).real - 1.0) < 1e-12


def test_reduced_density_matrix_bell_state():
    c = Circuit(2)
    c.add("RY", (0,), (np.pi / 2,))
    c.add("CNOT", (0, 1), ())
    rho = reduced_density_matrix(run_circuit(c), [0])
    np.testing.assert_allclose(rho, 0.5 * np.eye(2), atol=1e-12)


def test_circuit_gate_counts():
    c = Circuit(3)
    c.add("RY", (0,), (0.1,))
    c.add("CNOT", (0, 1), ())
    c.add("SWAP", (1, 2), ())
    c.add("U3", (2,), (0.1, 0.2, 0.3))
    assert c.two_qubit_gate_count() == 2
    assert one_qubit_gate_count(c) == 2

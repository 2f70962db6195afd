"""Compiled circuit plans against the dense oracle and parameter shift.

A plan runs a product state, fused blocks of same-angle one-qubit gates
(at most one gate per qubit in a block), per-row Kronecker blocks of
runs of per-row gates on distinct qubits, and permutation stages.  Every check here compares with
``tests/oracles.py`` matrices or shifted expectation values computed
from them, never with the plan itself, except that repeated adjoint calls
on one binding must also equal fresh ones bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import bind_params, dense_run, dense_run_with_paulis
from qlatent import statevector
from qlatent.ansatz import (
    AnsatzKind,
    AnsatzSpec,
    build_ansatz,
    build_trainable_encoder,
    param_count,
)
from qlatent.layers import QuantumLayer
from qlatent.noise import NoiseModel, sample_noisy
from qlatent.statevector import (
    Circuit,
    GateOp,
    pauli_z_expectations_batch,
    run_circuit,
    run_circuit_batch,
    z_expectations,
)
from qlatent.tensor import Tensor


def _mixed_circuit(rng, n, n_gates):
    """Random ops of the full gate set; each angle is a slot with prob 1/2.

    U3 gates therefore come partly trainable, slots are listed in a random
    order (so a shared/per-row split cuts across ops), and every fourth
    one-qubit gate repeats the previous gate's qubit, so runs of
    same-angle gates split into more blocks.
    """
    ops, q = [], 0
    for g in range(n_gates):
        if n > 1 and rng.random() < 0.35:
            a, b = rng.choice(n, size=2, replace=False)
            ops.append(GateOp(str(rng.choice(["CNOT", "CZ", "SWAP"])),
                              (int(a), int(b))))
            continue
        kind = str(rng.choice(["RY", "RZ", "U3"]))
        q = q if g % 4 == 3 else int(rng.integers(n))
        ops.append(GateOp(kind, (q,), tuple(rng.uniform(
            0, 2 * np.pi, 3 if kind == "U3" else 1))))
    slots = [(i, a) for i, op in enumerate(ops) for a in range(len(op.params))
             if rng.random() < 0.5]
    return Circuit(n, ops, [slots[j] for j in rng.permutation(len(slots))])


def _dense_z(circuit, full):
    """<Z_q> of every row of full (k, n_params) from the dense oracle."""
    n = circuit.n_qubits
    signs = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    return np.array([np.abs(dense_run(circuit, row)) ** 2 @ signs
                     for row in full])


def _dense_shift_gradients(circuit, full, weights):
    """(k, n_params) d/dtheta of sum_q weights[b, q] <Z_q> by +-pi/2 shifts."""
    grads = np.zeros(full.shape)
    for s in range(circuit.n_params):
        shift = np.zeros(circuit.n_params)
        shift[s] = np.pi / 2
        z = _dense_z(circuit, full + shift) - _dense_z(circuit, full - shift)
        grads[:, s] = (z * weights).sum(axis=1) / 2
    return grads


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 3])
def test_plans_match_dense_oracle_and_parameter_shift(n, k):
    rng = np.random.default_rng(100 * n + k)
    circuit = _mixed_circuit(rng, n, 14 + 3 * n)
    n_shared = int(rng.integers(circuit.n_params + 1))
    n_row = circuit.n_params - n_shared
    full = rng.uniform(0, 2 * np.pi, (k, circuit.n_params))
    full[:, n_row:] = full[0, n_row:]  # shared slots: one value per circuit
    rows, shared = full[:, :n_row], full[0, n_row:]
    amps = run_circuit_batch(circuit, rows, shared=shared)
    for b in range(k):
        np.testing.assert_allclose(amps[b], dense_run(circuit, full[b]),
                                   rtol=0, atol=1e-12)
    weights = rng.standard_normal((k, n))
    want = _dense_shift_gradients(circuit, full, weights)
    z, vjp = z_expectations(circuit, rows, shared=shared)
    np.testing.assert_allclose(z, _dense_z(circuit, full), rtol=0, atol=1e-12)
    got_rows, got_shared = vjp(weights)
    np.testing.assert_allclose(got_rows, want[:, :n_row], rtol=0, atol=1e-10)
    np.testing.assert_allclose(got_shared, want[:, n_row:].sum(axis=0),
                               rtol=0, atol=1e-10)


def test_shared_slots_equal_the_same_angles_per_row():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6):
        circuit = _mixed_circuit(rng, n, 40)
        n_row = circuit.n_params // 2
        rows = rng.uniform(0, 2 * np.pi, (5, n_row))
        shared = rng.uniform(0, 2 * np.pi, circuit.n_params - n_row)
        full = np.hstack([rows, np.tile(shared, (5, 1))])
        amps = run_circuit_batch(circuit, rows, shared=shared)
        np.testing.assert_allclose(amps, run_circuit_batch(circuit, full),
                                   rtol=0, atol=1e-12)
        weights = rng.standard_normal((5, n))
        per_row, _ = z_expectations(circuit, full)[1](weights)
        got_rows, got_shared = z_expectations(circuit, rows,
                                              shared=shared)[1](weights)
        np.testing.assert_allclose(got_rows, per_row[:, :n_row],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_shared, per_row[:, n_row:].sum(axis=0),
                                   rtol=0, atol=1e-12)


def test_a_second_gate_on_a_qubit_starts_a_new_block():
    # RZ, U3 and RY on qubit 1 with a U3 on qubit 2 in between: a block
    # holds at most one gate per qubit, so each repeat of qubit 1 closes
    # the pending block, and every angle still gets its exact derivative
    c = Circuit(3)
    for q in range(3):
        c.add("RY", (q,), (0.0,), trainable=True)
    c.add("RZ", (1,), (0.0,), trainable=True)
    c.add("U3", (1,), (0.0, 0.0, 0.0), trainable=True)
    c.add("U3", (2,), (0.0, 0.0, 0.0), trainable=True)
    c.add("RY", (1,), (0.0,), trainable=True)
    c.add("CNOT", (1, 0))
    c.add("CNOT", (2, 1))
    plan = statevector._compile(*_key(c, c.n_params - 3))
    assert [plan.blocks[st[1]][:2] for st in plan.stages
            if st[0] == "block"] == [(1, 1), (1, 2), (1, 1)]
    rng = np.random.default_rng(11)
    full = rng.uniform(0, 2 * np.pi, (2, c.n_params))
    full[:, 3:] = full[0, 3:]
    weights = rng.standard_normal((2, 3))
    rows, shared = z_expectations(c, full[:, :3],
                                  shared=full[0, 3:])[1](weights)
    want = _dense_shift_gradients(c, full, weights)
    np.testing.assert_allclose(rows, want[:, :3], rtol=0, atol=1e-10)
    np.testing.assert_allclose(shared, want[:, 3:].sum(axis=0),
                               rtol=0, atol=1e-10)


def test_pauli_code_inside_a_block_keeps_it_fused():
    # fixed U3 gates on four adjacent qubits fuse into one block; a Pauli
    # code right after the gate on qubit 1 commutes with the block's other
    # gates, so the coded run keeps that one block and the code follows it
    rng = np.random.default_rng(5)
    n, k = 5, 4
    c = Circuit(n)
    for q in range(n):
        c.add("RY", (q,), (0.0,), trainable=True)
    for q in range(4):
        c.add("U3", (q,), tuple(rng.uniform(0, 2 * np.pi, 3)))
    c.add("CZ", (0, 3))
    c.add("RZ", (2,), (0.0,), trainable=True)
    params = rng.uniform(0, 2 * np.pi, (k, c.n_params))
    codes = np.array([1, 2, 3, 0])
    paulis = {n + 1: codes, n + 4: 4 * codes[::-1] + codes}
    statevector._plan.cache_clear()
    got = run_circuit_batch(c, params, paulis)
    for b in range(k):
        np.testing.assert_allclose(
            got[b], dense_run_with_paulis(c, params[b], paulis, b),
            rtol=0, atol=1e-12)
    assert statevector._plan.cache_info().misses == 1
    plan = statevector._plan(*_key(c, 0))
    assert [plan.blocks[st[1]][:2] for st in plan.stages
            if st[0] == "block"] == [(0, 4)]


def _row_run_circuit(rng, n, real, n_layers=3):
    """Layers of one-qubit gates, each layer followed by CZ (real) or
    CNOT gates on random pairs; returns (circuit, number of shared slots).

    A layer covers every qubit or a random subset, so per-row runs have
    gaps inside a window and windows start on any qubit.  Most gates
    take per-row angles; about one in ten has shared slots (listed last)
    and one in ten fixed angles, and about one in seven is followed by a
    second gate on its qubit; either ends the run of per-row gates.
    """
    one, two = ("RY", "CZ") if real else ("U3", "CNOT")
    c, shared = Circuit(n), []
    for _ in range(n_layers):
        qs = (range(n) if rng.random() < 0.5
              else np.flatnonzero(rng.random(n) < 0.6))
        for q in qs:
            for _ in range(1 + (rng.random() < 0.15)):
                draw = rng.random()
                c.add(one, (int(q),),
                      tuple(rng.uniform(0, 2 * np.pi, 1 if real else 3)),
                      trainable=draw < 0.9)
                if 0.8 <= draw < 0.9:
                    shared += c.param_slots[len(c.param_slots)
                                            - (1 if real else 3):]
        for _ in range(int(rng.integers(n)) if n > 1 else 0):
            a, b = rng.choice(n, size=2, replace=False)
            c.add(two, (int(a), int(b)))
    c.param_slots = [s for s in c.param_slots if s not in shared] + shared
    return c, len(shared)


def _rows_windows(plan):
    """Per ``rows`` stage of the plan, its (lo, w) windows."""
    return [[(lo, w) for lo, w, _ in st[2]] for st in plan.stages
            if st[0] == "rows"]


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("k", [1, 3, 64])
@pytest.mark.parametrize("n", range(1, 8))
def test_per_row_blocks_match_dense_oracle(n, k, real):
    rng = np.random.default_rng(1000 * n + 10 * k + real)
    circuit, n_shared = _row_run_circuit(rng, n, real)
    n_row = circuit.n_params - n_shared
    full = rng.uniform(0, 2 * np.pi, (k, circuit.n_params))
    full[:, n_row:] = full[0, n_row:]
    amps = run_circuit_batch(circuit, full[:, :n_row], shared=full[0, n_row:])
    if real:
        assert not amps.imag.any()
    for b in range(k):
        np.testing.assert_allclose(amps[b], dense_run(circuit, full[b]),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_per_row_blocks_adjoint_matches_parameter_shift(n, real):
    rng = np.random.default_rng(77 + 2 * n + real)
    circuit, n_shared = _row_run_circuit(rng, n, real)
    plan = statevector._compile(*_key(circuit, n_shared))
    assert any(len(st[1]) > 1 for st in plan.stages if st[0] == "rows")
    n_row = circuit.n_params - n_shared
    full = rng.uniform(0, 2 * np.pi, (3, circuit.n_params))
    full[:, n_row:] = full[0, n_row:]
    rows, shared = full[:, :n_row], full[0, n_row:]
    weights = rng.standard_normal((3, n))
    want = _dense_shift_gradients(circuit, full, weights)
    got_rows, got_shared = z_expectations(circuit, rows,
                                          shared=shared)[1](weights)
    np.testing.assert_allclose(got_rows, want[:, :n_row], rtol=0, atol=1e-10)
    np.testing.assert_allclose(got_shared, want[:, n_row:].sum(axis=0),
                               rtol=0, atol=1e-10)


def test_per_row_runs_end_at_repeats_and_shared_ops():
    # 7 qubits, per-row RY unless marked: a gapped window and a window
    # starting on qubit 1, then runs ended by a second gate on qubit 3
    # and by a shared gate; a Pauli code ends none
    c, n = Circuit(7), 7
    for q in range(n):
        c.add("RY", (q,), (0.0,), trainable=True)
    c.add("CZ", (0, 1))
    for q in (0, 2, 3, 5, 6):
        c.add("RY", (q,), (0.0,), trainable=True)
    c.add("CZ", (2, 3))
    for q in (1, 2, 3, 4, 5, 6, 3):
        c.add("RY", (q,), (0.0,), trainable=True)
    c.add("RY", (4,), (0.0,), trainable=True)  # shared: the last slot
    c.add("RY", (5,), (0.0,), trainable=True)
    c.add("RY", (6,), (0.0,), trainable=True)
    c.param_slots.append(c.param_slots.pop(-3))
    plan = statevector._compile(*_key(c, 1))
    assert [st[0] for st in plan.stages] == [
        "perm", "rows", "perm", "rows", "rows", "block", "rows"]
    assert _rows_windows(plan) == [[(0, 4), (5, 2)], [(1, 4), (5, 2)],
                                   [(3, 1)], [(5, 2)]]
    assert [len(st[1]) for st in plan.stages if st[0] == "rows"] == [
        5, 6, 1, 2]
    rng = np.random.default_rng(13)
    full = rng.uniform(0, 2 * np.pi, (3, c.n_params))
    full[:, -1] = full[0, -1]
    amps = run_circuit_batch(c, full[:, :-1], shared=full[0, -1:])
    for b in range(3):
        np.testing.assert_allclose(amps[b], dense_run(c, full[b]),
                                   rtol=0, atol=1e-12)
    weights = rng.standard_normal((3, n))
    rows, shared_grad = z_expectations(c, full[:, :-1],
                                       shared=full[0, -1:])[1](weights)
    want = _dense_shift_gradients(c, full, weights)
    np.testing.assert_allclose(rows, want[:, :-1], rtol=0, atol=1e-10)
    np.testing.assert_allclose(shared_grad, want[:, -1:].sum(axis=0),
                               rtol=0, atol=1e-10)
    # a Pauli code after the gate on qubit 3 of the gapped layer follows
    # that layer's rows stage in the same plan, and the trajectory equals
    # the dense one
    codes = np.array([2, 0, 3])
    paulis = {n + 3: codes}
    got = run_circuit_batch(c, full[:, :-1], paulis, shared=full[0, -1:])
    for b in range(3):
        np.testing.assert_allclose(
            got[b], dense_run_with_paulis(c, full[b], paulis, b),
            rtol=0, atol=1e-12)
    assert statevector._plan(*_key(c, 1)).stage_of[n + 3] == 1


def test_all_per_row_layers_are_one_rows_stage_each():
    # encoder + SE 6q/2L with every angle per row: the encoder is the
    # product state, and each U3 layer one rows stage on qubits 0..3, 4..5
    spec = AnsatzSpec(AnsatzKind.SE, 6, 2)
    circuit = build_trainable_encoder(6).extended(
        build_ansatz(spec, np.zeros(param_count(spec))))
    plan = statevector._compile(*_key(circuit, 0))
    assert [st[0] for st in plan.stages] == ["rows", "perm", "rows", "perm"]
    assert _rows_windows(plan) == [[(0, 4), (4, 2)]] * 2


def test_rows_stages_allocate_no_state_sized_buffer():
    # 10 qubits x 200 rows: a run holds its state, one scratch state and
    # the output, plus the gate matrices and one window's row blocks;
    # another rows-first pair of buffers would pass four states
    spec = AnsatzSpec(AnsatzKind.SE, 10, 2)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))
    params = np.random.default_rng(0).uniform(0, 2 * np.pi,
                                              (200, circuit.n_params))
    run_circuit_batch(circuit, params)  # compile the plan outside the trace
    tracemalloc.start()
    try:
        run_circuit_batch(circuit, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 2 ** 10 * 200


def _count_layout_changes(monkeypatch):
    """A list that grows by one at each call of ``statevector._transpose``."""
    calls, transpose = [], statevector._transpose

    def counted(psi, tmp):
        calls.append(psi.shape)
        return transpose(psi, tmp)

    monkeypatch.setattr(statevector, "_transpose", counted)
    return calls


@pytest.mark.parametrize("k", [1, 3, 200])
@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_template_runs_equal_gate_by_gate_kernels(kind, k):
    # at 9 and 12 qubits a layer's rows stage has three windows, and every
    # template's run ends rows-first; apply_gate runs each gate on a
    # rows-last one-row state
    rng = np.random.default_rng(len(kind.value) * 1000 + k)
    for n in (4, 5, 9, 12):
        spec = AnsatzSpec(kind, n, 3)
        circuit = build_ansatz(spec, np.zeros(param_count(spec)))
        params = rng.uniform(0, 2 * np.pi, (k, circuit.n_params))
        amps = run_circuit_batch(circuit, params)
        for b in sorted({0, k // 2, k - 1}):
            state = run_circuit(Circuit(n))
            for op in bind_params(circuit, params[b]).ops:
                state = statevector.apply_gate(state, op)
            np.testing.assert_allclose(amps[b], state.amplitudes,
                                       rtol=0, atol=1e-12)


def _alternating_circuit(rng, n, n_layers=4):
    """Per-row layers on two or more qubits, each followed by a run of
    CNOT/CZ/SWAP gates; every other layer, that run is followed by fixed
    U3 gates (block stages), a second run and more fixed U3 gates."""
    c = Circuit(n)
    for layer in range(n_layers):
        qs = rng.permutation(n)[:int(rng.integers(2, n + 1))]
        for q in qs:
            kind = str(rng.choice(["RY", "RZ", "U3"]))
            c.add(kind, (int(q),), (0.0,) * (3 if kind == "U3" else 1),
                  trainable=True)
        for _ in range(1 + layer % 2):
            for _ in range(int(rng.integers(1, n + 1))):
                a, b = rng.choice(n, size=2, replace=False)
                c.add(str(rng.choice(["CNOT", "CZ", "SWAP"])),
                      (int(a), int(b)))
            if layer % 2:
                for q in rng.permutation(n)[:int(rng.integers(1, n + 1))]:
                    c.add("U3", (int(q),), tuple(rng.uniform(0, 2 * np.pi, 3)))
    return c


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", range(2, 8))
def test_rows_first_runs_with_paulis_match_dense_oracle(n, k):
    # rows stages alternate with permutation runs and blocks, so the state
    # turns rows-first and back; codes follow all three kinds of stage and
    # go into rows-first states as well as rows-last ones
    rng = np.random.default_rng(50 * n + k)
    c = _alternating_circuit(rng, n)
    params = rng.uniform(0, 2 * np.pi, (k, c.n_params))
    paulis = {i: rng.integers(0, 16 if len(op.targets) == 2 else 4, k)
              for i, op in enumerate(c.ops) if rng.random() < 0.4}
    plan = statevector._plan(*_key(c, 0))
    assert any(st[0] == "rows" and len(st[1]) > 1 for st in plan.stages)
    assert {plan.stages[plan.stage_of[i]][0] for i in paulis
            if plan.stage_of[i] >= 0} == {"rows", "perm", "block"}
    got = run_circuit_batch(c, params, paulis)
    for b in range(k):
        np.testing.assert_allclose(
            got[b], dense_run_with_paulis(c, params[b], paulis, b),
            rtol=0, atol=1e-12)
    exact = run_circuit_batch(c, params)
    for b in range(k):
        np.testing.assert_allclose(exact[b], dense_run(c, params[b]),
                                   rtol=0, atol=1e-12)


def test_adjoint_of_a_run_that_ends_rows_first(monkeypatch):
    # encoder + SE 5q/2L with every angle per row, then one per-row RY:
    # the run turns rows-first at the first U3 layer and stays so through
    # the CNOT runs and the one-op rows stage at the end
    spec = AnsatzSpec(AnsatzKind.SE, 5, 2)
    c = build_trainable_encoder(5).extended(
        build_ansatz(spec, np.zeros(param_count(spec))))
    c.add("RY", (2,), (0.0,), trainable=True)
    assert statevector._plan(*_key(c, 0)).stages[-1][0] == "rows"
    rng = np.random.default_rng(9)
    full = rng.uniform(0, 2 * np.pi, (3, c.n_params))
    weights = rng.standard_normal((3, 5))
    calls = _count_layout_changes(monkeypatch)
    z, vjp = z_expectations(c, full)
    assert len(calls) == 1
    np.testing.assert_allclose(z, _dense_z(c, full), rtol=0, atol=1e-12)
    got, _ = vjp(weights)
    np.testing.assert_allclose(got, _dense_shift_gradients(c, full, weights),
                               rtol=0, atol=1e-10)


def _every_stage_circuit():
    """Five qubits through a product state and every stage kind,
    including those that work on the state in place: a CNOT + CZ gather,
    a two-qubit block, two per-row ops, a SWAP, a one-op per-row stage
    entered rows-first, a one-qubit block, a sign-only CZ, then a layer
    on all five qubits, which runs as two blocks on disjoint qubits (the
    second one-qubit) that share one kept state.  Its 10 slots: 5
    product angles, then 5 more."""
    c = Circuit(5)
    for q in range(5):
        c.add("RY", (q,), (0.0,), trainable=True)
    c.add("CNOT", (0, 1))
    c.add("CZ", (1, 2))
    c.add("RZ", (0,), (0.4,))
    c.add("U3", (1,), (0.3, 1.1, -0.7))
    c.add("RY", (0,), (0.0,), trainable=True)
    c.add("U3", (2,), (0.0, 0.0, 0.0), trainable=True)
    c.add("SWAP", (0, 2))
    c.add("RZ", (1,), (0.0,), trainable=True)
    c.add("RY", (1,), (0.9,))
    c.add("CZ", (0, 1))
    for q, kind, angles in ((0, "U3", (0.2, 0.5, 0.8)), (1, "RY", (1.3,)),
                            (2, "RZ", (-0.4,)), (3, "RY", (0.7,)),
                            (4, "U3", (1.2, -0.3, 0.1))):
        c.add(kind, (q,), angles)
    return c


@pytest.mark.parametrize("n_shared", [0, 5], ids=["per-row", "shared"])
@pytest.mark.parametrize("k", [1, 3])
def test_kept_states_are_read_only(k, n_shared):
    # the forward keeps stage inputs for the adjoint sweep: a kept view
    # that a later stage overwrites, or a sweep that writes what it reads,
    # would make gradients wrong or make a second vjp differ
    c = _every_stage_circuit()
    plan = statevector._plan(*_key(c, n_shared))
    kinds = {stage[0] for stage in plan.stages}
    assert plan.product and kinds == ({"block", "perm", "rows"} if not n_shared
                                      else {"block", "perm"})
    rng = np.random.default_rng(31 + k)
    full = rng.uniform(0, 2 * np.pi, (k, c.n_params))
    n_row = c.n_params - n_shared
    full[:, n_row:] = full[0, n_row:]
    rows, shared = full[:, :n_row], full[0, n_row:]
    z, vjp = z_expectations(c, rows, shared=shared)
    z_before = z.copy()
    w1, w2 = rng.standard_normal((2, k, 5))
    first = vjp(w1)
    want = _dense_shift_gradients(c, full, w1)
    np.testing.assert_allclose(first[0], want[:, :n_row], rtol=0, atol=1e-10)
    np.testing.assert_allclose(first[1], want[:, n_row:].sum(axis=0),
                               rtol=0, atol=1e-10)
    for weights, got in ((w1, vjp(w1)), (w2, vjp(w2)), (w1, vjp(w1))):
        fresh_z, fresh_vjp = z_expectations(c, rows, shared=shared)
        np.testing.assert_array_equal(fresh_z, z_before)
        for a, b in zip(got, fresh_vjp(weights)):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(z, z_before)
    np.testing.assert_allclose(z, _dense_z(c, full), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_exact_template_runs_change_layout_once(kind, monkeypatch):
    # S2D at 12 qubits x 6 layers has 12 rows stages of several ops: the
    # state turns rows-first at the first and stays so to the end
    spec = AnsatzSpec(kind, 12, 6)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))
    params = np.random.default_rng(4).uniform(0, 2 * np.pi,
                                              (3, circuit.n_params))
    calls = _count_layout_changes(monkeypatch)
    amps = run_circuit_batch(circuit, params)
    assert calls == [(2 ** 12, 3)]
    assert amps.flags.c_contiguous and amps.shape == (3, 2 ** 12)


def test_one_gate_per_qubit_runs_equal_the_unfused_kernel(monkeypatch,
                                                          request):
    # with blocks one qubit wide every shared gate is its own one-qubit
    # stage, as before fusion; both plans must give the same state and
    # gradients
    request.addfinalizer(statevector._plan.cache_clear)
    rng = np.random.default_rng(3)
    layer = QuantumLayer(3, 3, AnsatzSpec(AnsatzKind.SE, 5, 2), rng)
    angles = rng.uniform(-np.pi, np.pi, (4, 5))
    weights = rng.standard_normal((4, 5))
    theta = layer.theta.data

    def run():
        statevector._plan.cache_clear()
        amps = run_circuit_batch(layer._template, angles, shared=theta)
        return amps, z_expectations(layer._template, angles,
                                    shared=theta)[1](weights)

    def widths():
        plan = statevector._plan(*_key(layer._template, theta.size))
        return {w for _, w, _ in plan.blocks}

    fused, (d_rows, d_shared) = run()
    assert widths() == {1, 4}  # the U3 layer on 5 qubits: 0..3, then 4
    monkeypatch.setattr(statevector, "_FUSE_QUBITS", 1)
    single, (s_rows, s_shared) = run()
    assert widths() == {1}
    np.testing.assert_allclose(fused, single, rtol=0, atol=1e-13)
    np.testing.assert_allclose(d_rows, s_rows, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_shared, s_shared, rtol=0, atol=1e-12)
    # and the one-qubit-wide plan equals gate-by-gate application
    for b in range(4):
        state = run_circuit(Circuit(5))
        full = np.concatenate([angles[b], theta])
        for op in bind_params(layer._template, full).ops:
            state = statevector.apply_gate(state, op)
        np.testing.assert_allclose(single[b], state.amplitudes,
                                   rtol=0, atol=1e-13)


def _key(circuit, n_shared):
    return (circuit.n_qubits, tuple((op.kind, op.targets) for op in circuit.ops),
            tuple(circuit.param_slots), n_shared)


def _shift_gradients(circuit, full, weights):
    """Per-row parameter-shift gradients through the per-row kernel path."""
    n, p = circuit.n_qubits, circuit.n_params
    out = np.empty(full.shape)
    for b, row in enumerate(full):
        shifted = np.vstack([row + np.pi / 2 * np.eye(p),
                             row - np.pi / 2 * np.eye(p)])
        z = pauli_z_expectations_batch(run_circuit_batch(circuit, shifted), n)
        out[b] = (z[:p] - z[p:]) @ weights[b] / 2
    return out


def test_benchmark_layer_shape_matches_parameter_shift():
    # 6 qubits x 4 ESE2 layers at batch 16, as in ddpm_train_q6
    rng = np.random.default_rng(16)
    layer = QuantumLayer(8, 8, AnsatzSpec(AnsatzKind.ESE2, 6, 4), rng)
    angles = Tensor(rng.uniform(-np.pi, np.pi, (16, 6)), requires_grad=True)
    weights = rng.standard_normal((16, 6))
    (layer.circuit_expectations(angles) * Tensor(weights)).sum().backward()
    full = np.hstack([angles.data, np.tile(layer.theta.data, (16, 1))])
    want = _shift_gradients(layer._template, full, weights)
    np.testing.assert_allclose(angles.grad, want[:, :6], rtol=0, atol=1e-10)
    np.testing.assert_allclose(layer.theta.grad, want[:, 6:].sum(axis=0),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [AnsatzKind.S2D, AnsatzKind.BE])
def test_real_templates_with_shared_angles_stay_real(kind):
    rng = np.random.default_rng(21)
    spec = AnsatzSpec(kind, 4, 3)
    circuit = build_trainable_encoder(4).extended(
        build_ansatz(spec, np.zeros(param_count(spec))))
    angles = rng.uniform(-np.pi, np.pi, (3, 4))
    theta = rng.uniform(0, 2 * np.pi, param_count(spec))
    amps = run_circuit_batch(circuit, angles, shared=theta)
    assert amps.dtype == np.complex128 and not amps.imag.any()
    for b in range(3):
        np.testing.assert_allclose(
            amps[b], dense_run(circuit, np.concatenate([angles[b], theta])),
            rtol=0, atol=1e-12)


def test_plans_are_compiled_once_per_structure():
    rng = np.random.default_rng(2)
    statevector._plan.cache_clear()
    layer = QuantumLayer(3, 3, AnsatzSpec(AnsatzKind.ESE2, 4, 2), rng)

    def lookups():
        info = statevector._plan.cache_info()
        return info.hits + info.misses

    for _ in range(2):
        angles = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        before = lookups()
        layer.circuit_expectations(angles).sum().backward()
        # one binding per call: the backward sweeps the forward's plan
        assert lookups() == before + 1
    assert statevector._plan.cache_info().misses == 1
    # circuits that differ only in fixed angle values share one plan
    spec = AnsatzSpec(AnsatzKind.SE, 4, 2)
    ansatz = build_ansatz(spec, np.zeros(param_count(spec)))
    for _ in range(50):
        run_circuit(bind_params(ansatz, rng.uniform(0, 2 * np.pi,
                                                    ansatz.n_params)))
    assert statevector._plan.cache_info().currsize == 2
    # trajectory batches run the cached plan of their structure, whatever
    # codes they draw: one plan for the first call, none for the second
    theta = rng.uniform(0, 2 * np.pi, ansatz.n_params)
    noise = NoiseModel(p1=0.05, p2=0.05, trajectories=10)
    sample_noisy(ansatz, theta, noise, 100, seed=1)
    assert statevector._plan.cache_info().currsize == 3
    sample_noisy(ansatz, theta, noise, 100, seed=2)
    assert statevector._plan.cache_info().currsize == 3

import numpy as np
import pytest

from oracles import build_angle_encoder
from qlatent.ansatz import (
    AnsatzKind,
    AnsatzSpec,
    build_ansatz,
    build_trainable_encoder,
    param_count,
)
from qlatent.statevector import run_circuit


def _count_formula(kind, n, layers):
    if kind == AnsatzKind.S2D:
        return n + 2 * layers * (n - 1)
    if kind == AnsatzKind.BE:
        return layers * n
    return 3 * layers * n


def test_param_count_grid():
    for kind in AnsatzKind:
        for n in (2, 3, 4, 6, 8, 12):
            for layers in (1, 2, 3, 6):
                spec = AnsatzSpec(kind, n, layers)
                want = _count_formula(kind, n, layers)
                assert param_count(spec) == want
                circuit = build_ansatz(spec, np.zeros(want))
                assert len(circuit.param_slots) == want


def test_param_count_fixed_points():
    assert param_count(AnsatzSpec(AnsatzKind.ESE2, 12, 6)) == 216
    assert param_count(AnsatzSpec(AnsatzKind.SE, 12, 6)) == 216
    assert param_count(AnsatzSpec(AnsatzKind.BE, 12, 6)) == 72
    assert param_count(AnsatzSpec(AnsatzKind.S2D, 12, 6)) == 144


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(AnsatzKind.SE, 1, 2)
    with pytest.raises(ValueError):
        AnsatzSpec(AnsatzKind.SE, 4, 0)
    with pytest.raises(ValueError):
        build_ansatz(AnsatzSpec(AnsatzKind.BE, 3, 1), np.zeros(5))


def test_two_qubit_gate_counts():
    # layer l of SE uses range (l mod (n-1)) + 1; the truncated variants
    # drop wrap-around gates, so their counts depend on the range
    for n in (2, 3, 4, 6, 8):
        for layers in (1, 2, 3, 6):
            ranges = [(l % (n - 1)) + 1 for l in range(layers)]
            expect = {
                AnsatzKind.S2D: layers * (n - 1),
                AnsatzKind.BE: layers * n,
                AnsatzKind.SE: layers * n,
                AnsatzKind.ESE1: sum(n - r for r in ranges),
                AnsatzKind.ESE2: layers * (n - 1),
            }
            for kind, want in expect.items():
                spec = AnsatzSpec(kind, n, layers)
                c = build_ansatz(spec, np.zeros(param_count(spec)))
                assert c.two_qubit_gate_count() == want, (kind, n, layers)


def test_ese2_structure_small():
    spec = AnsatzSpec(AnsatzKind.ESE2, 2, 1)
    c = build_ansatz(spec, np.arange(6, dtype=float))
    kinds = [(op.kind, op.targets) for op in c.ops]
    assert kinds == [("U3", (0,)), ("U3", (1,)), ("CNOT", (0, 1))]
    assert c.ops[0].params == (0.0, 1.0, 2.0)
    assert c.ops[1].params == (3.0, 4.0, 5.0)


def test_be_ring_includes_wrap():
    spec = AnsatzSpec(AnsatzKind.BE, 3, 1)
    c = build_ansatz(spec, np.zeros(3))
    cnots = [op.targets for op in c.ops if op.kind == "CNOT"]
    assert cnots == [(0, 1), (1, 2), (2, 0)]


def test_se_range_cycles_with_layer():
    spec = AnsatzSpec(AnsatzKind.SE, 4, 4)
    c = build_ansatz(spec, np.zeros(param_count(spec)))
    cnots = [op.targets for op in c.ops if op.kind == "CNOT"]
    # ranges cycle 1, 2, 3, 1
    assert cnots[0:4] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert cnots[4:8] == [(0, 2), (1, 3), (2, 0), (3, 1)]
    assert cnots[8:12] == [(0, 3), (1, 0), (2, 1), (3, 2)]
    assert cnots[12:16] == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_ese1_drops_wrap_gates_only():
    spec = AnsatzSpec(AnsatzKind.ESE1, 4, 2)
    c = build_ansatz(spec, np.zeros(param_count(spec)))
    cnots = [op.targets for op in c.ops if op.kind == "CNOT"]
    assert cnots == [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]
    assert all(t > q for q, t in cnots)


def test_ese2_range_pinned_to_one():
    spec = AnsatzSpec(AnsatzKind.ESE2, 5, 4)
    c = build_ansatz(spec, np.zeros(param_count(spec)))
    cnots = [op.targets for op in c.ops if op.kind == "CNOT"]
    assert all(t == q + 1 for q, t in cnots)
    assert len(cnots) == 4 * 4


def test_s2d_layout():
    spec = AnsatzSpec(AnsatzKind.S2D, 4, 1)
    c = build_ansatz(spec, np.arange(10, dtype=float))
    kinds = [(op.kind, op.targets) for op in c.ops]
    assert kinds == [
        ("RY", (0,)), ("RY", (1,)), ("RY", (2,)), ("RY", (3,)),
        ("CZ", (0, 1)), ("CZ", (2, 3)),
        ("RY", (0,)), ("RY", (1,)), ("RY", (2,)), ("RY", (3,)),
        ("CZ", (1, 2)),
        ("RY", (1,)), ("RY", (2,)),
    ]


def test_param_order_is_layer_then_qubit_then_angle():
    spec = AnsatzSpec(AnsatzKind.SE, 3, 2)
    marks = np.arange(18, dtype=float)
    c = build_ansatz(spec, marks)
    u3s = [op for op in c.ops if op.kind == "U3"]
    flat = [a for op in u3s for a in op.params]
    assert flat == list(marks)


def test_deterministic_construction():
    spec = AnsatzSpec(AnsatzKind.ESE1, 5, 3)
    p = np.linspace(0, 1, param_count(spec))
    a = build_ansatz(spec, p)
    b = build_ansatz(spec, p)
    assert a.ops == b.ops
    assert a.param_slots == b.param_slots


def test_all_kinds_run_and_entangle():
    rng = np.random.default_rng(0)
    for kind in AnsatzKind:
        spec = AnsatzSpec(kind, 3, 2)
        p = rng.uniform(0, 2 * np.pi, param_count(spec))
        st = run_circuit(build_ansatz(spec, p), p)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


def test_angle_encoder():
    c = build_angle_encoder([0.5, -1.0], 2)
    assert [(op.kind, op.targets) for op in c.ops] == [("RY", (0,)), ("RY", (1,))]
    assert not c.param_slots
    with pytest.raises(ValueError):
        build_angle_encoder([0.1], 2)
    with pytest.raises(ValueError):
        build_angle_encoder([np.nan, 0.0], 2)


def test_trainable_encoder_slots():
    c = build_trainable_encoder(3)
    assert len(c.param_slots) == 3
    assert all(op.kind == "RY" for op in c.ops)


def test_encoder_composes_with_ansatz():
    spec = AnsatzSpec(AnsatzKind.ESE2, 3, 1)
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 2 * np.pi, param_count(spec))
    enc = build_angle_encoder([0.3, 0.7, 1.2], 3)
    full = enc.extended(build_ansatz(spec, p))
    assert len(full.param_slots) == param_count(spec)
    st = run_circuit(full, p)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

import numpy as np
import pytest

from oracles import (
    dense_circuit_unitary,
    layout_permutation_unitary,
    one_qubit_gate_count,
    random_circuit,
)
from qlatent.ansatz import AnsatzKind, AnsatzSpec, build_ansatz, param_count
from qlatent.routing import route_to_linear_chain
from qlatent.statevector import Circuit, run_circuit


def test_adjacent_gates_pass_through():
    c = Circuit(3)
    c.add("RY", (0,), (0.3,))
    c.add("CNOT", (0, 1), ())
    c.add("CZ", (1, 2), ())
    routed = route_to_linear_chain(c)
    assert routed.swap_count == 0
    assert routed.final_layout == (0, 1, 2)
    assert [op.kind for op in routed.circuit.ops] == ["RY", "CNOT", "CZ"]


def test_single_distant_gate_inserts_swaps():
    c = Circuit(4)
    c.add("CNOT", (0, 3), ())
    routed = route_to_linear_chain(c)
    assert routed.swap_count == 2
    kinds = [op.kind for op in routed.circuit.ops]
    assert kinds == ["SWAP", "SWAP", "CNOT"]
    # every emitted gate acts on nearest neighbours
    for op in routed.circuit.ops:
        assert abs(op.targets[0] - op.targets[1]) == 1


def _routed_equivalent(circuit, params=()):
    routed = route_to_linear_chain(circuit)
    u_orig = dense_circuit_unitary(circuit, params)
    routed_params = params if routed.circuit.param_slots else ()
    u_routed = dense_circuit_unitary(routed.circuit, routed_params)
    perm = layout_permutation_unitary(routed.final_layout)
    return routed, np.abs(u_routed - perm @ u_orig).max()


def test_routed_circuit_unitarily_equivalent():
    rng = np.random.default_rng(19)
    for n in (2, 3, 4):
        for _ in range(5):
            c = random_circuit(rng, n, 10, trainable_fraction=0.0)
            routed, err = _routed_equivalent(c)
            assert err < 1e-9
            for op in routed.circuit.ops:
                if len(op.targets) == 2:
                    assert abs(op.targets[0] - op.targets[1]) == 1


def test_routed_ansatz_equivalent_with_params():
    rng = np.random.default_rng(23)
    for kind in (AnsatzKind.SE, AnsatzKind.BE, AnsatzKind.ESE1):
        spec = AnsatzSpec(kind, 4, 3)
        params = rng.uniform(0, 2 * np.pi, param_count(spec))
        c = build_ansatz(spec, params)
        routed = route_to_linear_chain(c)
        assert len(routed.circuit.param_slots) == len(c.param_slots)
        u_orig = dense_circuit_unitary(c, params)
        u_routed = dense_circuit_unitary(routed.circuit, params)
        perm = layout_permutation_unitary(routed.final_layout)
        assert np.abs(u_routed - perm @ u_orig).max() < 1e-9


def test_final_layout_tracks_net_permutation():
    # a single SWAP-requiring gate leaves qubits displaced; the layout
    # must say exactly where each logical qubit ended up
    c = Circuit(3)
    c.add("CZ", (0, 2), ())
    routed = route_to_linear_chain(c)
    assert routed.swap_count == 1
    assert sorted(routed.final_layout) == [0, 1, 2]
    assert routed.final_layout != (0, 1, 2)


def test_one_qubit_gate_count_preserved():
    rng = np.random.default_rng(29)
    c = random_circuit(rng, 4, 30)
    routed = route_to_linear_chain(c)
    assert one_qubit_gate_count(routed.circuit) == one_qubit_gate_count(c)
    added = routed.circuit.two_qubit_gate_count() - c.two_qubit_gate_count()
    assert added == routed.swap_count
    swaps_added = (
        sum(1 for op in routed.circuit.ops if op.kind == "SWAP")
        - sum(1 for op in c.ops if op.kind == "SWAP"))
    assert swaps_added == routed.swap_count


def test_ese2_routes_cheaper_than_se():
    # range-1 chains are already hardware friendly; full range-cycling
    # entanglement pays a SWAP toll on a linear chain
    for n in (6, 8, 12):
        layers = 6
        se = build_ansatz(AnsatzSpec(AnsatzKind.SE, n, layers),
                          np.zeros(3 * layers * n))
        ese2 = build_ansatz(AnsatzSpec(AnsatzKind.ESE2, n, layers),
                            np.zeros(3 * layers * n))
        se_routed = route_to_linear_chain(se)
        ese2_routed = route_to_linear_chain(ese2)
        assert ese2_routed.swap_count == 0
        assert (ese2_routed.circuit.two_qubit_gate_count()
                < se_routed.circuit.two_qubit_gate_count())


def test_routed_state_respects_layout():
    # prepare |1> on logical qubit 0 then force it far away
    c = Circuit(3)
    c.add("RY", (0,), (np.pi,))
    c.add("CZ", (0, 2), ())
    routed = route_to_linear_chain(c)
    st = run_circuit(routed.circuit)
    probs = st.probabilities
    hot = int(np.argmax(probs))
    wire = routed.final_layout[0]
    assert probs[hot] > 0.999
    assert (hot >> wire) & 1 == 1

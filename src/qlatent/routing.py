"""Greedy SWAP-insertion routing onto a linear-chain coupling map.

Logical qubits start at physical positions equal to their index; each
blocked two-qubit gate is unblocked by swapping its first operand one
chain step at a time toward the second.  The final logical->physical
permutation is recorded in the result rather than undone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .statevector import Circuit, TWO_QUBIT_GATES


@dataclass
class RoutedCircuit:
    """Routed circuit plus the layout it ends in.

    ``final_layout[logical] = physical`` chain position after all inserted
    SWAPs.  ``swap_count`` counts only the inserted SWAPs, not SWAPs that
    were already present in the input.
    """

    circuit: Circuit
    final_layout: tuple[int, ...]
    swap_count: int = 0

    def two_qubit_gate_count(self) -> int:
        return self.circuit.two_qubit_gate_count()


def route_to_linear_chain(circuit: Circuit) -> RoutedCircuit:
    """Rewrite the circuit so every two-qubit gate acts on adjacent wires."""
    n = circuit.n_qubits
    layout = list(range(n))            # logical -> physical
    inverse = list(range(n))           # physical -> logical
    out = Circuit(n)
    swaps = 0
    slot_of = {}
    for s, pos in enumerate(circuit.param_slots):
        slot_of.setdefault(pos[0], []).append((s, pos[1]))
    new_slots: list[tuple[int, int]] = [(-1, -1)] * circuit.n_params

    for i, op in enumerate(circuit.ops):
        if op.kind not in TWO_QUBIT_GATES:
            out.add(op.kind, (layout[op.targets[0]],), op.params)
        else:
            pa, pb = layout[op.targets[0]], layout[op.targets[1]]
            while abs(pa - pb) > 1:
                step = pa + (1 if pb > pa else -1)
                out.add("SWAP", (pa, step))
                la, lb = inverse[pa], inverse[step]
                layout[la], layout[lb] = step, pa
                inverse[pa], inverse[step] = lb, la
                pa = step
                swaps += 1
            out.add(op.kind, (pa, pb), op.params)
        for s, angle_idx in slot_of.get(i, ()):
            new_slots[s] = (len(out.ops) - 1, angle_idx)
    out.param_slots = new_slots
    return RoutedCircuit(out, tuple(layout), swaps)

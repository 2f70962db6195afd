"""Builders for the five entangling-layer ansatz templates.

Parameter ordering is fixed as layer-major, then qubit-major, then
angle-major (the three U3 angles of one qubit are consecutive), so
checkpoints are portable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .statevector import MAX_QUBITS, Circuit


class AnsatzKind(str, Enum):
    S2D = "S2D"    # simplified two-design: RY + CZ brickwork
    BE = "BE"      # basic entangler: RY layer + CNOT ring
    SE = "SE"      # strongly entangling: U3 layer + CNOT ring, growing range
    ESE1 = "ESE1"  # SE without periodic boundaries
    ESE2 = "ESE2"  # SE without periodic boundaries, range fixed to 1


@dataclass(frozen=True)
class AnsatzSpec:
    kind: AnsatzKind
    n_qubits: int
    n_layers: int

    def __post_init__(self):
        if not 2 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"ansatz needs 2 to {MAX_QUBITS} qubits, "
                             f"got {self.n_qubits}")
        if self.n_layers < 1:
            raise ValueError(f"ansatz needs >= 1 layer, got {self.n_layers}")


def param_count(spec: AnsatzSpec) -> int:
    """Number of trainable rotation angles for the given template."""
    n, L = spec.n_qubits, spec.n_layers
    if spec.kind == AnsatzKind.S2D:
        return n + 2 * L * (n - 1)
    if spec.kind == AnsatzKind.BE:
        return L * n
    return 3 * L * n  # SE / ESE1 / ESE2 all use one U3 per qubit per layer


def _se_range(layer: int, n_qubits: int) -> int:
    # range starts at 1, grows each layer, resets after reaching n-1
    return layer % (n_qubits - 1) + 1


def build_ansatz(spec: AnsatzSpec, params) -> Circuit:
    """Circuit realizing the template with the given angles bound.

    Every angle is registered as a trainable slot, in the fixed
    layer-major/qubit-major/angle-major order, so the slot count always
    equals ``param_count(spec)``.
    """
    params = np.asarray(params, dtype=np.float64).ravel()
    want = param_count(spec)
    if params.size != want:
        raise ValueError(
            f"{spec.kind.value} with n={spec.n_qubits}, L={spec.n_layers} "
            f"takes {want} params, got {params.size}")
    n, L = spec.n_qubits, spec.n_layers
    c = Circuit(n)
    p = iter(params)

    if spec.kind == AnsatzKind.S2D:
        for q in range(n):
            c.add("RY", (q,), (next(p),), trainable=True)
        for _ in range(L):
            for start in (0, 1):  # even-start pairs, then odd-start pairs
                pairs = [(q, q + 1) for q in range(start, n - 1, 2)]
                for a, b in pairs:
                    c.add("CZ", (a, b))
                for a, b in pairs:
                    c.add("RY", (a,), (next(p),), trainable=True)
                    c.add("RY", (b,), (next(p),), trainable=True)
        return c

    if spec.kind == AnsatzKind.BE:
        for _ in range(L):
            for q in range(n):
                c.add("RY", (q,), (next(p),), trainable=True)
            for q in range(n):  # ring: includes the wrap-around gate
                c.add("CNOT", (q, (q + 1) % n))
        return c

    # SE family: U3 rotations, then CNOTs at the layer's range
    for layer in range(L):
        for q in range(n):
            c.add("U3", (q,), (next(p), next(p), next(p)), trainable=True)
        r = 1 if spec.kind == AnsatzKind.ESE2 else _se_range(layer, n)
        for q in range(n):
            tgt = q + r
            if spec.kind == AnsatzKind.SE:
                c.add("CNOT", (q, tgt % n))
            elif tgt < n:  # ESE1/ESE2 drop gates that would wrap the chain
                c.add("CNOT", (q, tgt))
    return c


def build_trainable_encoder(n_qubits: int) -> Circuit:
    """RY encoder with trainable angles; used by the hybrid quantum layer

    so that its circuit gradients cover the encoding angles too.
    """
    c = Circuit(n_qubits)
    for q in range(n_qubits):
        c.add("RY", (q,), (0.0,), trainable=True)
    return c

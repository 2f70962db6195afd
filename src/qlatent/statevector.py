"""Exact statevector simulation of parameterized quantum circuits.

Convention used throughout the package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``i`` assigns bit
``(i >> q) & 1`` to qubit ``q``.  Bitstrings are written with qubit 0 as
the first character ("10" means qubit0=1, qubit1=0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 20

GATE_PARAM_COUNTS = {"RY": 1, "RZ": 1, "U3": 3, "CNOT": 0, "CZ": 0, "SWAP": 0}
TWO_QUBIT_GATES = ("CNOT", "CZ", "SWAP")


class SimulationError(ValueError):
    """Raised for malformed gates, states, or circuit bindings."""


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubits, and concrete angles."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_PARAM_COUNTS:
            raise SimulationError(f"unknown gate kind {self.kind!r}")
        want = GATE_PARAM_COUNTS[self.kind]
        if len(self.params) != want:
            raise SimulationError(
                f"{self.kind} takes {want} params, got {len(self.params)}")
        n_targets = 2 if self.kind in TWO_QUBIT_GATES else 1
        if len(self.targets) != n_targets:
            raise SimulationError(
                f"{self.kind} acts on {n_targets} qubits, got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise SimulationError(f"duplicate targets {self.targets}")


@dataclass
class Circuit:
    """Ordered gate list plus the map from trainable slots to angle positions.

    ``param_slots[s] = (op_index, angle_index)`` means trainable parameter
    ``s`` is bound to that angle when the circuit runs.  Ops may also carry
    fixed angles that never appear in ``param_slots``.
    """

    n_qubits: int
    ops: list[GateOp] = field(default_factory=list)
    param_slots: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise SimulationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")

    @property
    def n_params(self) -> int:
        return len(self.param_slots)

    def add(self, kind: str, targets: tuple[int, ...],
            params: tuple[float, ...] = (), trainable: bool = False):
        """Append a gate; with trainable=True every angle becomes a slot."""
        op = GateOp(kind, targets, params)
        for q in targets:
            if not 0 <= q < self.n_qubits:
                raise SimulationError(
                    f"target {q} out of range for {self.n_qubits} qubits")
        idx = len(self.ops)
        self.ops.append(op)
        if trainable:
            for a in range(len(params)):
                self.param_slots.append((idx, a))

    def two_qubit_gate_count(self) -> int:
        return sum(1 for op in self.ops if op.kind in TWO_QUBIT_GATES)

    def one_qubit_gate_count(self) -> int:
        return sum(1 for op in self.ops if op.kind not in TWO_QUBIT_GATES)

    def extended(self, other: "Circuit") -> "Circuit":
        """This circuit followed by ``other``; slots of ``other`` come last."""
        if other.n_qubits != self.n_qubits:
            raise SimulationError("qubit count mismatch in circuit composition")
        shift = len(self.ops)
        out = Circuit(self.n_qubits, list(self.ops) + list(other.ops),
                      list(self.param_slots)
                      + [(i + shift, a) for i, a in other.param_slots])
        return out


class StateVector:
    """Normalized complex amplitudes over ``2**n_qubits`` basis states."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise SimulationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (2 ** n_qubits,):
            raise SimulationError(
                f"expected {2 ** n_qubits} amplitudes, got {amplitudes.shape}")
        norm = np.sum(np.abs(amplitudes) ** 2)
        if abs(norm - 1.0) > 1e-10:
            raise SimulationError(f"state not normalized: |psi|^2 = {norm}")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def init_zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise SimulationError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _ry(theta: np.ndarray) -> np.ndarray:
    """RY matrices, shape (k, 2, 2) for a length-k angle array."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.zeros((theta.size, 2, 2), dtype=np.complex128)
    m[:, 0, 0] = c
    m[:, 0, 1] = -s
    m[:, 1, 0] = s
    m[:, 1, 1] = c
    return m


def _rz(theta: np.ndarray) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    m = np.zeros((theta.size, 2, 2), dtype=np.complex128)
    m[:, 0, 0] = np.exp(-0.5j * theta)
    m[:, 1, 1] = np.exp(0.5j * theta)
    return m


def _u3(theta, phi, lam) -> np.ndarray:
    """U3 matrices; a length-1 angle array broadcasts against length k."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.zeros((max(theta.size, phi.size, lam.size), 2, 2),
                 dtype=np.complex128)
    m[:, 0, 0] = c
    m[:, 0, 1] = -np.exp(1j * lam) * s
    m[:, 1, 0] = np.exp(1j * phi) * s
    m[:, 1, 1] = np.exp(1j * (phi + lam)) * c
    return m


# Basis order for the 4x4 matrices is (targets[0], targets[1]) with
# targets[0] as the most significant bit of the pair index.
_CNOT = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=np.complex128)
_CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
_SWAP = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=np.complex128)
_TWO_QUBIT_MATRICES = {"CNOT": _CNOT, "CZ": _CZ, "SWAP": _SWAP}

# Pauli codes: 0 = I, 1 = X, 2 = Y, 3 = Z; _PAULI_STACK[codes] gives the
# per-row (k, 2, 2) matrices for a code array.
_PAULI_STACK = np.array([[[1, 0], [0, 1]],
                         [[0, 1], [1, 0]],
                         [[0, -1j], [1j, 0]],
                         [[1, 0], [0, -1]]], dtype=np.complex128)
_PAULIS = dict(zip("XYZ", _PAULI_STACK[1:]))


def _apply_1q(batch: np.ndarray, n_qubits: int, qubit: int,
              mats: np.ndarray) -> np.ndarray:
    """Apply per-batch 2x2 matrices to one qubit of a (k, 2**n) batch.

    ``mats`` has shape (k, 2, 2) or (1, 2, 2) (broadcast over the batch).
    """
    k = batch.shape[0]
    inner = 1 << qubit
    outer = batch.shape[1] // (2 * inner)
    x = batch.reshape(k, outer, 2, inner)
    x0, x1 = x[:, :, 0, :], x[:, :, 1, :]
    m = mats[:, :, :, None, None]  # (k|1, 2, 2, 1, 1)
    out = np.empty_like(x)
    out[:, :, 0, :] = m[:, 0, 0] * x0 + m[:, 0, 1] * x1
    out[:, :, 1, :] = m[:, 1, 0] * x0 + m[:, 1, 1] * x1
    return out.reshape(k, -1)


def _apply_2q(batch: np.ndarray, n_qubits: int, targets: tuple[int, int],
              mat: np.ndarray) -> np.ndarray:
    """Apply a fixed 4x4 matrix to two qubits of a (k, 2**n) batch."""
    k = batch.shape[0]
    hi, lo = max(targets), min(targets)
    d_lo = 1 << lo
    d_mid = 1 << (hi - lo - 1)
    d_hi = batch.shape[1] // (4 * d_lo * d_mid)
    x = batch.reshape(k, d_hi, 2, d_mid, 2, d_lo)  # axes 2, 4 = bits hi, lo
    # pair index convention: (bit of targets[0]) << 1 | (bit of targets[1])
    if targets[0] == hi:
        sub = [x[:, :, (p >> 1) & 1, :, p & 1, :] for p in range(4)]
    else:
        sub = [x[:, :, p & 1, :, (p >> 1) & 1, :] for p in range(4)]
    out = np.empty_like(x)
    for a in range(4):
        acc = mat[a, 0] * sub[0]
        for b in range(1, 4):
            if mat[a, b] != 0:
                acc = acc + mat[a, b] * sub[b]
        if targets[0] == hi:
            out[:, :, (a >> 1) & 1, :, a & 1, :] = acc
        else:
            out[:, :, a & 1, :, (a >> 1) & 1, :] = acc
    return out.reshape(k, -1)


def _bind_angles(circuit: Circuit, params: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Map (op_idx, angle_idx) -> per-batch angle column for trainable slots."""
    bound = {}
    for s, (op_idx, angle_idx) in enumerate(circuit.param_slots):
        bound[(op_idx, angle_idx)] = params[:, s]
    return bound


def _op_angles(op: GateOp, op_idx: int, bound) -> list[np.ndarray]:
    """Angle columns of one op: bound trainable columns, else fixed (1,)."""
    return [bound.get((op_idx, a), np.full(1, fixed))
            for a, fixed in enumerate(op.params)]


def _gate_matrices(kind: str, angles) -> np.ndarray:
    """(k|1, 2, 2) matrices of a one-qubit gate for per-batch angle columns."""
    if kind == "RY":
        return _ry(angles[0])
    if kind == "RZ":
        return _rz(angles[0])
    return _u3(*angles)


def _check_params(circuit: Circuit, params) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2 or params.shape[1] != circuit.n_params:
        raise SimulationError(
            f"params shape {params.shape} does not match "
            f"{circuit.n_params} trainable slots")
    if not 1 <= circuit.n_qubits <= MAX_QUBITS:
        raise SimulationError(
            f"circuit qubit count {circuit.n_qubits} out of range")
    return params


def run_circuit_batch(circuit: Circuit, params: np.ndarray,
                      paulis: dict | None = None) -> np.ndarray:
    """Run the circuit on |0...0> for each row of ``params``.

    ``params`` has shape (k, n_params); returns amplitudes of shape
    (k, 2**n_qubits).  All rows share the gate sequence; only trainable
    angles differ, which keeps the whole batch inside vectorized numpy ops.

    ``paulis`` optionally maps an op index to ``(qubit, codes)`` pairs:
    right after that op, row b gets the Pauli ``codes[b]`` (0 = I,
    1..3 = X/Y/Z) on ``qubit``.  This is how noise trajectories insert
    their Pauli errors.
    """
    params = _check_params(circuit, params)
    n = circuit.n_qubits
    batch = np.zeros((params.shape[0], 2 ** n), dtype=np.complex128)
    batch[:, 0] = 1.0
    bound = _bind_angles(circuit, params)
    for i, op in enumerate(circuit.ops):
        if op.kind in TWO_QUBIT_GATES:
            batch = _apply_2q(batch, n, op.targets, _TWO_QUBIT_MATRICES[op.kind])
        else:
            mats = _gate_matrices(op.kind, _op_angles(op, i, bound))
            batch = _apply_1q(batch, n, op.targets[0], mats)
        if paulis is not None:
            for q, codes in paulis.get(i, ()):
                batch = _apply_1q(batch, n, q, _PAULI_STACK[codes])
    return batch


def _z_signs(n_qubits: int) -> np.ndarray:
    """(2**n, n) eigenvalues of each Z_q on the basis states: +1 or -1."""
    idx = np.arange(2 ** n_qubits)[:, None]
    return 1.0 - 2.0 * ((idx >> np.arange(n_qubits)) & 1)


def _pair_overlaps(bra: np.ndarray, ket: np.ndarray,
                   qubit: int) -> np.ndarray:
    """M[b, x, y] = sum over the other qubits of conj(bra[b, x]) ket[b, y].

    With it, <bra|D|ket> for any 2x2 D on ``qubit`` is sum(D * M).
    """
    k = bra.shape[0]
    inner = 1 << qubit
    outer = bra.shape[1] // (2 * inner)
    return np.einsum("koxi,koyi->kxy", bra.conj().reshape(k, outer, 2, inner),
                     ket.reshape(k, outer, 2, inner))


def adjoint_z_gradients(circuit: Circuit, params: np.ndarray,
                        amps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gradient of sum_q weights[b, q] <Z_q> for every row and every slot.

    ``amps`` must be ``run_circuit_batch(circuit, params)``; ``weights``
    has shape (k, n_qubits).  Returns (k, n_params).  This is the adjoint
    method (Jones & Gacon 2020, arXiv:2009.02823).  Each row's observable
    H_b = sum_q weights[b, q] Z_q is diagonal.  Starting from phi = psi
    and lambda = H_b psi, one reverse sweep over the gates sets
    phi <- U^dag phi, reads 2 Re <lambda|dU|phi> for each slot on U, and
    sets lambda <- U^dag lambda.  Fixed angles produce no gradient.
    """
    params = _check_params(circuit, params)
    n = circuit.n_qubits
    k = params.shape[0]
    weights = np.asarray(weights, dtype=np.float64)
    if amps.shape != (k, 2 ** n) or weights.shape != (k, n):
        raise SimulationError(
            f"amps {amps.shape} / weights {weights.shape} do not match "
            f"{k} rows on {n} qubits")
    bound = _bind_angles(circuit, params)
    slots_of = {}
    for s, (op_idx, angle_idx) in enumerate(circuit.param_slots):
        slots_of.setdefault(op_idx, []).append((angle_idx, s))
    grads = np.zeros((k, circuit.n_params))
    # rows [:k] hold lambda and rows [k:] hold phi, so one apply moves both
    state = np.concatenate([(weights @ _z_signs(n).T) * amps, amps])
    for i in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[i]
        if op.kind in TWO_QUBIT_GATES:  # CNOT, CZ and SWAP are self-inverse
            state = _apply_2q(state, n, op.targets, _TWO_QUBIT_MATRICES[op.kind])
            continue
        q = op.targets[0]
        angles = _op_angles(op, i, bound)
        mats = _gate_matrices(op.kind, angles)
        adj = mats.conj().transpose(0, 2, 1)
        state = _apply_1q(state, n, q,
                          np.concatenate([adj, adj]) if len(adj) > 1 else adj)
        if i not in slots_of:
            continue
        # After the step <lambda|dU|phi> = <lambda'|U^dag dU|phi'>.
        overlaps = _pair_overlaps(state[:k], state[k:], q)
        for a, s in slots_of[i]:
            if a == 0:  # RY, RZ, U3 theta: the gate at angle + pi, halved
                d = _gate_matrices(
                    op.kind, [angles[0] + np.pi] + angles[1:]) / 2.0
            else:  # U3 phi: row 1 times i; U3 lambda: column 1 times i
                d = np.zeros_like(mats)
                if a == 1:
                    d[:, 1, :] = 1j * mats[:, 1, :]
                else:
                    d[:, :, 1] = 1j * mats[:, :, 1]
            grads[:, s] = 2.0 * np.real(
                np.sum((adj @ d) * overlaps, axis=(1, 2)))
    return grads


def run_circuit(circuit: Circuit, params=()) -> StateVector:
    """Apply all ops in order to |0...0> with trainable slots bound."""
    params = np.asarray(params, dtype=np.float64).reshape(1, -1)
    if params.shape[1] != circuit.n_params:
        raise SimulationError(
            f"expected {circuit.n_params} params, got {params.shape[1]}")
    amps = run_circuit_batch(circuit, params)[0]
    return StateVector(circuit.n_qubits, amps)


def bind_params(circuit: Circuit, params) -> Circuit:
    """Copy of the circuit with trainable slots baked into literal angles."""
    params = np.asarray(params, dtype=np.float64).ravel()
    if params.size != circuit.n_params:
        raise SimulationError(
            f"expected {circuit.n_params} params, got {params.size}")
    angles = {pos: params[s] for s, pos in enumerate(circuit.param_slots)}
    ops = []
    for i, op in enumerate(circuit.ops):
        if any((i, a) in angles for a in range(len(op.params))):
            new = tuple(angles.get((i, a), v) for a, v in enumerate(op.params))
            ops.append(GateOp(op.kind, op.targets, new))
        else:
            ops.append(op)
    return Circuit(circuit.n_qubits, ops, [])


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply a single gate; returns a new state."""
    for q in op.targets:
        if not 0 <= q < state.n_qubits:
            raise SimulationError(
                f"target {q} out of range for {state.n_qubits} qubits")
    batch = state.amplitudes.reshape(1, -1)
    if op.kind in TWO_QUBIT_GATES:
        out = _apply_2q(batch, state.n_qubits, op.targets,
                        _TWO_QUBIT_MATRICES[op.kind])
    else:
        out = _apply_1q(batch, state.n_qubits, op.targets[0],
                        _gate_matrices(op.kind, op.params))
    return StateVector(state.n_qubits, out[0])


def apply_pauli(state: StateVector, pauli: str, qubit: int) -> StateVector:
    """Apply a single Pauli X/Y/Z; returns a new state."""
    if pauli not in _PAULIS:
        raise SimulationError(f"unknown Pauli {pauli!r}")
    if not 0 <= qubit < state.n_qubits:
        raise SimulationError(f"qubit {qubit} out of range")
    out = _apply_1q(state.amplitudes.reshape(1, -1), state.n_qubits, qubit,
                    _PAULIS[pauli][None])
    return StateVector(state.n_qubits, out[0])


def pauli_z_expectations(state: StateVector) -> np.ndarray:
    """<Z_q> for every qubit q; each entry in [-1, 1]."""
    return pauli_z_expectations_batch(
        state.amplitudes.reshape(1, -1), state.n_qubits)[0]


def pauli_z_expectations_batch(batch: np.ndarray, n_qubits: int) -> np.ndarray:
    """<Z_q> per qubit for a (k, 2**n) amplitude batch; returns (k, n)."""
    probs = np.abs(batch) ** 2
    k = batch.shape[0]
    out = np.empty((k, n_qubits), dtype=np.float64)
    for q in range(n_qubits):
        inner = 1 << q
        outer = probs.shape[1] // (2 * inner)
        p = probs.reshape(k, outer, 2, inner)
        out[:, q] = (p[:, :, 0, :] - p[:, :, 1, :]).sum(axis=(1, 2))
    return out


def index_to_bitstring(index: int, n_qubits: int) -> str:
    """Basis index -> bitstring with qubit 0 first."""
    return "".join(str((index >> q) & 1) for q in range(n_qubits))


def bitstring_to_index(bits: str) -> int:
    return sum((1 << q) for q, b in enumerate(bits) if b == "1")


def sample_bitstrings(state: StateVector, shots: int, seed: int) -> list[str]:
    """i.i.d. samples from |a_i|^2, deterministic for a given seed."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    probs = state.probabilities
    probs = probs / probs.sum()
    idx = rng.choice(probs.size, size=shots, p=probs)
    bits = (idx[:, None] >> np.arange(state.n_qubits)) & 1
    return ["".join(row) for row in bits.astype("U1")]


def reduced_density_matrix(state: StateVector, keep) -> np.ndarray:
    """Partial trace over the complement of ``keep``.

    ``keep`` is a set of qubit indices; must be a nonempty proper subset.
    Row/column index bit j of the result corresponds to sorted(keep)[j]
    (least-significant first, same convention as the full register).
    """
    keep = sorted(set(keep))
    n = state.n_qubits
    if not keep or len(keep) >= n:
        raise SimulationError("keep must be a nonempty proper subset of qubits")
    if any(not 0 <= q < n for q in keep):
        raise SimulationError(f"keep {keep} out of range for {n} qubits")
    # reshape to n axes; axis j corresponds to qubit n-1-j (LSB convention)
    psi = state.amplitudes.reshape([2] * n)
    keep_axes = [n - 1 - q for q in keep]
    other_axes = [ax for ax in range(n) if ax not in keep_axes]
    # order kept axes most-significant-first so the flat index is little-endian
    perm = sorted(keep_axes) + other_axes
    psi = np.transpose(psi, perm)
    m = psi.reshape(2 ** len(keep), -1)
    rho = m @ m.conj().T
    return rho

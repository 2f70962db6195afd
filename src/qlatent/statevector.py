"""Exact statevector simulation of parameterized quantum circuits.

Convention used throughout the package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``i`` assigns bit
``(i >> q) & 1`` to qubit ``q``.  Bitstrings are written with qubit 0 as
the first character ("10" means qubit0=1, qubit1=0).

One kernel serves exact, Pauli-trajectory, adjoint and single-state runs
on a rows-last (2**n, k) state, so each elementwise op runs contiguously
over at least the k rows.  It updates the state in place: a one-qubit
gate through one scratch array, CNOT and SWAP as quarter swaps, CZ as a
sign flip.  A circuit of only RY, CNOT, CZ and SWAP, run without Pauli
codes, stays in float64.  Callers see (k, 2**n) complex128 amplitudes.
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


def _ry(theta) -> np.ndarray:
    """RY matrices, real, shape (2, 2, k) for a length-k angle array."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def _rz(theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    zero = np.zeros(theta.size)
    return np.array([[np.exp(-0.5j * theta), zero],
                     [zero, np.exp(0.5j * theta)]])


def _u3(theta, phi, lam) -> np.ndarray:
    """U3 matrices; a length-1 angle array broadcasts against length k."""
    theta, phi, lam = (np.atleast_1d(np.asarray(a, dtype=np.float64))
                       for a in (theta, phi, lam))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.empty((2, 2, max(theta.size, phi.size, lam.size)),
                 dtype=np.complex128)
    m[0, 0] = c
    m[0, 1] = -np.exp(1j * lam) * s
    m[1, 0] = np.exp(1j * phi) * s
    m[1, 1] = np.exp(1j * (phi + lam)) * c
    return m


# Kinds with real matrices: a circuit of only these, run without Pauli
# codes, keeps its state in float64.
_REAL_KINDS = frozenset(("RY", "CNOT", "CZ", "SWAP"))

# Pauli codes: 0 = I, 1 = X, 2 = Y, 3 = Z; _PAULI_STACK[:, :, codes] gives
# the per-row (2, 2, k) matrices for a code array.
_PAULI_STACK = np.stack([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                         np.diag([1, -1])], axis=2).astype(np.complex128)
_PAULIS = {p: _PAULI_STACK[:, :, [c]] for c, p in enumerate("XYZ", 1)}


def _apply_1q(psi: np.ndarray, tmp: np.ndarray, qubit: int,
              mats: np.ndarray) -> None:
    """Apply (2, 2, k|1) per-row matrices to one qubit of ``psi``, in place.

    ``psi`` is a rows-last (2**n, k) state and ``tmp`` scratch like it.
    Half a becomes mats[a, 0] * x0 + mats[a, 1] * x1, products in that
    operand order, so results match the dense formula bit for bit.
    """
    shape = (psi.shape[0] >> (qubit + 1), 2, 1 << qubit, psi.shape[1])
    x, t = psi.reshape(shape), tmp.reshape(shape)
    x0, x1, t0, t1 = x[:, 0], x[:, 1], t[:, 0], t[:, 1]
    np.multiply(mats[0, 1], x1, out=t0)
    np.multiply(mats[1, 0], x0, out=t1)
    np.multiply(mats[0, 0], x0, out=x0)
    np.multiply(mats[1, 1], x1, out=x1)
    x0 += t0
    x1 += t1


def _apply_2q(psi: np.ndarray, tmp: np.ndarray, kind: str,
              targets: tuple[int, int]) -> None:
    """CNOT, CZ or SWAP on a rows-last state, in place, as a permutation.

    CNOT (control targets[0]) swaps the quarters where the control is 1,
    SWAP swaps the |01> and |10> quarters, and CZ negates |11>.
    """
    hi, lo = max(targets), min(targets)
    x = psi.reshape(psi.shape[0] >> (hi + 1), 2, 1 << (hi - lo - 1), 2,
                    1 << lo, psi.shape[1])

    def quarter(arr, bit0, bit1):  # bit0 on targets[0], bit1 on targets[1]
        bits = {targets[0]: bit0, targets[1]: bit1}
        return arr[:, bits[hi], :, bits[lo]]

    if kind == "CZ":
        q11 = quarter(x, 1, 1)
        np.negative(q11, out=q11)
        return
    pair = ((1, 0), (1, 1)) if kind == "CNOT" else ((0, 1), (1, 0))
    u, v = quarter(x, *pair[0]), quarter(x, *pair[1])
    t = quarter(tmp.reshape(x.shape), *pair[0])
    np.copyto(t, u)
    np.copyto(u, v)
    np.copyto(v, t)


def _apply_op(psi: np.ndarray, tmp: np.ndarray, op: GateOp, angles) -> None:
    """One gate on a rows-last state, at per-row or fixed ``angles``."""
    if op.kind in TWO_QUBIT_GATES:
        _apply_2q(psi, tmp, op.kind, op.targets)
    else:
        _apply_1q(psi, tmp, op.targets[0], _gate_matrices(op.kind, angles))


def _bind_angles(circuit: Circuit, params: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Map (op_idx, angle_idx) -> per-batch angle column for trainable slots."""
    return {pos: params[:, s] for s, pos in enumerate(circuit.param_slots)}


def _op_angles(op: GateOp, op_idx: int, bound) -> list[np.ndarray]:
    """Angle columns of one op: bound trainable columns, else fixed (1,)."""
    return [bound.get((op_idx, a), np.full(1, fixed))
            for a, fixed in enumerate(op.params)]


def _gate_matrices(kind: str, angles) -> np.ndarray:
    """(2, 2, k|1) matrices of a one-qubit gate for per-row angle columns."""
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
    return params


def run_circuit_batch(circuit: Circuit, params: np.ndarray,
                      paulis: dict | None = None) -> np.ndarray:
    """Run the circuit on |0...0> for each row of ``params``.

    ``params`` has shape (k, n_params); returns (k, 2**n_qubits) complex
    amplitudes.  All rows share the gate sequence and only trainable
    angles differ, so the batch runs as one rows-last state.

    ``paulis`` optionally maps an op index to ``(qubit, codes)`` pairs:
    right after that op, row b gets the Pauli ``codes[b]`` (0 = I,
    1..3 = X/Y/Z) on ``qubit``.  This is how noise trajectories insert
    their Pauli errors.
    """
    params = _check_params(circuit, params)
    paulis = paulis or {}
    real = not paulis and all(op.kind in _REAL_KINDS for op in circuit.ops)
    psi = np.zeros((2 ** circuit.n_qubits, params.shape[0]),
                   dtype=np.float64 if real else np.complex128)
    psi[0] = 1.0
    tmp = np.empty_like(psi)
    bound = _bind_angles(circuit, params)
    for i, op in enumerate(circuit.ops):
        _apply_op(psi, tmp, op, _op_angles(op, i, bound))
        for q, codes in paulis.get(i, ()):
            _apply_1q(psi, tmp, q, _PAULI_STACK[:, :, codes])
    return np.ascontiguousarray(psi.T, dtype=np.complex128)


def _z_signs(n_qubits: int) -> np.ndarray:
    """(2**n, n) eigenvalues of each Z_q on the basis states: +1 or -1."""
    idx = np.arange(2 ** n_qubits)[:, None]
    return 1.0 - 2.0 * ((idx >> np.arange(n_qubits)) & 1)


def _pair_overlaps(bra: np.ndarray, ket: np.ndarray,
                   qubit: int) -> np.ndarray:
    """M[b, x, y] = sum over the other qubits of conj(bra[x, b]) ket[y, b].

    For rows-last (2**n, k) ``bra`` and ``ket``; with M, <bra|D|ket> for
    any 2x2 D on ``qubit`` is sum(D * M) for each row.
    """
    shape = (bra.shape[0] >> (qubit + 1), 2, 1 << qubit, bra.shape[1])
    return np.einsum("oxik,oyik->kxy", bra.conj().reshape(shape),
                     ket.reshape(shape))


def _adjoint_derivatives(kind: str, angles, m: np.ndarray) -> list:
    """2 Re sum(D * m) per angle, m = ``_pair_overlaps(lambda', phi')``.

    D = U^dag dU in closed form: -iY/2 (RY), -iZ/2 (RZ); for U3 theta,
    phi, lam: Rz(-lam)(-iY/2)Rz(lam), i U^dag P1 U and i P1, P1 = |1><1|.
    """
    m00, m01, m10, m11 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    if kind == "RY":
        return [np.real(m10 - m01)]
    if kind == "RZ":
        return [np.imag(m00 - m11)]
    theta, _, lam = angles
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * lam)
    return [np.real(e.conj() * m10 - e * m01),
            -2.0 * np.imag(s * s * m00 + c * c * m11
                           + s * c * (e * m01 + e.conj() * m10)),
            -2.0 * np.imag(m11)]


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
    if all(op.kind in _REAL_KINDS for op in circuit.ops):
        amps = amps.real
    bound = _bind_angles(circuit, params)
    slots_of = {}
    for s, (op_idx, angle_idx) in enumerate(circuit.param_slots):
        slots_of.setdefault(op_idx, []).append((angle_idx, s))
    grads = np.zeros((k, circuit.n_params))
    # columns [:k] hold lambda and columns [k:] hold phi, so one apply
    # moves both
    state = np.concatenate([(weights @ _z_signs(n).T) * amps, amps]).T.copy()
    tmp = np.empty_like(state)
    for i in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[i]
        if op.kind in TWO_QUBIT_GATES:  # CNOT, CZ and SWAP are self-inverse
            _apply_2q(state, tmp, op.kind, op.targets)
            continue
        q = op.targets[0]
        angles = _op_angles(op, i, bound)
        mats = _gate_matrices(op.kind, angles)
        adj = mats.conj().transpose(1, 0, 2)
        _apply_1q(state, tmp, q, np.concatenate([adj, adj], axis=2)
                  if adj.shape[2] > 1 else adj)
        if i not in slots_of:
            continue
        # After the step <lambda|dU|phi> = <lambda'|U^dag dU|phi'>.
        derivs = _adjoint_derivatives(
            op.kind, angles, _pair_overlaps(state[:, :k], state[:, k:], q))
        for a, s in slots_of[i]:
            grads[:, s] = derivs[a]
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
    psi = state.amplitudes.reshape(-1, 1).copy()
    _apply_op(psi, np.empty_like(psi), op, op.params)
    return StateVector(state.n_qubits, psi[:, 0])


def apply_pauli(state: StateVector, pauli: str, qubit: int) -> StateVector:
    """Apply a single Pauli X/Y/Z; returns a new state."""
    if pauli not in _PAULIS:
        raise SimulationError(f"unknown Pauli {pauli!r}")
    if not 0 <= qubit < state.n_qubits:
        raise SimulationError(f"qubit {qubit} out of range")
    psi = state.amplitudes.reshape(-1, 1).copy()
    _apply_1q(psi, np.empty_like(psi), qubit, _PAULIS[pauli])
    return StateVector(state.n_qubits, psi[:, 0])


def pauli_z_expectations(state: StateVector) -> np.ndarray:
    """<Z_q> for every qubit q; each entry in [-1, 1]."""
    return pauli_z_expectations_batch(
        state.amplitudes.reshape(1, -1), state.n_qubits)[0]


def pauli_z_expectations_batch(batch: np.ndarray, n_qubits: int) -> np.ndarray:
    """<Z_q> per qubit for a (k, 2**n) amplitude batch; returns (k, n)."""
    probs = np.abs(batch) ** 2
    out = np.empty((batch.shape[0], n_qubits))
    for q in range(n_qubits):
        p = probs.reshape(batch.shape[0], -1, 2, 1 << q)
        out[:, q] = (p[:, :, 0] - p[:, :, 1]).sum(axis=(1, 2))
    return out


def index_to_bitstring(index: int, n_qubits: int) -> str:
    """Basis index -> bitstring with qubit 0 first."""
    return format(index, f"0{n_qubits}b")[::-1]


def bitstring_to_index(bits: str) -> int:
    return sum((1 << q) for q, b in enumerate(bits) if b == "1")


def sample_indices(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """i.i.d. basis indices drawn from |a_i|^2, deterministic for a seed."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    probs = state.probabilities
    return np.random.default_rng(seed).choice(
        probs.size, size=shots, p=probs / probs.sum())


def sample_bitstrings(state: StateVector, shots: int, seed: int) -> list[str]:
    """``sample_indices`` as bitstrings."""
    idx = sample_indices(state, shots, seed)
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

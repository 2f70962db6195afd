"""Exact statevector simulation of parameterized quantum circuits.

Convention used throughout the package: qubit 0 is the least-significant
bit of the basis-state index, so basis state ``i`` assigns bit
``(i >> q) & 1`` to qubit ``q``.  Bitstrings are written with qubit 0 as
the first character ("10" means qubit0=1, qubit1=0).

A circuit compiles once into a plan (gate fusion as in qsim, Isakov et al.
2021), cached by structure, that serves exact, Pauli-trajectory and
adjoint runs of k rows (an adjoint run keeps the state before each per-row
stage and each group of blocks on distinct qubits, and its reverse sweep
carries lambda alone back over them).  Its stages: a closed-form product
state from each qubit's first gate; runs of one-qubit gates with the same
angles in every row (fixed or ``shared``) as Kronecker blocks on up to
four adjacent qubits, one matmul each on the rows-last (2**n, k) state,
with at most one gate per qubit in a block (a second gate on a qubit
starts a new run); runs of gates with per-row angles on distinct qubits as
per-row Kronecker blocks on the same windows, one batched matmul each on
the rows-first (k, 2**n) state; each CNOT/CZ/SWAP run as one index gather
and sign mask in either layout, so a run changes layout only between a
block and a per-row stage.  Pauli codes run the same plan: after a
one-qubit op they follow its stage, and after a CNOT/CZ/SWAP its run,
moved through the run's later gates by the tableau rules (Aaronson &
Gottesman 2004), on the rows they hit.  A circuit of only RY, CNOT, CZ and
SWAP, run without Pauli codes, stays in float64.  Callers see (k, 2**n)
complex128 amplitudes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

MAX_QUBITS = 20

# kind -> (angle count, target count)
GATE_ARITY = {"RY": (1, 1), "RZ": (1, 1), "U3": (3, 1),
              "CNOT": (0, 2), "CZ": (0, 2), "SWAP": (0, 2)}
TWO_QUBIT_GATES = ("CNOT", "CZ", "SWAP")


class SimulationError(ValueError):
    """Raised for malformed gates, states, or circuit bindings."""


@dataclass(frozen=True, slots=True)
class GateOp:
    """One gate application: kind, target qubits, and concrete angles."""

    kind: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        # lists would pass every check and then fail as plan-cache keys
        if type(self.targets) is not tuple:
            object.__setattr__(self, "targets", tuple(self.targets))
        if type(self.params) is not tuple:
            object.__setattr__(self, "params", tuple(self.params))
        if self.kind not in GATE_ARITY:
            raise SimulationError(f"unknown gate kind {self.kind!r}")
        want, n_targets = GATE_ARITY[self.kind]
        if len(self.params) != want:
            raise SimulationError(
                f"{self.kind} takes {want} params, got {len(self.params)}")
        if len(self.targets) != n_targets:
            raise SimulationError(
                f"{self.kind} acts on {n_targets} qubits, got {self.targets}")
        if n_targets == 2 and self.targets[0] == self.targets[1]:
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
        for op in self.ops:
            self._check_targets(op.targets)
        free = {(i, a) for i, op in enumerate(self.ops)
                for a in range(len(op.params))}
        for slot in map(tuple, self.param_slots):
            if slot not in free:
                raise SimulationError(f"slot {slot} names no unbound op angle")
            free.remove(slot)

    def _check_targets(self, targets):
        for q in targets:
            if not 0 <= q < self.n_qubits:
                raise SimulationError(
                    f"target {q} out of range for {self.n_qubits} qubits")

    @property
    def n_params(self) -> int:
        return len(self.param_slots)

    def add(self, kind: str, targets: tuple[int, ...],
            params: tuple[float, ...] = (), trainable: bool = False):
        """Append a gate; with trainable=True every angle becomes a slot."""
        op = GateOp(kind, targets, params)
        self._check_targets(targets)
        idx = len(self.ops)
        self.ops.append(op)
        if trainable:
            for a in range(len(params)):
                self.param_slots.append((idx, a))

    def two_qubit_gate_count(self) -> int:
        return sum(1 for op in self.ops if op.kind in TWO_QUBIT_GATES)

    def extended(self, other: "Circuit") -> "Circuit":
        """This circuit followed by ``other``; slots of ``other`` come last."""
        if other.n_qubits != self.n_qubits:
            raise SimulationError("qubit count mismatch in circuit composition")
        shift = len(self.ops)
        return Circuit(self.n_qubits, list(self.ops) + list(other.ops),
                       list(self.param_slots)
                       + [(i + shift, a) for i, a in other.param_slots])


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


def _ry(theta) -> np.ndarray:
    """RY matrices, real, shape (2, 2) + theta.shape."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def _rz(theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    zero = np.zeros_like(theta)
    return np.array([[np.exp(-0.5j * theta), zero],
                     [zero, np.exp(0.5j * theta)]])


def _u3(theta, phi, lam) -> np.ndarray:
    """U3 matrices, shape (2, 2) + the broadcast shape of the angles."""
    theta, phi, lam = (np.atleast_1d(np.asarray(a, dtype=np.float64))
                       for a in (theta, phi, lam))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.empty((2, 2) + np.broadcast_shapes(theta.shape, phi.shape,
                                              lam.shape), dtype=np.complex128)
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

# Widest fused block: one 2**4 x 2**4 matrix on four adjacent qubits.
_FUSE_QUBITS = 4


def _apply_1q(psi: np.ndarray, tmp: np.ndarray, qubit: int,
              mats: np.ndarray) -> None:
    """Apply (2, 2, k|1) per-row matrices to one qubit of ``psi``, in place.

    ``psi`` is a rows-last (..., 2**n, k) state and ``tmp`` scratch like
    it.  Half a becomes mats[a, 0] * x0 + mats[a, 1] * x1, products in
    that operand order, so results match the dense formula bit for bit.
    """
    # the writes go through reshaped views: splitting the basis axis never
    # copies, merging the leading axes of a non-C-ordered state may
    if psi.ndim > 2 and not psi.flags.c_contiguous:
        raise SimulationError(
            f"in-place gate on a non-C-contiguous {psi.ndim}-d state")
    shape = (psi.size // psi.shape[-1] >> (qubit + 1), 2, 1 << qubit,
             psi.shape[-1])
    x, t = psi.reshape(shape), tmp.reshape(shape)
    x0, x1, t0, t1 = x[:, 0], x[:, 1], t[:, 0], t[:, 1]
    np.multiply(mats[0, 1], x1, out=t0)
    np.multiply(mats[1, 0], x0, out=t1)
    np.multiply(mats[0, 0], x0, out=x0)
    np.multiply(mats[1, 1], x1, out=x1)
    x0 += t0
    x1 += t1


def _apply_block(psi, tmp, lo: int, w: int, mat: np.ndarray):
    """A 2**w x 2**w matrix on qubits lo..lo+w-1; returns (psi, tmp)."""
    if w == 1:
        _apply_1q(psi, tmp, lo, mat[:, :, None])
        return psi, tmp
    if not tmp.flags.c_contiguous:  # the out= view below merges axes
        raise SimulationError("block gate needs C-contiguous scratch")
    shape = (psi.size // psi.shape[-1] >> (lo + w), 1 << w, -1)
    np.matmul(mat, psi.reshape(shape), out=tmp.reshape(shape))
    return tmp, psi


def _apply_perm(psi, tmp, perm, neg, rows_first=False):
    """psi[i] <- +-psi[perm[i]] on the basis axis, the last if rows-first,
    minus where ``neg`` (either may be None); returns (psi, tmp)."""
    if perm is not None:
        np.take(psi, perm, axis=int(rows_first), out=tmp, mode="clip")
        psi, tmp = tmp, psi
    if neg is not None:
        np.negative(psi, out=psi, where=neg if rows_first else neg[:, None])
    return psi, tmp


def _transpose(psi, tmp):
    """``psi`` copied into ``tmp`` in the other layout; returns (psi, tmp)."""
    np.copyto(tmp.reshape(psi.shape[::-1]), psi.T)
    return tmp.reshape(psi.shape[::-1]), psi.reshape(psi.shape[::-1])


def _permutation(n: int, gates) -> tuple:
    """(perm, neg) of a run of CNOT/CZ/SWAP for ``_apply_perm``: int32
    sources and a boolean sign mask, None for the identity and no signs."""
    idx = np.arange(1 << n, dtype=np.int32)
    perm, neg = idx, np.zeros(1 << n, dtype=bool)
    for kind, (a, b) in gates:  # CNOT: control a; CZ negates |11>
        bit_a, bit_b = idx >> a & 1, idx >> b & 1
        src = idx ^ {"CNOT": bit_a << b, "CZ": 0,
                     "SWAP": (bit_a ^ bit_b) * (1 << a | 1 << b)}[kind]
        perm, neg = perm[src], neg[src] ^ (kind == "CZ") & (bit_a & bit_b == 1)
    return (None if np.array_equal(perm, idx) else perm,
            neg if neg.any() else None)


def _frame(n: int, targets, later) -> tuple:
    """(16, n) per-qubit codes and (16,) signs that two-qubit code c (c >>
    2 on targets[0], c & 3 on targets[1]) becomes past the CNOT/CZ/SWAP
    ``later``, by the tableau rules with x/z bits and sign bit r."""
    x, z = np.zeros((2, 16, n), dtype=bool)
    for q, codes in zip(targets, (np.arange(16) >> 2, np.arange(16) & 3)):
        x[:, q], z[:, q] = (codes == 1) | (codes == 2), codes >= 2
    r = np.zeros(16, dtype=bool)
    for kind, (a, b) in later:  # CNOT: control a
        if kind == "CNOT":
            r ^= x[:, a] & z[:, b] & ~(x[:, b] ^ z[:, a])
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
        elif kind == "CZ":
            r ^= x[:, a] & x[:, b] & (z[:, a] ^ z[:, b])
            z[:, a] ^= x[:, b]
            z[:, b] ^= x[:, a]
        else:
            x[:, [a, b]], z[:, [a, b]] = x[:, [b, a]], z[:, [b, a]]
    return np.where(x, 1 + z, 3 * z), np.where(r, -1.0, 1.0)


def _compile(n, structure, slots, n_shared) -> SimpleNamespace:
    """Compile ops given as (kind, targets) pairs into a plan of stages.

    One-qubit op g is 'uni' when no per-row slot binds an angle of it, so
    its angles are the same for every row (the last ``n_shared`` slots
    are shared).  Angles index [params columns; vals] for row ops and
    vals = [shared; fixed angles] for uni ops.  Each qubit's first op
    before any two-qubit gate goes into the product state; then uni runs
    become blocks and runs of row ops ``rows`` stages, each with at most
    one op per qubit (a second op on a qubit, or an op of the other sort,
    starts a new run) and split into the same windows; CNOT/CZ/SWAP runs
    become permutations.  Codes after op i follow stage ``stage_of[i]``
    (-1: the product state), a two-qubit op's through ``frames[i]``.
    """
    p = SimpleNamespace(n_row=len(slots) - n_shared, blocks=[], stages=[],
                        frames={})
    p.dtype = np.float64 if all(
        kind in _REAL_KINDS for kind, _ in structure) else np.complex128
    slot_of = {pos: s for s, pos in enumerate(slots)}
    p.fixed = [(i, a) for i, (kind, _) in enumerate(structure)
               for a in range(GATE_ARITY[kind][0]) if (i, a) not in slot_of]
    slot_of.update({pos: len(slots) + j for j, pos in enumerate(p.fixed)})
    place, kinds = {}, {}  # op -> (g, uni); (kind, uni) -> (gs, sources)
    for i, (kind, _) in enumerate(structure):
        src = [slot_of[i, a] for a in range(GATE_ARITY[kind][0])]
        if src:
            place[i] = g, uni = len(place), min(src) >= p.n_row
            gs, idx = kinds.setdefault((kind, uni), ([], []))
            gs.append(g)
            idx.append([s - p.n_row * uni for s in src])
    p.size = len(place)
    p.kinds = [key + (np.array(gs), np.array(idx))
               for key, (gs, idx) in kinds.items()]
    p.slot_at = tuple(np.array([(place[i][0], a) for i, a in slots],
                               dtype=np.intp).reshape(-1, 2).T)
    p.product = []  # (qubit, op) for the leading first op of each qubit
    for i, (kind, targets) in enumerate(structure):
        if kind in TWO_QUBIT_GATES or targets[0] in dict(p.product):
            break
        p.product.append((targets[0], place[i][0]))
    p.stage_of = [-1] * len(p.product)
    # qubit -> its one op in the pending uni run / per-row run
    factors, run, row_run, twos = [], {}, {}, []

    def windows(ops):
        """(lo, w, the op on each qubit lo..lo+w-1) on at most _FUSE_QUBITS
        adjacent qubits, covering the qubits of ``ops``; op p.size, one
        past the last, stands for the identity."""
        qs = sorted(ops)
        while qs:
            lo = qs[0]
            w = max(q for q in qs if q < lo + _FUSE_QUBITS) - lo + 1
            yield lo, w, [ops.get(q, p.size) for q in range(lo, lo + w)]
            qs = [q for q in qs if q >= lo + w]

    def flush(end):  # the pending ops are len(p.stage_of)..end-1
        if twos:
            gates = [structure[i] for i in twos]
            p.stages.append(("perm",) + _permutation(n, gates))
            for j, i in enumerate(twos):
                p.frames[i] = _frame(n, gates[j][1], gates[j + 1:])
        for lo, w, gs in windows(run):
            p.stages.append(("block", len(p.blocks)))
            p.blocks.append((lo, w, np.arange(len(factors),
                                              len(factors) + w)))
            factors.extend(gs)
        if row_run:
            p.stages.append(("rows", tuple(row_run.items()), [
                (lo, w, np.array(gs)) for lo, w, gs in windows(row_run)]))
        # its stages act on distinct qubits: all codes follow the last
        p.stage_of += [len(p.stages) - 1] * (end - len(p.stage_of))
        for pending in (twos, run, row_run):
            pending.clear()

    for i in range(len(p.product), len(structure)):
        kind, targets = structure[i]
        if kind in TWO_QUBIT_GATES:
            if run or row_run:
                flush(i)
            twos.append(i)
        else:
            same, other = (run, row_run) if place[i][1] else (row_run, run)
            if twos or other or targets[0] in same:
                flush(i)
            same[targets[0]] = place[i][0]
    flush(len(structure))
    p.factor_ops = np.array(factors, dtype=np.intp)  # op of each factor
    by_w = {}
    for b, (_, w, fidx) in enumerate(p.blocks):
        by_w.setdefault(w, []).append((b, fidx))
    p.krons = [(w,) + tuple(map(np.array, zip(*bs))) for w, bs in by_w.items()]
    return p


# Every run, exact or with Pauli codes, uses its structure's one plan; 128
# holds all the plans of an ansatz-bench grid pass.
_plan = functools.lru_cache(maxsize=128)(_compile)


def _gate_matrices(kind: str, angles) -> np.ndarray:
    """(2, 2) + angle-shape matrices of a one-qubit gate kind."""
    if kind == "RY":
        return _ry(angles[0])
    if kind == "RZ":
        return _rz(angles[0])
    return _u3(*angles)


def _prepare(circuit: Circuit, params, shared) -> SimpleNamespace:
    """One binding of ``params`` and ``shared``: the circuit, its plan, k,
    the (2, 2, G + 1, k) matrices of its G one-qubit ops and the identity,
    their angles per ``plan.kinds`` entry, and the block matrices."""
    params = np.asarray(params, dtype=np.float64)
    shared = np.zeros(0) if shared is None else np.asarray(
        shared, dtype=np.float64).ravel()
    if (params.ndim != 2 or not params.shape[0]
            or params.shape[1] + shared.size != circuit.n_params):
        raise SimulationError(
            f"params shape {params.shape} and {shared.size} shared values "
            f"do not bind {circuit.n_params} trainable slots to any row")
    plan = _plan(circuit.n_qubits,
                 tuple((op.kind, op.targets) for op in circuit.ops),
                 tuple(circuit.param_slots), shared.size)
    vals = np.concatenate(
        [shared, [circuit.ops[i].params[a] for i, a in plan.fixed]])
    k = params.shape[0]
    rows = np.concatenate(
        [params.T, np.broadcast_to(vals[:, None], (vals.size, k))])
    mats, angles = np.empty((2, 2, plan.size + 1, k), plan.dtype), []
    mats[:, :, -1] = np.eye(2)[:, :, None]  # op plan.size: the identity
    for kind, uni, gs, idx in plan.kinds:  # uni ops: (G, 1) angle columns
        angles.append([(vals[:, None] if uni else rows)[c] for c in idx.T])
        mats[:, :, gs] = _gate_matrices(kind, angles[-1])
    factor = mats[:, :, plan.factor_ops, 0].transpose(2, 0, 1)
    blocks = [None] * len(plan.blocks)
    for _, bs, fidx in plan.krons:
        for b, mb in zip(bs, _kron(factor[fidx])):
            blocks[b] = mb
    return SimpleNamespace(circuit=circuit, plan=plan, k=k, mats=mats,
                           angles=angles, blocks=blocks)


def _kron(f: np.ndarray) -> np.ndarray:
    """(B, 2**w, 2**w) products kron(f[:, w-1], ..., f[:, 0]) of (B, w, 2,
    2) one-qubit factors, the highest qubit the most significant; the
    batch axis holds blocks or rows."""
    m = f[:, -1]
    for i in range(f.shape[1] - 2, -1, -1):  # C order: reshape, no copy
        m = np.multiply(m[:, :, None, :, None], f[:, i, None, :, None, :],
                        order="C").reshape(len(f), 2 * m.shape[1], -1)
    return m


def _apply_rows(psi, tmp, mats, wins):
    """Per-row ops on distinct qubits of a rows-first (k, 2**n) state, one
    batched matmul by each window's (k, 2**w, 2**w) per-row Kronecker
    blocks; returns (psi, tmp)."""
    k = psi.shape[0]
    for lo, w, gs in wins:
        f = mats[:, :, gs].transpose(3, 2, 0, 1)
        x, y = (a.reshape(k, -1, 1 << w, 1 << lo) for a in (psi, tmp))
        if lo == 0:  # x @ m^T, m^T being the product of transposed factors
            np.matmul(x[..., 0], _kron(f.swapaxes(2, 3)), out=y[..., 0])
        else:
            np.matmul(_kron(f)[:, None], x, out=y)
        psi, tmp = tmp, psi
    return psi, tmp


def _insert_paulis(psi, circuit, plan, paulis, ops) -> None:
    """Apply the codes of ``ops``, in op order, to the rows of ``psi``
    that they hit; a two-qubit op's codes go through its frame."""
    for i in ops:
        hit = np.flatnonzero(paulis[i])
        if not hit.size:
            continue
        codes, rows = np.asarray(paulis[i])[hit], psi[:, hit]
        if i in plan.frames:  # a Pauli string and a sign per row
            strings, signs = (f[codes] for f in plan.frames[i])
            rows *= signs
            qubits = np.flatnonzero(strings.any(axis=0))
            codes = strings[:, qubits].T
        else:
            qubits, codes = circuit.ops[i].targets, [codes]
        tmp = np.empty_like(rows)
        for q, c in zip(qubits, codes):
            _apply_1q(rows, tmp, q, _PAULI_STACK[:, :, c])
        psi[:, hit] = rows


def _run(bound: SimpleNamespace, paulis: dict | None = None,
         keep: dict | None = None) -> np.ndarray:
    """The (k, 2**n) final state of a binding, with ``paulis``: C-ordered
    if the run ends rows-first, else a rows-last state's transposed view.
    The state changes layout only where a stage needs the other: ``rows``
    stages run rows-first, blocks rows-last, and the rest on either.
    ``keep`` maps stage s to the rows-last state before it, for rows
    stages, a first perm and each block that starts a group of blocks on
    ascending, disjoint qubits; nothing writes a kept state again."""
    circuit, plan, mats = bound.circuit, bound.plan, bound.mats
    after = {}  # stage -> the ops whose codes follow it, in op order
    for i in sorted(paulis or ()):
        after.setdefault(plan.stage_of[i], []).append(i)
    first = {q: mats[:, 0, g] for q, g in plan.product}
    psi = np.empty((2 ** circuit.n_qubits, bound.k),
                   np.complex128 if paulis else plan.dtype)
    psi[0] = 1.0
    for q in range(circuit.n_qubits):  # in place, into rows 2**q..2**(q+1)
        v = first.get(q, ((1.0,), (0.0,)))
        np.multiply(psi[:1 << q], v[1], out=psi[1 << q:2 << q])
        psi[:1 << q] *= v[0]
    if -1 in after:
        _insert_paulis(psi, circuit, plan, paulis, after[-1])
    tmp = np.empty_like(psi)
    rows_first = False  # psi is (k, 2**n), not (2**n, k)
    start = MAX_QUBITS  # a block from this qubit on joins the kept group
    for s, (kind, *args) in enumerate(plan.stages):
        if keep is not None and (kind == "rows" or kind == "perm" and not s):
            keep[s] = psi.T.copy() if rows_first else psi.copy()
        if kind != "perm" and rows_first == (kind == "block"):
            psi, tmp = _transpose(psi, tmp)
            rows_first = not rows_first
        if kind == "block":
            lo, w, _ = plan.blocks[args[0]]
            if keep is not None and lo < start:  # w = 1 works in place
                keep[s] = psi if w > 1 else psi.copy()
            psi, tmp = _apply_block(psi, tmp, lo, w, bound.blocks[args[0]])
            if keep and tmp is keep.get(s):
                tmp = np.empty_like(tmp)
        elif kind == "rows":
            psi, tmp = _apply_rows(psi, tmp, mats, args[1])
        else:
            psi, tmp = _apply_perm(psi, tmp, *args, rows_first)
        start = lo + w if kind == "block" else MAX_QUBITS
        if after and s in after:  # on the (2**n, k) view of either layout
            _insert_paulis(psi.T if rows_first else psi, circuit, plan,
                           paulis, after[s])
    return psi if rows_first else psi.T


def run_circuit_batch(circuit: Circuit, params: np.ndarray,
                      paulis: dict | None = None,
                      shared: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on |0...0> for each row of ``params``.

    ``params`` (k, n_params - S) binds the first slots per row and
    ``shared`` (length S) the last S slots for every row.  Returns (k,
    2**n_qubits) complex amplitudes.  The rows run as one state through
    the circuit's compiled plan.

    ``paulis`` optionally maps an op index to per-row Pauli codes, as
    noise trajectories insert their errors: right after that op, row b
    gets c = codes[b] (0..3: I, X, Y, Z) on its target, or on a two-qubit
    op c >> 2 on targets[0] and c & 3 on targets[1].
    """
    psi = _run(_prepare(circuit, params, shared), paulis)
    return np.ascontiguousarray(psi, dtype=np.complex128)


@functools.lru_cache(maxsize=8)
def _z_signs(n_qubits: int) -> np.ndarray:
    """(2**n, n) eigenvalues of each Z_q on the basis states: +1 or -1."""
    idx = np.arange(2 ** n_qubits)[:, None]
    signs = 1.0 - 2.0 * ((idx >> np.arange(n_qubits)) & 1)
    signs.flags.writeable = False
    return signs


@functools.lru_cache(maxsize=None)
def _partial_traces(w: int, dtype) -> np.ndarray:
    """(4 w, 4**w) map from a 2**w-square overlap on w qubits to the 2x2
    partial trace over the others of each qubit i, at rows 4 i .. 4 i + 3."""
    x, y = np.indices((1 << w, 1 << w))
    return np.concatenate([
        (2 * (x >> i & 1) + (y >> i & 1) == np.arange(4)[:, None, None])
        & ((x ^ y) | 1 << i == 1 << i) for i in range(w)]).reshape(
        4 * w, -1).astype(dtype)


@functools.lru_cache(maxsize=16)
def _qubit_maps(n: int, qubits: tuple, dtype) -> tuple:
    """(Q, 2, 2**n) selectors, 1 where qubit ``qubits[j]`` of basis state
    i is x, and (Q, 2**n) indices i ^ 2**qubits[j]."""
    i, q = np.arange(1 << n), np.array(qubits)[:, None]
    sel = ((i >> q & 1)[:, None] == np.arange(2)[:, None]).astype(dtype)
    flip = i ^ 1 << q
    sel.flags.writeable = flip.flags.writeable = False
    return sel, flip


def _qubit_overlaps(lam: np.ndarray, phi: np.ndarray, qubits) -> np.ndarray:
    """(Q, k, 2, 2) M[j, b, x, y] = sum of conj(lambda[x]) phi[y] over the
    qubits other than ``qubits[j]``, row b, of rows-last (2**n, k) states."""
    sel, flip = _qubit_maps(lam.shape[0].bit_length() - 1, tuple(qubits),
                            lam.dtype)
    lam, flipped = lam.conj(), phi[flip]
    same = sel.reshape(-1, lam.shape[0]) @ (lam * phi)  # y = x
    other = sel @ np.multiply(flipped, lam, out=flipped)  # y = 1 - x
    m = np.empty((len(qubits), lam.shape[1], 2, 2), complex)
    m[..., 0, 0], m[..., 1, 1] = same[::2], same[1::2]
    m[..., 0, 1], m[..., 1, 0] = other[:, 0], other[:, 1]
    return m


def _adjoint_derivatives(kind: str, angles, m: np.ndarray) -> list:
    """2 Re sum(D * m) per angle, m the (..., 2, 2) overlaps after U^dag.

    D = U^dag dU in closed form: -iY/2 (RY), -iZ/2 (RZ); for U3 theta,
    phi, lam: Rz(-lam)(-iY/2)Rz(lam), i U^dag P1 U and i P1, P1 = |1><1|.
    The angles broadcast against the leading axes of ``m``.
    """
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
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


def z_expectations(circuit: Circuit, params: np.ndarray,
                   shared: np.ndarray | None = None):
    """(z, vjp): the (k, n_qubits) <Z_q> of rows bound as in
    ``run_circuit_batch``, and vjp(weights), the gradient of sum_q
    weights[b, q] <Z_q> as a pair: per-row slot gradients (k, n_params -
    S) and shared slot gradients (S,) summed over the rows, S =
    len(shared).  This is the adjoint method (Jones & Gacon 2020,
    arXiv:2009.02823) for H_b = sum_q weights[b, q] Z_q: the forward keeps
    phi, its state before each rows stage and block group, and one reverse
    sweep of the same binding carries lambda = H_b psi alone, reading 2 Re
    <lambda|dU|phi> per slot from 2x2 overlaps with the kept phi.
    """
    bound = _prepare(circuit, params, shared)
    plan, k, n = bound.plan, bound.k, circuit.n_qubits
    kept = {}  # kept[0] is the product state, if any stage follows it
    final = _run(bound, keep=kept).T  # rows-last, for the sweep
    z = pauli_z_expectations_batch(final.T.astype(complex, order="C"), n)

    def vjp(weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (k, n):
            raise SimulationError(f"weights {weights.shape} are not {(k, n)}")
        lam = np.multiply(final, _z_signs(n) @ weights.T, order="C")
        tmp, group = np.empty_like(lam), []  # blocks undone since a kept phi
        # overlaps M after U^dag: per op and row (the identity's entry takes
        # the identity factors' and goes unread), per block factor row-summed
        ms = np.zeros((plan.size + 1, k, 2, 2), complex)
        m_factor = np.empty((len(plan.factor_ops), 2, 2), complex)
        for s in range(len(plan.stages) - 1, -1, -1):
            stage = plan.stages[s]
            if stage[0] == "block":
                lo, w, _ = plan.blocks[stage[1]]
                lam, tmp = _apply_block(lam, tmp, lo, w,
                                        bound.blocks[stage[1]].conj().T)
                group.append(plan.blocks[stage[1]])
                if s in kept:  # blocks on distinct qubits commute
                    lam_c = lam.conj()
                    for lo, w, fidx in group:  # row-summed overlaps
                        x = lam_c.reshape(-1, 1 << w, k << lo)
                        y = kept[s].reshape(x.shape).transpose(0, 2, 1)
                        m = (x @ y).sum(axis=0).ravel()
                        m = _partial_traces(w, m.dtype) @ m
                        m_factor[fidx] = m.reshape(w, 2, 2)
                    group = []
            elif stage[0] == "rows":  # ops on distinct qubits commute
                for q, g in stage[1]:
                    _apply_1q(lam, tmp, q,
                              bound.mats[:, :, g].conj().transpose(1, 0, 2))
                qs, gs = zip(*stage[1])
                ms[list(gs)] = _qubit_overlaps(lam, kept[s], qs)
            else:  # undo psi[i] <- +-psi[perm[i]]
                if stage[2] is not None:
                    np.negative(lam, out=lam, where=stage[2][:, None])
                if stage[1] is not None:
                    tmp[stage[1]] = lam
                    lam, tmp = tmp, lam
        ms[plan.factor_ops, 0] = m_factor  # a block's ops: in row 0 only
        # each qubit's first op acts on |0>: with M the overlap at the
        # product state, its <lambda|dU U^dag|phi> is sum(D * U^T M conj(U))
        if plan.product:
            qs, gs = map(list, zip(*plan.product))
            m = _qubit_overlaps(lam, kept.get(0, final), qs)
            u = bound.mats[:, :, gs].transpose(2, 3, 0, 1)  # (G, k, 2, 2)
            ut, uc = u.swapaxes(2, 3), u.conj()
            m = ut[..., :1] * m[..., :1, :] + ut[..., 1:] * m[..., 1:, :]
            ms[gs] = m[..., :1] * uc[..., :1, :] + m[..., 1:] * uc[..., 1:, :]
        summed = ms.sum(axis=1, keepdims=True)
        derivs = np.zeros((plan.size, 3, k))
        for (kind, uni, gs, _), angles in zip(plan.kinds, bound.angles):
            # a uni op's angles are one column and D is linear in M: sum M
            m = (summed if uni else ms)[gs]
            for a, v in enumerate(_adjoint_derivatives(kind, angles, m)):
                derivs[gs, a, :v.shape[1]] = v
        grads = derivs[plan.slot_at]
        return grads[:plan.n_row].T, grads[plan.n_row:].sum(axis=1)

    return z, vjp


def run_circuit(circuit: Circuit, params=()) -> StateVector:
    """Apply all ops in order to |0...0> with trainable slots bound."""
    params = np.asarray(params, dtype=np.float64).reshape(1, -1)
    if params.shape[1] != circuit.n_params:
        raise SimulationError(
            f"expected {circuit.n_params} params, got {params.shape[1]}")
    return StateVector(circuit.n_qubits, run_circuit_batch(circuit, params)[0])


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply a single gate; returns a new state."""
    for q in op.targets:
        if not 0 <= q < state.n_qubits:
            raise SimulationError(
                f"target {q} out of range for {state.n_qubits} qubits")
    psi = state.amplitudes.reshape(-1, 1).copy()
    tmp = np.empty_like(psi)
    if op.kind in TWO_QUBIT_GATES:
        psi, _ = _apply_perm(psi, tmp, *_permutation(
            state.n_qubits, [(op.kind, op.targets)]))
    else:
        _apply_1q(psi, tmp, op.targets[0], _gate_matrices(op.kind, op.params))
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
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != 2 ** n_qubits:
        raise SimulationError(
            f"batch shape {batch.shape} does not hold 2**{n_qubits} "
            f"amplitudes per row")
    return np.abs(batch) ** 2 @ _z_signs(n_qubits)


def index_to_bitstring(index: int, n_qubits: int) -> str:
    """Basis index -> bitstring with qubit 0 first."""
    return format(index, f"0{n_qubits}b")[::-1]


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
    m = np.transpose(psi, sorted(keep_axes) + other_axes).reshape(
        2 ** len(keep), -1)
    return m @ m.conj().T

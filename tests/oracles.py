"""Reference implementations used to cross-check the fast paths.

Everything here is written for clarity, not speed: full 2^n x 2^n gate
matrices assembled element by element, applied by plain matmul, and
convolution one output at a time.  None of it shares code with the
package under test, except that the GroupNorm oracle is composed of the
package's elementary autodiff ops rather than its single-node op, the
SSIM oracle takes its window means through the package's conv2d, which
is itself checked against ``naive_conv``, and the circuit helpers at the
end build the package's ``Circuit`` records.
"""

import numpy as np

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def ry_matrix(theta):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz_matrix(phi):
    return np.array(
        [[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]],
        dtype=np.complex128,
    )


def u3_matrix(theta, phi, lam):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def dense_gate_unitary(kind, targets, params, n):
    """Full 2^n x 2^n unitary for one gate, built from bit arithmetic.

    Basis index convention: bit q of the integer index is the state of
    qubit q (qubit 0 is the least significant bit).
    """
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    if kind == "CNOT":
        c, t = targets
        for j in range(dim):
            i = j ^ (1 << t) if (j >> c) & 1 else j
            u[i, j] = 1.0
        return u
    if kind == "CZ":
        a, b = targets
        for j in range(dim):
            u[j, j] = -1.0 if ((j >> a) & 1 and (j >> b) & 1) else 1.0
        return u
    if kind == "SWAP":
        a, b = targets
        for j in range(dim):
            ba, bb = (j >> a) & 1, (j >> b) & 1
            i = j & ~(1 << a) & ~(1 << b) | (bb << a) | (ba << b)
            u[i, j] = 1.0
        return u
    if kind == "RY":
        m = ry_matrix(params[0])
    elif kind == "RZ":
        m = rz_matrix(params[0])
    elif kind == "U3":
        m = u3_matrix(*params)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    (q,) = targets
    return embed_one_qubit(m, q, n)


def embed_one_qubit(m, q, n):
    """Full 2^n x 2^n matrix of the 2x2 matrix ``m`` acting on qubit q."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        bit = (j >> q) & 1
        base = j & ~(1 << q)
        for out in (0, 1):
            u[base | (out << q), j] += m[out, bit]
    return u


def dense_circuit_unitary(circuit, params=()):
    """Product of the dense gate unitaries, trainable slots filled in."""
    params = np.asarray(params, dtype=np.float64).ravel()
    angles = {}
    for slot, (op_idx, angle_idx) in enumerate(circuit.param_slots):
        angles.setdefault(op_idx, {})[angle_idx] = params[slot]
    dim = 1 << circuit.n_qubits
    u = np.eye(dim, dtype=np.complex128)
    for op_idx, op in enumerate(circuit.ops):
        gate_params = list(op.params)
        for angle_idx, value in angles.get(op_idx, {}).items():
            gate_params[angle_idx] = value
        u = dense_gate_unitary(op.kind, op.targets, gate_params,
                               circuit.n_qubits) @ u
    return u


def dense_run(circuit, params=()):
    """Final state of the circuit applied to |0...0>, via dense matmul."""
    dim = 1 << circuit.n_qubits
    e0 = np.zeros(dim, dtype=np.complex128)
    e0[0] = 1.0
    return dense_circuit_unitary(circuit, params) @ e0


def dense_run_with_paulis(circuit, params, paulis, row):
    """``dense_run`` with row ``row`` of ``paulis`` ({op: per-row codes})
    applied after their ops: code c on a one-qubit op's target, and on a
    two-qubit op c >> 2 on targets[0] and c & 3 on targets[1], where 0..3
    stand for I, X, Y, Z."""
    mats = [np.eye(2, dtype=np.complex128), _SX, _SY, _SZ]
    params = np.asarray(params, dtype=np.float64).ravel()
    angles = {pos: params[s] for s, pos in enumerate(circuit.param_slots)}
    n = circuit.n_qubits
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    for i, op in enumerate(circuit.ops):
        gate_params = [angles.get((i, a), v) for a, v in enumerate(op.params)]
        psi = dense_gate_unitary(op.kind, op.targets, gate_params, n) @ psi
        if i in paulis:
            c = int(paulis[i][row])
            pairs = ([(op.targets[0], c)] if len(op.targets) == 1 else
                     [(op.targets[0], c >> 2), (op.targets[1], c & 3)])
            for q, code in pairs:
                psi = embed_one_qubit(mats[code], q, n) @ psi
    return psi


def noisy_marginals_oracle(circuit, params, p1, p2, alpha):
    """Per-qubit P(measure 1) under the channel-averaged noise, n <= 5.

    Evolves the density matrix exactly: after each gate, a one-qubit gate
    applies (1 - p1) rho + (p1 / 3) sum_P P rho P over X, Y, Z, and a
    two-qubit gate applies (1 - p2) rho + (p2 / 15) sum over the 15
    non-identity Pauli pairs.  The symmetric readout confusion with flip
    probability alpha then acts on each qubit of the diagonal.
    """
    n = circuit.n_qubits
    if n > 5:
        raise ValueError("the density-matrix oracle is for n <= 5")
    params = np.asarray(params, dtype=np.float64).ravel()
    angles = {}
    for slot, (op_idx, angle_idx) in enumerate(circuit.param_slots):
        angles.setdefault(op_idx, {})[angle_idx] = params[slot]
    dim = 1 << n
    paulis = [np.eye(2, dtype=np.complex128), _SX, _SY, _SZ]
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    for op_idx, op in enumerate(circuit.ops):
        gate_params = list(op.params)
        for angle_idx, value in angles.get(op_idx, {}).items():
            gate_params[angle_idx] = value
        u = dense_gate_unitary(op.kind, op.targets, gate_params, n)
        rho = u @ rho @ u.conj().T
        if len(op.targets) == 1:
            errors = [embed_one_qubit(paulis[a], op.targets[0], n)
                      for a in (1, 2, 3)]
            p = p1
        else:
            a_q, b_q = op.targets
            errors = [embed_one_qubit(paulis[a], a_q, n)
                      @ embed_one_qubit(paulis[b], b_q, n)
                      for a in range(4) for b in range(4) if (a, b) != (0, 0)]
            p = p2
        mixed = sum(e @ rho @ e.conj().T for e in errors) / len(errors)
        rho = (1.0 - p) * rho + p * mixed
    diag = np.real(np.diag(rho)).copy()
    for q in range(n):
        flipped = np.array([diag[i ^ (1 << q)] for i in range(dim)])
        diag = (1.0 - alpha) * diag + alpha * flipped
    return np.array([sum(diag[i] for i in range(dim) if (i >> q) & 1)
                     for q in range(n)])


def mitigation_oracle(probs, observed, per_qubit):
    """Readout mitigation with one explicitly inverted 2x2 matrix per qubit.

    ``per_qubit[q]`` is qubit q's row-stochastic confusion matrix
    M[i][j] = Pr(measure j | true i).  Applies ``np.linalg.inv`` of each
    to its qubit axis of the (k, 2**n) probabilities, so entry t becomes
    ``sum_s prod_q inv(M_q)[s_q, t_q] probs[s]``; then zeroes unobserved
    entries, clips negatives and renormalizes each row.
    """
    k, dim = probs.shape
    x = probs
    for q, m in enumerate(per_qubit):
        x = np.einsum("st,kosi->koti", np.linalg.inv(m),
                      x.reshape(k, -1, 2, 1 << q)).reshape(k, dim)
    x = np.where(observed, np.clip(x, 0.0, None), 0.0)
    return x / x.sum(axis=1, keepdims=True)


def layout_permutation_unitary(final_layout):
    """Permutation matrix P with P[phys, logical] structure.

    ``final_layout[l] = p`` means logical qubit ``l`` ends up on wire
    ``p``.  Column j (a logical basis state) maps to the physical index
    obtained by moving bit l of j to position final_layout[l].
    """
    n = len(final_layout)
    dim = 1 << n
    p = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        i = 0
        for logical in range(n):
            if (j >> logical) & 1:
                i |= 1 << final_layout[logical]
        p[i, j] = 1.0
    return p


def reduced_density_oracle(amplitudes, keep, n):
    """Partial trace by explicit index summation, keep qubits sorted."""
    keep = sorted(keep)
    env = [q for q in range(n) if q not in keep]
    dim_k, dim_e = 1 << len(keep), 1 << len(env)

    def assemble(kept_bits, env_bits):
        idx = 0
        for j, q in enumerate(keep):
            if (kept_bits >> j) & 1:
                idx |= 1 << q
        for j, q in enumerate(env):
            if (env_bits >> j) & 1:
                idx |= 1 << q
        return idx

    rho = np.zeros((dim_k, dim_k), dtype=np.complex128)
    for a in range(dim_k):
        for b in range(dim_k):
            for e in range(dim_e):
                rho[a, b] += (amplitudes[assemble(a, e)]
                              * np.conj(amplitudes[assemble(b, e)]))
    return rho


def naive_conv(x, w, stride, padding):
    """NCHW cross-correlation with an FCKK kernel, one output at a time."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, f, h_out, w_out))
    for b in range(n):
        for of in range(f):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[b, :, i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    out[b, of, i, j] = np.sum(patch * w[of])
    return out


def group_norm_oracle(x, gamma, beta, groups, eps=1e-5):
    """GroupNorm composed of elementary autodiff ops, one node per step."""
    n, c, h, w = x.shape
    grouped = x.reshape(n, groups, (c // groups) * h * w)
    mean = grouped.mean(axis=2, keepdims=True)
    centred = grouped - mean
    var = (centred ** 2).mean(axis=2, keepdims=True)
    normed = centred * (var + eps) ** -0.5
    normed = normed.reshape(n, c, h, w)
    return normed * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)


def windowed_ssim_oracle(x, y, window=8, stride=4, data_range=1.0):
    """Mean windowed SSIM with window means from a depthwise conv2d."""
    from qlatent.tensor import Tensor, conv2d

    n, c, h, w = x.shape
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    kernel = Tensor(np.full((1, 1, window, window), 1.0 / window ** 2))

    def wmean(t):
        flat = t.reshape(n * c, 1, h, w)
        return conv2d(flat, kernel, stride=stride, padding=0)

    mu_x = wmean(x)
    mu_y = wmean(y)
    xx = wmean(x * x) - mu_x * mu_x
    yy = wmean(y * y) - mu_y * mu_y
    xy = wmean(x * y) - mu_x * mu_y
    numer = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    denom = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return (numer / denom).mean()


def precision_recall_oracle(real, fake, k):
    """k-NN manifold precision and recall, one distance at a time.

    Kynkaanniemi et al. 2019 (arXiv:1904.06991): a point is covered by
    the other set if it lies within the distance from some point of
    that set to its k-th nearest neighbour in the same set.
    """
    def dist(a, b):
        return np.sqrt(np.sum((a - b) ** 2))

    def coverage(points, support):
        radii = [sorted(dist(s, t) for j, t in enumerate(support) if j != i)
                 [k - 1] for i, s in enumerate(support)]
        covered = [any(dist(p, s) <= r for s, r in zip(support, radii))
                   for p in points]
        return sum(covered) / len(points)

    return coverage(fake, real), coverage(real, fake)


class LoopAdam:
    """Adam with one moment array per parameter, updated one by one."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr, self.betas, self.eps = lr, betas, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad
                 for p in self.params]
        self.t += 1
        b1, b2 = self.betas
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def numeric_grad(fn, x, h=1e-6):
    """Central finite differences of a scalar-valued rebuild function."""
    g = np.zeros_like(x.data)
    flat, gf = x.data.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn().item()
        flat[i] = orig - h
        dn = fn().item()
        flat[i] = orig
        gf[i] = (up - dn) / (2 * h)
    return g


def check_grads(fn, tensors, rtol=1e-5, atol=1e-7):
    """Backprop through ``fn()`` and compare with finite differences."""
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    for t in tensors:
        want = numeric_grad(fn, t)
        np.testing.assert_allclose(t.grad, want, rtol=rtol, atol=atol)


def record_graph_nodes(monkeypatch):
    """List that gets ``requires_grad`` of every op result made from now."""
    from qlatent.tensor import Tensor

    recorded = []
    from_op = Tensor.__dict__["_from_op"].__func__

    def recording_from_op(data, parents, backward_fn):
        out = from_op(data, parents, backward_fn)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(recording_from_op))
    return recorded


def random_circuit(rng, n_qubits, n_gates, trainable_fraction=0.5):
    """Random circuit over the full gate set, some angles as slots."""
    from qlatent.statevector import Circuit

    c = Circuit(n_qubits)
    kinds_1q = ["RY", "RZ", "U3"]
    kinds_2q = ["CNOT", "CZ", "SWAP"] if n_qubits >= 2 else []
    for _ in range(n_gates):
        if kinds_2q and rng.random() < 0.4:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            c.add(str(rng.choice(kinds_2q)), (int(a), int(b)))
        else:
            kind = str(rng.choice(kinds_1q))
            q = int(rng.integers(n_qubits))
            n_angles = 3 if kind == "U3" else 1
            angles = tuple(rng.uniform(0, 2 * np.pi, n_angles))
            c.add(kind, (q,), angles,
                  trainable=bool(rng.random() < trainable_fraction))
    return c


def bind_params(circuit, params):
    """Copy of the circuit with trainable slots baked into literal angles."""
    from qlatent.statevector import Circuit, GateOp

    params = np.asarray(params, dtype=np.float64).ravel()
    if params.size != circuit.n_params:
        raise ValueError(
            f"expected {circuit.n_params} params, got {params.size}")
    angles = {pos: params[s] for s, pos in enumerate(circuit.param_slots)}
    return Circuit(circuit.n_qubits, [GateOp(op.kind, op.targets, tuple(
        angles.get((i, a), v) for a, v in enumerate(op.params)))
        for i, op in enumerate(circuit.ops)], [])


def build_angle_encoder(features, n_qubits):
    """One fixed RY(feature_q) per qubit, applied before an ansatz."""
    from qlatent.statevector import Circuit

    features = np.asarray(features, dtype=np.float64).ravel()
    if features.size != n_qubits:
        raise ValueError(
            f"expected {n_qubits} features, got {features.size}")
    if not np.all(np.isfinite(features)):
        raise ValueError("encoder features must be finite")
    c = Circuit(n_qubits)
    for q in range(n_qubits):
        c.add("RY", (q,), (float(features[q]),))
    return c


def bitstring_to_index(bits):
    """Bitstring with qubit 0 first -> basis index."""
    return sum((1 << q) for q, b in enumerate(bits) if b == "1")


def one_qubit_gate_count(circuit):
    return sum(1 for op in circuit.ops if len(op.targets) == 1)

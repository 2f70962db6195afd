"""Stochastic noise channels, shot statistics, and readout mitigation.

Gate noise is modeled by Pauli-trajectory sampling: after each gate a
uniformly random non-identity Pauli is inserted on the gate's qubits with
probability p1 (one-qubit gates) or p2 (two-qubit gates).  Readout noise
flips each measured bit independently with probability alpha, and
mitigation inverts that one symmetric flip rate in closed form on every
qubit axis.

All rows and trajectories of one call run as a single batch through
``run_circuit_batch``, with the insertions drawn up front.  Counts stay
integer arrays over basis indices from the shot draw through readout
flips, marginals and mitigation; bitstring keys are built only for
``EmpiricalDistribution`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statevector import (
    Circuit,
    StateVector,
    TWO_QUBIT_GATES,
    index_to_bitstring,
    run_circuit_batch,
    sample_indices,
)


@dataclass
class NoiseModel:
    """Parametric stand-in for a calibrated device noise model; a call
    runs at most ``min(trajectories, shots)`` Pauli trajectories."""

    readout_alpha: float = 0.0
    p1: float = 5e-4
    p2: float = 1e-2
    trajectories: int = 100

    def __post_init__(self):
        for name in ("readout_alpha", "p1", "p2"):
            v = getattr(self, name)
            if not 0.0 <= v < 0.5:
                raise ValueError(f"{name} must be in [0, 0.5), got {v}")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")


@dataclass
class EmpiricalDistribution:
    """bitstring -> count map from shot-based sampling."""

    n_qubits: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.counts:
            if len(key) != self.n_qubits:
                raise ValueError(
                    f"key {key!r} does not have {self.n_qubits} bits")
        if "".join(self.counts).strip("01"):  # "" iff all 0/1
            bad = next(key for key in self.counts if key.strip("01"))
            raise ValueError(f"key {bad!r} holds a character other than 0/1")
        bad = next((key for key, c in self.counts.items()
                    if not 0 <= c < math.inf), None)
        if bad is not None:
            raise ValueError(f"key {bad!r} has count {self.counts[bad]!r}, "
                             "not a finite count >= 0")
        if self.total <= 0:
            raise ValueError("distribution needs at least one count")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_samples(cls, samples: list[str], n_qubits: int) -> "EmpiricalDistribution":
        counts: dict[str, int] = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
        return cls(n_qubits, counts)

    def marginals(self) -> np.ndarray:
        """Per-qubit empirical probability of measuring 1.

        Counts may be floats (a distribution built from probabilities);
        the sum over keys runs in key order, as a loop over them would.
        """
        bits = _key_bits(self.counts, self.n_qubits)
        counts = np.fromiter(self.counts.values(), dtype=np.float64,
                             count=len(self.counts))
        return np.where(bits, counts[:, None], 0.0).sum(axis=0) / self.total


def _key_bits(keys, n_qubits: int) -> np.ndarray:
    """(len(keys), n) booleans, True where a bitstring key holds a 1."""
    joined = "".join(keys).encode("ascii")
    return np.frombuffer(joined, dtype=np.uint8).reshape(
        -1, n_qubits) == ord("1")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Symmetric readout confusion: each of n qubits flips with rate alpha.

    Per qubit M = [[1 - alpha, alpha], [alpha, 1 - alpha]] with
    M[i][j] = Pr(measure j | true i), the law ``_flip_readout`` samples.
    """

    n_qubits: int
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @classmethod
    def symmetric(cls, n_qubits: int, alpha: float) -> "ConfusionMatrix":
        return cls(n_qubits, alpha)


def _draw_paulis(circuit: Circuit, noise: NoiseModel, rows: int,
                 rng: np.random.Generator) -> dict:
    """Pauli codes for every op and row, as ``run_circuit_batch`` takes them.

    Each op draws an insertion per row with probability p1 or p2; a hit
    on a one-qubit gate picks X, Y or Z, and a hit on a two-qubit gate
    picks one of the 15 non-identity pairs (code c puts c >> 2 on
    targets[0] and c & 3 on targets[1]).  Ops that no row hit are absent.
    """
    two = np.array([op.kind in TWO_QUBIT_GATES for op in circuit.ops],
                   dtype=bool)
    prob = np.where(two, noise.p2, noise.p1)
    hit = rng.random((len(circuit.ops), rows)) < prob[:, None]
    codes = np.zeros(hit.shape, dtype=np.intp)
    codes[hit] = rng.integers(
        1, np.broadcast_to(np.where(two, 16, 4)[:, None], hit.shape)[hit])
    return {int(i): codes[i] for i in np.flatnonzero(hit.any(axis=1))}


def _flip_readout(counts: np.ndarray, alpha: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Flip each counted bit with probability alpha, qubit by qubit.

    For qubit q, ``binomial(counts, alpha)`` shots at index i move to
    ``i ^ (1 << q)``: the same law as flipping every shot independently,
    without building per-shot arrays.
    """
    k, dim = counts.shape
    for q in range(dim.bit_length() - 1):
        flips = rng.binomial(counts, alpha)
        moved = flips.reshape(k, -1, 2, 1 << q)[:, :, ::-1, :]
        counts = counts - flips + moved.reshape(k, dim)
    return counts


def sample_noisy_counts(circuit: Circuit, params, noise: NoiseModel,
                        shots: int, rng: np.random.Generator,
                        shared=None) -> np.ndarray:
    """Integer shot counts over basis indices, one row per params row.

    ``params`` has shape (k, n_params - S) and ``shared`` (length S)
    binds the last slots for every row, as in ``run_circuit_batch``;
    returns (k, 2**n) counts, each row summing to ``shots``.  Every row's
    shots are split as evenly as possible across T = min(trajectories,
    shots) independent Pauli trajectories (one shot each is already the
    device's law), the leftover shots going to the first trajectories,
    and all k x T trajectories run as one batch.
    Without gate noise every trajectory is the same state, so each row is
    simulated once and sampled with all its shots, which has the same
    law.  Readout flips come last.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    params = np.asarray(params, dtype=np.float64)
    k = params.shape[0]
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        amps = run_circuit_batch(circuit, params, shared=shared)
        n_shots = shots
    else:
        t = min(noise.trajectories, shots)
        rows = np.repeat(params, t, axis=0)
        amps = run_circuit_batch(circuit, rows,
                                 _draw_paulis(circuit, noise, k * t, rng),
                                 shared=shared)
        base, extra = divmod(shots, t)
        n_shots = np.tile(base + (np.arange(t) < extra), k)
    probs = np.abs(amps) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    counts = rng.multinomial(n_shots, probs)
    counts = counts.reshape(k, -1, probs.shape[1]).sum(axis=1)
    if noise.readout_alpha > 0.0:
        counts = _flip_readout(counts, noise.readout_alpha, rng)
    return counts


def sample_noisy(circuit: Circuit, params, noise: NoiseModel, shots: int,
                 seed: int) -> EmpiricalDistribution:
    """Shot counts under gate + readout noise, averaged over trajectories.

    One row of ``sample_noisy_counts`` from ``default_rng(seed)``, keyed
    by bitstring.  The row is bound as ``shared``, so the trajectories
    run the plan's fused blocks.  Deterministic for a given seed.
    """
    counts = sample_noisy_counts(circuit, np.zeros((1, 0)), noise, shots,
                                 np.random.default_rng(seed), shared=params)[0]
    n = circuit.n_qubits
    return EmpiricalDistribution(n, {
        index_to_bitstring(int(i), n): int(counts[i])
        for i in np.flatnonzero(counts)})


def index_marginals(probs: np.ndarray, n_qubits: int) -> np.ndarray:
    """Per-qubit probability of measuring 1 for (k, 2**n) index weights."""
    bits = (np.arange(probs.shape[1])[:, None] >> np.arange(n_qubits)) & 1
    return probs @ bits


def readout_marginals(counts: np.ndarray, alpha: float = 0.0) -> np.ndarray:
    """Per-qubit P(1) of (k, 2**n) shot counts, the observed outcomes
    first mitigated for readout flip rate ``alpha`` when it is above 0."""
    n = counts.shape[1].bit_length() - 1
    probs = counts / counts.sum(axis=1, keepdims=True)
    if alpha > 0:
        cm = ConfusionMatrix.symmetric(n, alpha)
        probs = mitigate_probabilities(probs, counts > 0, cm)
    return index_marginals(probs, n)


def expected_hamming_distance(p: EmpiricalDistribution,
                              q: EmpiricalDistribution) -> float:
    """Expected Hamming distance (bits) between independent draws of p and q.

    Computed from the per-qubit marginals: each bit differs with
    probability p1(1-q1) + q1(1-p1), and expectations add over qubits.
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {p.n_qubits} vs {q.n_qubits}")
    return hamming_from_marginals(p.marginals(), q.marginals())


def hamming_from_marginals(mp: np.ndarray, mq: np.ndarray) -> float:
    """Expected Hamming distance from two per-qubit P(1) vectors."""
    return float(np.sum(mp * (1 - mq) + mq * (1 - mp)))


def sampling_control_distance(state: StateVector, shots: int,
                              seeds: tuple[int, int]) -> float:
    """Hamming distance between two independent shot sets of the same state.

    With many shots this converges to the state's intrinsic distance
    ``sum_q 2 m_q (1 - m_q)`` (zero only for basis states), so it serves
    as the sampling-noise floor a noisy run should be compared against.
    """
    qubits = np.arange(state.n_qubits)
    ma, mb = (((sample_indices(state, shots, seed)[:, None] >> qubits) & 1)
              .sum(axis=0) / shots for seed in seeds)
    return hamming_from_marginals(ma, mb)


def mitigate_probabilities(probs: np.ndarray, observed: np.ndarray,
                           cm: ConfusionMatrix) -> np.ndarray:
    """Invert symmetric readout confusion on (k, 2**n) index probabilities.

    Applies the per-qubit inverse ``[[1-a, -a], [-a, 1-a]] / (1-2a)`` to
    each qubit axis in turn and keeps only the ``observed`` entries (the
    subspace-restriction idea of scalable mitigation): entry t is
    ``sum_s prod_q Minv[s_q, t_q] probs[s]``, and unobserved s carry no
    probability.  Negative quasi-probabilities are clipped to zero and
    each row renormalized.
    """
    k, dim = probs.shape
    if dim != 1 << cm.n_qubits:
        raise ValueError(f"probabilities have {dim} columns, the confusion "
                         f"matrix covers {cm.n_qubits} qubits")
    a = cm.alpha
    if abs(1.0 - 2.0 * a) < 1e-12:
        raise ValueError("confusion matrix is singular (alpha = 0.5)")
    minv = np.array([[1.0 - a, -a], [-a, 1.0 - a]]) / (1.0 - 2.0 * a)
    x = probs
    for q in range(cm.n_qubits):
        x = np.einsum("st,kosi->koti", minv,
                      x.reshape(k, -1, 2, 1 << q)).reshape(k, dim)
    x = np.where(observed, np.clip(x, 0.0, None), 0.0)
    s = x.sum(axis=1, keepdims=True)
    if np.any(s <= 0):
        raise ValueError("mitigation clipped all probability mass")
    return x / s


def mitigate_confusion(dist: EmpiricalDistribution,
                       cm: ConfusionMatrix) -> dict[str, float]:
    """``mitigate_probabilities`` on one distribution, keyed by bitstring.

    Returns a probability for every observed bitstring, in sorted order.
    """
    n = dist.n_qubits
    observed = sorted(dist.counts)
    idx = _key_bits(observed, n) @ (1 << np.arange(n))
    probs = np.zeros((1, 1 << n))
    total = dist.total
    probs[0, idx] = [dist.counts[key] / total for key in observed]
    mask = np.zeros(probs.shape, dtype=bool)
    mask[0, idx] = True
    x = mitigate_probabilities(probs, mask, cm)[0]
    return dict(zip(observed, x[idx].tolist()))

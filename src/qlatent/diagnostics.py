"""Trainability and entanglement diagnostics for the ansatz templates.

Covers von Neumann entanglement entropy of random-parameter circuits,
parameter-shift gradients of a local <Z> cost, the gradient-variance
barren-plateau indicator, and least-squares slope fits of its scaling
with qubit count.  Gradient-variance samples run on the cost qubit's
reverse light cone (Cerezo et al. 2021, arXiv:2001.00550): an op that
touches no qubit of the cone after it commutes to the end and cancels in
U^dag Z U.  ``parameter_shift_gradient`` runs the full circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzKind, AnsatzSpec, build_ansatz, param_count
from .statevector import (
    Circuit,
    GateOp,
    StateVector,
    pauli_z_expectations_batch,
    reduced_density_matrix,
    run_circuit_batch,
)

EIGENVALUE_FLOOR = 1e-12


def entanglement_entropy(state: StateVector, partition) -> float:
    """Von Neumann entropy (nats) of the reduced state on ``partition``."""
    rho = reduced_density_matrix(state, partition)
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > EIGENVALUE_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def half_partition(n_qubits: int) -> tuple[int, ...]:
    """Default bipartition: the first floor(n/2) qubits."""
    return tuple(range(n_qubits // 2))


def _cost_batch(circuit: Circuit, params: np.ndarray,
                cost_qubit: int) -> np.ndarray:
    amps = run_circuit_batch(circuit, params)
    return pauli_z_expectations_batch(amps, circuit.n_qubits)[:, cost_qubit]


def parameter_shift_gradient(circuit: Circuit, params, param_idx: int,
                             cost_qubit: int = 0) -> float:
    """d<Z_cost>/d theta_idx via the exact +-pi/2 shift rule."""
    params = np.asarray(params, dtype=np.float64).ravel()
    if not 0 <= param_idx < circuit.n_params:
        raise ValueError(
            f"param_idx {param_idx} out of range for {circuit.n_params} slots")
    if not 0 <= cost_qubit < circuit.n_qubits:
        raise ValueError(f"cost qubit {cost_qubit} out of range")
    shifted = np.vstack([params, params])
    shifted[0, param_idx] += np.pi / 2
    shifted[1, param_idx] -= np.pi / 2
    e = _cost_batch(circuit, shifted, cost_qubit)
    return float((e[0] - e[1]) / 2.0)


def _light_cone(circuit: Circuit, cost_qubit: int):
    """(cone circuit on its qubits renumbered in order, original slot of
    each cone slot, cost qubit's new index): walking the ops backwards,
    keep an op that touches the live set and add its qubits to it."""
    live, keep = {cost_qubit}, []
    for i in range(len(circuit.ops) - 1, -1, -1):
        if live.intersection(circuit.ops[i].targets):
            live.update(circuit.ops[i].targets)
            keep.append(i)
    keep.reverse()
    qubit = {q: j for j, q in enumerate(sorted(live))}
    op_at = {i: j for j, i in enumerate(keep)}
    ops = [GateOp(op.kind, tuple(qubit[q] for q in op.targets), op.params)
           for op in (circuit.ops[i] for i in keep)]
    cols = [s for s, (i, _) in enumerate(circuit.param_slots) if i in op_at]
    slots = [(op_at[i], a) for i, a in (circuit.param_slots[s] for s in cols)]
    cone = Circuit(len(live), ops, slots)
    return cone, np.array(cols, dtype=np.intp), qubit[cost_qubit]


def first_param_gradient_samples(circuit: Circuit, samples: int, seed: int,
                                 cost_qubit: int = 0,
                                 param_idx: int = 0) -> np.ndarray:
    """Parameter-shift gradients at ``param_idx`` for random uniform angles.

    Parameter vectors are drawn i.i.d. uniform on [0, 2*pi); both shifted
    evaluations for all samples run as one vectorized batch on the cost
    qubit's light cone.  A slot outside the cone has gradient exactly 0.
    """
    if circuit.n_params == 0:
        raise ValueError("circuit has no trainable parameters")
    if not 0 <= param_idx < circuit.n_params:
        raise ValueError(f"param_idx {param_idx} out of range")
    if not 0 <= cost_qubit < circuit.n_qubits:
        raise ValueError(f"cost qubit {cost_qubit} out of range")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2 * np.pi, size=(samples, circuit.n_params))
    cone, cols, cost = _light_cone(circuit, cost_qubit)
    col = np.flatnonzero(cols == param_idx)
    if col.size == 0:
        return np.zeros(samples)
    shifted = np.vstack([thetas[:, cols]] * 2)
    shifted[:samples, col] += np.pi / 2
    shifted[samples:, col] -= np.pi / 2
    e = _cost_batch(cone, shifted, cost)
    return (e[:samples] - e[samples:]) / 2.0


def variance_stderr(grads: np.ndarray) -> float:
    """Standard error of the sample variance (moment-based estimate)."""
    n = grads.size
    s2 = np.var(grads, ddof=1)
    m4 = np.mean((grads - grads.mean()) ** 4)
    var_of_var = (m4 - s2 ** 2 * (n - 3) / (n - 1)) / n
    return float(np.sqrt(max(var_of_var, 0.0)))


@dataclass
class GradientVarianceSweep:
    """Gradient variance versus qubit count at fixed kind and depth."""

    kind: AnsatzKind
    n_layers: int
    qubit_range: list[int]
    samples_per_point: int
    variances: list[float] = field(default_factory=list)
    stderrs: list[float] = field(default_factory=list)
    fitted_slope: float | None = None

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.qubit_range, self.qubit_range[1:])):
            raise ValueError("qubit_range must be strictly increasing")


def run_gv_sweep(kind: AnsatzKind, n_layers: int, qubit_range,
                 samples_per_point: int = 200, seed: int = 0) -> GradientVarianceSweep:
    sweep = GradientVarianceSweep(kind, n_layers, list(qubit_range),
                                  samples_per_point)
    for i, n in enumerate(sweep.qubit_range):
        spec = AnsatzSpec(kind, n, n_layers)
        circuit = build_ansatz(spec, np.zeros(param_count(spec)))
        g = first_param_gradient_samples(circuit, samples_per_point, seed + i)
        sweep.variances.append(float(np.var(g, ddof=1)))
        sweep.stderrs.append(variance_stderr(g))
    sweep.fitted_slope = fit_bp_slope(sweep)
    return sweep


def fit_bp_slope(sweep: GradientVarianceSweep) -> float:
    """Least-squares slope of log10(GV) against qubit count."""
    n = np.asarray(sweep.qubit_range, dtype=np.float64)
    if n.size < 3:
        raise ValueError("slope fit needs at least 3 qubit counts")
    if np.ptp(n) == 0:
        raise ValueError("degenerate sweep: constant qubit count")
    gv = np.asarray(sweep.variances, dtype=np.float64)
    if np.any(gv <= 0):
        raise ValueError("gradient variances must be positive for a log fit")
    slope, _ = np.polyfit(n, np.log10(gv), 1)
    return float(slope)


def entanglement_entropy_stats(spec: AnsatzSpec, draws: int, seed: int,
                               partition=None) -> tuple[float, float]:
    """Mean and standard error of EE over random uniform parameter draws."""
    if draws < 2:
        raise ValueError("need at least 2 draws")
    if partition is None:
        partition = half_partition(spec.n_qubits)
    circuit = build_ansatz(spec, np.zeros(param_count(spec)))
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2 * np.pi, size=(draws, circuit.n_params))
    amps = run_circuit_batch(circuit, thetas)
    values = np.array([
        entanglement_entropy(StateVector(spec.n_qubits, amps[i]), partition)
        for i in range(draws)
    ])
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(draws))

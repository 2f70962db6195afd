"""Neural network building blocks on top of the autodiff engine.

Modules hold their parameters as ``Tensor`` objects with
``requires_grad=True`` and recurse through attributes and module lists,
so a model's full parameter list comes out in a deterministic
construction order.  The quantum layer evaluates expectation values
with the statevector simulator and backpropagates through every circuit
angle with one adjoint reverse sweep per batch; the parameter-shift rule
stays in ``diagnostics`` as its oracle and as the GV diagnostic's method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import (
    AnsatzKind,
    AnsatzSpec,
    build_ansatz,
    build_trainable_encoder,
    param_count,
)
from .noise import NoiseModel, readout_marginals, sample_noisy_counts
from .statevector import z_expectations
from .tensor import Tensor, conv2d, group_norm, linear


def trunc_normal(shape, rng: np.random.Generator, std: float = 0.02):
    """Normal(0, std) draws redrawn until they land within two sigma."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def default_groups(channels: int) -> int:
    for g in (8, 4, 2):
        if channels % g == 0:
            return g
    return 1


class Module:
    """Base class: parameter discovery, gradient reset, state export."""

    def named_parameters(self, prefix: str = ""):
        out = []
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((full, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(f"{full}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{full}.{i}."))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def iter_modules(self):
        """This module and every nested submodule, depth-first."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.iter_modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.iter_modules()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """y = x @ W + b with W of shape (in_features, out_features), for a
    2-D (batch, in_features) x."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.weight = Tensor(trunc_normal((in_features, out_features), rng),
                             requires_grad=True)
        self.bias = (Tensor(np.zeros(out_features), requires_grad=True)
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Conv2d(Module):
    """NCHW convolution, square kernel, same-family padding."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, kernel: int = 3, stride: int = 1,
                 padding: int | None = None):
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        if padding is None:
            padding = kernel // 2
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            trunc_normal((out_channels, in_channels, kernel, kernel), rng),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride,
                      padding=self.padding)


class GroupNorm(Module):
    """Normalize over channel groups and all spatial positions."""

    def __init__(self, channels: int, num_groups: int | None = None,
                 eps: float = 1e-5):
        groups = default_groups(channels) if num_groups is None else num_groups
        if channels % groups:
            raise ValueError(
                f"channels ({channels}) not divisible by groups ({groups})")
        self.groups = groups
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return group_norm(x, self.gamma, self.beta, self.groups, self.eps)


class ResBlock(Module):
    """norm -> silu -> conv twice, residual skip, optional time signal.

    The time embedding, when given, is projected and added to the
    feature map between the two convolutions.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, time_dim: int | None = None):
        self.norm1 = GroupNorm(in_channels)
        self.conv1 = Conv2d(in_channels, out_channels, rng)
        self.norm2 = GroupNorm(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, rng)
        self.time_proj = (Linear(time_dim, out_channels, rng)
                          if time_dim else None)
        self.skip = (Conv2d(in_channels, out_channels, rng, kernel=1)
                     if in_channels != out_channels else None)

    def forward(self, x: Tensor, t_emb: Tensor | None = None) -> Tensor:
        h = self.conv1(self.norm1(x).silu())
        if self.time_proj is not None:
            if t_emb is None:
                raise ValueError("block was built with a time projection "
                                 "but no time embedding was given")
            n, c = h.shape[0], h.shape[1]
            h = h + self.time_proj(t_emb.silu()).reshape(n, c, 1, 1)
        h = self.conv2(self.norm2(h).silu())
        return h + (self.skip(x) if self.skip is not None else x)


class Downsample(Module):
    """Halve the spatial resolution with a stride-2 convolution."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv = Conv2d(channels, channels, rng, stride=2)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(x)


class Upsample(Module):
    """Double the spatial resolution: nearest neighbour then a conv."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv = Conv2d(channels, channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        from .tensor import upsample_nearest

        return self.conv(upsample_nearest(x, 2))


class QuantumLayer(Module):
    """Variational circuit as a vector-to-vector trainable layer.

    Input features are mapped to encoder rotation angles, the encoder
    and the chosen ansatz run on the simulator, and the per-qubit <Z>
    values are mapped back out.  During training the expectations are
    exact and every circuit angle (encoder and ansatz) receives an exact
    adjoint gradient, which equals the parameter-shift one.  The output
    map starts at zero so a fresh layer is an identity perturbation when
    used additively.  With ``sampling`` set (see ``set_sampling``) the
    layer runs shot-based instead of exact (inference only).
    """

    def __init__(self, in_features: int, out_features: int,
                 spec: AnsatzSpec, rng: np.random.Generator):
        self.spec = spec
        n = spec.n_qubits
        self.n_qubits = n
        encoder = build_trainable_encoder(n)
        ansatz = build_ansatz(spec, np.zeros(param_count(spec)))
        self._template = encoder.extended(ansatz)
        self.pre_map = Linear(in_features, n, rng)
        self.theta = Tensor(rng.uniform(0.0, 2 * np.pi, param_count(spec)),
                            requires_grad=True)
        self.post_map = Linear(n, out_features, rng)
        self.post_map.weight = Tensor(
            np.zeros_like(self.post_map.weight.data), requires_grad=True)
        self.sampling: SamplingSettings | None = None

    def circuit_expectations(self, angles: Tensor) -> Tensor:
        """Exact per-qubit <Z> for a batch of encoder angle rows."""
        theta = self.theta
        z, vjp = z_expectations(self._template, angles.data, shared=theta.data)

        def backward():
            dangles, dtheta = vjp(out.grad)
            if angles.requires_grad:
                angles._accumulate(dangles)
            if theta.requires_grad:
                theta._accumulate(dtheta)

        out = Tensor._from_op(z, (angles, theta), backward)
        return out

    def forward(self, x: Tensor) -> Tensor:
        s = self.sampling
        if s is not None:
            if x.requires_grad:
                raise ValueError("a sampled quantum layer is inference only; "
                                 "run the model under no_grad()")
            return self.forward_sampled(x, s.shots, s.noise, s.next_seed(),
                                        s.mitigate)
        return self.post_map(self.circuit_expectations(self.pre_map(x)))

    def forward_sampled(self, x: Tensor, shots: int, noise: NoiseModel,
                        seed: int, mitigate: bool = False) -> Tensor:
        """Shot-based evaluation pass under a device noise model.

        All rows and their noise trajectories run as one batch from one
        ``default_rng(seed)``, so a one-row call draws exactly what
        ``sample_noisy`` draws for that seed.  ``readout_marginals`` of the
        integer shot counts give <Z>, mitigated if ``mitigate`` is set.
        Inference only: the result carries no gradient graph.
        """
        counts = sample_noisy_counts(self._template, self.pre_map(x).data,
                                     noise, shots, np.random.default_rng(seed),
                                     shared=self.theta.data)
        outs = 1 - 2 * readout_marginals(
            counts, noise.readout_alpha if mitigate else 0.0)
        return self.post_map(Tensor(outs)).detach()


class SamplingSettings:
    """Shot-based inference knobs for quantum layers.

    Each circuit evaluation draws a fresh deterministic seed from the
    base seed, so a configured model run is reproducible end to end.
    """

    def __init__(self, shots: int, noise: NoiseModel, seed: int = 0,
                 mitigate: bool = False):
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        self.shots = shots
        self.noise = noise
        self.mitigate = mitigate
        self._seed = seed

    def next_seed(self) -> int:
        self._seed += 9973
        return self._seed


def set_sampling(model: Module, settings: SamplingSettings | None):
    """Switch every quantum layer to shot-based inference (or back).

    The layers share ``settings``, so each call draws the next seed in
    forward order.
    """
    for module in model.iter_modules():
        if isinstance(module, QuantumLayer):
            module.sampling = settings


class QResBlock(ResBlock):
    """Residual block with a quantum channel-mixing correction.

    After the convolutional path, the feature map is globally average
    pooled to a channel vector, sent through two quantum layers in
    sequence, and the result is broadcast-added back.  Because each
    quantum layer's output map starts at zero, a fresh block behaves
    exactly like its classical counterpart.  The quantum layers draw
    their weights from ``q_rng``, by default ``rng`` itself.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, spec: AnsatzSpec,
                 time_dim: int | None = None,
                 q_rng: np.random.Generator | None = None):
        super().__init__(in_channels, out_channels, rng, time_dim)
        q_rng = rng if q_rng is None else q_rng
        self.qmix1 = QuantumLayer(out_channels, out_channels, spec, q_rng)
        self.qmix2 = QuantumLayer(out_channels, out_channels, spec, q_rng)

    def forward(self, x, t_emb=None):
        h = super().forward(x, t_emb)
        n, c = h.shape[0], h.shape[1]
        mixed = self.qmix2(self.qmix1(h.mean(axis=(2, 3))))
        return h + mixed.reshape(n, c, 1, 1)


@dataclass(frozen=True)
class ModelConfig:
    """Settings the VAE and the UNet share, and their one block choice.

    ``quantum`` swaps each residual block that ``res_block`` builds for a
    ``QResBlock`` whose circuits follow ``ansatz_spec()``; nothing else
    in a model depends on it.
    """

    latent_channels: int = 4
    base_channels: int = 32
    quantum: bool = False
    q_qubits: int = 4
    q_layers: int = 2
    q_kind: AnsatzKind = AnsatzKind.ESE2

    def __post_init__(self):
        # a config rebuilt from JSON carries the kind as its string value
        object.__setattr__(self, "q_kind", AnsatzKind(self.q_kind))
        if self.base_channels < 4 or self.base_channels % 4:
            raise ValueError("base_channels must be a multiple of 4, >= 4")
        if self.quantum:
            self.ansatz_spec()  # refuse a circuit the blocks cannot build

    def ansatz_spec(self) -> AnsatzSpec:
        return AnsatzSpec(self.q_kind, self.q_qubits, self.q_layers)

    def res_block(self, in_channels: int, out_channels: int,
                  rng: np.random.Generator, q_rng: np.random.Generator,
                  time_dim: int | None = None) -> ResBlock:
        """A residual block drawing its convolutions from ``rng`` and, when
        ``quantum`` is set, its quantum layers from ``q_rng``."""
        if self.quantum:
            return QResBlock(in_channels, out_channels, rng,
                             self.ansatz_spec(), time_dim, q_rng)
        return ResBlock(in_channels, out_channels, rng, time_dim)


def init_streams(seed: int) -> tuple[np.random.Generator,
                                     np.random.Generator]:
    """(classical, quantum) weight streams for a model built at ``seed``.

    Quantum layers draw from a child stream of the seed, so a quantum
    model starts from exactly the classical weights of its classical
    twin at the same seed, and the two variants differ only in their
    circuits.
    """
    return (np.random.default_rng(seed),
            np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]))


class CDCNNLayer(Module):
    """Classical stand-in sized against the quantum layer.

    Two bias-free dense layers around a SiLU: width nodes^2 in, 2 nodes^2
    hidden, nodes^2 out, which is exactly 4 nodes^4 weights.
    """

    def __init__(self, nodes: int, rng: np.random.Generator):
        self.nodes = nodes
        width = nodes * nodes
        self.fc1 = Linear(width, 2 * width, rng, bias=False)
        self.fc2 = Linear(2 * width, width, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).silu())

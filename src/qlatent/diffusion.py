"""Latent denoising diffusion: schedule, conditional UNet, sampling.

The diffusion process runs in the VAE's latent space.  Noise levels
follow a linear beta schedule; training regresses the injected noise
with an MSE loss; generation uses strided ancestral sampling so a
1000-step schedule can be traversed in around 100 network calls.
Every residual block can be swapped for its quantum-corrected variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    Conv2d,
    Downsample,
    GroupNorm,
    ModelConfig,
    Module,
    Upsample,
    init_streams,
)
from .tensor import Tensor, concat, no_grad


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule with cached cumulative products."""

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def timesteps(self) -> int:
        return self.betas.size


def build_schedule(timesteps: int = 1000, beta_start: float = 1e-4,
                   beta_end: float = 0.02) -> DiffusionSchedule:
    if timesteps < 2:
        raise ValueError(f"need at least 2 timesteps, got {timesteps}")
    if not 0 < beta_start <= beta_end < 1:
        raise ValueError(
            f"betas must satisfy 0 < start <= end < 1, got "
            f"({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, timesteps)
    alphas = 1.0 - betas
    return DiffusionSchedule(betas, alphas, np.cumprod(alphas))


def forward_diffuse(x0: np.ndarray, t: np.ndarray, noise: np.ndarray,
                    schedule: DiffusionSchedule) -> np.ndarray:
    """Closed-form noising: sqrt(abar_t) x0 + sqrt(1 - abar_t) noise."""
    t = np.asarray(t)
    if np.any(t < 0) or np.any(t >= schedule.timesteps):
        raise ValueError("timestep out of schedule range")
    if noise.shape != x0.shape:
        raise ValueError("noise must match x0's shape")
    abar = schedule.alpha_bars[t].reshape(-1, *([1] * (x0.ndim - 1)))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


def sinusoidal_time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Transformer-style sin/cos features of integer timesteps."""
    if dim < 2 or dim % 2:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    args = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


@dataclass(frozen=True)
class UNetConfig(ModelConfig):
    latent_size: int = 8
    time_dim: int = 64
    num_classes: int = 3

    def __post_init__(self):
        super().__post_init__()
        if self.latent_size < 4 or self.latent_size & (self.latent_size - 1):
            raise ValueError("latent_size must be a power of two, >= 4")
        if self.time_dim % 2:
            raise ValueError("time_dim must be even")


class _DownStage(Module):
    def __init__(self, in_ch, out_ch, rng, block, with_down):
        self.res = block(in_ch, out_ch)
        self.down = Downsample(out_ch, rng) if with_down else None


class _UpStage(Module):
    def __init__(self, in_ch, out_ch, rng, block, with_up, up_ch):
        self.up = Upsample(up_ch, rng) if with_up else None
        self.res = block(in_ch, out_ch)


class UNet(Module):
    """Class-conditional noise predictor over latent maps.

    Five stages down, two in the middle, five up with concatenated
    skips.  Spatial halving happens only while the map is larger than
    2x2, so at the 8x8 latent scale the path runs 8 -> 4 -> 2.  The
    label embedding is added right after the stem convolution; every
    block receives the sinusoidal time embedding.
    """

    N_STAGES = 5

    def __init__(self, config: UNetConfig, seed: int = 0):
        rng, q_rng = init_streams(seed)
        self.config = config
        c = config.base_channels

        def block(in_ch, out_ch):
            return config.res_block(in_ch, out_ch, rng, q_rng,
                                    config.time_dim)

        mults = (1, 1, 2, 2, 4)
        chans = [c * m for m in mults]

        self.stem = Conv2d(config.latent_channels, c, rng)
        self.label_embedding = Tensor(
            rng.normal(0.0, 0.02, (config.num_classes, c)),
            requires_grad=True)

        down_flags = []
        size = config.latent_size
        for _ in range(self.N_STAGES):
            down_flags.append(size > 2)
            if size > 2:
                size //= 2

        self.down_stages = []
        in_ch = c
        skip_chans = []
        for out_ch, flag in zip(chans, down_flags):
            self.down_stages.append(
                _DownStage(in_ch, out_ch, rng, block, flag))
            skip_chans.append(out_ch)
            in_ch = out_ch

        self.mid1 = block(in_ch, in_ch)
        self.mid2 = block(in_ch, in_ch)

        self.up_stages = []
        up_chans = [c * m for m in (4, 2, 2, 1, 1)]
        for i, out_ch in enumerate(up_chans):
            skip_ch = skip_chans[self.N_STAGES - 1 - i]
            with_up = down_flags[self.N_STAGES - 1 - i]
            self.up_stages.append(
                _UpStage(in_ch + skip_ch, out_ch, rng, block, with_up,
                         in_ch))
            in_ch = out_ch

        self.out_norm = GroupNorm(in_ch)
        self.out_conv = Conv2d(in_ch, config.latent_channels, rng)

    def forward(self, z_t: Tensor, t: np.ndarray,
                labels: np.ndarray) -> Tensor:
        labels = np.asarray(labels)
        if np.any(labels < 0) or np.any(labels >= self.config.num_classes):
            raise ValueError("label outside the configured class count")
        t_emb = Tensor(sinusoidal_time_embedding(t, self.config.time_dim))
        one_hot = np.zeros((labels.size, self.config.num_classes))
        one_hot[np.arange(labels.size), labels] = 1.0

        h = self.stem(z_t)
        emb = Tensor(one_hot) @ self.label_embedding
        h = h + emb.reshape(labels.size, -1, 1, 1)

        skips = []
        for stage in self.down_stages:
            h = stage.res(h, t_emb)
            skips.append(h)
            if stage.down is not None:
                h = stage.down(h)
        h = self.mid1(h, t_emb)
        h = self.mid2(h, t_emb)
        for stage in self.up_stages:
            if stage.up is not None:
                h = stage.up(h)
            h = stage.res(concat([h, skips.pop()], axis=1), t_emb)
        return self.out_conv(self.out_norm(h).silu())


def _as_plain_array(latents) -> np.ndarray:
    if isinstance(latents, Tensor):
        if latents.requires_grad:
            raise ValueError(
                "latents still carry a gradient graph; encode with a "
                "frozen autoencoder or detach them first")
        return latents.data
    return np.asarray(latents, dtype=np.float64)


def latent_scale(latents) -> float:
    """1/std over the whole latent set, so scaled latents have unit std."""
    arr = _as_plain_array(latents)
    std = float(arr.std())
    if std < 1e-8:
        raise ValueError("latents are degenerate (near-zero spread)")
    return 1.0 / std


def ddpm_train_step(model: UNet, optimizer, latents, labels: np.ndarray,
                    schedule: DiffusionSchedule,
                    rng: np.random.Generator) -> float:
    """One noise-regression step on a batch of scaled latents."""
    x0 = _as_plain_array(latents)
    t = rng.integers(0, schedule.timesteps, size=x0.shape[0])
    noise = rng.standard_normal(x0.shape)
    x_t = forward_diffuse(x0, t, noise, schedule)
    pred = model(Tensor(x_t), t, labels)
    loss = ((pred - Tensor(noise)) ** 2).mean()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return loss.item()


def zero_prediction_baseline(latents, schedule: DiffusionSchedule,
                             rng: np.random.Generator,
                             draws: int = 16) -> float:
    """Loss of the constant zero noise predictor on the same batch law."""
    x0 = _as_plain_array(latents)
    total = 0.0
    for _ in range(draws):
        noise = rng.standard_normal(x0.shape)
        total += float((noise ** 2).mean())
    return total / draws


@no_grad()
def sample_latents(model: UNet, schedule: DiffusionSchedule, n: int,
                   labels: np.ndarray, rng: np.random.Generator,
                   steps: int = 100) -> np.ndarray:
    """Strided ancestral sampling from pure noise to latents.

    Visits ``steps`` schedule points; between consecutive points it
    takes the ancestral (eta = 1) update built from the predicted clean
    latent, injecting fresh noise except on the final jump.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 sampling steps, got {steps}")
    steps = min(steps, schedule.timesteps)
    cfg = model.config
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},)")
    ts = np.unique(np.linspace(0, schedule.timesteps - 1, steps)
                   .round().astype(int))[::-1]
    x = rng.standard_normal(
        (n, cfg.latent_channels, cfg.latent_size, cfg.latent_size))
    for i, t in enumerate(ts):
        t_prev = int(ts[i + 1]) if i + 1 < ts.size else -1
        abar_t = schedule.alpha_bars[t]
        abar_p = 1.0 if t_prev < 0 else schedule.alpha_bars[t_prev]
        eps = model(Tensor(x), np.full(n, t), labels).data
        x0_hat = (x - np.sqrt(1.0 - abar_t) * eps) / np.sqrt(abar_t)
        if t_prev < 0:
            x = x0_hat
            break
        var = ((1.0 - abar_p) / (1.0 - abar_t)
               * (1.0 - abar_t / abar_p))
        var = max(float(var), 0.0)
        dir_coeff = np.sqrt(max(1.0 - abar_p - var, 0.0))
        x = (np.sqrt(abar_p) * x0_hat + dir_coeff * eps
             + np.sqrt(var) * rng.standard_normal(x.shape))
    return x


@no_grad()
def generate_images(vae, unet: UNet, schedule: DiffusionSchedule, n: int,
                    labels: np.ndarray, rng: np.random.Generator,
                    scale: float, steps: int = 100,
                    batch_size: int = 16) -> np.ndarray:
    """Sample latents, undo the scaling, decode to images in [0, 1]."""
    outs = []
    labels = np.asarray(labels)
    for lo in range(0, n, batch_size):
        count = min(batch_size, n - lo)
        z = sample_latents(unet, schedule, count, labels[lo:lo + count],
                           rng, steps=steps)
        outs.append(vae.decode(Tensor(z / scale)).data)
    return np.concatenate(outs, axis=0)

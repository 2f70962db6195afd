"""Convolutional variational autoencoder over 64x64 RGB images.

The encoder maps an image to a Gaussian over an 8x-downsampled latent
(4 channels at 1/8 resolution), the decoder maps latents back to
pixels.  The training loss is L1 plus a structural-similarity term plus
a lightly weighted KL.  Setting ``quantum=True`` swaps the first
encoder block for a quantum-corrected residual block; the rest of the
model is unchanged.
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
    ResBlock,
    Upsample,
    init_streams,
)
from .metrics import windowed_ssim
from .optim import Adam
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class VAEConfig(ModelConfig):
    image_size: int = 64
    in_channels: int = 3
    kl_weight: float = 1e-6
    ssim_weight: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.image_size % 8:
            raise ValueError("image_size must be divisible by 8")
        if self.kl_weight < 0 or self.ssim_weight < 0:
            raise ValueError("loss weights must be >= 0")

    @property
    def latent_size(self) -> int:
        return self.image_size // 8


class VAE(Module):
    """Encoder/decoder pair; construction is deterministic in the seed."""

    def __init__(self, config: VAEConfig, seed: int = 0):
        rng, q_rng = init_streams(seed)
        self.config = config
        c, c2 = config.base_channels, 2 * config.base_channels

        self.enc_stem = Conv2d(config.in_channels, c, rng)
        self.enc_block1 = config.res_block(c, c, rng, q_rng)
        self.enc_down1 = Downsample(c, rng)
        self.enc_block2 = ResBlock(c, c2, rng)
        self.enc_down2 = Downsample(c2, rng)
        self.enc_block3 = ResBlock(c2, c2, rng)
        self.enc_down3 = Downsample(c2, rng)
        self.enc_norm = GroupNorm(c2)
        self.enc_mu = Conv2d(c2, config.latent_channels, rng, kernel=1)
        self.enc_logvar = Conv2d(c2, config.latent_channels, rng, kernel=1)

        self.dec_stem = Conv2d(config.latent_channels, c2, rng)
        self.dec_block1 = ResBlock(c2, c2, rng)
        self.dec_up1 = Upsample(c2, rng)
        self.dec_block2 = ResBlock(c2, c, rng)
        self.dec_up2 = Upsample(c, rng)
        self.dec_block3 = ResBlock(c, c, rng)
        self.dec_up3 = Upsample(c, rng)
        self.dec_norm = GroupNorm(c)
        self.dec_out = Conv2d(c, config.in_channels, rng)

    def encode(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.enc_stem(x)
        h = self.enc_block1(h)
        h = self.enc_down1(h)
        h = self.enc_block2(h)
        h = self.enc_down2(h)
        h = self.enc_block3(h)
        h = self.enc_down3(h)
        h = self.enc_norm(h).silu()
        return self.enc_mu(h), self.enc_logvar(h)

    def decode(self, z: Tensor) -> Tensor:
        h = self.dec_stem(z)
        h = self.dec_block1(h)
        h = self.dec_up1(h)
        h = self.dec_block2(h)
        h = self.dec_up2(h)
        h = self.dec_block3(h)
        h = self.dec_up3(h)
        h = self.dec_norm(h).silu()
        return self.dec_out(h).sigmoid()

    @staticmethod
    def reparameterize(mu: Tensor, logvar: Tensor,
                       rng: np.random.Generator) -> Tensor:
        eps = Tensor(rng.standard_normal(mu.shape))
        return mu + (logvar * 0.5).exp() * eps

    def forward(self, x: Tensor, rng: np.random.Generator):
        mu, logvar = self.encode(x)
        z = self.reparameterize(mu, logvar, rng)
        return self.decode(z), mu, logvar


def vae_loss(recon: Tensor, x: Tensor, mu: Tensor, logvar: Tensor,
             config: VAEConfig) -> tuple[Tensor, dict]:
    """Total loss and a float breakdown of its parts."""
    l1 = (recon - x).abs().mean()
    ssim_val = windowed_ssim(recon, x)
    ssim_term = 1.0 - ssim_val
    # KL(q || N(0, I)) summed over latent dims, averaged over the batch
    kl_map = (mu * mu + logvar.exp() - logvar - 1.0) * 0.5
    kl = kl_map.sum(axis=(1, 2, 3)).mean()
    total = l1 + config.ssim_weight * ssim_term + config.kl_weight * kl
    parts = {
        "l1": l1.item(),
        "ssim": ssim_val.item(),
        "kl": kl.item(),
        "total": total.item(),
    }
    return total, parts


def vae_train_step(model: VAE, optimizer: Adam, batch: np.ndarray,
                   rng: np.random.Generator) -> dict:
    """One optimization step on a (N, C, H, W) image batch in [0, 1]."""
    x = Tensor(batch)
    recon, mu, logvar = model(x, rng)
    loss, parts = vae_loss(recon, x, mu, logvar, model.config)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return parts


@no_grad()
def encode_dataset(model: VAE, images: np.ndarray,
                   batch_size: int = 16) -> np.ndarray:
    """Posterior means for every image, as plain (N, C, h, w) numpy."""
    outs = []
    for lo in range(0, images.shape[0], batch_size):
        mu, _ = model.encode(Tensor(images[lo:lo + batch_size]))
        outs.append(mu.data)
    return np.concatenate(outs, axis=0)

import numpy as np
import pytest

from oracles import record_graph_nodes
from qlatent.diffusion import (
    UNet,
    UNetConfig,
    build_schedule,
    ddpm_train_step,
    forward_diffuse,
    generate_images,
    latent_scale,
    sample_latents,
    sinusoidal_time_embedding,
    zero_prediction_baseline,
)
from qlatent.layers import QResBlock
from qlatent.optim import Adam
from qlatent.tensor import Tensor


def test_schedule_values():
    sched = build_schedule()
    assert sched.timesteps == 1000
    assert abs(sched.betas[0] - 1e-4) < 1e-12
    assert abs(sched.betas[-1] - 0.02) < 1e-12
    np.testing.assert_allclose(np.diff(sched.betas),
                               sched.betas[1] - sched.betas[0])
    np.testing.assert_allclose(sched.alphas, 1 - sched.betas)
    np.testing.assert_allclose(sched.alpha_bars,
                               np.cumprod(1 - sched.betas))
    assert np.all(np.diff(sched.alpha_bars) < 0)
    # by the last step almost no signal is left
    assert sched.alpha_bars[-1] < 1e-4


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(timesteps=1)
    with pytest.raises(ValueError):
        build_schedule(beta_start=0.0)
    with pytest.raises(ValueError):
        build_schedule(beta_start=0.03, beta_end=0.02)


def test_forward_diffuse_closed_form():
    sched = build_schedule(timesteps=100)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 2, 4, 4))
    noise = rng.normal(size=x0.shape)
    t = np.array([0, 50, 99])
    got = forward_diffuse(x0, t, noise, sched)
    for i, ti in enumerate(t):
        abar = sched.alpha_bars[ti]
        want = np.sqrt(abar) * x0[i] + np.sqrt(1 - abar) * noise[i]
        np.testing.assert_allclose(got[i], want, atol=1e-12)


def test_forward_diffuse_monte_carlo_moments():
    sched = build_schedule()
    rng = np.random.default_rng(1)
    x0 = np.full((1, 1, 2, 2), 0.8)
    t = np.array([600])
    draws = np.stack([
        forward_diffuse(x0, t, rng.standard_normal(x0.shape), sched)
        for _ in range(4000)])
    abar = sched.alpha_bars[600]
    assert abs(draws.mean() - np.sqrt(abar) * 0.8) < 0.02
    assert abs(draws.var() - (1 - abar)) < 0.05 * (1 - abar) + 0.02


def test_forward_diffuse_validation():
    sched = build_schedule(timesteps=10)
    x0 = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError):
        forward_diffuse(x0, np.array([10]), np.zeros_like(x0), sched)
    with pytest.raises(ValueError):
        forward_diffuse(x0, np.array([0]), np.zeros((1, 1, 2, 3)), sched)


def test_sinusoidal_embedding():
    emb = sinusoidal_time_embedding(np.array([0, 1, 7]), 8)
    assert emb.shape == (3, 8)
    np.testing.assert_allclose(emb[0, :4], 0.0, atol=1e-12)
    np.testing.assert_allclose(emb[0, 4:], 1.0, atol=1e-12)
    # the first frequency is exactly 1
    assert abs(emb[1, 0] - np.sin(1.0)) < 1e-12
    assert abs(emb[1, 4] - np.cos(1.0)) < 1e-12
    assert not np.allclose(emb[1], emb[2])
    with pytest.raises(ValueError):
        sinusoidal_time_embedding(np.array([0]), 7)


def test_unet_config_validation():
    with pytest.raises(ValueError):
        UNetConfig(latent_size=6)
    with pytest.raises(ValueError):
        UNetConfig(base_channels=10)
    with pytest.raises(ValueError):
        UNetConfig(time_dim=5)


def _tiny_unet(quantum=False, seed=0):
    cfg = UNetConfig(latent_channels=2, latent_size=4, base_channels=8,
                     time_dim=16, quantum=quantum, q_qubits=2, q_layers=1)
    return UNet(cfg, seed=seed), cfg


def test_unet_forward_shape_and_determinism():
    model, cfg = _tiny_unet()
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 2, 4, 4))
    t = np.array([0, 10, 999 % 50])
    labels = np.array([0, 1, 2])
    out1 = model(Tensor(z), t, labels).data
    assert out1.shape == (3, 2, 4, 4)
    out2 = model(Tensor(z), t, labels).data
    np.testing.assert_array_equal(out1, out2)
    twin, _ = _tiny_unet(seed=0)
    np.testing.assert_array_equal(twin(Tensor(z), t, labels).data, out1)


def test_unet_conditioning_matters():
    model, _ = _tiny_unet()
    rng = np.random.default_rng(3)
    z = rng.normal(size=(1, 2, 4, 4))
    base = model(Tensor(z), np.array([5]), np.array([0])).data
    other_label = model(Tensor(z), np.array([5]), np.array([2])).data
    other_time = model(Tensor(z), np.array([40]), np.array([0])).data
    assert np.abs(base - other_label).max() > 1e-8
    assert np.abs(base - other_time).max() > 1e-8
    with pytest.raises(ValueError):
        model(Tensor(z), np.array([5]), np.array([3]))


def test_unet_quantum_blocks_everywhere():
    model, _ = _tiny_unet(quantum=True)
    for stage in model.down_stages:
        assert isinstance(stage.res, QResBlock)
    assert isinstance(model.mid1, QResBlock)
    assert isinstance(model.mid2, QResBlock)
    for stage in model.up_stages:
        assert isinstance(stage.res, QResBlock)
    rng = np.random.default_rng(4)
    out = model(Tensor(rng.normal(size=(2, 2, 4, 4))),
                np.array([1, 2]), np.array([0, 1])).data
    assert out.shape == (2, 2, 4, 4)
    assert np.all(np.isfinite(out))


def test_latent_scale():
    rng = np.random.default_rng(5)
    lat = rng.normal(0, 2.5, size=(10, 2, 4, 4))
    s = latent_scale(lat)
    assert abs((lat * s).std() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        latent_scale(np.zeros((4, 2, 2, 2)))


def test_train_step_rejects_latents_with_graph():
    model, cfg = _tiny_unet()
    sched = build_schedule(timesteps=50)
    opt = Adam(model.parameters())
    latents = Tensor(np.zeros((2, 2, 4, 4)), requires_grad=True)
    with pytest.raises(ValueError):
        ddpm_train_step(model, opt, latents, np.array([0, 1]), sched,
                        np.random.default_rng(0))
    detached = latents.detach()
    loss = ddpm_train_step(model, opt, detached, np.array([0, 1]), sched,
                           np.random.default_rng(0))
    assert np.isfinite(loss)


def test_training_beats_zero_baseline():
    model, cfg = _tiny_unet()
    sched = build_schedule(timesteps=50)
    opt = Adam(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(6)
    latents = rng.normal(size=(8, 2, 4, 4))
    labels = np.arange(8) % 3
    baseline = zero_prediction_baseline(latents, sched,
                                        np.random.default_rng(0))
    assert abs(baseline - 1.0) < 0.1
    losses = [ddpm_train_step(model, opt, latents, labels, sched, rng)
              for _ in range(150)]
    assert np.mean(losses[-20:]) < 0.9 * baseline


def test_quantum_train_step_runs():
    model, cfg = _tiny_unet(quantum=True)
    sched = build_schedule(timesteps=20)
    opt = Adam(model.parameters())
    rng = np.random.default_rng(7)
    latents = rng.normal(size=(2, 2, 4, 4))
    loss = ddpm_train_step(model, opt, latents, np.array([0, 2]), sched, rng)
    assert np.isfinite(loss)


def test_sample_latents_shapes_and_determinism():
    model, cfg = _tiny_unet()
    sched = build_schedule(timesteps=50)
    labels = np.array([0, 1])
    a = sample_latents(model, sched, 2, labels,
                       np.random.default_rng(8), steps=10)
    b = sample_latents(model, sched, 2, labels,
                       np.random.default_rng(8), steps=10)
    assert a.shape == (2, 2, 4, 4)
    assert np.all(np.isfinite(a))
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        sample_latents(model, sched, 2, labels,
                       np.random.default_rng(0), steps=1)
    with pytest.raises(ValueError):
        sample_latents(model, sched, 3, labels, np.random.default_rng(0))


def test_sample_latents_full_schedule():
    model, cfg = _tiny_unet()
    sched = build_schedule(timesteps=12)
    out = sample_latents(model, sched, 1, np.array([1]),
                         np.random.default_rng(9), steps=500)
    assert np.all(np.isfinite(out))


def test_generate_images_roundtrip():
    from qlatent.vae import VAE, VAEConfig

    with pytest.raises(ValueError):
        UNetConfig(latent_size=2)  # too small for the stage plan
    cfg = UNetConfig(latent_channels=2, latent_size=4, base_channels=8,
                     time_dim=16)
    unet = UNet(cfg, seed=1)
    sched = build_schedule(timesteps=20)
    rng = np.random.default_rng(10)
    # a 32px autoencoder pairs with the 4x4 latent geometry
    vae32 = VAE(VAEConfig(image_size=32, base_channels=8,
                          latent_channels=2), seed=0)
    imgs = generate_images(vae32, unet, sched, 3, np.array([0, 1, 2]),
                           rng, scale=1.0, steps=5, batch_size=2)
    assert imgs.shape == (3, 3, 32, 32)
    assert imgs.min() >= 0 and imgs.max() <= 1


def test_inference_entry_points_record_no_graph(monkeypatch):
    from qlatent.vae import VAE, VAEConfig, encode_dataset

    unet = UNet(UNetConfig(latent_channels=2, latent_size=4,
                           base_channels=8, time_dim=16), seed=1)
    vae32 = VAE(VAEConfig(image_size=32, base_channels=8,
                          latent_channels=2), seed=0)
    sched = build_schedule(timesteps=20)
    recorded = record_graph_nodes(monkeypatch)
    sample_latents(unet, sched, 1, np.array([0]), np.random.default_rng(11),
                   steps=2)
    generate_images(vae32, unet, sched, 1, np.array([1]),
                    np.random.default_rng(12), scale=1.0, steps=2)
    encode_dataset(vae32, np.random.default_rng(13).uniform(
        0, 1, (2, 3, 32, 32)))
    assert recorded and not any(recorded)

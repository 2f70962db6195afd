import numpy as np
import pytest

from oracles import check_grads, record_graph_nodes, windowed_ssim_oracle
from qlatent.layers import QResBlock, ResBlock, SamplingSettings, set_sampling
from qlatent.metrics import windowed_ssim
from qlatent.noise import NoiseModel
from qlatent.optim import Adam
from qlatent.tensor import Tensor
from qlatent.vae import (
    VAE,
    VAEConfig,
    encode_dataset,
    vae_loss,
    vae_train_step,
)


def test_config_validation():
    with pytest.raises(ValueError):
        VAEConfig(image_size=60)
    with pytest.raises(ValueError):
        VAEConfig(base_channels=6)
    with pytest.raises(ValueError):
        VAEConfig(kl_weight=-1.0)
    assert VAEConfig().latent_size == 8
    assert VAEConfig(image_size=16).latent_size == 2


def test_encode_decode_shapes():
    cfg = VAEConfig(image_size=16, base_channels=8)
    model = VAE(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 3, 16, 16)))
    mu, logvar = model.encode(x)
    assert mu.shape == (2, 4, 2, 2)
    assert logvar.shape == (2, 4, 2, 2)
    recon = model.decode(mu)
    assert recon.shape == (2, 3, 16, 16)
    assert recon.data.min() >= 0.0
    assert recon.data.max() <= 1.0


def test_construction_deterministic_in_seed():
    cfg = VAEConfig(image_size=16, base_channels=8)
    a = VAE(cfg, seed=3)
    b = VAE(cfg, seed=3)
    c = VAE(cfg, seed=4)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    diffs = [np.abs(pa.data - pc.data).max()
             for (_, pa), (_, pc) in zip(a.named_parameters(),
                                         c.named_parameters())]
    assert max(diffs) > 0


def test_quantum_flag_swaps_first_encoder_block_only():
    cfg = VAEConfig(image_size=16, base_channels=8, quantum=True,
                    q_qubits=3, q_layers=1)
    model = VAE(cfg, seed=0)
    assert isinstance(model.enc_block1, QResBlock)
    assert type(model.enc_block2) is ResBlock
    assert type(model.dec_block1) is ResBlock
    classical = VAE(VAEConfig(image_size=16, base_channels=8), seed=0)
    assert model.parameter_count() > classical.parameter_count()


def test_reparameterize_statistics():
    rng = np.random.default_rng(0)
    mu = Tensor(np.full((2000, 3), 1.5))
    logvar = Tensor(np.full((2000, 3), np.log(0.25)))
    z = VAE.reparameterize(mu, logvar, rng)
    assert abs(z.data.mean() - 1.5) < 0.05
    assert abs(z.data.std() - 0.5) < 0.05


def _reference_ssim(x, y, window=8, stride=4, data_range=1.0):
    """Loop-based SSIM over windows, written independently."""
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    n, c, h, w = x.shape
    vals = []
    for b in range(n):
        for ch in range(c):
            for i in range(0, h - window + 1, stride):
                for j in range(0, w - window + 1, stride):
                    px = x[b, ch, i:i + window, j:j + window]
                    py = y[b, ch, i:i + window, j:j + window]
                    mx, my = px.mean(), py.mean()
                    vx, vy = px.var(), py.var()
                    cov = ((px - mx) * (py - my)).mean()
                    vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                                / ((mx ** 2 + my ** 2 + c1)
                                   * (vx + vy + c2)))
    return float(np.mean(vals))


def test_windowed_ssim_matches_reference():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (2, 3, 16, 16))
    y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    got = windowed_ssim(Tensor(x), Tensor(y)).item()
    want = _reference_ssim(x, y)
    assert abs(got - want) < 1e-10


def test_windowed_ssim_bounds_and_symmetry():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (1, 3, 16, 16))
    y = rng.uniform(0, 1, (1, 3, 16, 16))
    assert abs(windowed_ssim(Tensor(x), Tensor(x)).item() - 1.0) < 1e-12
    ab = windowed_ssim(Tensor(x), Tensor(y)).item()
    ba = windowed_ssim(Tensor(y), Tensor(x)).item()
    assert abs(ab - ba) < 1e-12
    assert ab < 1.0
    with pytest.raises(ValueError):
        windowed_ssim(Tensor(x), Tensor(y[:, :, :8, :]))
    with pytest.raises(ValueError):
        windowed_ssim(Tensor(x[:, :, :4, :4]), Tensor(y[:, :, :4, :4]))


@pytest.mark.parametrize("shape", [
    (16, 3, 64, 64), (2, 3, 16, 16), (1, 1, 8, 8), (2, 3, 18, 18)],
    ids=["vae-batch", "small", "one-window", "uncovered-edge"])
def test_windowed_ssim_matches_conv_oracle_values_and_gradients(shape):
    # at 18x18 three windows fit a side, so the last 2 rows and columns
    # are in no window and get zero gradient
    rng = np.random.default_rng(11)
    x_data = rng.uniform(0, 1, shape)
    y_data = np.clip(x_data + rng.normal(0, 0.2, shape), 0, 1)
    grads = []
    for fn in (windowed_ssim, windowed_ssim_oracle):
        x = Tensor(x_data, requires_grad=True)
        y = Tensor(y_data, requires_grad=True)
        val = fn(x, y)
        val.backward()
        grads.append((val.item(), x.grad, y.grad))
    (got, gx, gy), (want, wx, wy) = grads
    assert abs(got - want) < 1e-12
    np.testing.assert_allclose(gx, wx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gy, wy, rtol=0, atol=1e-12)
    if shape[-1] == 18:
        assert not gx[..., 16:, :].any() and not gx[..., :, 16:].any()


@pytest.mark.parametrize("window, stride", [(8, 3), (6, 4), (2, 4), (8, 0)])
def test_windowed_ssim_window_must_be_a_multiple_of_stride(window, stride):
    x = Tensor(np.full((1, 1, 16, 16), 0.5))
    with pytest.raises(ValueError, match="multiple of stride"):
        windowed_ssim(x, x, window=window, stride=stride)


def test_windowed_ssim_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(0.2, 0.8, (1, 1, 8, 8)), requires_grad=True)
    y = Tensor(rng.uniform(0.2, 0.8, (1, 1, 8, 8)))
    check_grads(lambda: windowed_ssim(x, y), [x], rtol=1e-3, atol=1e-7)


def test_vae_loss_parts():
    cfg = VAEConfig(image_size=16, base_channels=8, kl_weight=1e-6,
                    ssim_weight=1.0)
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(0, 1, (2, 3, 16, 16)))
    mu = Tensor(np.zeros((2, 4, 2, 2)), requires_grad=True)
    logvar = Tensor(np.zeros((2, 4, 2, 2)), requires_grad=True)
    total, parts = vae_loss(x, x, mu, logvar, cfg)
    # perfect reconstruction and a standard-normal posterior
    assert parts["l1"] == 0.0
    assert abs(parts["ssim"] - 1.0) < 1e-12
    assert parts["kl"] == 0.0
    assert abs(parts["total"]) < 1e-12

    mu2 = Tensor(np.full((2, 4, 2, 2), 0.7))
    lv2 = Tensor(np.full((2, 4, 2, 2), -0.3))
    _, parts2 = vae_loss(x, x, mu2, lv2, cfg)
    want_kl = 16 * 0.5 * (0.7 ** 2 + np.exp(-0.3) + 0.3 - 1.0)
    assert abs(parts2["kl"] - want_kl) < 1e-10


def test_vae_training_reduces_loss():
    cfg = VAEConfig(image_size=16, base_channels=8)
    model = VAE(cfg, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(5)
    batch = rng.uniform(0.2, 0.8, (4, 3, 16, 16))
    losses = [vae_train_step(model, opt, batch, rng)["total"]
              for _ in range(25)]
    assert losses[-1] < losses[0]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_train_step_graph_is_no_larger_than_with_conv_window_means(
        monkeypatch):
    # with SSIM window means as reshape + conv2d nodes, this step made
    # 181 graph nodes
    cfg = VAEConfig(image_size=16, base_channels=8, quantum=True,
                    q_qubits=3, q_layers=1)
    model = VAE(cfg, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(8)
    recorded = record_graph_nodes(monkeypatch)
    vae_train_step(model, opt, rng.uniform(0, 1, (2, 3, 16, 16)), rng)
    assert sum(recorded) <= 181


def test_quantum_vae_trains():
    cfg = VAEConfig(image_size=16, base_channels=8, quantum=True,
                    q_qubits=3, q_layers=1)
    model = VAE(cfg, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(6)
    batch = rng.uniform(0, 1, (2, 3, 16, 16))
    block = model.enc_block1
    theta_before = block.qmix1.theta.data.copy()
    post2_before = block.qmix2.post_map.weight.data.copy()
    parts = vae_train_step(model, opt, batch, rng)
    assert np.isfinite(parts["total"])
    # the zero output maps gate the gradients: the last map moves on the
    # first step, and earlier quantum parameters unlock step by step
    assert np.abs(block.qmix2.post_map.weight.data - post2_before).max() > 0
    for _ in range(3):
        vae_train_step(model, opt, batch, rng)
    assert np.abs(block.qmix1.theta.data - theta_before).max() > 0


def test_sampled_quantum_vae_refuses_a_training_step():
    # sampled layers return detached outputs, so a step would train the
    # classical weights and silently leave every circuit angle untouched
    cfg = VAEConfig(image_size=16, base_channels=8, quantum=True,
                    q_qubits=3, q_layers=1)
    model = VAE(cfg, seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    set_sampling(model, SamplingSettings(100, NoiseModel(trajectories=10)))
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match=r"inference only.*no_grad"):
        vae_train_step(model, opt, rng.uniform(0, 1, (2, 3, 16, 16)), rng)
    assert model.enc_block1.qmix1.theta.grad is None


def test_encode_dataset_batches_consistently():
    cfg = VAEConfig(image_size=16, base_channels=8)
    model = VAE(cfg, seed=0)
    rng = np.random.default_rng(7)
    imgs = rng.uniform(0, 1, (7, 3, 16, 16))
    lat = encode_dataset(model, imgs, batch_size=3)
    assert lat.shape == (7, 4, 2, 2)
    mu, _ = model.encode(Tensor(imgs))
    np.testing.assert_allclose(lat, mu.data, atol=1e-12)

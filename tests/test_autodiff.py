import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import check_grads, numeric_grad, record_graph_nodes
from oracles import naive_conv as _naive_conv
from qlatent import tensor as tensor_module
from qlatent.diffusion import UNet, UNetConfig, build_schedule, ddpm_train_step
from qlatent.metrics import windowed_ssim
from qlatent.optim import Adam
from qlatent.tensor import (
    Tensor,
    concat,
    conv2d,
    group_norm,
    no_grad,
    upsample_nearest,
)
from qlatent.vae import VAE, VAEConfig, vae_train_step


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    check_grads(lambda: (a * b + a + 2.0).sum(), [a, b])


def test_sub_div_pow():
    rng = np.random.default_rng(1)
    a = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
    check_grads(lambda: ((a - b) / b + a ** 3).sum(), [a, b])


def test_matmul_batched():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check_grads(lambda: ((a @ b) ** 2).sum(), [a, b])


def test_pointwise_chain():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(0.1, 1.5, size=(6,)), requires_grad=True)
    check_grads(
        lambda: (a.exp() + a * a.sigmoid() - a.abs()).sum(), [a])


def test_silu():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_grads(lambda: a.silu().sum(), [a])
    s = 1.7 / (1 + np.exp(-1.7))
    assert abs(Tensor([1.7]).silu().data[0] - s) < 1e-12


def test_silu_is_one_node_matching_composition_at_extremes(monkeypatch):
    x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    a = Tensor(x, requires_grad=True)
    b = Tensor(x, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = a.silu()
            want = b * b.sigmoid()
            got.sum().backward()
            want.sum().backward()
    assert np.all(np.isfinite(got.data)) and np.all(np.isfinite(a.grad))
    np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_allclose(a.grad, b.grad, rtol=1e-12, atol=0)

    recorded = record_graph_nodes(monkeypatch)
    Tensor(x, requires_grad=True).silu()
    assert recorded == [True]


def test_sigmoid_matches_both_branches_without_overflow():
    x = np.array([-1000.0, -30.0, -1.5, -0.0, 0.0, 2.5, 40.0, 1000.0])
    with np.errstate(over="raise"):
        got = Tensor(x).sigmoid().data
    want = [np.exp(v) / (1.0 + np.exp(v)) if v < 0 else 1.0 / (1.0 + np.exp(-v))
            for v in x]
    np.testing.assert_array_equal(got, want)


def test_first_gradient_is_a_contiguous_copy():
    # callers pass views (transposes, reshapes, slices) of other gradients;
    # the stored gradient must not alias them, since later calls add into it
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.arange(6.0).reshape(3, 2).T
    a._accumulate(g)
    a._accumulate(g)
    assert a.grad.flags.c_contiguous and not np.shares_memory(a.grad, g)
    np.testing.assert_array_equal(g, np.arange(6.0).reshape(3, 2).T)
    np.testing.assert_array_equal(a.grad, 2 * g)


def test_no_gradient_aliases_another_gradient_or_any_data(monkeypatch):
    # each op gets inputs of its own and runs twice on them, and the loss
    # adds both outputs: each input's first gradient comes from that op,
    # and the second one is added into it
    rng = np.random.default_rng(12)
    made = []
    from_op = Tensor.__dict__["_from_op"].__func__

    def keeping_from_op(data, parents, backward_fn):
        made.append(from_op(data, parents, backward_fn))
        return made[-1]

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(keeping_from_op))
    cases = [
        (lambda x, b: x + b, [(1, 4, 1, 1)]),
        (lambda x, b: x * b, [(1, 4, 1, 1)]),
        (lambda x: x ** 3.0, []),
        (lambda x, m: x @ m, [(8, 8)]),
        (lambda x: x.sum(axis=1), []),
        (lambda x: x.mean(), []),
        (lambda x: x.reshape(8, 64), []),
        (lambda x: x.exp(), []),
        (lambda x: x.sigmoid(), []),
        (lambda x: x.silu(), []),
        (lambda x: x.abs(), []),
        (lambda x, w: conv2d(x, w), [(4, 4, 3, 3)]),
        (lambda x, w: conv2d(x, w, stride=2), [(4, 4, 3, 3)]),
        (lambda x, w: conv2d(x, w, padding=0), [(4, 4, 1, 1)]),
        (lambda x, w: conv2d(x.reshape(32, 4, 2, 2), w), [(4, 4, 3, 3)]),
        (lambda x, g, b: group_norm(x, g, b, 2, 1e-5), [(4,), (4,)]),
        (lambda x: upsample_nearest(x, 2), []),
        (lambda x, y: concat([x, y]), [(2, 4, 8, 8)]),
        (lambda x, y: windowed_ssim(x, y, 4, 2), [(2, 4, 8, 8)]),
    ]
    leaves, loss = [], None
    for op, shapes in cases:
        args = [Tensor(rng.uniform(0.1, 0.9, shape), requires_grad=True)
                for shape in [(2, 4, 8, 8)] + shapes]
        leaves += args
        for _ in range(2):
            out = op(*args)
            term = (out * Tensor(rng.normal(size=out.shape))).sum()
            loss = term if loss is None else loss + term
    loss.backward()
    tensors = leaves + made
    grads = [t.grad for t in tensors]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)
        for t in tensors:
            assert not np.shares_memory(g, t.data)


def test_reductions_and_reshape():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    check_grads(lambda: a.sum(axis=1).mean(), [a])
    check_grads(lambda: a.mean(axis=(1, 2)).sum(), [a])
    check_grads(lambda: (a.sum(axis=2, keepdims=True) * a).sum(), [a])
    check_grads(lambda: (a.reshape(6, 4) ** 2).sum(), [a])


def test_reuse_of_node_accumulates():
    a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    loss = (a * a + a).sum()
    loss.backward()
    np.testing.assert_allclose(a.grad, 2 * a.data + 1)


def test_detach_blocks_gradient():
    a = Tensor([2.0], requires_grad=True)
    frozen = (a * 3.0).detach()
    assert not frozen.requires_grad
    loss = (a * frozen).sum()
    loss.backward()
    np.testing.assert_allclose(a.grad, [6.0])


def test_backward_validation():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2).backward()
    const = Tensor([3.0])
    with pytest.raises(ValueError):
        const.sum().backward()


def test_constant_subgraphs_carry_no_grad():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    out = (a * b).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_conv2d_forward_matches_naive():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    for stride in (1, 2):
        got = conv2d(Tensor(x), Tensor(w), stride=stride, padding=1).data
        want = _naive_conv(x, w, stride, 1)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_conv2d_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    check_grads(lambda: (conv2d(x, w, stride=1, padding=1) ** 2).sum(),
                [x, w], rtol=1e-4, atol=1e-6)
    check_grads(lambda: conv2d(x, w, stride=2, padding=1).abs().sum(),
                [x, w], rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize(
    "x_shape, w_shape, stride, padding, weight_grad, bias", [
    ((2, 3, 5, 5), (4, 3, 1, 1), 1, 0, True, False),
    ((2, 1, 16, 16), (1, 1, 8, 8), 4, 0, False, False),
    ((2, 2, 7, 7), (3, 2, 3, 3), 2, 1, True, False),
    ((2, 2, 5, 8), (3, 2, 3, 3), 1, 1, True, False),
    ((1, 2, 6, 9), (2, 2, 3, 3), 2, 1, True, False),
    ((1, 2, 9, 4), (2, 2, 2, 2), 3, 0, True, False),
    ((2, 1, 1, 2), (2, 1, 3, 3), 2, 3, True, False),
    # maps of at most k*k pixels, which take the dense operator
    ((1, 3, 2, 2), (4, 3, 3, 3), 1, 1, True, False),
    ((2, 3, 1, 1), (4, 3, 3, 3), 1, 1, True, False),
    ((2, 3, 3, 3), (4, 3, 3, 3), 1, 1, True, False),
    ((2, 3, 1, 3), (4, 3, 3, 3), 1, 1, True, False),
    ((2, 3, 3, 3), (4, 3, 3, 3), 2, 1, True, False),
    ((2, 3, 2, 2), (4, 3, 2, 2), 1, 0, True, False),
    ((2, 3, 2, 2), (4, 3, 3, 3), 1, 2, True, False),
    ((2, 3, 3, 3), (4, 3, 3, 3), 1, 1, False, False),
    # the bias inside the op, on each of its three paths
    ((2, 3, 5, 5), (4, 3, 1, 1), 1, 0, True, True),
    ((2, 3, 2, 2), (4, 3, 3, 3), 1, 1, True, True),
    ((2, 2, 7, 7), (3, 2, 3, 3), 2, 1, True, True),
], ids=["resblock-skip-k1", "ssim-window-fixed-weight", "stride2-odd-size",
        "non-square", "non-square-stride2", "stride-above-kernel",
        "padding-above-input", "dense-batch1", "dense-1x1-map",
        "dense-3x3-map", "dense-1x3-map", "dense-stride2-3x3-to-2x2",
        "dense-k2-padding0", "dense-padding2", "dense-fixed-weight",
        "bias-k1-gemm", "bias-dense-2x2-map", "bias-stride2-taps"])
def test_conv2d_shapes_match_naive_and_central_differences(
        x_shape, w_shape, stride, padding, weight_grad, bias):
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=weight_grad)
    b = Tensor(rng.normal(size=w_shape[0]), requires_grad=True) if bias \
        else None
    got = conv2d(x, w, b, stride=stride, padding=padding)
    want = _naive_conv(x.data, w.data, stride, padding)
    if bias:
        want += b.data[:, None, None]
    np.testing.assert_allclose(got.data, want, atol=1e-12)
    upstream = Tensor(rng.normal(size=got.shape))
    # the loss is linear in each input, so central differences are exact
    # up to rounding
    check_grads(
        lambda: (conv2d(x, w, b, stride=stride, padding=padding)
                 * upstream).sum(),
        [x] + [w] * weight_grad + [b] * bias, rtol=1e-6, atol=1e-8)
    if not weight_grad:
        assert w.grad is None


@pytest.mark.parametrize("x_shape, f", [((16, 8, 32, 32), 16),
                                        ((16, 16, 8, 8), 4)],
                         ids=["skip-8to16", "latent-16to4"])
def test_pointwise_conv_matches_naive_and_central_differences(x_shape, f):
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=(f, x_shape[1], 1, 1)), requires_grad=True)
    got = conv2d(x, w, stride=1, padding=0)
    np.testing.assert_allclose(got.data, _naive_conv(x.data, w.data, 1, 0),
                               rtol=0, atol=1e-12)
    upstream = Tensor(rng.normal(size=got.shape))

    def loss():
        return (conv2d(x, w, stride=1, padding=0) * upstream).sum()

    loss().backward()
    # the loss is linear in each input, so central differences are exact
    # up to rounding
    for t in (x, w):
        idx, want = _sampled_central_differences(loss, t, rng)
        np.testing.assert_allclose(t.grad.reshape(-1)[idx], want,
                                   rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("stride, padding", [(2, 0), (1, 1), (2, 1)])
def test_strided_or_padded_1x1_conv_matches_naive(stride, padding):
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 3, 6, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 1, 1)), requires_grad=True)
    got = conv2d(x, w, stride=stride, padding=padding)
    np.testing.assert_allclose(
        got.data, _naive_conv(x.data, w.data, stride, padding), atol=1e-12)
    upstream = Tensor(rng.normal(size=got.shape))
    check_grads(
        lambda: (conv2d(x, w, stride=stride, padding=padding)
                 * upstream).sum(), [x, w], rtol=1e-6, atol=1e-8)


def test_no_grad_records_no_graph_and_restores(monkeypatch):
    model = VAE(VAEConfig(image_size=16, base_channels=8, quantum=True,
                          q_qubits=3, q_layers=1), seed=0)
    x = Tensor(np.random.default_rng(9).uniform(0, 1, (2, 3, 16, 16)))
    mu, _ = model.encode(x)
    recon = model.decode(mu)
    assert recon.requires_grad

    recorded = record_graph_nodes(monkeypatch)
    with no_grad():
        mu_ng, _ = model.encode(x)
        recon_ng = model.decode(mu_ng)
    assert recorded and not any(recorded)
    np.testing.assert_array_equal(mu_ng.data, mu.data)
    np.testing.assert_array_equal(recon_ng.data, recon.data)

    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            with no_grad():
                pass
            assert not (a * 2.0).requires_grad
            raise RuntimeError("leave the context by an exception")
    assert (a * 2.0).requires_grad


def test_conv2d_shape_validation():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))
    x, w = Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 3, 3)))
    for kwargs, name in [({"stride": 0}, "stride"), ({"stride": -1}, "stride"),
                         ({"padding": -1}, "padding")]:
        with pytest.raises(ValueError, match=name):
            conv2d(x, w, **kwargs)


def _sampled_central_differences(loss_fn, t, rng, samples=12, h=1e-3):
    """(flat indices, central differences) at the first and last entry
    of ``t`` and at ``samples`` random ones."""
    flat = t.data.reshape(-1)
    idx = np.unique(np.concatenate(
        [[0, flat.size - 1], rng.choice(flat.size, samples, replace=False)]))
    diffs = []
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn().item()
        flat[i] = orig - h
        dn = loss_fn().item()
        flat[i] = orig
        diffs.append((up - dn) / (2 * h))
    return idx, np.array(diffs)


# the VAE's own layer shapes (base_channels=8, 64x64 RGB) at batch 2, and
# the UNet's widest convs (base_channels=8), on its 2x2 bottleneck at
# batch 16
@pytest.mark.parametrize("x_shape, w_shape, stride, padding, weight_grad", [
    ((2, 3, 64, 64), (8, 3, 3, 3), 1, 1, True),
    ((2, 8, 64, 64), (8, 8, 3, 3), 1, 1, True),
    ((2, 8, 64, 64), (8, 8, 3, 3), 2, 1, True),
    ((2, 16, 32, 32), (16, 16, 3, 3), 2, 1, True),
    ((2, 8, 32, 32), (16, 8, 1, 1), 1, 0, True),
    ((2, 8, 64, 64), (3, 8, 3, 3), 1, 1, True),
    ((2, 1, 64, 64), (1, 1, 8, 8), 4, 0, False),
    ((16, 32, 2, 2), (32, 32, 3, 3), 1, 1, True),
    ((16, 64, 2, 2), (32, 64, 3, 3), 1, 1, True),
], ids=["stem-3to8", "8to8", "8to8-stride2", "16to16-stride2",
        "skip-8to16-k1", "out-8to3", "ssim-window-fixed-weight",
        "unet-2x2-32to32", "unet-2x2-64to32"])
def test_conv2d_vae_shapes_match_naive_and_central_differences(
        x_shape, w_shape, stride, padding, weight_grad):
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=weight_grad)
    if not weight_grad:
        w.data[...] = 1.0 / w.data[0, 0].size
    got = conv2d(x, w, stride=stride, padding=padding)
    np.testing.assert_allclose(
        got.data, _naive_conv(x.data, w.data, stride, padding),
        rtol=0, atol=1e-12)
    upstream = Tensor(rng.normal(size=got.shape))

    def loss():
        return (conv2d(x, w, stride=stride, padding=padding)
                * upstream).sum()

    loss().backward()
    # the loss is linear in each input, so central differences are exact
    # up to rounding
    for t in [x, w] if weight_grad else [x]:
        idx, want = _sampled_central_differences(loss, t, rng)
        np.testing.assert_allclose(t.grad.reshape(-1)[idx], want,
                                   rtol=1e-6, atol=1e-8)
    if not weight_grad:
        assert w.grad is None


def _spy_on_dense_conv(monkeypatch):
    """List that gets (input, weight, stride, padding, output) of every
    dense-path conv from now, copied when the call returns."""
    seen = []
    dense = tensor_module._dense_conv

    def spy(x, weight, s, p, h_out, w_out):
        out = dense(x, weight, s, p, h_out, w_out)
        seen.append((x.data.copy(), weight.data.copy(), s, p,
                     out.data.copy()))
        return out

    monkeypatch.setattr(tensor_module, "_dense_conv", spy)
    return seen


def test_conv2d_takes_the_dense_path_on_maps_of_at_most_k_squared_pixels(
        monkeypatch):
    seen = _spy_on_dense_conv(monkeypatch)
    w = Tensor(np.ones((2, 3, 3, 3)))
    for hw in [(3, 3), (4, 4), (1, 10)]:
        conv2d(Tensor(np.ones((1, 3) + hw)), w)
    assert [x.shape for x, *_ in seen] == [(1, 3, 3, 3)]


def test_only_the_unet_bottleneck_takes_the_dense_path(monkeypatch):
    seen = _spy_on_dense_conv(monkeypatch)
    rng = np.random.default_rng(16)
    unet = UNet(UNetConfig(latent_size=8, base_channels=8), seed=0)
    ddpm_train_step(unet, Adam(unet.parameters()),
                    rng.normal(size=(2, 4, 8, 8)), np.array([0, 1]),
                    build_schedule(timesteps=50), rng)
    # two 3x3 convs in each of the 8 residual blocks on 2x2 maps
    assert len(seen) == 16
    for x, w, s, p, out in seen:
        np.testing.assert_allclose(out, _naive_conv(x, w, s, p),
                                   rtol=0, atol=1e-12)
    seen.clear()
    vae = VAE(VAEConfig(base_channels=8), seed=0)
    vae_train_step(vae, Adam(vae.parameters()),
                   rng.uniform(0, 1, (2, 3, 64, 64)), rng)
    assert seen == []


def test_conv2d_peak_memory_is_a_few_inputs():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 8, 64, 64)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        conv2d(x, w).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak <= 10 * x.data.nbytes, peak / x.data.nbytes


def test_global_mean_pool_equivalent():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    check_grads(lambda: (x.mean(axis=(2, 3)) ** 2).sum(), [x])


def test_upsample_nearest():
    x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2), requires_grad=True)
    out = upsample_nearest(x, 2)
    want = np.array([[0, 0, 1, 1], [0, 0, 1, 1],
                     [2, 2, 3, 3], [2, 2, 3, 3]], dtype=float)
    np.testing.assert_array_equal(out.data[0, 0], want)
    check_grads(lambda: (upsample_nearest(x, 2) ** 2).sum(), [x])


def test_concat_and_split_gradient():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 6, 3, 3)
    check_grads(lambda: (concat([a, b], axis=1) ** 3).sum(), [a, b],
                rtol=1e-4, atol=1e-6)


def test_deep_graph_backward_is_iterative():
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 0.001
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_item_and_detach_copy():
    a = Tensor([5.0])
    assert a.item() == 5.0
    d = a.detach()
    d.data[0] = 9.0
    assert a.data[0] == 5.0
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()

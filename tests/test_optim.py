import numpy as np
import pytest

from oracles import LoopAdam
from qlatent.optim import Adam
from qlatent.tensor import Tensor


def reference_adam_step(p, g, m, v, t, lr, b1, b2, eps):
    """Textbook update, written independently."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(4, 3))
    param = Tensor(p0.copy(), requires_grad=True)
    opt = Adam([param], lr=0.01)
    ref_p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    for t in range(1, 11):
        g = rng.normal(size=(4, 3))
        param.grad = g.copy()
        opt.step()
        ref_p, m, v = reference_adam_step(
            ref_p, g, m, v, t, 0.01, 0.9, 0.999, 1e-8)
        np.testing.assert_allclose(param.data, ref_p, atol=1e-14)


def test_flat_update_equals_per_parameter_loop():
    rng = np.random.default_rng(1)
    shapes = [(4, 3), (5,), (2, 1, 3, 3), (1,), (6, 2)]
    ours = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [Tensor(p.data.copy(), requires_grad=True) for p in ours]
    opt, ref_opt = Adam(ours, lr=0.02), LoopAdam(ref, lr=0.02)
    for step in range(5):
        for i, (a, b) in enumerate(zip(ours, ref)):
            # parameter 2 gets no gradient on steps 1 and 3
            g = None if i == 2 and step % 2 else rng.normal(size=a.shape)
            a.grad = b.grad = g
        opt.step()
        ref_opt.step()
        for a, b in zip(ours, ref):
            assert np.array_equal(a.data, b.data)
    assert np.array_equal(opt._m, np.concatenate(
        [m.reshape(-1) for m in ref_opt.m]))
    assert np.array_equal(opt._v, np.concatenate(
        [v.reshape(-1) for v in ref_opt.v]))


def test_nonfinite_gradient_names_its_parameter_and_changes_nothing():
    rng = np.random.default_rng(2)
    params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True)
              for _ in range(5)]
    opt = Adam(params, lr=0.1)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    opt.step()
    before = [p.data.copy() for p in params]
    m, v = opt._m.copy(), opt._v.copy()
    params[3].grad[1, 0] = np.nan
    params[4].grad[0, 0] = np.inf
    with pytest.raises(ValueError, match="parameter 3;"):
        opt.step()
    assert opt.t == 1
    assert np.array_equal(opt._m, m) and np.array_equal(opt._v, v)
    for p, b in zip(params, before):
        assert np.array_equal(p.data, b)


def test_first_step_magnitude_is_learning_rate():
    param = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([param], lr=0.25)
    param.grad = np.array([10.0, -0.003, 2.0])
    opt.step()
    np.testing.assert_allclose(np.abs(param.data), 0.25, rtol=1e-4)


def test_quadratic_convergence():
    target = np.array([1.5, -2.0, 0.25])
    param = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([param], lr=0.05)
    for _ in range(600):
        opt.zero_grad()
        loss = ((param - Tensor(target)) ** 2).sum()
        loss.backward()
        opt.step()
    np.testing.assert_allclose(param.data, target, atol=1e-3)


def test_nonfinite_gradient_rejected_without_side_effects():
    param = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([param], lr=0.1)
    param.grad = np.array([0.5, np.nan])
    with pytest.raises(ValueError):
        opt.step()
    np.testing.assert_array_equal(param.data, [1.0, 2.0])
    assert opt.t == 0
    param.grad = np.array([np.inf, 0.0])
    with pytest.raises(ValueError):
        opt.step()
    np.testing.assert_array_equal(param.data, [1.0, 2.0])


def test_missing_gradient_treated_as_zero():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    a.grad = np.array([1.0])
    opt.step()
    assert a.data[0] != 1.0
    assert b.data[0] == 5.0


def test_constructor_validation():
    p = Tensor(np.zeros(1), requires_grad=True)
    with pytest.raises(ValueError):
        Adam([])
    with pytest.raises(ValueError):
        Adam([p], lr=0.0)
    with pytest.raises(ValueError):
        Adam([p], betas=(1.0, 0.999))


def test_zero_grad_clears_all():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam([p])
    p.grad = np.ones(2)
    opt.zero_grad()
    assert p.grad is None

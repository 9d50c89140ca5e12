import numpy as np
import pytest

from compatgnn import NumericalError
from compatgnn.autodiff import backward, tensor, tsum, zero_grads
from compatgnn.optim import Adam
from compatgnn.rng import make_rng


def test_first_step_magnitude():
    # with a constant gradient the bias-corrected first step is lr * g/|g|,
    # damped only by eps: 1 - 0.01 * 1/(1 + 1e-8)
    p = tensor([[1.0]], requires_grad=True)
    p.grad = np.array([[1.0]])
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    assert p.value.item() == pytest.approx(1.0 - 0.01 / (1.0 + 1e-8), abs=1e-15)


def test_matches_reference_adam_trace():
    # straight reimplementation of the textbook update as the oracle
    rng = make_rng(0, "adam")
    p = tensor(rng.normal(size=(3, 2)), requires_grad=True)
    ref = p.value.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
    opt = Adam({"p": p}, lr=lr, weight_decay=wd)
    for t in range(1, 8):
        g = rng.normal(size=ref.shape)
        p.grad = g.copy()
        opt.step()
        gw = g + wd * ref
        m = b1 * m + (1 - b1) * gw
        v = b2 * v + (1 - b2) * gw * gw
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        ref = ref - lr * mh / (np.sqrt(vh) + eps)
        np.testing.assert_allclose(p.value, ref, atol=1e-14)
        p.grad = None


def test_zero_grad_and_zero_decay_leaves_params():
    p = tensor([[2.0, -3.0]], requires_grad=True)
    before = p.value.copy()
    opt = Adam({"p": p}, lr=0.1)
    opt.step()  # grad is None -> treated as zeros
    np.testing.assert_array_equal(p.value, before)


def test_weight_decay_alone_shrinks_params():
    p = tensor([[4.0]], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    assert p.value.item() < 4.0


def test_non_finite_gradient_names_parameter():
    p = tensor([[1.0]], requires_grad=True)
    p.grad = np.array([[np.nan]])
    opt = Adam({"layer0.w": p}, lr=0.1)
    with pytest.raises(NumericalError, match="layer0.w"):
        opt.step()


@pytest.mark.parametrize("value, grad, lr, weight_decay", [
    (0.5, 0.0, 0.1, 1e308),      # g = wd * p is finite, g * g is not
    (-1e308, 1.0, 1e308, 0.0),   # the moments are finite, the new value is not
])
def test_overflowing_step_names_parameter(value, grad, lr, weight_decay):
    # an inf second moment would zero the update and stop training silently
    p = tensor([[value]], requires_grad=True)
    p.grad = np.array([[grad]])
    opt = Adam({"layer1.w": p}, lr=lr, weight_decay=weight_decay)
    with pytest.raises(NumericalError, match="layer1.w"):
        opt.step()


def test_converges_on_quadratic():
    # minimize sum((p - target)^2) by hand-computed gradient
    target = np.array([[1.5, -2.0, 0.5]])
    p = tensor(np.zeros((1, 3)), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for _ in range(600):
        p.grad = 2.0 * (p.value - target)
        opt.step()
    np.testing.assert_allclose(p.value, target, atol=1e-4)


def test_optimizes_through_autodiff_graph():
    rng = make_rng(3, "opt")
    w = tensor(rng.normal(size=(4, 1)), requires_grad=True)
    x = rng.normal(size=(20, 4))
    y = x @ np.array([[1.0], [-2.0], [0.5], [3.0]])
    opt = Adam({"w": w}, lr=0.05)
    xt = tensor(x)
    for _ in range(800):
        zero_grads({"w": w})
        pred = tsum(_sq_err(xt, w, y))
        backward(pred)
        opt.step()
    np.testing.assert_allclose(w.value, [[1.0], [-2.0], [0.5], [3.0]], atol=1e-3)


def _sq_err(xt, w, y):
    from compatgnn.autodiff import hadamard, matmul, sub, constant
    d = sub(matmul(xt, w), constant(y))
    return hadamard(d, d)

import numpy as np
import pytest

from compatgnn import NumericalError
from compatgnn.autodiff import dropout, matmul, tensor, tsum, _result
from compatgnn.gradcheck import grad_check
from compatgnn.rng import make_rng


def test_detects_wrong_backward():
    # an op whose backward is off by a factor of 2 must be caught
    def bad_double(a):
        value = a.value * 2.0

        def bw(g):
            from compatgnn.autodiff import _acc
            _acc(a, g * 4.0)
        return _result(value, (a,), bw, "bad_double")

    a = tensor([[1.0, 2.0]], requires_grad=True)
    report = grad_check(lambda: tsum(bad_double(a)), {"a": a})
    assert not report.ok(1e-4)
    assert report.max_rel_err > 0.4


def test_passes_correct_backward():
    rng = make_rng(0, "gc")
    a = tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = tensor(rng.normal(size=(3, 2)), requires_grad=True)
    report = grad_check(lambda: tsum(matmul(a, b)), {"a": a, "b": b})
    assert report.ok(1e-6)
    assert set(report.per_param) == {"a", "b"}
    assert report.n_checked == 9 + 6


def test_refuses_nondeterministic_forward():
    rng = make_rng(1, "gc")
    a = tensor(rng.normal(size=(4, 4)), requires_grad=True)
    drop_rng = make_rng(2, "gc")
    with pytest.raises(NumericalError, match="nondeterministic"):
        grad_check(lambda: tsum(dropout(a, 0.5, rng=drop_rng)), {"a": a})


def test_subsampling_needs_rng():
    a = tensor(np.ones((10, 10)), requires_grad=True)
    with pytest.raises(ValueError, match="rng"):
        grad_check(lambda: tsum(a), {"a": a}, max_entries=5)
    report = grad_check(lambda: tsum(a), {"a": a}, max_entries=5,
                        rng=make_rng(3, "gc"))
    assert report.n_checked == 5
    assert report.ok(1e-8)


def test_perturbation_is_restored():
    a = tensor([[1.0, 2.0]], requires_grad=True)
    before = a.value.copy()
    grad_check(lambda: tsum(a), {"a": a})
    np.testing.assert_array_equal(a.value, before)


def test_zero_gradient_param_passes():
    # parameter not used by the loss: analytic grad 0, fd 0
    a = tensor([[1.0]], requires_grad=True)
    unused = tensor([[5.0]], requires_grad=True)
    report = grad_check(lambda: tsum(a), {"a": a, "unused": unused})
    assert report.ok(1e-8)

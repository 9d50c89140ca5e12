"""Central finite-difference verification of backward gradients."""

from dataclasses import dataclass, field

from .errors import NumericalError
from .autodiff import backward, grad_of, zero_grads


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict = field(default_factory=dict)
    n_checked: int = 0

    def ok(self, tol):
        return self.max_rel_err < tol


def grad_check(forward_fn, params, eps=1e-5, floor=1e-6):
    """Compare backward gradients of `forward_fn()` against central differences.

    forward_fn must rebuild the scalar loss from the current parameter
    values on every call and be deterministic; a stochastic forward
    (e.g. dropout left on) is detected and refused. Relative error per
    entry is |fd - an| / max(|fd|, |an|, floor). Every entry of every
    parameter is checked, at two forward calls each.
    """
    l0 = forward_fn().item()
    l1 = forward_fn().item()
    if l0 != l1:
        raise NumericalError(
            "forward_fn is nondeterministic (dropout or other RNG still active); "
            "gradient checking needs a deterministic closure")

    zero_grads(params)
    loss = forward_fn()
    backward(loss)
    analytic = {k: grad_of(p).copy() for k, p in params.items()}

    report = GradCheckReport(max_rel_err=0.0)
    for name, p in params.items():
        flat = p.value.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = forward_fn().item()
            flat[j] = orig - eps
            down = forward_fn().item()
            flat[j] = orig
            fd = (up - down) / (2.0 * eps)
            an = analytic[name].reshape(-1)[j]
            rel = abs(fd - an) / max(abs(fd), abs(an), floor)
            worst = max(worst, rel)
            report.n_checked += 1
        report.per_param[name] = worst
        report.max_rel_err = max(report.max_rel_err, worst)
    return report

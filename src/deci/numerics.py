"""Dense float64 primitives: stable activations, losses, and a gradient checker.

All public operations are deterministic: no reduction-order nondeterminism,
so a fixed seed upstream yields bit-identical results run to run.
"""

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

# Probabilities are clamped to [LOG_EPS, 1 - LOG_EPS] before any log.
LOG_EPS = 1e-7


def sigmoid(x):
    """Elementwise logistic 1/(1+exp(-x)), stable for |x| up to at least 500.

    Each branch only ever exponentiates a non-positive argument, so large
    positive inputs cannot overflow.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[neg])
    out[neg] = e / (1.0 + e)
    return out


def binary_cross_entropy(p, y):
    """Mean over entries of -[y log p + (1-y) log(1-p)], p clamped to [eps, 1-eps]."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise DimensionError(f"probability/target shape mismatch: {p.shape} vs {y.shape}")
    if p.size == 0:
        raise DimensionError("binary_cross_entropy on empty input")
    p = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_parameter: str
    passed: bool


ParamDict = Mapping[str, np.ndarray]


def finite_difference_check(
    loss_fn: Callable[[ParamDict], float],
    grad_fn: Callable[[ParamDict], ParamDict],
    params: ParamDict,
    step: float = 1e-5,
    tol: float = 1e-3,
) -> GradCheckReport:
    """Compare grad_fn against central differences of loss_fn, entry by entry.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator, so
    entries where both sides are ~0 do not blow up. step must lie in
    [1e-6, 1e-3]. A non-finite loss at a perturbed point raises NumericalError
    naming the offending parameter.
    """
    if not 1e-6 <= step <= 1e-3:
        raise ValueError(f"step must be in [1e-6, 1e-3], got {step}")
    analytic = grad_fn(params)
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    worst_err = 0.0
    worst_name = ""
    for name, arr in work.items():
        grad = np.asarray(analytic[name], dtype=np.float64)
        if grad.shape != arr.shape:
            raise DimensionError(f"gradient shape {grad.shape} != parameter shape {arr.shape} for {name}")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn(work)
            flat[i] = orig - step
            down = loss_fn(work)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (up - down) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            if err > worst_err:
                worst_err = err
                worst_name = f"{name}[{i}]"
    return GradCheckReport(max_relative_error=worst_err, worst_parameter=worst_name, passed=worst_err <= tol)

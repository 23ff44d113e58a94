"""Central-difference gradient checker, the reference the gradient tests use.

Tests import it as ``from gradcheck import finite_difference_check``; pytest
puts this directory on sys.path.
"""

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from deci.errors import DimensionError, NumericalError


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

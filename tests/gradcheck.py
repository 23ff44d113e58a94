"""Central-difference gradient checker, the reference the gradient tests use.

Tests import it as ``from gradcheck import finite_difference_check``; pytest
puts this directory on sys.path.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from deci.errors import DimensionError, NumericalError
from deci.model import ModelParams, param_shapes


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_parameter: str
    passed: bool


def finite_difference_check(
    loss_fn: Callable[[ModelParams], float],
    grad_fn: Callable[[ModelParams], np.ndarray],
    params: ModelParams,
    step: float = 1e-5,
    tol: float = 1e-3,
) -> GradCheckReport:
    """Compare grad_fn, a vector shaped like params.flat, against central
    differences of loss_fn, one entry of flat at a time.

    Entries are named array[i] through model.param_shapes. Relative error
    uses max(|analytic|, |numeric|, 1e-8) as denominator, so entries where
    both sides are ~0 do not blow up. step must lie in [1e-6, 1e-3]. A
    non-finite loss at a perturbed point raises NumericalError naming the
    offending entry. params is left unchanged.
    """
    if not 1e-6 <= step <= 1e-3:
        raise ValueError(f"step must be in [1e-6, 1e-3], got {step}")
    analytic = np.asarray(grad_fn(params), dtype=np.float64)
    if analytic.shape != params.flat.shape:
        raise DimensionError(f"gradient shape {analytic.shape} != parameter shape {params.flat.shape}")
    work = params.copy()
    flat = work.flat
    worst_err = 0.0
    worst_name = ""
    start = 0
    for name, shape in param_shapes(*params.dims).items():
        for i in range(math.prod(shape)):
            j = start + i
            orig = flat[j]
            flat[j] = orig + step
            up = loss_fn(work)
            flat[j] = orig - step
            down = loss_fn(work)
            flat[j] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericalError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (up - down) / (2.0 * step)
            err = abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-8)
            if err > worst_err:
                worst_err = err
                worst_name = f"{name}[{i}]"
        start += math.prod(shape)
    return GradCheckReport(max_relative_error=worst_err, worst_parameter=worst_name, passed=worst_err <= tol)

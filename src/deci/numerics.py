"""A numerically stable float64 sigmoid, bit-identical run to run."""

import numpy as np


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

"""A numerically stable float64 sigmoid, bit-identical run to run."""

import numpy as np


def sigmoid(x):
    """Elementwise logistic 1/(1+exp(-x)), stable for |x| up to at least 500.

    Only exp(-|x|) is ever taken, so large inputs of either sign cannot
    overflow: with e = exp(-|x|), 1/(1+e) where x >= 0 and e/(1+e) elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out

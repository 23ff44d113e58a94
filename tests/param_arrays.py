"""Model parameters as one array per name, for tests that build or compare
them array by array.

Tests import it as ``from param_arrays import named_arrays, with_arrays``;
pytest puts this directory on sys.path.
"""

import numpy as np

from deci.model import ModelParams, param_shapes


def named_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """The views of params by name, in model.param_shapes order."""
    return {name: getattr(params, name) for name in param_shapes(*params.dims)}


def with_arrays(params: ModelParams, arrays: dict) -> ModelParams:
    """New parameters of params.dims, from exactly one array of the right shape per name."""
    shapes = param_shapes(*params.dims)
    assert {name: np.shape(a) for name, a in arrays.items()} == shapes
    return ModelParams(params.dims, np.concatenate([np.ravel(arrays[k]) for k in shapes]))

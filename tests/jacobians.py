"""Central-difference Jacobian shared by the tests: the oracle the analytic
reprojection Jacobian is checked against."""

import numpy as np


def numerical_jacobian(residual_fn, parameters: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Jacobian of ``residual_fn`` at the vector ``parameters`` by central differences."""
    base = residual_fn(parameters)
    jac = np.zeros((base.size, parameters.size))
    for k in range(parameters.size):
        delta = np.zeros(parameters.size)
        delta[k] = epsilon
        jac[:, k] = (residual_fn(parameters + delta) - residual_fn(parameters - delta)) / (
            2.0 * epsilon
        )
    return jac

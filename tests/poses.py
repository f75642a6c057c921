"""Pose comparison shared by the tests: rotation and translation both
equal within an absolute tolerance."""

import numpy as np


def poses_close(a, b, atol: float = 1e-9) -> bool:
    return bool(
        np.allclose(a.rotation, b.rotation, atol=atol)
        and np.allclose(a.translation, b.translation, atol=atol)
    )

"""Sourced-run cases shared by the tests of the wave-function route
(tests/test_evolution.py) and of the Maxwell oracle (tests/test_oracle.py)."""
import numpy as np

from dirac88 import states
from dirac88.fields import GridSpec

TWO_PI = 2 * np.pi

# 1-D runs on the bench's 256-point grid; the 3-D dipole points along the one
# finely sampled axis, so that its Nyquist tail keeps continuity
GRID_1D = GridSpec((256,), (TWO_PI,))
GRID_3D_SOURCED = GridSpec((4, 64, 8), (TWO_PI, TWO_PI, 5.0))
SOURCE_CASES = {
    "1d-x": lambda: states.gaussian_dipole_current(GRID_1D, [1, 0, 0], 1.2, TWO_PI / 16, 4.0),
    "1d-y": lambda: states.gaussian_dipole_current(GRID_1D, [0, 1, 0], 0.8, TWO_PI / 16, 3.7),
    "1d-oblique": lambda: states.gaussian_dipole_current(GRID_1D, [0.6, 0, 0.8], 1.2,
                                                         TWO_PI / 16, 4.0),
    "3d-dipole": lambda: states.gaussian_dipole_current(GRID_3D_SOURCED, [0, 1, 0], 1.0, 0.45, 3.0),
    "3d-uniform": lambda: states.uniform_current(GRID_3D_SOURCED, [0.3, 1.0, -0.2], 1.0, 2.0),
}


def bits_equal(x, y) -> bool:
    """Whether two complex arrays hold the same bits, the sign of each zero included."""
    return x.shape == y.shape and np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                                                 np.ascontiguousarray(y).view(np.uint64))

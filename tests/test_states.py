"""The builders enforce the rules of the states they make, for every caller."""

import numpy as np
import pytest

from dirac88 import states
from dirac88.errors import ConfigError
from dirac88.fields import GridSpec

GRID = GridSpec((4, 4), (2 * np.pi, 2 * np.pi))


@pytest.mark.parametrize("make", [
    lambda plus, minus: states.electron_rest_mix(GRID, 1.0, plus, minus),
    lambda plus, minus: states.electron_gaussian_packet(GRID, 1.0, 0.5, plus_weight=plus,
                                                        minus_weight=minus),
], ids=["rest-mix", "packet"])
def test_an_electron_state_needs_a_branch_weight(make):
    with pytest.raises(ConfigError, match="state.plus_weight must be > 0"):
        make(0.0, 0.0)
    for plus, minus in [(1.0, 0.0), (0.0, 1.0), (0.3, 0.7)]:
        assert np.isfinite(make(plus, minus).values).all()

"""Units covariance: a run is unchanged, bit for bit, when its units and times are
rescaled by a power of two.

Each relation leaves c k t and m c^2 t / hbar unchanged, and scaling a double by
a power of two does not round, so the rescaled run forms the same samples and
<alpha>, and its <H> is exactly lambda times the original's.  A units fault in the
Hamiltonian, the dispersion or the energy split breaks the relation; a unitary
run with the wrong dispersion conserves all that the CLI rows measure.
"""
from dataclasses import replace

import numpy as np
import pytest

from dirac88 import states
from dirac88.evolution import alpha_expectation_series, energy_expectation_series, run_free
from dirac88.fields import GridSpec
from sourced_cases import bits_equal

TWO_PI = 2.0 * np.pi
GRIDS = {"1d": GridSpec((128,), (TWO_PI,)), "3d": GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))}
# each relation: (lambda, psi) -> the rescaled state and the factor on its times
RELATIONS = {
    "c": lambda lam, psi: (replace(psi, c=lam * psi.c, mass=psi.mass / lam), 1.0 / lam),
    "hbar": lambda lam, psi: (replace(psi, hbar=lam * psi.hbar, mass=lam * psi.mass), 1.0),
}


def _observed(psi, times):
    run = run_free(psi, times)
    samples = np.array([sample.values.copy() for sample in run.samples()])
    return samples, energy_expectation_series(run), alpha_expectation_series(run)


@pytest.mark.parametrize("lam", [2.0 ** -2, 2.0, 2.0 ** 3])
@pytest.mark.parametrize("relation", list(RELATIONS))
@pytest.mark.parametrize("grid", list(GRIDS))
def test_a_run_is_covariant_under_rescaled_units(grid, relation, lam):
    g = GRIDS[grid]
    psi = states.electron_gaussian_packet(g, mass=1.0, sigma=0.5, k0_mode=(1,) * g.ndim,
                                          minus_weight=0.6)
    times = np.linspace(0.0, 2.0, 9)
    samples, energy, alpha = _observed(psi, times)
    scaled, time_factor = RELATIONS[relation](lam, psi)
    got_samples, got_energy, got_alpha = _observed(scaled, times * time_factor)
    assert bits_equal(got_samples, samples)
    assert bits_equal(got_energy, lam * energy)
    assert bits_equal(got_alpha, alpha)

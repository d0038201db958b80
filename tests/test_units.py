"""Units covariance: a run is unchanged, bit for bit, when its units, box or times
are rescaled by a power of two.

Each relation leaves c k t and m c^2 t / hbar unchanged, and scaling a double by
a power of two does not round, so the rescaled run forms the same samples and
<alpha>, and its <H> is exactly lambda times the original's.  The box relation
(L -> lambda L, t -> lambda t, m -> m / lambda) leaves r k unchanged as well, so
<S> and <L> stay too, and <H> is divided by lambda.  A units fault in the
Hamiltonian, the dispersion, the energy split or the moments breaks a relation; a
unitary run with the wrong dispersion conserves all that the CLI rows measure.
A sourced run keeps its fields under c -> lambda c, t -> t / lambda with its
source's Omega -> lambda Omega and j -> lambda j, on both routes: the
wave-function route and the Maxwell oracle.
"""
from dataclasses import replace

import numpy as np
import pytest

from dirac88 import states
from dirac88.evolution import (alpha_expectation_series, energy_expectation_series, evolve_sourced,
                               run_free)
from dirac88.fields import EMField, FourCurrent, GridSpec, SpinorField8
from dirac88.oracle import maxwell_evolve
from dirac88.spin import angular_momentum_series
from sourced_cases import SOURCE_CASES, bits_equal

TWO_PI = 2.0 * np.pi
GRIDS = {"1d": GridSpec((128,), (TWO_PI,)), "3d": GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))}
# each relation: (lambda, psi) -> the rescaled state and the factor on its times
RELATIONS = {
    "c": lambda lam, psi: (replace(psi, c=lam * psi.c, mass=psi.mass / lam), 1.0 / lam),
    "hbar": lambda lam, psi: (replace(psi, hbar=lam * psi.hbar, mass=lam * psi.mass), 1.0),
}


def _packet(grid):
    return states.electron_gaussian_packet(grid, mass=1.0, sigma=0.5, k0_mode=(1,) * grid.ndim,
                                           minus_weight=0.6)


def _observed(psi, times):
    run = run_free(psi, times)
    samples = np.array([sample.values.copy() for sample in run.samples()])
    return samples, energy_expectation_series(run), alpha_expectation_series(run)


@pytest.mark.parametrize("lam", [2.0 ** -2, 2.0, 2.0 ** 3])
@pytest.mark.parametrize("relation", list(RELATIONS))
@pytest.mark.parametrize("grid", list(GRIDS))
def test_a_run_is_covariant_under_rescaled_units(grid, relation, lam):
    psi = _packet(GRIDS[grid])
    times = np.linspace(0.0, 2.0, 9)
    samples, energy, alpha = _observed(psi, times)
    scaled, time_factor = RELATIONS[relation](lam, psi)
    got_samples, got_energy, got_alpha = _observed(scaled, times * time_factor)
    assert bits_equal(got_samples, samples)
    assert bits_equal(got_energy, lam * energy)
    assert bits_equal(got_alpha, alpha)


@pytest.mark.parametrize("lam", [2.0 ** -2, 2.0, 2.0 ** 3])
@pytest.mark.parametrize("grid", list(GRIDS))
def test_a_run_is_covariant_under_a_rescaled_box(grid, lam):
    # the same values on a box lam times larger, with mass m / lam, sampled at lam t
    g = GRIDS[grid]
    psi = _packet(g)
    box = GridSpec(g.points, tuple(lam * length for length in g.lengths))
    scaled = SpinorField8(box, psi.values, psi.kind, psi.mass / lam, psi.c, psi.hbar)
    times = np.linspace(0.0, 2.0, 9)
    observed = []
    for state, at in ((psi, times), (scaled, lam * times)):
        run = run_free(state, at)
        samples = np.array([sample.values.copy() for sample in run.samples(orbital=True)])
        orbital, spin, _ = angular_momentum_series(run)
        observed.append((samples, energy_expectation_series(run), alpha_expectation_series(run),
                         spin, orbital))
    (samples, energy, alpha, spin, orbital), got = observed
    assert bits_equal(got[0], samples)
    assert bits_equal(got[1], energy / lam)
    for name, want, value in zip(("<alpha>", "<S>", "<L>"), (alpha, spin, orbital), got[2:]):
        assert bits_equal(value, want), name
    assert grid == "1d" or np.max(np.abs(orbital)) > 0.0


# each route of a sourced run from the vacuum: (vacuum, source, times) -> its
# samples, stacked, a field array per route
SOURCED_ROUTES = {
    "wave-function": lambda psi, source, times: np.concatenate(
        [block.copy() for block in evolve_sourced(psi, source, times).blocks()]),
    "oracle": lambda psi, source, times: np.concatenate(
        [np.concatenate([e, b], axis=-1) for e, b in maxwell_evolve(
            EMField.zero(psi.grid), source, times, c=psi.c).blocks()]),
}


@pytest.mark.parametrize("lam", [2.0 ** -2, 2.0, 2.0 ** 3])
@pytest.mark.parametrize("route", list(SOURCED_ROUTES))
@pytest.mark.parametrize("case", list(SOURCE_CASES))
def test_a_sourced_run_is_covariant_under_rescaled_units(case, route, lam):
    # c -> lam c, t -> t / lam, Omega -> lam Omega, j -> lam j: the same fields
    source = SOURCE_CASES[case]()
    psi = states.zero_field(source.grid)
    times = np.linspace(0.0, 3.0, 11)
    scaled_source = FourCurrent(source.grid, lam * source.j_amp, omega=lam * source.omega)
    form = SOURCED_ROUTES[route]
    want = form(psi, source, times)
    got = form(replace(psi, c=lam * psi.c), scaled_source, times / lam)
    assert np.max(np.abs(want)) > 0.1
    assert bits_equal(got, want)

import importlib.util
import inspect
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac88.errors import ConstraintViolation, FitError
from dirac88.evolution import (_duhamel_kernels, _Spectral, alpha_density_series,
                               alpha_expectation_series, energy_expectation,
                               energy_expectation_series, evolve_free, evolve_sourced,
                               hamiltonian_k, mode_decomposition, omega_k, run_free,
                               zitter_decompose, zitter_equals_poynting)
from dirac88.fields import (EMField, GridSpec, SpinorField8, divergence, embed_em, extract_em,
                            extract_em_amplitudes)
from dirac88.oracle import compare, maxwell_evolve
from dirac88.spin import ExpectationSeries, angular_momentum_series
from dirac88 import states

TWO_PI = 2 * np.pi
RNG = np.random.default_rng(8)


def grid1d(n=256):
    return GridSpec((n,), (TWO_PI,))


# --- per-mode operators ------------------------------------------------

def test_hamiltonian_zero():
    assert np.max(np.abs(hamiltonian_k(np.zeros(3), 0.0))) == 0.0


def test_hamiltonian_massless_spectrum():
    h = hamiltonian_k(np.array([0.0, 0.0, 1.0]), 0.0)
    evals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(evals, [-1.0] * 4 + [1.0] * 4, atol=1e-13)


def test_hamiltonian_rest_spectrum():
    h = hamiltonian_k(np.zeros(3), 1.0, c=1.0)
    evals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(evals, [-1.0] * 4 + [1.0] * 4, atol=1e-13)


def test_hamiltonian_units():
    h = hamiltonian_k(np.array([0.0, 2.0, 0.0]), 3.0, c=2.0, hbar=0.5)
    w = omega_k(np.array([0.0, 2.0, 0.0]), 3.0, c=2.0, hbar=0.5)
    evals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(evals, [-0.5 * w] * 4 + [0.5 * w] * 4, atol=1e-12)


def test_gather_hamiltonian_matches_dense_per_mode():
    from dirac88.evolution import _Spectral
    grid = GridSpec((4, 4, 4), tuple(RNG.uniform(1.0, 3.0, 3)))
    mass, c, hbar = 0.7, 1.9, 0.45
    hat = RNG.standard_normal(grid.shape + (8,)) + 1j * RNG.standard_normal(grid.shape + (8,))
    spectral = _Spectral(grid, mass, c, hbar)
    gathered = spectral.apply_h(hat)
    k = grid.wave_vectors()
    for idx in np.ndindex(grid.shape):
        dense = hamiltonian_k(k[idx], mass, c, hbar) @ hat[idx]
        assert np.linalg.norm(gathered[idx] - dense) <= 1e-15 * np.linalg.norm(dense)
    assert np.array_equal(spectral.omega, omega_k(k, mass, c, hbar))


ANISOTROPIC_GRIDS = [GridSpec((16,), (3.0,)), GridSpec((8, 16), (2.0, 5.0)),
                     GridSpec((8, 16, 4), (3.0, 7.0, 2.0))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("grid", ANISOTROPIC_GRIDS, ids=["1d", "2d", "3d"])
def test_energy_expectation_matches_dense_per_mode(grid, seed):
    # reference: the full transform and the dense H(k) of every mode; the
    # bound is relative to the mean mode energy hbar <w>
    rng = np.random.default_rng(seed)
    mass, c, hbar = 1.3, 1.7, 0.6
    values = rng.standard_normal(grid.shape + (8,)) + 1j * rng.standard_normal(grid.shape + (8,))
    hat = grid.fft(values)
    k = grid.wave_vectors()
    num = sum(np.vdot(hat[idx], hamiltonian_k(k[idx], mass, c, hbar) @ hat[idx]).real
              for idx in np.ndindex(grid.shape))
    weights = np.sum(np.abs(hat) ** 2, axis=-1)
    scale = hbar * np.sum(weights * omega_k(k, mass, c, hbar)) / np.sum(weights)
    energy = energy_expectation(SpinorField8(grid, values, mass=mass, c=c, hbar=hbar))
    assert abs(energy - num / np.sum(weights)) <= 1e-13 * scale


@pytest.mark.parametrize("mass, c, hbar", [(0.0, 1.0, 1.0), (0.7, 1.9, 0.45), (2.5, 0.6, 1.7)])
@pytest.mark.parametrize("grid", ANISOTROPIC_GRIDS, ids=["1d", "2d", "3d"])
def test_propagator_matches_dense_per_mode(grid, mass, c, hbar):
    # reference: exp(-i H(k) t / hbar) of every mode from the eigenpairs of
    # the dense H(k)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(grid.shape + (8,)) + 1j * rng.standard_normal(grid.shape + (8,))
    times = rng.uniform(-2.0, 2.0, 3)
    run = run_free(SpinorField8(grid, values, kind="electron", mass=mass, c=c, hbar=hbar), times)
    k = grid.wave_vectors()
    energies, vectors = np.linalg.eigh(np.stack([hamiltonian_k(k[idx], mass, c, hbar)
                                                 for idx in np.ndindex(grid.shape)]))
    hat0 = grid.fft(values).reshape(-1, 8)
    for t, sample in zip(times, run.values):
        phases = np.exp(-1j * energies * t / hbar)
        expected = np.einsum("mab,mb,mcb,mc->ma", vectors, phases, vectors.conj(), hat0)
        hat = grid.fft(sample).reshape(-1, 8)
        assert np.max(np.abs(hat - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_projectors():
    # the spectral projectors P(+-) = (I +- H/(hbar w))/2 of one mode
    k = np.array([0.3, -0.7, 1.1])
    eye = np.eye(8)
    h = hamiltonian_k(k, 0.4) / omega_k(k, 0.4)
    p_plus, p_minus = 0.5 * (eye + h), 0.5 * (eye - h)
    assert np.max(np.abs(p_plus + p_minus - eye)) < 1e-14
    assert np.max(np.abs(p_plus @ p_minus)) < 1e-14
    assert np.max(np.abs(p_plus @ p_plus - p_plus)) < 1e-14
    assert np.trace(p_plus).real == pytest.approx(4.0, abs=1e-12)


# --- free propagation ---------------------------------------------------

def test_evolve_identity_at_zero_time():
    psi = states.travelling_wave(grid1d(64), 2, "x")
    out = evolve_free(psi, 0.0)
    assert np.max(np.abs(out.values - psi.values)) < 1e-14


def test_travelling_wave_closed_form():
    g = grid1d()
    k = 3.0
    psi = states.travelling_wave(g, 3, "x")
    t = 0.9
    em = extract_em(evolve_free(psi, t))
    z = g.positions()[..., 2]
    assert np.max(np.abs(em.e[..., 0].real - np.cos(k * z - k * t))) < 1e-12
    assert np.max(np.abs(em.b[..., 1].real - np.cos(k * z - k * t))) < 1e-12


def test_group_property():
    psi = states.travelling_wave(grid1d(64), 2, "y")
    one = evolve_free(evolve_free(psi, 0.35), 0.65)
    two = evolve_free(psi, 1.0)
    assert np.max(np.abs(one.values - two.values)) < 1e-12


def test_zero_mode_static():
    g = grid1d(16)
    e = np.zeros(g.shape + (3,), dtype=complex)
    e[..., 0] = 0.7   # uniform field, k = 0 only
    psi = embed_em(EMField(g, e, np.zeros_like(e)))
    out = evolve_free(psi, 2.3)
    assert np.max(np.abs(out.values - psi.values)) < 1e-14


def _random_divergence_free(g, seed=8):
    """Real band-limited fields with vanishing divergence (curl of a random
    potential), the classical free-field data class."""
    rng = np.random.default_rng(seed)
    from dirac88.fields import curl
    a_e = rng.standard_normal(g.shape + (3,))
    a_b = rng.standard_normal(g.shape + (3,))
    e = curl(g, a_e.astype(complex)).real
    b = curl(g, a_b.astype(complex)).real
    return EMField(g, e.astype(complex), b.astype(complex))


def test_norm_energy_conservation_and_reality():
    g = grid1d()
    psi = embed_em(_random_divergence_free(g))
    times = np.linspace(0.0, 4.0, 30)
    run = run_free(psi, times)
    norms = [run.sample(i).norm() for i in range(run.n_samples)]
    energies = [energy_expectation(run.sample(i)) for i in range(run.n_samples)]
    assert np.ptp(norms) / norms[0] < 1e-12
    # real fields carry balanced frequency branches: <H> is zero and stays so
    assert np.max(np.abs(energies)) < 1e-12
    # reality preservation: divergence-free fields started real stay real
    for i in (5, 29):
        vals = run.values[i]
        assert np.max(np.abs(vals[..., 1:4].imag)) < 1e-10
        assert np.max(np.abs(vals[..., 5:8].real)) < 1e-10


def test_energy_conservation_positive_branch():
    g = grid1d(64)
    psi = states.circular_wave_analytic(g, 3, +1)
    run = run_free(psi, np.linspace(0.0, 4.0, 30))
    energies = [energy_expectation(run.sample(i)) for i in range(run.n_samples)]
    assert energies[0] == pytest.approx(3.0, abs=1e-12)
    assert np.ptp(energies) / energies[0] < 1e-12


def test_constraint_preserved_free():
    g = grid1d()
    psi = states.travelling_wave(g, 5, "x")
    run = run_free(psi, np.linspace(0, 3.0, 20))
    assert max(run.sample(i).constraint_residual() for i in range(20)) < 1e-10


def test_mode_decomposition_residual_and_reconstruction():
    g = grid1d(128)
    psi = states.standing_wave(g, 3, "x")
    dec = mode_decomposition(psi)
    # H psi_hat(+-) = +- hbar w psi_hat(+-)
    spectral = _Spectral(g, psi.mass, psi.c, psi.hbar)
    w = psi.hbar * dec.omega[..., None]
    scale = max(np.max(np.abs(dec.plus)), np.max(np.abs(dec.minus)), 1.0)
    assert np.max(np.abs(spectral.apply_h(dec.plus) - w * dec.plus)) < 1e-12 * scale
    assert np.max(np.abs(spectral.apply_h(dec.minus) + w * dec.minus)) < 1e-12 * scale
    axes = (0,)
    recon = np.fft.ifftn(dec.plus + dec.minus, axes=axes)
    assert np.max(np.abs(recon - psi.values)) < 1e-12


def positive_frequency_amplitudes(psi):
    """Complex E(r), B(r) of the positive-frequency part: a real monofrequency
    field is E(r) e^{-iwt} + c.c. with these amplitudes."""
    return extract_em_amplitudes(psi.grid.ifft(mode_decomposition(psi).plus))


def test_positive_frequency_amplitudes_standing_wave():
    g = grid1d(128)
    psi = states.standing_wave(g, 2, "x", amplitude=2.0)
    e_amp, b_amp = positive_frequency_amplitudes(psi)
    z = g.positions()[..., 2]
    assert np.max(np.abs(e_amp[..., 0] - np.cos(2 * z))) < 1e-12
    assert np.max(np.abs(b_amp[..., 1] - 1j * np.sin(2 * z))) < 1e-12


# --- sourced evolution --------------------------------------------------

def test_sourced_zero_source_matches_free():
    g = grid1d(64)
    psi = states.travelling_wave(g, 2, "x")
    src = states.uniform_current(g, [0, 1, 0], 0.0, 1.0)
    times = np.linspace(0.0, 1.5, 16)
    free = run_free(psi, times)
    sourced = evolve_sourced(psi, src, times)
    assert np.max(np.abs(free.values - sourced.values)) < 1e-12


def test_sourced_uniform_mode_closed_form():
    # E_y(t) = -4 pi A sin(Omega t) / Omega at every sample, also as Omega -> 0
    g = grid1d(64)
    amp = 0.25
    psi0 = embed_em(EMField.zero(g))
    times = np.linspace(0.0, 2.0, 21)
    for omega in (3.0, 0.0, 1e-6):
        run = evolve_sourced(psi0, states.uniform_current(g, [0, 1, 0], amp, omega), times)
        for i, t in enumerate(times):
            em = extract_em(run.sample(i))
            expect = -4 * np.pi * amp * t * np.sinc(omega * t / np.pi)
            assert np.max(np.abs(em.e[..., 1].real - expect)) < 1e-13
            assert np.max(np.abs(em.b)) < 1e-12


def test_sourced_quadrature_order():
    # the oracle's Simpson rule against the exact route: halving its step
    # shrinks the error ~16x (fourth order)
    g = grid1d(32)
    src = states.uniform_current(g, [0, 1, 0], 1.0, 5.0)
    psi0 = embed_em(EMField.zero(g))
    times = np.array([0.0, 1.0])
    exact = evolve_sourced(psi0, src, times)
    errs = [compare(exact, maxwell_evolve(EMField.zero(g), src, times, substeps=sub)).max_abs
            for sub in (4, 8, 16)]
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0


def _kernel_reference(w, omega, t):
    """(C_c, S_c, C_r, S_r / w) by 30-digit Gauss-Legendre quadrature."""
    w, omega, t = mpmath.mpf(w), mpmath.mpf(omega), mpmath.mpf(t)
    pieces = mpmath.linspace(0, t, int((abs(w) + abs(omega)) * t) // 16 + 2)
    sin_ratio = (lambda s: mpmath.sin(omega * s) / omega) if omega else (lambda s: s)
    cos_part = mpmath.quad(lambda s: mpmath.expj(w * (t - s)) * mpmath.cos(omega * s),
                           pieces, method="gauss-legendre")
    sin_part = mpmath.quad(lambda s: mpmath.expj(w * (t - s)) * sin_ratio(s),
                           pieces, method="gauss-legendre")
    return cos_part.real, cos_part.imag, sin_part.real, sin_part.imag / w if w else 0


def test_duhamel_kernels_match_quadrature():
    g = grid1d(256)
    w_grid = np.unique(_Spectral(g, 0.0, 1.0, 1.0).omega)
    w_res = float(w_grid[1])                      # the smallest nonzero w(k)
    assert w_grid[0] == 0.0 and w_grid[-1] == 128.0
    w = np.array([0.0, w_res, 37.5, 128.0])
    for t in (0.37, 1.0, 3.0):
        for omega in (0.0, 1e-6, -1e-6, 3.0, w_res, w_res + 1e-9, w_res - 1e-9):
            cc, cr, r = _duhamel_kernels(w, omega, t)
            for i, wi in enumerate(w):
                with mpmath.workdps(30):
                    ref = [float(x) for x in _kernel_reference(wi, omega, t)]
                assert abs(cc[i] - ref[0]) <= 1e-13 * t
                assert abs(wi * cr[i] - ref[1]) <= 1e-13 * t
                assert abs(cr[i] - ref[2]) <= 1e-13 * t ** 2
                assert abs(r[i] - ref[3]) <= 1e-13 * t ** 3


def test_sourced_charged_dipole_slow_omega():
    # a z dipole on a z line carries charge; at Omega = 1e-6 splitting
    # sin(Omega s) / Omega into exponentials fails the constraint check
    g = grid1d()
    src = states.gaussian_dipole_current(g, [0, 0, 1], 1.0, TWO_PI / 16, 1e-6)
    times = np.linspace(0.0, 3.0, 31)
    run = evolve_sourced(embed_em(EMField.zero(g)), src, times)
    for i, t in enumerate(times):
        gauss = divergence(g, run.values[i][..., 1:4]) - 4 * np.pi * src.charge(t)
        assert np.max(np.abs(gauss)) < 1e-10


def test_sourced_continuity_rejected():
    g = grid1d(64)
    bad = states.gaussian_dipole_current(g, [0, 0, 1], 1.0, 0.4, 2.0,
                                         violate_continuity=True)
    psi0 = embed_em(EMField.zero(g))
    with pytest.raises(ConstraintViolation):
        evolve_sourced(psi0, bad, np.linspace(0, 1.0, 8))


def test_sourced_nyquist_continuity_rejected():
    # an under-resolved 3-D dipole: the divergence of its current is imaginary at the
    # Nyquist modes, which the real charge density cannot balance
    g = GridSpec((16, 8, 16), (TWO_PI, 2.5, 4.5))
    src = states.gaussian_dipole_current(g, [0, 1, 0], 1.0, TWO_PI / 16, 4.0)
    with pytest.raises(ConstraintViolation, match="source continuity residual"):
        evolve_sourced(states.zero_field(g), src, np.linspace(0.0, 1.0, 5))


def test_sourced_gauss_initial_data_rejected():
    # divergence-ful initial E with no charge: constraint components grow
    g = grid1d(64)
    z = g.positions()[..., 2]
    e = np.zeros(g.shape + (3,), dtype=complex)
    e[..., 2] = np.sin(z)
    psi0 = embed_em(EMField(g, e, np.zeros_like(e)))
    src = states.uniform_current(g, [0, 1, 0], 0.0, 1.0)
    with pytest.raises(ConstraintViolation):
        evolve_sourced(psi0, src, np.linspace(0, 1.0, 8)).moments


def test_a_violating_sourced_run_raises_on_its_first_read():
    # the check runs where a sample is formed: the pass, sample(i) and values
    g = grid1d(64)
    e = np.zeros(g.shape + (3,), dtype=complex)
    e[..., 2] = np.sin(g.positions()[..., 2])
    src = states.uniform_current(g, [0, 1, 0], 0.0, 1.0)
    times = np.linspace(0, 1.0, 8)
    message = (r"constrained components reached \d\.\d{3}e[+-]\d+ at t = 0\.142857; check "
               "source continuity and the Gauss law of the initial data")
    reads = {"pass": lambda run: list(run.samples()),
             "moments": lambda run: run.moments, "values": lambda run: run.values,
             "sample": lambda run: run.sample(1)}
    for name, read in reads.items():
        run = evolve_sourced(embed_em(EMField(g, e, np.zeros_like(e))), src, times)
        assert run.sample(0).constraint_residual() == 0.0, name
        with pytest.raises(ConstraintViolation, match=message):
            read(run)
        assert run._moments is None, name


def test_nan_fails_both_sourced_checks():
    g = grid1d(64)
    bad_source = states.uniform_current(g, [0, 1, 0], 1.0, 1.0)
    bad_source.j_amp[3, 1] = np.nan
    assert np.isnan(bad_source.continuity_residual(0.0))
    with pytest.raises(ConstraintViolation, match="source continuity residual nan"):
        evolve_sourced(states.zero_field(g), bad_source, np.linspace(0, 1.0, 4))
    psi0 = states.zero_field(g)
    psi0.values[5, 2] = np.nan
    run = evolve_sourced(psi0, states.uniform_current(g, [0, 1, 0], 1.0, 1.0),
                         np.linspace(0, 1.0, 4))
    # the NaN stays off components 0 and 4 on a 1-D grid; the NaN field scale fails it
    with pytest.raises(ConstraintViolation, match=r"reached 0\.000e\+00 at t = 0;"):
        run.moments


def test_a_sourced_run_holds_no_samples():
    # the tracemalloc peak of a 3-D sourced run and its pass is flat in its sample count
    import tracemalloc
    g = GridSpec((16, 16, 16), (TWO_PI, TWO_PI, TWO_PI))
    psi0, src = states.zero_field(g), states.uniform_current(g, [0, 1, 0], 1.0, 2.0)
    peaks = []
    for n in (11, 41):
        tracemalloc.start()
        try:
            run = evolve_sourced(psi0, src, np.linspace(0.0, 2.0, n))
            energy_expectation_series(run)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stack_bytes = 30 * g.points[0] ** 3 * 8 * 16     # 30 samples more
    assert peaks[1] - peaks[0] < stack_bytes / 20, peaks


def test_sourced_electron_state_rejected():
    g = grid1d(16)
    src = states.uniform_current(g, [0, 1, 0], 1.0, 1.0)
    with pytest.raises(ValueError, match="photon-embedded"):
        evolve_sourced(states.electron_rest_mix(g, mass=1.0), src, np.linspace(0, 1.0, 8))


# --- velocity expectation and jitter ------------------------------------

def test_alpha_constant_for_photon_volume():
    g = grid1d()
    psi = states.standing_wave(g, 2, "x")
    run = run_free(psi, np.linspace(0, 3.0, 40))
    series = alpha_expectation_series(run)
    assert np.ptp(series.values, axis=0).max() < 1e-12


def test_monochromatic_photon_no_jitter():
    g = grid1d(64)
    psi = states.circular_wave_analytic(g, 3, +1)
    run = run_free(psi, np.linspace(0, 2.0, 24))
    vol = alpha_expectation_series(run)
    assert np.ptp(vol.values, axis=0).max() < 1e-12
    pointwise = alpha_density_series(run, (11,))
    assert np.ptp(pointwise.values, axis=0).max() < 1e-12
    rep = zitter_decompose(run)
    assert rep.amplitude.max() < 1e-12 and rep.lines == []


def test_standing_wave_local_jitter_frequency():
    g = grid1d()
    mode = 2
    psi = states.standing_wave(g, mode, "x")
    times = np.linspace(0.0, 3.5, 64)
    run = run_free(psi, times)
    coords = g.axis_coords()[0]
    idx = (int(np.argmax(np.abs(np.sin(2 * mode * coords)))),)
    rep = zitter_decompose(run, alpha_density_series(run, idx))
    assert rep.expected_frequency == pytest.approx(2.0 * mode)
    assert rep.relative_frequency_error < 1e-6


def test_electron_rest_mix_jitter():
    g = grid1d(16)
    psi = states.electron_rest_mix(g, mass=1.0)
    run = run_free(psi, np.linspace(0.0, 9.0, 160))
    rep = zitter_decompose(run)
    assert rep.expected_frequency == pytest.approx(2.0)
    assert rep.relative_frequency_error < 1e-6
    assert rep.amplitude.max() > 0.5
    # closed form: <alpha_z>(t) = -sin(2 m t) for the equal mixture
    series = alpha_expectation_series(run)
    assert np.max(np.abs(series.values[:, 2] + np.sin(2.0 * run.times))) < 1e-12


def test_single_mode_mixture_any_mass():
    # generic spinor carried on one mode holds both energy branches; the
    # jitter line sits at 2 w(k) for massive modes too
    g = grid1d(64)
    mass, mode = 0.7, 2
    k = 2.0
    w = np.sqrt(k * k + mass * mass)
    pos = g.positions()[..., 2]
    spinor = np.array([0.3, 1.0, -0.2j, 0.5, 0.1j, 0.4, 0.0, 0.2], dtype=complex)
    values = np.exp(1j * k * pos)[..., None] * spinor
    from dirac88.fields import SpinorField8
    psi = SpinorField8(g, values, kind="electron", mass=mass)
    duration = 3.0 * TWO_PI / (2.0 * w)
    run = run_free(psi, np.linspace(0.0, duration, 96))
    rep = zitter_decompose(run)
    assert rep.expected_frequency == pytest.approx(2.0 * w)
    assert rep.relative_frequency_error < 1e-6


def test_dc_equals_drift_prediction_over_full_periods():
    g = grid1d(16)
    psi = states.electron_rest_mix(g, mass=1.0)
    # window = integer number of jitter periods: the oscillation averages out
    duration = 3.0 * np.pi
    run = run_free(psi, np.linspace(0.0, duration, 97))
    rep = zitter_decompose(run)
    assert np.max(np.abs(rep.dc - rep.dc_prediction)) < 1e-10


def test_electron_jitter_units():
    g = grid1d(16)
    c, hbar, m = 2.0, 1.5, 0.8
    psi = replace(states.electron_rest_mix(g, mass=m), c=c, hbar=hbar)
    expected = 2.0 * m * c * c / hbar
    duration = 3.0 * TWO_PI / expected
    run = run_free(psi, np.linspace(0.0, duration, 64))
    rep = zitter_decompose(run)
    assert rep.expected_frequency == pytest.approx(expected)
    assert rep.relative_frequency_error < 1e-6


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(phase=st.floats(-np.pi, np.pi), dc=st.floats(-100.0, 100.0), amplitude=st.floats(0.1, 10.0),
       samples=st.integers(16, 300), stretch=st.floats(0.0, 1.0), axis=st.integers(0, 2))
def test_jitter_frequency_of_a_sampled_sinusoid(phase, dc, amplitude, samples, stretch, axis):
    # a rest mix jitters at 2 m c^2 / hbar = 2; durations run from two periods
    # (just above the FitError bound) up to a step of W dt = 3
    omega = 2.0
    shortest, longest = 2.01 * TWO_PI / omega, 3.0 * (samples - 1) / omega
    times = np.linspace(0.0, shortest + stretch * (longest - shortest), samples)
    run = run_free(states.electron_rest_mix(grid1d(4), mass=1.0), times)
    values = np.full((samples, 3), dc)
    values[:, axis] += amplitude * np.cos(omega * times + phase)
    rep = zitter_decompose(run, ExpectationSeries(times, values))
    assert rep.expected_frequency == omega
    assert rep.relative_frequency_error <= 1e-12


def test_jitter_frequency_under_a_large_dc_offset():
    # each sample of dc + A cos carries a rounding error of about eps |dc|, and
    # second differences amplify it by about 1 / (W dt)^2: at |dc| = 5e4 A and
    # W dt = 0.042 the error reaches 1e-11, where a full sinusoid fit gets 1e-13
    omega, samples = 2.0, 300
    times = np.linspace(0.0, 2.01 * TWO_PI / omega, samples)
    run = run_free(states.electron_rest_mix(grid1d(4), mass=1.0), times)
    errors = []
    for phase in np.linspace(-np.pi, np.pi, 8, endpoint=False):
        values = np.full((samples, 3), 5e4 * 0.5)
        values[:, 0] += 0.5 * np.cos(omega * times + phase)
        errors.append(zitter_decompose(run, ExpectationSeries(times, values)).relative_frequency_error)
    assert max(errors) <= 1e-10


def test_flat_series_gives_a_finite_frequency():
    # nothing oscillates (a node of a standing wave, say): the fit still
    # writes a frequency in [0, pi / dt], with no NaN and no warning
    times = np.linspace(0.0, 9.0, 64)
    run = run_free(states.electron_rest_mix(grid1d(4), mass=1.0), times)
    rep = zitter_decompose(run, ExpectationSeries(times, np.zeros((64, 3))))
    assert np.isfinite(rep.fitted_frequency)
    assert 0.0 <= rep.fitted_frequency <= np.pi / (times[1] - times[0])
    assert rep.amplitude.max() == 0.0


def test_sample_carries_the_run_units():
    # <H> of a positive-frequency rest electron is m c^2 in the state's own units
    psi = states.electron_rest_mix(grid1d(16), mass=0.8, plus_weight=1.0, minus_weight=0.0)
    run = run_free(replace(psi, c=2.0, hbar=1.5), np.linspace(0.0, 1.0, 4))
    assert abs(energy_expectation(run.sample(0)) - 0.8 * 2.0 ** 2) <= 1e-12


def test_units_travel_with_the_state():
    g = grid1d(16)
    units = {"c": 2.0, "hbar": 1.5}
    photon = replace(states.travelling_wave(g, 1, "x"), **units)
    electron = replace(states.electron_rest_mix(g, mass=0.8), **units)
    src = states.uniform_current(g, [0, 1, 0], 1.0, 1.0)
    times = np.linspace(0.0, 1.0, 4)
    carriers = [evolve_free(electron, 0.5), run_free(electron, times),
                run_free(electron, times).sample(2), evolve_sourced(photon, src, times),
                mode_decomposition(electron)]
    for carrier in carriers:
        assert (carrier.c, carrier.hbar) == (2.0, 1.5), type(carrier).__name__


def test_spinor_field_fields():
    names = [field.name for field in fields(SpinorField8)]
    assert names == ["grid", "values", "kind", "mass", "c", "hbar"]


@pytest.mark.parametrize("function", [
    evolve_free, run_free, evolve_sourced, mode_decomposition, energy_expectation,
    angular_momentum_series, energy_expectation_series], ids=lambda function: function.__name__)
def test_functions_of_a_state_take_no_units(function):
    # c and hbar come from the state or run, so they cannot disagree with it
    assert not {"c", "hbar"} & set(inspect.signature(function).parameters)


def test_run_diagnostics_share_one_moments_pass(monkeypatch):
    import dirac88.evolution as evolution
    calls = []
    kernel = evolution._MomentsPass

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(evolution, "_MomentsPass", counted)
    g = GridSpec((8, 8), (TWO_PI, 5.0))
    psi = states.electron_gaussian_packet(g, mass=1.5, sigma=0.5, k0_mode=(1, 1),
                                          minus_weight=0.5)
    run = run_free(psi, np.linspace(0.0, 1.0, 5))
    energies = energy_expectation_series(run)
    alpha = alpha_expectation_series(run)
    angular_momentum_series(run)
    alpha_density_series(run, (2, 3))
    assert len(calls) == 1
    # a free run reads its axis-0 transform from the spectral amplitudes, a lone
    # state transforms its values: the same sums up to round-off
    assert abs(energies[2] - energy_expectation(run.sample(2))) <= 1e-15 * np.max(np.abs(energies))
    assert np.array_equal(alpha.values[0], alpha_expectation_series(run_free(psi, [0.0])).values[0])
    assert not run.values.flags.writeable
    with pytest.raises(ValueError):
        run.values[0, 0, 0, 0] = 1.0
    sample = run.sample(0)
    sample.values[0, 0, 0] = 1.0
    assert run.values[0, 0, 0, 0] != 1.0


def _views(run):
    views = {"alpha": alpha_expectation_series(run).values,
             "density at point 5": alpha_density_series(run, (5,)).values,
             "density at point 9": alpha_density_series(run, (9,)).values,
             "energy": energy_expectation_series(run)}
    views.update(zip(("orbital", "spin", "total"),
                     (series.values for series in angular_momentum_series(run))))
    return views


def test_views_read_zero_for_an_empty_sample_and_nan_for_a_nan_one():
    # every expectation value divides by its own sample's norm in one way
    g = grid1d(16)
    times = np.linspace(0.0, 1.0, 4)
    # a zero field driven from t = 0: sample 0 is exactly zero, the others are not
    driven = evolve_sourced(states.zero_field(g), states.uniform_current(g, [0, 1, 0], 1.0, 1.0),
                            times)
    assert not np.any(driven.sample(0).values)
    for name, view in _views(driven).items():
        assert np.all(view[0] == 0.0), name
        assert np.all(np.isfinite(view[1:])), name
    # one NaN in the state reaches every point of every sample through the transforms
    psi = states.electron_rest_mix(g, mass=1.0)
    psi.values[5, 3] = np.nan
    for name, view in _views(run_free(psi, times)).items():
        assert np.all(np.isnan(view)), name


def test_hypothesis_can_report_a_falsifying_example():
    # the report imports libcst, whose import warns under the DeprecationWarning
    # filter; pytest.importorskip would import it with warnings silenced
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    import hypothesis.extra._patching  # noqa: F401


@pytest.mark.parametrize("center", [0.5, [0.5, 9.0], [[0.5]], "a"],
                         ids=["one-number", "too-many", "nested", "string"])
def test_state_builders_share_one_centre_rule(center):
    g1, g2 = grid1d(16), GridSpec((8, 8), (TWO_PI, TWO_PI))
    if center == 0.5:
        packet = states.electron_gaussian_packet(g2, mass=1.0, sigma=0.6, center=center)
        assert np.array_equal(packet.values, states.electron_gaussian_packet(
            g2, mass=1.0, sigma=0.6, center=[0.5, 0.5]).values)
        dipole = states.gaussian_dipole_current(g2, [1, 0, 0], 1.0, 0.6, 1.0, center=center)
        assert np.array_equal(dipole.j_amp, states.gaussian_dipole_current(
            g2, [1, 0, 0], 1.0, 0.6, 1.0, center=[0.5, 0.5]).j_amp)
        return
    with pytest.raises(ValueError):
        states.electron_gaussian_packet(g1, mass=1.0, sigma=0.6, center=center)
    with pytest.raises(ValueError):
        states.gaussian_dipole_current(g1, [1, 0, 0], 1.0, 0.6, 1.0, center=center)


@pytest.mark.parametrize("hbar", [1.0, 2.0])
def test_positive_packet_drift_matches_prediction(hbar):
    g = grid1d(128)
    psi = states.electron_gaussian_packet(g, mass=1.0, sigma=TWO_PI / 14,
                                          k0_mode=(3,), plus_weight=1.0,
                                          minus_weight=0.0, hbar=hbar)
    run = run_free(psi, np.linspace(0.0, 2.0, 24))
    series = alpha_expectation_series(run)
    assert np.ptp(series.values, axis=0).max() < 1e-12
    pred = zitter_decompose(run, series).dc_prediction
    assert np.max(np.abs(series.values[0] - pred)) < 1e-10


def test_zitter_multimode_raises():
    g = grid1d(64)
    psi1 = states.standing_wave(g, 1, "x")
    psi2 = states.standing_wave(g, 3, "y")
    mixed = psi1
    mixed.values[:] = psi1.values + psi2.values
    run = run_free(mixed, np.linspace(0, 8.0, 80))
    with pytest.raises(FitError, match="at frequencies 2, 6;"):
        zitter_decompose(run)


def test_zitter_too_few_samples():
    g = grid1d(16)
    psi = states.electron_rest_mix(g, mass=1.0)
    run = run_free(psi, np.linspace(0, 5.0, 8))
    with pytest.raises(FitError):
        zitter_decompose(run)


# --- flux split ---------------------------------------------------------

def poynting_split(e_amp, b_amp):
    """The flux of a single-frequency field E = E(r) e^{-iwt} + c.c. (same for
    B) is dc + osc e^{-2iwt} + c.c., with dc = E* x B + E x B* (real) and
    osc = E x B: the reference that the general check reduces to."""
    dc = (np.cross(e_amp.conj(), b_amp) + np.cross(e_amp, b_amp.conj())).real
    return dc, np.cross(e_amp, b_amp)


def test_poynting_split_travelling_wave():
    g = grid1d(64)
    z = g.positions()[..., 2]
    k = 2.0
    e_amp = np.zeros(g.shape + (3,), dtype=complex)
    b_amp = np.zeros(g.shape + (3,), dtype=complex)
    e_amp[..., 0] = 0.5 * np.exp(1j * k * z)
    b_amp[..., 1] = 0.5 * np.exp(1j * k * z)
    dc, osc = poynting_split(e_amp, b_amp)
    assert np.max(np.abs(dc[..., 2] - 0.5)) < 1e-13
    assert np.max(np.abs(osc[..., 2] - 0.25 * np.exp(2j * k * z))) < 1e-13
    # reconstruction at a sample time equals cos^2(kz - wt) flux
    t = 0.33
    recon = dc[..., 2] + 2.0 * (osc[..., 2] * np.exp(-2j * k * t)).real
    assert np.max(np.abs(recon - np.cos(k * z - k * t) ** 2)) < 1e-12


def test_poynting_split_zero_b():
    g = grid1d(16)
    e_amp = RNG.standard_normal(g.shape + (3,)).astype(complex)
    dc, osc = poynting_split(e_amp, np.zeros_like(e_amp))
    assert np.max(np.abs(dc)) == 0.0 and np.max(np.abs(osc)) == 0.0


def test_quadrature_standing_wave_dc_vanishes():
    # E(r) = x cos(kz), B(r) = i y sin(kz): dc = 0 pointwise; check against
    # the time average of the run's flux over one period
    g = grid1d(128)
    mode = 2
    psi = states.standing_wave(g, mode, "x", amplitude=2.0)
    e_amp, b_amp = positive_frequency_amplitudes(psi)
    dc, osc = poynting_split(e_amp, b_amp)
    assert np.max(np.abs(dc)) < 1e-12
    period = TWO_PI / (2.0 * mode)
    times = np.linspace(0.0, period, 129)[:-1]
    run = run_free(psi, times)
    from dirac88.evolution import _alpha_density
    avg = np.mean([0.5 * _alpha_density(run.values[i]) for i in range(run.n_samples)], axis=0)
    assert np.max(np.abs(avg - dc)) < 1e-12


def test_zitter_equals_poynting_single_mode():
    g = grid1d(128)
    mode = 2
    psi = states.standing_wave(g, mode, "x")
    run = run_free(psi, np.linspace(0.0, 3.0, 48))
    rep = zitter_equals_poynting(run)
    assert rep.volume_deviation < 1e-12
    assert rep.pointwise_deviation < 1e-12


def test_zitter_equals_poynting_on_a_shifted_time_grid():
    # each mode turns by the run's own times, from the t = 0 amplitudes
    run = run_free(states.standing_wave(grid1d(256), 2, "x"), 0.3 + np.linspace(0.0, 3.5, 64))
    rep = zitter_equals_poynting(run)
    assert rep.volume_deviation < 1e-12
    assert rep.pointwise_deviation <= 1e-12


def test_a_sourced_run_off_t0_has_its_t0_branches():
    # a sourced run holds psi0's split, whatever time its samples start at
    g = grid1d(256)
    psi = states.standing_wave(g, 2, "x")
    times = 0.3 + np.linspace(0.0, 3.5, 64)
    dec = evolve_sourced(psi, states.uniform_current(g, [0, 1, 0], 0.0, 1.0), times).branches
    ref = mode_decomposition(psi)
    for name in ("plus", "minus", "omega"):
        assert np.array_equal(getattr(dec, name), getattr(ref, name)), name
    assert (dec.grid, dec.mass, dec.c, dec.hbar) == (ref.grid, ref.mass, ref.c, ref.hbar)


def test_zitter_decompose_on_a_shifted_time_grid():
    psi = states.electron_rest_mix(GridSpec((16,), (TWO_PI,)), mass=1.0)
    rep = zitter_decompose(run_free(psi, 0.7 + np.linspace(0.0, 9.0, 160)))
    assert rep.relative_frequency_error <= 1e-12


def test_zitter_equals_poynting_circular():
    # circular polarisation has a time-independent flux: both oscillatory
    # sides vanish identically (a complex field: only the volume row holds)
    g = grid1d(64)
    psi = states.circular_wave_analytic(g, 3, +1)
    run = run_free(psi, np.linspace(0.0, 2.0, 24))
    e_amp, b_amp = positive_frequency_amplitudes(psi)
    # a pure positive-frequency wave: the plus branch is the whole field
    assert np.max(np.abs(e_amp - psi.values[..., 1:4])) < 1e-13
    assert np.max(np.abs(b_amp + 1j * psi.values[..., 5:8])) < 1e-13
    dc, osc = poynting_split(e_amp, b_amp)
    assert np.max(np.abs(osc)) < 1e-13
    rep = zitter_equals_poynting(run)
    assert rep.volume_deviation < 1e-12


def test_zitter_equals_poynting_two_directions():
    g = GridSpec((32, 32), (TWO_PI, TWO_PI))
    e = np.zeros(g.shape + (3,), dtype=complex)
    b = np.zeros(g.shape + (3,), dtype=complex)
    pos = g.positions()
    # same |k|, different directions (y and z axes of the grid)
    e[..., 0] = np.cos(2 * pos[..., 1]) + np.cos(2 * pos[..., 2])
    b[..., 2] = np.cos(2 * pos[..., 1])
    b[..., 1] = -np.cos(2 * pos[..., 2])
    psi = embed_em(EMField(g, e, b))
    run = run_free(psi, np.linspace(0.0, 2.5, 32))
    rep = zitter_equals_poynting(run)
    assert rep.volume_deviation < 1e-10
    assert rep.pointwise_deviation < 1e-10


def random_free_field(static: bool) -> SpinorField8:
    """A random real, divergence-free 16^3 field with every mode |q| <= 3.5,
    clear of q = 0 unless ``static`` adds uniform E and B."""
    g = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    rng = np.random.default_rng(5)
    q = g.wave_vectors()
    q2 = np.sum(q * q, axis=-1, keepdims=True)
    unit = np.divide(q, np.sqrt(q2), out=np.zeros_like(q), where=q2 > 0.0)

    def transverse():
        f = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
        f -= unit * np.sum(unit * f, axis=-1, keepdims=True)
        f *= (q2 <= 3.5 ** 2) & (q2 > 0.0)
        field = g.ifft(f).real
        return (field / np.max(np.abs(field))).astype(complex)

    e, b = transverse(), transverse()
    if static:
        e += [0.3, -0.2, 0.5]
        b += [-0.4, 0.1, 0.2]
    return embed_em(EMField(g, e, b))


def pointwise_deviation_over_scale(run):
    from dirac88.evolution import _alpha_density
    scale = max(float(np.max(np.abs(0.5 * _alpha_density(v)))) for v in run.values)
    return zitter_equals_poynting(run).pointwise_deviation / scale


@pytest.mark.parametrize("static", [False, True], ids=["multi_mode", "static_part"])
def test_zitter_equals_poynting_for_a_multi_mode_field(static):
    # many frequencies at once; a static part sits whole in the plus branch and is halved
    run = run_free(random_free_field(static), np.linspace(0.0, 2.3, 7))
    assert pointwise_deviation_over_scale(run) <= 1e-12


def test_zitter_equals_poynting_for_two_frequencies():
    g = grid1d(64)
    z = g.positions()[..., 2]
    e = np.zeros(g.shape + (3,), dtype=complex)
    b = np.zeros_like(e)
    e[..., 0] = np.cos(2 * z) + 0.5 * np.sin(5 * z)
    e[..., 1] = 0.7 * np.cos(3 * z)
    b[..., 1] = 0.3 * np.cos(3 * z) - np.sin(2 * z)
    run = run_free(embed_em(EMField(g, e, b)), np.linspace(0.0, 3.0, 40))
    assert pointwise_deviation_over_scale(run) <= 1e-12


def test_zitter_equals_poynting_fails_off_the_constraint_surface():
    # a longitudinal E breaks the Gauss law: the pointwise row sees it
    g = grid1d(64)
    z = g.positions()[..., 2]
    e = np.zeros(g.shape + (3,), dtype=complex)
    b = np.zeros_like(e)
    e[..., 2] = np.cos(2 * z)
    e[..., 0] = b[..., 1] = np.cos(3 * z)
    run = run_free(embed_em(EMField(g, e, b)), np.linspace(0.0, 3.0, 40))
    assert pointwise_deviation_over_scale(run) > 1e-6


def not_one(lo, hi):
    return st.floats(lo, hi).filter(lambda x: x != 1.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(points=st.lists(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=3),
       mass=not_one(0.3, 3.0), c=not_one(0.3, 3.0), hbar=not_one(0.3, 3.0),
       t1=st.floats(-1.0, 1.0), t2=st.floats(-1.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_propagator_unitary_and_composes_on_random_grids(points, mass, c, hbar, t1, t2, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(tuple(points), tuple(rng.uniform(2.0, 8.0, len(points))))
    values = rng.standard_normal(grid.shape + (8,)) + 1j * rng.standard_normal(grid.shape + (8,))
    psi = SpinorField8(grid, values, kind="electron", mass=mass, c=c, hbar=hbar)
    one = evolve_free(evolve_free(psi, t1), t2)
    both = evolve_free(psi, t1 + t2)
    assert abs(np.linalg.norm(both.values) / np.linalg.norm(values) - 1.0) < 1e-13
    assert np.max(np.abs(one.values - both.values)) < 1e-13 * np.max(np.abs(values))


# --- the streamed pass over a run's samples --------------------------------

def _stacked_moments(grid, values):
    """The moments of a stack of samples, each formed with fresh arrays: the
    reference for the pass, which measures one sample at a time in reused ones."""
    from dirac88.fields import _ALPHA
    n = len(values)
    norms, gram = np.empty(n), np.empty((n, 8, 8), dtype=complex)
    kinetic, rk = np.zeros(n), np.zeros((n, 3, 3))
    coords, cart, k_axes = grid.axis_coords(), grid.spatial_axes, grid._axis_wave_numbers()
    k_lines = [k.reshape([-1 if ax == b else 1 for ax in range(grid.ndim)])
               for b, k in enumerate(k_axes)]
    for s, v in enumerate(values):
        norms[s] = np.sum(np.abs(v) ** 2)
        flat = v.reshape(-1, 8)
        gram[s] = flat.conj().T @ flat
        for b, n_b in enumerate(grid.points):
            a_b = np.fft.fft(v, axis=b)
            lines = np.moveaxis(a_b, b, 0).reshape(n_b, -1, 8)
            line_gram = lines.conj().transpose(0, 2, 1) @ lines
            kinetic[s] += np.einsum("k,ab,kab->", k_axes[b], _ALPHA[cart[b]], line_gram).real / n_b
            real = a_b.view(float)
            weighted = np.einsum("...i,...i->...", real, real) * k_lines[b]
            for a in range(grid.ndim):
                if a != b:
                    others = tuple(ax for ax in range(grid.ndim) if ax != a)
                    rk[s, cart[a], cart[b]] = weighted.sum(axis=others) @ coords[a] / n_b
    return norms, gram, kinetic, rk


def _packet(points, lengths, k0_mode):
    g = GridSpec(points, lengths)
    return states.electron_gaussian_packet(g, mass=1.5, sigma=0.6, k0_mode=k0_mode,
                                           minus_weight=0.7)


STREAM_CASES = {
    "free-1d": lambda: _packet((64,), (TWO_PI,), (3,)),
    "free-2d": lambda: _packet((8, 16), (TWO_PI, 5.0), (1, 2)),
    "free-3d": lambda: _packet((8, 8, 16), (TWO_PI, 5.0, 9.0), (1, 0, 2)),
    "free-3d-ragged": lambda: _packet((4, 8, 16), (TWO_PI, 5.0, 9.0), (1, 2, 3)),
    "sourced-1d": lambda: states.travelling_wave(grid1d(64), 2, "y", 0.5),
    "sourced-3d": lambda: states.travelling_wave(GridSpec((8, 4, 16), (TWO_PI, 5.0, 9.0)),
                                                 (1, 0, 2), "y", 0.5),
}
STREAM_SOURCES = {
    "sourced-1d": lambda g: states.gaussian_dipole_current(g, [0, 1, 0], 1.0, TWO_PI / 16, 2.0),
    # uniform, so band-limited on a coarse grid, where that dipole's tail at the
    # Nyquist modes would break the Gauss law
    "sourced-3d": lambda g: states.uniform_current(g, [0, 1, 0], 1.0, 2.0),
}


def _stream_run(case):
    psi0, times = STREAM_CASES[case](), np.linspace(0.0, 1.7, 9)
    if case in STREAM_SOURCES:
        return psi0, evolve_sourced(psi0, STREAM_SOURCES[case](psi0.grid), times)
    return psi0, run_free(psi0, times)


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_samples_stream_the_free_evolution_in_order(case):
    psi0, run = _stream_run(case)
    free = not case.startswith("sourced")
    dec = mode_decomposition(psi0)
    seen = []
    for i, psi in enumerate(run.samples()):
        assert not psi.values.flags.writeable
        assert (psi.kind, psi.mass, psi.c, psi.hbar) == (run.kind, run.mass, run.c, run.hbar)
        if free:
            assert np.array_equal(psi.values, psi0.grid.ifft(dec.at(float(run.times[i]))))
        seen.append(psi.values.copy())
    assert len(seen) == run.n_samples
    assert np.array_equal(np.array(seen), run.values)
    assert all(np.array_equal(run.sample(i).values, seen[i]) for i in (0, -1))


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_pass_moments_equal_the_stacked_moments(case):
    _, run = _stream_run(case)
    moments = run.moments            # the pass, before anything stacks the run
    norms, gram, kinetic, rk = _stacked_moments(run.grid, run.values)
    assert np.array_equal(moments.norms, norms)
    assert np.array_equal(moments.gram, gram)
    scale = float(np.max(np.abs(run.grid.wave_vectors()))) * float(np.max(norms))
    assert np.max(np.abs(moments.kinetic - kinetic)) <= 1e-15 * scale
    assert np.max(np.abs(moments.rk - rk)) <= 1e-15 * scale * max(run.grid.lengths)


def test_a_pass_left_early_fills_no_moments(monkeypatch):
    psi0, run = _stream_run("free-2d")
    for _ in run.samples():
        break
    assert run._moments is None
    formed = []
    ifft_staged = GridSpec.ifft_staged

    def counted(self, *args, **kwargs):
        formed.append(1)
        return ifft_staged(self, *args, **kwargs)

    monkeypatch.setattr(GridSpec, "ifft_staged", counted)
    norms = run.moments.norms
    assert len(formed) == run.n_samples
    assert np.array_equal(norms, _stacked_moments(run.grid, run.values)[0])
    # the complete pass is cached: iterating again measures nothing and keeps it
    for _ in run.samples():
        pass
    assert run.moments.norms is norms


def test_a_yielded_sample_is_valid_until_the_next():
    _, run = _stream_run("free-1d")
    first = None
    for psi in run.samples():
        if first is None:
            first, kept = psi.values, psi.values.copy()
        else:
            break
    # the buffer is reused: the first sample's values now hold the second's
    assert np.array_equal(first, run.values[1])
    assert np.array_equal(kept, run.values[0])

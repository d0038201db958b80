import importlib.util
import inspect
import tracemalloc
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac88.errors import ConstraintViolation, FitError
from dirac88.evolution import (EvolutionRun, _duhamel_kernels, _source_hat_parts, _Spectral,
                               alpha_density_series, alpha_expectation_series, energy_expectation,
                               energy_expectation_series, evolve_free, evolve_sourced,
                               hamiltonian_k, mode_decomposition, omega_k, run_free,
                               zitter_decompose, zitter_equals_poynting)
from dirac88.fields import (_BETA, EMField, GridSpec, SpinorField8, _alpha_density,
                            _components_first, _Moments, _plane_runs,
                            _time_blocks, divergence, embed_em, extract_em,
                            extract_em_amplitudes)
from dirac88.spin import angular_momentum_series
from dirac88 import states
from sourced_cases import SOURCE_CASES, bits_equal

TWO_PI = 2 * np.pi
RNG = np.random.default_rng(8)


def grid1d(n=256):
    return GridSpec((n,), (TWO_PI,))


def stacked(run):
    """Every sample of a run, (n_times, *grid, 8): the pass reuses its buffers,
    so each sample is copied out as it passes."""
    return np.array([psi.values.copy() for psi in run.samples()])


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
    for t, sample in zip(times, stacked(run)):
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
        vals = run.sample(i).values
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
    assert np.max(np.abs(stacked(free) - stacked(sourced))) < 1e-12


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
            cc, cr, r = _duhamel_kernels(w, omega, t, True)
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
        gauss = divergence(g, run.sample(i).values[..., 1:4]) - 4 * np.pi * src.charge(t)
        assert np.max(np.abs(gauss)) < 1e-10


def test_sourced_continuity_rejected():
    g = grid1d(64)
    bad = states.gaussian_dipole_current(g, [0, 0, 1], 1.0, 0.4, 2.0)
    bad.rho_amp = np.zeros(g.shape)   # the fault: a current with no charge
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
    # the check runs where a sample is formed: the pass, blocks() and sample(i)
    g = grid1d(64)
    e = np.zeros(g.shape + (3,), dtype=complex)
    e[..., 2] = np.sin(g.positions()[..., 2])
    src = states.uniform_current(g, [0, 1, 0], 0.0, 1.0)
    times = np.linspace(0, 1.0, 8)
    message = (r"constrained components reached \d\.\d{3}e[+-]\d+ at t = 0\.142857; check "
               "source continuity and the Gauss law of the initial data")
    reads = {"pass": lambda run: list(run.samples()),
             "moments": lambda run: run.moments, "blocks": lambda run: list(run.blocks()),
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
    assert np.isnan(bad_source.continuity_residual())
    with pytest.raises(ConstraintViolation, match="source continuity residual nan"):
        evolve_sourced(states.zero_field(g), bad_source, np.linspace(0, 1.0, 4))
    psi0 = states.zero_field(g)
    psi0.values[5, 2] = np.nan
    run = evolve_sourced(psi0, states.uniform_current(g, [0, 1, 0], 1.0, 1.0),
                         np.linspace(0, 1.0, 4))
    # the NaN stays off components 0 and 4 on a 1-D grid; the NaN field scale fails it
    with pytest.raises(ConstraintViolation, match=r"reached 0\.000e\+00 at t = 0;"):
        run.moments


def test_a_measured_sourced_pass_reads_psi_once_per_block(monkeypatch):
    # the sourced check reads the sizes that the pass's moments took: one read
    # of |psi| per time block; blocks(), which measures nothing, reads its own
    import dirac88.evolution as evolution
    import dirac88.fields as fields_module
    g = grid1d(256)
    reads, sizes, absolute = [], fields_module._sizes, np.abs

    def counted_sizes(values, out=None):
        reads.append(len(values))
        return sizes(values, out)

    def counted_abs(x, *args, **kwargs):
        if np.size(x) >= g.points[0] * 8:   # a sample or more
            reads.append("abs")
        return absolute(x, *args, **kwargs)

    for module in (fields_module, evolution):
        monkeypatch.setattr(module, "_sizes", counted_sizes)
    monkeypatch.setattr(np, "abs", counted_abs)
    run = evolve_sourced(states.zero_field(g), states.gaussian_dipole_current(
        g, [0, 1, 0], 1.0, 0.4, 2.0), np.linspace(0.0, 1.0, 9))
    run.moments
    assert reads == [4, "abs", 4, "abs", 1, "abs"]   # four samples per block on 256 points
    reads.clear()
    for _ in run.blocks():
        pass
    assert reads == [4, "abs", 4, "abs", 1, "abs"]


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


def test_a_violation_mid_block_names_its_sample():
    # 256 points: time blocks of 4 samples; the first violating sample, the
    # sixth, is the second of the second block
    g = grid1d(256)
    e = np.zeros(g.shape + (3,), dtype=complex)
    e[..., 2] = np.sin(g.positions()[..., 2])
    src = states.uniform_current(g, [0, 1, 0], 0.0, 1.0)
    times = np.concatenate((np.zeros(5), np.linspace(0.25, 1.0, 4)))
    assert [len(t) for t in _time_blocks(g, times)] == [4, 4, 1]
    run = evolve_sourced(embed_em(EMField(g, e, np.zeros_like(e))), src, times)
    with pytest.raises(ConstraintViolation, match=r"reached \d\.\d{3}e[+-]\d+ at t = 0\.25;"):
        for _ in run.samples():
            pass
    assert run._moments is None
    assert run.sample(4).constraint_residual() == 0.0


def test_a_sourced_pass_holds_one_block_whatever_its_length():
    # the tracemalloc peak of a 1-D sourced run and its pass grows with its sample
    # count by the per-sample sums alone: no block grows with the run
    g = grid1d(256)
    psi0 = states.zero_field(g)
    src = states.gaussian_dipole_current(g, [0.6, 0, 0.8], 1.2, TWO_PI / 16, 4.0)
    peaks = []
    for n in (100, 1000):
        tracemalloc.start()
        try:
            run = evolve_sourced(psi0, src, np.linspace(0.0, 3.0, n))
            energy_expectation_series(run)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sums = 8 + 8 * 8 * 16 + 8 + 9 * 8          # norm, Gram matrix, kinetic and <r p> sums
    sample = g.points[0] * 8 * 16
    assert peaks[1] - peaks[0] < 900 * sums + sample, peaks


def _sourced_start(source, start):
    g = source.grid
    if start == "vacuum":
        return states.zero_field(g)
    return states.travelling_wave(g, 3 if g.ndim == 1 else (1, 0, 1), "y", 0.5)


def _full_component_blocks(psi0, source, times):
    """The samples of ``evolve_sourced(psi0, source, times)`` formed on all eight
    components: both branches turned by their phases, then each of the three
    Duhamel parts, empty or not, added with its kernel, a time block at a time."""
    grid, hbar = psi0.grid, psi0.hbar
    spectral = _Spectral(grid, psi0.mass, psi0.c, hbar)
    dec = mode_decomposition(psi0)
    rho_part, j_part = _source_hat_parts(grid, source, psi0.c, hbar)
    parts = (j_part / (1j * hbar),
             (rho_part - 1j * spectral.apply_h(j_part) / hbar) / (1j * hbar),
             spectral.apply_h(rho_part) / -(hbar * hbar))
    distinct, mode = np.unique(dec.omega, return_inverse=True)
    mode = mode.reshape(dec.omega.shape)
    blocks = []
    for t in _time_blocks(grid, times):
        phase = np.exp(-1j * distinct * t[:, None])[..., mode, None]
        hat = phase * dec.plus + np.conjugate(phase) * dec.minus
        for kernel, part in zip(_duhamel_kernels(distinct, source.omega, t[:, None], True), parts):
            hat += kernel[..., mode, None] * part
        blocks.append(np.fft.ifftn(hat, axes=tuple(range(1, grid.ndim + 1))))
    return np.concatenate(blocks)


@pytest.mark.parametrize("start", ["vacuum", "wave"])
@pytest.mark.parametrize("case", list(SOURCE_CASES))
def test_sourced_samples_equal_the_full_component_route(case, start):
    # each Duhamel part is added on the components it fills, and a vacuum's
    # branches turn no phase: the samples stay those of the all-component route
    source = SOURCE_CASES[case]()
    psi0, times = _sourced_start(source, start), np.linspace(0.0, 3.0, 11)
    want = _full_component_blocks(psi0, source, times)
    got = np.concatenate([block.copy() for block in evolve_sourced(psi0, source, times).blocks()])
    assert np.max(np.abs(got[-1, ..., 1:4])) > 0.1
    assert bits_equal(got, want)


class _Multiplies(np.ndarray):
    """An array that counts the component planes it gives to multiplies."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.multiply:
            _Multiplies.count += sum(x.shape[-1] for x in inputs if isinstance(x, _Multiplies))
        plain = lambda xs: tuple(x.view(np.ndarray) if isinstance(x, _Multiplies) else x
                                 for x in xs)
        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


@pytest.mark.parametrize("case, planes", [("1d-x", 2), ("3d-dipole", 4)], ids=["1d-x", "3d-dipole"])
def test_a_vacuum_driven_run_turns_no_branch_phase(case, planes):
    # per block, each branch turns the planes that either branch fills: E_y and
    # B_x of the wave, and off axis B_z and the round-off of k.B on component 4,
    # which the two branches cancel; a vacuum's branches turn none
    source = SOURCE_CASES[case]()
    times = np.linspace(0.0, 3.0, 11)
    counts = {}
    for start in ("vacuum", "wave"):
        run = evolve_sourced(_sourced_start(source, start), source, times)
        dec = run.branches
        filled = np.any(dec.plus.reshape(-1, 8), axis=0) | np.any(dec.minus.reshape(-1, 8), axis=0)
        dec.plus, dec.minus = dec.plus.view(_Multiplies), dec.minus.view(_Multiplies)
        _Multiplies.count = 0
        for _ in run.blocks():
            pass
        counts[start] = _Multiplies.count
    assert np.count_nonzero(filled) == planes
    blocks = len(list(_time_blocks(source.grid, times)))
    assert counts == {"vacuum": 0, "wave": 2 * planes * blocks}


def test_a_phase_that_overflows_turns_every_plane():
    # NaN times a zero plane is NaN: where some w t overflows, every plane is
    # turned, so components 0 and 4 read NaN as they did when every plane was,
    # and the constraint maximum keeps failing
    run = run_free(replace(states.travelling_wave(grid1d(16), 2, "y"), c=1e300), [0.0, 1e10])
    assert np.count_nonzero(run.branches._filled) == 2
    with np.errstate(all="ignore"):
        got = stacked(run)
    assert not np.isnan(got[0]).any() and np.isnan(got[1]).all()
    assert np.isnan(run.moments.constraint[1])


@pytest.mark.parametrize("case, r", [("1d-x", False), ("1d-y", False), ("1d-oblique", True),
                                     ("3d-dipole", True), ("3d-uniform", False)])
def test_a_run_takes_the_r_kernel_only_for_a_charged_source(monkeypatch, case, r):
    # R weights H rho alone, which a transverse or uniform current leaves empty
    import dirac88.evolution as evolution
    source, asked = SOURCE_CASES[case](), set()
    kernels = evolution._duhamel_kernels

    def spy(w, omega, t, r):
        asked.add(r)
        return kernels(w, omega, t, r)

    monkeypatch.setattr(evolution, "_duhamel_kernels", spy)
    for _ in evolve_sourced(states.zero_field(source.grid), source, [0.5, 1.0]).blocks():
        pass
    assert asked == {r}
    w, t = np.linspace(0.0, 9.0, 7), np.array([[0.3], [2.0]])
    cc, cr, none = kernels(w, 4.0, t, r=False)
    assert none is None and all(np.array_equal(x, y) for x, y in zip((cc, cr), kernels(w, 4.0, t, True)))


def test_empty_branches_form_zeros_and_a_scalar_branch_is_read():
    g = grid1d(16)
    dec = mode_decomposition(states.zero_field(g))
    out = np.full((3,) + g.shape + (8,), np.nan, dtype=complex)
    assert dec.at(np.array([0.0, 1.0, 2.0]), out=out) is out
    assert not np.any(out) and dec.at(0.5).shape == g.shape + (8,)
    wave = mode_decomposition(states.travelling_wave(g, 2, "x"))
    positive = replace(wave, minus=0)   # as ``zitter_equals_poynting`` builds it
    assert np.array_equal(positive.at(0.7), replace(wave, minus=np.zeros_like(wave.minus)).at(0.7))
    assert not np.array_equal(positive.at(0.7), 0.0)


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
    assert np.ptp(series, axis=0).max() < 1e-12


def test_monochromatic_photon_no_jitter():
    g = grid1d(64)
    psi = states.circular_wave_analytic(g, 3, +1)
    run = run_free(psi, np.linspace(0, 2.0, 24))
    vol = alpha_expectation_series(run)
    assert np.ptp(vol, axis=0).max() < 1e-12
    pointwise = alpha_density_series(run, (11,))
    assert np.ptp(pointwise, axis=0).max() < 1e-12
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
    assert np.max(np.abs(series[:, 2] + np.sin(2.0 * run.times))) < 1e-12


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
    rep = zitter_decompose(run, values)
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
        errors.append(zitter_decompose(run, values).relative_frequency_error)
    assert max(errors) <= 1e-10


def test_flat_series_gives_a_finite_frequency():
    # nothing oscillates (a node of a standing wave, say): the fit still
    # writes a frequency in [0, pi / dt], with no NaN and no warning
    times = np.linspace(0.0, 9.0, 64)
    run = run_free(states.electron_rest_mix(grid1d(4), mass=1.0), times)
    rep = zitter_decompose(run, np.zeros((64, 3)))
    assert np.isfinite(rep.fitted_frequency)
    assert 0.0 <= rep.fitted_frequency <= np.pi / (times[1] - times[0])
    assert rep.amplitude.max() == 0.0


def test_a_series_of_another_length_is_rejected():
    # a series is one 3-vector per sample of the run, over run.times
    run = run_free(states.electron_rest_mix(grid1d(4), mass=1.0), np.linspace(0.0, 9.0, 64))
    values = np.cos(2.0 * np.linspace(0.0, 9.0, 63))[:, None] * np.ones(3)
    with pytest.raises(ValueError, match="63 samples, the run 64"):
        zitter_decompose(run, values)


def test_a_sourced_run_is_rejected():
    # a source term moves the samples away from what the t = 0 branches predict
    g = grid1d(16)
    run = evolve_sourced(states.zero_field(g), states.uniform_current(g, [0, 1, 0], 1.0, 1.0),
                         np.linspace(0.0, 9.0, 64))
    with pytest.raises(ValueError, match="sourced run"):
        zitter_decompose(run)


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
    kernel = evolution._Moments

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(evolution, "_Moments", counted)
    g = GridSpec((8, 8), (TWO_PI, 5.0))
    psi = states.electron_gaussian_packet(g, mass=1.5, sigma=0.5, k0_mode=(1, 1),
                                          minus_weight=0.5)
    # <L> read first: its pass takes the orbital sums, and every later series reads it
    run = run_free(psi, np.linspace(0.0, 1.0, 5))
    angular_momentum_series(run)
    energy_expectation_series(run)
    alpha_expectation_series(run)
    alpha_density_series(run, (2, 3))
    assert len(calls) == 1
    # <L> read after <H> and <alpha>: their pass did not take it, so <L> runs one more
    calls.clear()
    run = run_free(psi, np.linspace(0.0, 1.0, 5))
    energies = energy_expectation_series(run)
    alpha = alpha_expectation_series(run)
    angular_momentum_series(run)
    alpha_density_series(run, (2, 3))
    assert len(calls) == 2
    # a free run reads its axis-0 transform from the spectral amplitudes, a lone
    # state transforms its values: the same sums up to round-off
    assert abs(energies[2] - energy_expectation(run.sample(2))) <= 1e-15 * np.max(np.abs(energies))
    assert np.array_equal(alpha[0], alpha_expectation_series(run_free(psi, [0.0]))[0])
    with pytest.raises(ValueError):
        next(run.samples()).values[0, 0, 0] = 1.0
    sample = run.sample(0)
    sample.values[0, 0, 0] = 1.0
    assert run.sample(0).values[0, 0, 0] != 1.0


def _views(run):
    views = {"alpha": alpha_expectation_series(run),
             "density at point 5": alpha_density_series(run, (5,)),
             "density at point 9": alpha_density_series(run, (9,)),
             "energy": energy_expectation_series(run)}
    views.update(zip(("orbital", "spin", "total"), angular_momentum_series(run)))
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
    assert np.ptp(series, axis=0).max() < 1e-12
    pred = zitter_decompose(run, series).dc_prediction
    assert np.max(np.abs(series[0] - pred)) < 1e-10


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
    avg = np.mean([0.5 * _alpha_density(psi.values) for psi in run.samples()], axis=0)
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
    scale = max(float(np.max(np.abs(0.5 * _alpha_density(psi.values)))) for psi in run.samples())
    return zitter_equals_poynting(run).pointwise_deviation / scale


@pytest.mark.parametrize("static", [False, True], ids=["multi_mode", "static_part"])
def test_zitter_equals_poynting_for_a_multi_mode_field(static):
    # many frequencies at once; a static part sits whole in the plus branch and is halved
    run = run_free(random_free_field(static), np.linspace(0.0, 2.3, 7))
    assert pointwise_deviation_over_scale(run) <= 1e-12


def poynting_reference(run):
    """The check one sample at a time, each formed alone: the per-sample loop that
    ``zitter_equals_poynting`` must equal bit for bit."""
    dec, grid = run.branches, run.grid
    plus = np.where((dec.omega == 0.0)[..., None], 0.5 * dec.plus, dec.plus)
    positive = EvolutionRun(replace(dec, plus=plus, minus=np.zeros_like(plus)), run.times,
                            run.kind)
    grid_axes = tuple(range(grid.ndim))
    flux, jitter = np.zeros((run.n_samples, 3)), np.zeros((run.n_samples, 3))
    pointwise = 0.0
    for i in range(run.n_samples):
        density = 0.5 * _alpha_density(run.sample(i).values)
        e, b = extract_em_amplitudes(positive.sample(i).values)
        slow = 2.0 * np.cross(e.conj(), b).real
        fast = 2.0 * np.cross(e, b).real
        pointwise = max(pointwise, float(np.max(np.abs(slow + fast - density))))
        flux[i] = np.sum(density, axis=grid_axes) * grid.cell_volume
        jitter[i] = np.sum(fast, axis=grid_axes) * grid.cell_volume
    flux -= flux.mean(axis=0)
    jitter -= jitter.mean(axis=0)
    return float(np.max(np.abs(flux - jitter))), pointwise


@pytest.mark.parametrize("case", ["criterion_6", "multi_mode_16"])
def test_zitter_equals_poynting_equals_the_per_sample_reference(case):
    # four samples per time block on 256 points, one on 16^3
    run = {"criterion_6": lambda: run_free(states.standing_wave(grid1d(256), 2, "x"),
                                           np.linspace(0.0, 3.0, 48)),
           "multi_mode_16": lambda: run_free(random_free_field(False),
                                             np.linspace(0.0, 2.3, 21))}[case]()
    rep = zitter_equals_poynting(run)
    assert (rep.volume_deviation, rep.pointwise_deviation) == poynting_reference(run)


def test_zitter_equals_poynting_forms_each_route_once_and_measures_nothing(monkeypatch):
    import dirac88.evolution as evolution
    run = run_free(random_free_field(False), np.linspace(0.0, 2.3, 7))
    counts = {"add": 0, "formed": 0}
    add, formed = _Moments.add, EvolutionRun._formed

    def counted_add(*args, **kwargs):
        counts["add"] += 1
        return add(*args, **kwargs)

    def counted_formed(*args, **kwargs):
        for block in formed(*args, **kwargs):
            counts["formed"] += len(block)
            yield block

    monkeypatch.setattr(evolution._Moments, "add", counted_add)
    monkeypatch.setattr(EvolutionRun, "_formed", counted_formed)
    zitter_equals_poynting(run)
    # the run's samples and its plus branch's, each formed once
    assert counts == {"add": 0, "formed": 2 * run.n_samples}


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
    "sourced-2d": lambda: states.travelling_wave(GridSpec((8, 16), (TWO_PI, 5.0)), (1, 2), "x", 0.5),
    "sourced-3d": lambda: states.travelling_wave(GridSpec((8, 4, 16), (TWO_PI, 5.0, 9.0)),
                                                 (1, 0, 2), "y", 0.5),
    # the grid of the bench's sourced 1-D runs
    "sourced-1d-256": lambda: states.zero_field(grid1d(256)),
    # free photon waves, whose branches fill some planes: E_y, B_x, B_z and the
    # round-off of k.B in three runs ({2}, {4, 5}, {7}, as the bench's 3-D wave),
    # or E_z, B_x, B_y and that round-off in one ({3..6})
    "photon-3d-three-runs": lambda: states.travelling_wave(
        GridSpec((8, 4, 16), (TWO_PI, 5.0, 9.0)), (1, 0, -2), "y", 0.5),
    "photon-3d-one-run": lambda: states.travelling_wave(
        GridSpec((8, 4, 16), (TWO_PI, 5.0, 9.0)), (1, 1, 0), "z", 0.5),
}
STREAM_SOURCES = {
    "sourced-1d": lambda g: states.gaussian_dipole_current(g, [0, 1, 0], 1.0, TWO_PI / 16, 2.0),
    # a charged source: its longitudinal part puts rho and H j on one component
    "sourced-1d-256": lambda g: states.gaussian_dipole_current(g, [0.6, 0, 0.8], 1.2,
                                                               TWO_PI / 16, 4.0),
    # uniform, so band-limited on a coarse grid, where that dipole's tail at the
    # Nyquist modes would break the Gauss law
    "sourced-2d": lambda g: states.uniform_current(g, [1, 0, 0], 1.0, 2.0),
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
    assert all(np.array_equal(run.sample(i).values, seen[i]) for i in range(run.n_samples))


def _turned_branches(run):
    """Every sample of ``run`` as np.fft.ifftn of e^{-i w t} plus + e^{i w t} minus,
    with the run's source term added, formed on C-contiguous copies of its branches."""
    dec, t = run.branches, run.times
    plus, minus = (np.ascontiguousarray(x) for x in (dec.plus, dec.minus))
    distinct, mode = np.unique(dec.omega, return_inverse=True)
    phase = np.exp(-1j * distinct * t[:, None])[..., mode.reshape(dec.omega.shape), None]
    hat = phase * plus + np.conjugate(phase) * minus
    if run._source_term is not None:
        run._source_term(t[:, None], hat, np.empty_like(hat))
    return np.fft.ifftn(hat, axes=tuple(range(1, run.grid.ndim + 1)))


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_samples_equal_the_inverse_transform_of_the_turned_branches(case):
    # a pass stores its arrays components first; its samples keep the bits of the
    # point-major route
    _, run = _stream_run(case)
    assert bits_equal(stacked(run), _turned_branches(run))


@pytest.mark.parametrize("case, runs", [("photon-3d-three-runs", [(2, 3), (4, 6), (7, 8)]),
                                        ("photon-3d-one-run", [(3, 7)])])
def test_a_run_of_partly_filled_planes_equals_the_turned_branches(case, runs):
    # the branches fill some component planes, a run of them per numpy call; the
    # plus-only run that zitter_equals_poynting builds (minus the scalar 0) too
    _, run = _stream_run(case)
    assert [(p.start, p.stop) for p in _plane_runs(run.branches._filled)] == runs
    dec = run.branches
    plus = np.where((dec.omega == 0.0)[..., None], 0.5 * dec.plus, dec.plus)
    positive = EvolutionRun(replace(dec, plus=plus, minus=0), run.times, run.kind)
    for each in (run, positive):
        assert bits_equal(stacked(each), _turned_branches(each))


def test_a_pass_transforms_only_the_filled_planes(monkeypatch):
    # a 16^3 wave fills planes 2, 4, 5 and 7: each one-axis inverse transform takes
    # the runs {2}, {4, 5} and {7}, one call each, and the samples keep their bits
    g = GridSpec((16, 16, 16), (TWO_PI, TWO_PI, TWO_PI))
    run = run_free(states.travelling_wave(g, (1, 0, -2), "y", 0.5), np.linspace(0.0, 1.0, 3))
    widths, ifft = [], np.fft.ifft

    def spy(a, *args, **kwargs):
        widths.append(a.shape[-1])
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    got = stacked(run)
    assert widths == [1, 2, 1] * g.ndim * run.n_samples
    monkeypatch.undo()
    assert bits_equal(got, _turned_branches(run))
    assert not np.any(got[..., [0, 1, 3, 6]])


@pytest.mark.parametrize("case", ["free-1d", "free-3d-ragged", "sourced-2d", "sourced-1d-256"])
def test_a_pass_holds_its_arrays_components_first(monkeypatch, case):
    # the branches and both block arrays of a pass are stored (..., 8, *grid), so
    # every per-point product and one-axis transform runs along whole grid planes
    _, run = _stream_run(case)

    def components_first(x):
        return np.moveaxis(x, -1, x.ndim - run.grid.ndim - 1).flags.c_contiguous

    assert components_first(run.branches.plus) and components_first(run.branches.minus)
    assert not components_first(np.ascontiguousarray(run.branches.plus))
    seen, add = [], _Moments.add

    def checked(self, s0, v, axis0):
        seen.append(components_first(v) and components_first(axis0))
        return add(self, s0, v, axis0)

    monkeypatch.setattr(_Moments, "add", checked)
    run.measured(orbital=True)
    assert seen and all(seen)


def test_block_boundaries_of_a_free_run():
    # 16 points: time blocks of 64 samples, the last one partial
    psi0 = states.electron_rest_mix(grid1d(16), mass=1.0)
    run, dec = run_free(psi0, np.linspace(0.0, 9.0, 300)), mode_decomposition(psi0)
    sizes = [len(t) for t in _time_blocks(run.grid, run.times)]
    assert len(sizes) > 2 and sizes[-1] < sizes[0]
    seen = []
    for t, psi in zip(run.times, run.samples()):
        assert np.array_equal(psi.values, psi0.grid.ifft(dec.at(float(t))))
        seen.append(psi.values.copy())
    assert len(seen) == run.n_samples
    assert all(np.array_equal(run.sample(i).values, seen[i]) for i in range(run.n_samples))


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_pass_moments_equal_the_stacked_moments(case):
    _, run = _stream_run(case)
    moments = run.measured(orbital=True)   # the pass, before anything stacks the run
    norms, gram, kinetic, rk = _stacked_moments(run.grid, stacked(run))
    assert np.array_equal(moments.norms, norms)
    assert np.array_equal(moments.gram, gram)
    scale = float(np.max(np.abs(run.grid.wave_vectors()))) * float(np.max(norms))
    assert np.max(np.abs(moments.kinetic - kinetic)) <= 1e-15 * scale
    assert np.max(np.abs(moments.rk - rk)) <= 1e-15 * scale * max(run.grid.lengths)


@pytest.mark.parametrize("orbital", [False, True])
def test_moments_are_a_plain_record_of_their_pass(orbital):
    # the moments hold what one pass measured: nothing in them calls back into the run
    run = run_free(STREAM_CASES["free-2d"](), np.linspace(0.0, 1.0, 4))
    moments = run.measured(orbital)
    assert not [name for name, value in vars(moments).items() if callable(value)]
    assert (moments.rk is None) is not orbital


def test_a_1d_pass_asked_for_l_takes_no_orbital_sums(monkeypatch):
    # a 1-D grid has no <r p>: its rk stays zeros, and the pass forms no |A_b|^2
    powers = []
    power = _Moments._power
    monkeypatch.setattr(_Moments, "_power", lambda *a: powers.append(a) or power(*a))
    run = run_free(STREAM_CASES["free-1d"](), np.linspace(0.0, 1.0, 4))
    assert not np.any(run.measured(orbital=True).rk)
    assert not powers


def test_moments_allocate_nothing_of_the_sample_size():
    # on a block stored components first, as a pass holds it, the kinetic shares
    # read whole component planes, and |psi| and psi* go into the dead axis-0
    # stage: nothing the size of the sample is allocated
    g = GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))
    v, axis0 = (_components_first((1,) + g.shape + (8,), g.ndim) for _ in range(2))
    v[...] = RNG.standard_normal(v.shape) + 1j * RNG.standard_normal(v.shape)
    moments = _Moments(g, 3, orbital=True)
    for s in range(2):
        np.fft.fft(v, axis=1, out=axis0)
        tracemalloc.start()
        try:
            for b in range(g.ndim):
                moments.stage(b, axis0)
            moments.add(s, v, axis0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < v.nbytes / 4, peak


def test_moments_hold_nothing_the_size_of_a_sample():
    # the pass works in the block's own axis-0 stage and holds no buffer
    g = GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))
    sample_bytes = 16 ** 3 * 8 * 16
    tracemalloc.start()
    try:
        moments = _Moments(g, 41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = [a for a in vars(moments).values() if isinstance(a, np.ndarray)]
    assert max(a.nbytes for a in held) < sample_bytes
    assert peak < sample_bytes, peak


@pytest.mark.parametrize("grid", [GridSpec((256,), (TWO_PI,)), GridSpec((16, 32), (TWO_PI, 5.0)),
                                  GridSpec((8, 8, 16), (TWO_PI, 5.0, 9.0))],
                         ids=["1d", "2d", "3d"])
def test_a_real_product_follows_the_gram_product_before_any_transform(monkeypatch, grid):
    # a complex @ slows numpy's transforms along the last axis until a real
    # product runs: in every add, a real dot of two or more terms comes between
    # the Gram product (its operand is the conjugate) and the next transform
    import types
    import dirac88.fields as fields_module
    calls = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            calls.append((name, all(np.asarray(a).dtype == float and np.size(a) > 1
                                    for a in args[:2])))
            return fn(*args, **kwargs)
        return call

    def spy(module, **names):
        return types.SimpleNamespace(**{**{name: getattr(module, name) for name in dir(module)
                                           if not name.startswith("__")}, **names})

    monkeypatch.setattr(fields_module, "np", spy(
        np, conjugate=recorded("conjugate", np.conjugate), vecdot=recorded("dot", np.vecdot),
        matmul=recorded("dot", np.matmul),
        fft=spy(np.fft, fft=recorded("fft", np.fft.fft), ifft=recorded("fft", np.fft.ifft))))
    add = _Moments.add

    def marked(*args, **kwargs):
        calls.append(("add", False))
        return add(*args, **kwargs)

    monkeypatch.setattr(_Moments, "add", marked)
    psi = states.electron_gaussian_packet(grid, 2.0, 0.6, k0_mode=[1] * grid.ndim,
                                          minus_weight=0.5)
    run_free(psi, np.linspace(0.0, 1.0, 7)).moments
    # and a pass that takes the orbital sums, with their forward transforms, too
    for _ in run_free(psi, np.linspace(0.0, 1.0, 7)).samples(orbital=True):
        pass
    calls.append(("add", False))
    gram = [i for i, (name, _) in enumerate(calls) if name == "conjugate"]
    assert len(gram) == [name for name, _ in calls].count("add") - 1 > 0   # one per block
    for i in gram:
        after = calls[i + 1:]
        stop = next(j for j, (name, _) in enumerate(after) if name in ("fft", "add"))
        assert ("dot", True) in after[:stop], calls[i:i + stop + 2]


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mode_decomposition_peaks_within_four_arrays_of_its_input():
    # the spectral amplitudes, H applied to them through one gathered array, and
    # plus and minus formed in place: three arrays of the state's size at a time
    g = GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))
    psi = states.electron_gaussian_packet(g, 3.0, 0.6, k0_mode=[1, 0, 2], minus_weight=0.7)
    peak = _traced_peak(lambda: mode_decomposition(psi))
    assert peak <= 4 * psi.values.nbytes, peak / psi.values.nbytes


def test_electron_packet_peaks_within_four_arrays_of_its_envelope():
    # the split's three arrays beside the envelope, which the mixed branches are
    # transformed back into
    g = GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))
    field_bytes = 16 ** 3 * 8 * 16
    peak = _traced_peak(lambda: states.electron_gaussian_packet(g, 3.0, 0.6, k0_mode=[1, 0, 2],
                                                                minus_weight=0.7))
    assert peak <= 5 * field_bytes, peak / field_bytes


def _duhamel_reference(psi0, source):
    """The Duhamel term at t as a sum of the four source parts and their H
    images, each weighted by its kernel, with the kernels taken through five
    sinc evaluations: the reference for the run's three fixed parts."""
    hbar, omega = psi0.hbar, source.omega
    spectral = _Spectral(psi0.grid, psi0.mass, psi0.c, hbar)
    w = spectral.omega
    rho_part, j_part = _source_hat_parts(psi0.grid, source, psi0.c, hbar)
    h_rho, h_j = spectral.apply_h(rho_part), spectral.apply_h(j_part)
    sinc = lambda x: np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)

    def duhamel(t):
        p, m = 0.5 * (omega + w) * t, 0.5 * (omega - w) * t
        re_plus, re_minus = t * np.cos(p) * sinc(m), t * np.cos(m) * sinc(p)
        cc, cr = 0.5 * (re_plus + re_minus), 0.5 * t * t * sinc(p) * sinc(m)
        w_larger = w >= abs(omega)
        num = np.where(w_larger, t * sinc(np.asarray(omega * t)) - cc,
                       0.5 * (re_minus - re_plus))
        den = np.where(w_larger, w * w, omega * w)
        r = np.divide(num, den, out=np.zeros_like(num), where=w > 0.0)
        cc, cr, r = cc[..., None], cr[..., None], r[..., None]
        return (cr * rho_part + cc * j_part - 1j * (r * h_rho + cr * h_j) / hbar) / (1j * hbar)

    return duhamel


@pytest.mark.parametrize("case", list(STREAM_SOURCES))
def test_duhamel_term_equals_the_summed_reference(case):
    psi0, run = _stream_run(case)
    reference = _duhamel_reference(psi0, STREAM_SOURCES[case](psi0.grid))
    shape = psi0.values.shape
    terms, refs = [], []
    for t in run.times:
        term = np.zeros(shape, dtype=complex)
        run._source_term(float(t), term, np.empty(shape, dtype=complex))
        terms.append(term)
        refs.append(reference(float(t)))
    scale = np.max(np.abs(refs))
    assert scale > 1.0
    assert np.max(np.abs(np.array(terms) - refs)) <= 1e-15 * scale
    # and so the samples, formed from the branches and the term
    dec = mode_decomposition(psi0)
    samples = np.array([psi0.grid.ifft(dec.at(float(t)) + ref) for t, ref in zip(run.times, refs)])
    assert np.max(np.abs(stacked(run) - samples)) <= 1e-15 * np.max(np.abs(samples))


def test_a_pass_left_early_fills_no_moments(monkeypatch):
    psi0, run = _stream_run("free-2d")
    for _ in run.samples():
        break
    assert run._moments is None
    formed = []
    ifft_staged = GridSpec.ifft_staged

    def counted(self, values, *args, **kwargs):
        formed.append(len(values))
        return ifft_staged(self, values, *args, **kwargs)

    monkeypatch.setattr(GridSpec, "ifft_staged", counted)
    norms = run.moments.norms
    assert sum(formed) == run.n_samples
    assert np.array_equal(norms, _stacked_moments(run.grid, stacked(run))[0])
    # the complete pass is cached: iterating again measures nothing and keeps it
    for _ in run.samples():
        pass
    assert run.moments.norms is norms


def test_a_yielded_sample_is_valid_until_the_next_block():
    run = run_free(STREAM_CASES["free-1d"](), np.linspace(0.0, 1.7, 40))
    size = len(next(_time_blocks(run.grid, run.times)))
    assert 1 < size < run.n_samples
    seen = []
    for psi in run.samples():
        seen.append(psi.values)
        if len(seen) == size:
            kept = [values.copy() for values in seen]
        if len(seen) == size + 1:
            break
    # the block's samples stay valid through it; the next block reuses its
    # buffer, so the first sample's values now hold the first of the next block's
    assert all(np.array_equal(kept[i], run.sample(i).values) for i in range(size))
    assert np.array_equal(seen[0], run.sample(size).values)


def test_a_fresh_run_reads_alpha_without_a_forward_transform(monkeypatch):
    # the pass measures from the stages of each sample's own inverse transform;
    # only <L>'s orbital sums take forward ones
    run = run_free(_packet((8, 8, 16), (TWO_PI, 5.0, 9.0), (1, 0, 2)), np.linspace(0.0, 1.0, 5))
    counts = dict.fromkeys(("fft", "ifft", "fftn", "ifftn"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    alpha_expectation_series(run)
    assert counts == {"fft": 0, "ifft": 3 * run.n_samples, "fftn": 0, "ifftn": 0}
    angular_momentum_series(run)   # its own orbital pass: the samples formed again
    assert counts == {"fft": 2 * run.n_samples, "ifft": 6 * run.n_samples, "fftn": 0, "ifftn": 0}


def _random_state(points, lengths, seed):
    g = GridSpec(points, lengths)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(g.shape + (8,)) + 1j * rng.standard_normal(g.shape + (8,))
    return SpinorField8(g, values, kind="electron", mass=0.8, c=1.3, hbar=0.7)


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("points, lengths", [((16, 8), (TWO_PI, 5.0)),
                                             ((8, 4, 16), (TWO_PI, 5.0, 9.0))],
                         ids=["2d", "3d"])
def test_stage_kinetic_sums_equal_the_forward_transform_route(points, lengths, seed):
    psi = _random_state(points, lengths, seed)
    run = run_free(psi, np.linspace(0.0, 1.7, 9))
    moments, energies = run.moments, energy_expectation_series(run)
    norms, gram, kinetic, _ = _stacked_moments(run.grid, stacked(run))
    scale = float(np.max(np.abs(run.grid.wave_vectors()))) * float(np.max(norms))
    assert np.max(np.abs(moments.kinetic - kinetic)) <= 1e-15 * scale
    # <H> with the run's own c and hbar, each term from the forward transforms
    mass_term = psi.mass * psi.c ** 2 * np.einsum("a,saa->s", np.diag(_BETA).real, gram).real
    want = (psi.c * psi.hbar * kinetic + mass_term) / norms
    energy_scale = psi.c * psi.hbar * scale / float(np.min(norms)) + psi.mass * psi.c ** 2
    assert np.max(np.abs(energies - want)) <= 1e-15 * energy_scale


@pytest.mark.filterwarnings("ignore:density RMS width")
@pytest.mark.parametrize("case", ["free-2d", "free-3d-ragged", "sourced-3d"])
def test_orbital_sums_are_the_same_whichever_pass_takes_them(case):
    # a pass asked for <L> up front takes rk beside the rest; a run whose pass was
    # not asked is measured again when <L> is read: the same bits
    _, asked = _stream_run(case)
    for _ in asked.samples(orbital=True):
        pass
    _, later = _stream_run(case)
    first = later.moments
    assert first.rk is None
    again = later.measured(orbital=True)
    assert again is not first and later.moments is again
    for name in ("norms", "gram", "kinetic", "constraint"):
        assert np.array_equal(getattr(first, name), getattr(again, name)), name
    for name in ("norms", "gram", "kinetic", "constraint", "rk"):
        assert np.array_equal(getattr(asked.moments, name), getattr(again, name)), name
    for got, want in zip(angular_momentum_series(later), angular_momentum_series(asked)):
        assert np.array_equal(got, want)

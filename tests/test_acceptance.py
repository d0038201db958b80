"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Desk scale: 1-D grids of 256 points, 3-D of 32^3.
"""

import json

import numpy as np
import pytest

from dirac88 import states
from dirac88.algebra import verify_identities
from dirac88.cli import run_command
from dirac88.errors import ConstraintViolation
from dirac88.evolution import (alpha_density_series, alpha_expectation_series,
                               energy_expectation, evolve_sourced,
                               hamiltonian_k, omega_k, run_free,
                               zitter_decompose, zitter_equals_poynting)
from dirac88.fields import EMField, GridSpec, divergence, embed_em, extract_em
from dirac88.lorentz import (Boost, closed_form_field_boost,
                             em_wavefunction_transform, tensor_boost_oracle)
from dirac88.oracle import compare, maxwell_evolve
from dirac88.spin import (angular_momentum_series, photon_spin_selection,
                          spin_half, spin_one, verify_spin_evolution)

TWO_PI = 2 * np.pi
GRID_1D = GridSpec((256,), (TWO_PI,))


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_algebra_catalogue():
    reports = verify_identities()
    worst = max(rep.deviation for rep in reports)
    names_needed = ("alpha anticommutation (8x8)", "U unitarity",
                    "U alpha_x U+ block form", "U beta U+ = diag(-eta, eta)",
                    "[kappa_i, kappa_j] = +i eps_ijk theta_k",
                    "gamma anticommutation, metric (+,-,-,-)")
    covered = all(any(n in rep.identity for rep in reports) for n in names_needed)
    exact = all(rep.deviation == 0.0 for rep in reports if rep.tolerance == 0.0)
    passed = all(rep.passed for rep in reports) and worst <= 1e-15 and covered and exact
    report(1, passed, f"{len(reports)} identities, worst deviation {worst:.2e} (<= 1e-15)")


def test_criterion_2_spin_identity_and_selection():
    dev_half = verify_spin_evolution(spin_half()).deviation
    dev_one = verify_spin_evolution(spin_one()).deviation
    psi = states.travelling_wave(GRID_1D, 1, "x")
    sel = photon_spin_selection(psi)
    passed = (dev_half == 0.0 and dev_one == 0.0
              and sel.spin_one_max == 0.0 and sel.spin_half_max > 0.0)
    witness = (f"witness: spin-1/2 component {sel.witness_component} writes "
               f"{sel.witness_value:.3f} into row {sel.witness_row}")
    report(2, passed,
           f"both operators satisfy the evolution identity exactly; spin-1 leak "
           f"{sel.spin_one_max:.1e}, spin-1/2 leak {sel.spin_half_max:.2f}; {witness}")


def test_criterion_3_spectra():
    worst_resid = 0.0

    def spectrum(matrix, expected):
        nonlocal worst_resid
        evals, evecs = np.linalg.eigh(matrix)
        resid = np.max(np.abs(matrix @ evecs - evecs * evals))
        worst_resid = max(worst_resid, float(resid))
        return np.allclose(np.sort(evals), expected, atol=1e-12)

    ok = spectrum(spin_one().components[2], [-1, -1, 0, 0, 0, 0, 1, 1])
    ok &= spectrum(spin_half().components[2], [-0.5] * 4 + [0.5] * 4)
    rng = np.random.default_rng(1)
    for _ in range(5):
        k = rng.standard_normal(3)
        m = rng.uniform(0.0, 2.0)
        w = float(omega_k(k, m))
        ok &= spectrum(hamiltonian_k(k, m), [-w] * 4 + [w] * 4)
    passed = ok and worst_resid <= 1e-12
    report(3, passed, f"spin and Hamiltonian spectra as required, "
                      f"eigen residual {worst_resid:.2e} (<= 1e-12)")


def _band_limited_divfree(grid, seed):
    """Real transverse band-limited fields (clear of the Nyquist planes)."""
    from dirac88.fields import curl
    rng = np.random.default_rng(seed)
    axes = tuple(range(grid.ndim))

    def lowpass(field):
        hat = np.fft.fftn(field, axes=axes)
        for axis, n in enumerate(grid.points):
            modes = np.abs(np.fft.fftfreq(n) * n)
            shape = [1] * (grid.ndim + 1)
            shape[axis] = n
            hat = hat * (modes <= n // 4).reshape(shape)
        return np.fft.ifftn(hat, axes=axes)

    e = curl(grid, lowpass(rng.standard_normal(grid.shape + (3,)))).real
    b = curl(grid, lowpass(rng.standard_normal(grid.shape + (3,)))).real
    return EMField(grid, e.astype(complex), b.astype(complex))


def test_criterion_4_dirac_form_vs_oracle():
    times = np.linspace(0.0, 5.0, 100)
    em0 = _band_limited_divfree(GRID_1D, 99)
    psi0 = embed_em(em0)
    free_run = run_free(psi0, times)
    free_rep = compare(free_run, maxwell_evolve(extract_em(psi0), None, times))

    src = states.gaussian_dipole_current(GRID_1D, [0, 1, 0], 1.0, TWO_PI / 16, 4.0)
    zero = embed_em(EMField.zero(GRID_1D))
    times_s = np.linspace(0.0, 3.0, 100)
    sourced_run = evolve_sourced(zero, src, times_s)
    sourced_rep = compare(sourced_run, maxwell_evolve(EMField.zero(GRID_1D), src, times_s))
    constraint = max(
        max(free_run.sample(i).constraint_residual() for i in range(free_run.n_samples)),
        max(sourced_run.sample(i).constraint_residual() for i in range(sourced_run.n_samples)))
    gauss = 0.0
    for i, t in enumerate(times_s):
        e_field = sourced_run.sample(i).values[..., 1:4]
        gauss = max(gauss, float(np.max(np.abs(
            divergence(GRID_1D, e_field) - 4 * np.pi * src.charge(t)))))
    passed = (free_rep.max_abs <= 1e-10 and sourced_rep.max_abs <= 1e-8
              and constraint <= 1e-10 and gauss <= 1e-8)
    report(4, passed,
           f"free agreement {free_rep.max_abs:.2e} (<= 1e-10), sourced "
           f"{sourced_rep.max_abs:.2e} (<= 1e-8), constraint rows {constraint:.2e}, "
           f"Gauss residual {gauss:.2e}")


def test_criterion_5_zitter_frequencies():
    # (a) photon: single-mode standing wave, jitter in the local flux density
    mode = 2
    psi = states.standing_wave(GRID_1D, mode, "x")
    run = run_free(psi, np.linspace(0.0, 3.5, 64))
    coords = GRID_1D.axis_coords()[0]
    idx = (int(np.argmax(np.abs(np.sin(2 * mode * coords)))),)
    rep_ph = zitter_decompose(run, alpha_density_series(run, idx))
    ok_a = (rep_ph.expected_frequency == pytest.approx(2.0 * mode)
            and rep_ph.relative_frequency_error <= 1e-6)

    # (b) electron: k = 0, m = 1, frequency 2 m c^2 / hbar
    psi_e = states.electron_rest_mix(GRID_1D, mass=1.0)
    run_e = run_free(psi_e, np.linspace(0.0, 9.0, 160))
    rep_el = zitter_decompose(run_e)
    ok_b = (rep_el.expected_frequency == pytest.approx(2.0)
            and rep_el.relative_frequency_error <= 1e-6)

    # (c) pure positive-frequency states show no oscillation
    psi_c = states.circular_wave_analytic(GRID_1D, 3, +1)
    run_c = run_free(psi_c, np.linspace(0.0, 2.0, 32))
    amp_photon = max(float(np.ptp(alpha_expectation_series(run_c), axis=0).max()),
                     float(np.ptp(alpha_density_series(run_c, (9,)), axis=0).max()))
    psi_p = states.electron_gaussian_packet(GRID_1D, mass=1.0, sigma=TWO_PI / 14,
                                            k0_mode=(3,), plus_weight=1.0, minus_weight=0.0)
    run_p = run_free(psi_p, np.linspace(0.0, 2.0, 32))
    amp_electron = float(np.ptp(alpha_expectation_series(run_p), axis=0).max())
    ok_c = amp_photon <= 1e-12 and amp_electron <= 1e-12

    passed = ok_a and ok_b and ok_c
    report(5, passed,
           f"photon fit error {rep_ph.relative_frequency_error:.2e}, electron fit "
           f"error {rep_el.relative_frequency_error:.2e} (<= 1e-6); positive-branch "
           f"oscillation {max(amp_photon, amp_electron):.2e} (<= 1e-12)")


def test_criterion_6_zitter_equals_poynting():
    psi = states.standing_wave(GRID_1D, 2, "x")
    run = run_free(psi, np.linspace(0.0, 3.0, 48))
    rep = zitter_equals_poynting(run)
    passed = rep.volume_deviation <= 1e-10 and rep.pointwise_deviation <= 1e-12
    report(6, passed,
           f"sum-frequency Poynting flux 2 Re(E+ x B+), each mode at the run's own "
           f"frequency, matches the oscillatory velocity expectation to "
           f"{rep.volume_deviation:.2e} (<= 1e-10); pointwise flux reconstruction "
           f"residual {rep.pointwise_deviation:.2e} (<= 1e-12)")


def test_criterion_7_lorentz_cross_validation():
    rng = np.random.default_rng(7)
    worst = 0.0
    leak = 0.0
    cases = [(np.array([1.0, 0, 0], complex), np.array([0, 1.0, 0], complex),
              Boost((0, 0, 0.6))),
             (np.array([1.0, 0, 0], complex), np.array([0, 1.0, 0], complex),
              Boost((0, 0, -0.6)))]
    for _ in range(150):
        e = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3)
        v = v / np.linalg.norm(v) * rng.uniform(0.0, 0.9)
        cases.append((e, b, Boost(tuple(v))))
    for e, b, boost in cases:
        psi = np.zeros(8, dtype=complex)
        psi[1:4] = e
        psi[5:8] = 1j * b
        out = em_wavefunction_transform(psi, boost)
        e1, b1 = out[1:4], -1j * out[5:8]
        e2, b2 = tensor_boost_oracle(e, b, boost)
        e3, b3 = closed_form_field_boost(e, b, boost)
        worst = max(worst, float(np.max(np.abs(e1 - e3))), float(np.max(np.abs(b1 - b3))),
                    float(np.max(np.abs(e2 - e3))), float(np.max(np.abs(b2 - b3))))
        leak = max(leak, float(abs(out[0])), float(abs(out[4])))
    # Doppler factors of the worked example
    out = em_wavefunction_transform(
        np.array([0, 1, 0, 0, 0, 0, 1j, 0], complex), Boost((0, 0, 0.6)))
    doppler_ok = (abs(out[1] - 0.5) < 1e-12 and abs(-1j * out[6] - 0.5) < 1e-12)
    passed = worst <= 1e-10 and leak <= 1e-10 and doppler_ok
    report(7, passed,
           f"three pathways agree to {worst:.2e} (<= 1e-10) for |v| <= 0.9c incl. "
           f"Doppler 0.5/2.0; constraint leak {leak:.2e} (<= 1e-10)")


def test_criterion_8_conservation_suite():
    grid = GridSpec((32, 32, 32), (TWO_PI,) * 3)
    mass = 25.0
    spinor = np.zeros(8, complex)
    spinor[3], spinor[0], spinor[2] = 1.0, 0.6, 0.4j
    psi0 = states.electron_gaussian_packet(grid, mass, sigma=TWO_PI / 16,
                                           k0_mode=(1, 0, 2), plus_weight=1.0,
                                           minus_weight=0.7, spinor=spinor)
    period = TWO_PI / (2.0 * mass)   # dominant jitter line at 2 m c^2 / hbar
    times = np.linspace(0.0, 10 * period, 41)
    run = run_free(psi0, times)
    norms = np.array([run.sample(i).norm() for i in range(run.n_samples)])
    energies = np.array([energy_expectation(run.sample(i)) for i in range(run.n_samples)])
    orbital, spin, total = angular_momentum_series(run)
    norm_drift = float(np.ptp(norms) / norms[0])
    energy_drift = float(np.ptp(energies) / abs(energies[0]))
    j_scale = max(float(np.max(np.abs(total))), 1.0)
    j_drift = float(np.ptp(total, axis=0).max()) / j_scale
    moving = float(np.ptp(spin, axis=0).max())
    passed = norm_drift <= 1e-8 and energy_drift <= 1e-8 and j_drift <= 1e-8 and moving > 1e-4
    report(8, passed,
           f"over 10 periods: norm drift {norm_drift:.2e}, energy drift "
           f"{energy_drift:.2e}, total angular momentum drift {j_drift:.2e} "
           f"(all <= 1e-8) while the spin part moves by {moving:.2e}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "grid": {"points": [128], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 2.0,
        "samples": 24,
        "state": {"type": "travelling_wave", "mode": 3},
        "checks": {"norm_drift": 1e-10, "energy_drift": 1e-10, "constraint": 1e-10},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert run_command("evolve", str(cfg_path), str(outdir)) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        summary.pop("timestamp")
        summary.pop("wall_time_s")
        outs.append(json.dumps(summary, sort_keys=True))
    passed = outs[0] == outs[1]
    report(9, passed, "identical config produces identical summary.json "
                      "apart from the timestamp fields")

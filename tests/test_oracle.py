import ast
from pathlib import Path

import numpy as np
import pytest

from dirac88.errors import GridMismatch
from dirac88.fields import EMField, GridSpec, divergence, embed_em, extract_em
from dirac88.evolution import evolve_sourced, run_free
from dirac88.oracle import compare, maxwell_evolve
from dirac88 import states

TWO_PI = 2 * np.pi


def grid1d(n=256):
    return GridSpec((n,), (TWO_PI,))


def test_free_plane_wave_closed_form():
    g = grid1d()
    k = 3.0
    em0 = extract_em(states.travelling_wave(g, 3, "x"))
    times = np.linspace(0.0, 4.0, 50)
    run = maxwell_evolve(em0, None, times)
    z = g.positions()[..., 2]
    for i in (10, 49):
        t = times[i]
        assert np.max(np.abs(run.e[i][..., 0].real - np.cos(k * z - k * t))) < 1e-12
        assert np.max(np.abs(run.b[i][..., 1].real - np.cos(k * z - k * t))) < 1e-12


def test_free_energy_conservation_random_divfree():
    g = grid1d(128)
    rng = np.random.default_rng(2)
    from dirac88.fields import curl
    e = curl(g, rng.standard_normal(g.shape + (3,)).astype(complex)).real
    b = curl(g, rng.standard_normal(g.shape + (3,)).astype(complex)).real
    em0 = EMField(g, e.astype(complex), b.astype(complex))
    times = np.linspace(0.0, 6.0, 40)
    run = maxwell_evolve(em0, None, times)
    energies = [run.energy(i) for i in range(len(times))]
    assert np.ptp(energies) / energies[0] < 1e-12


def test_uniform_mode_current_closed_form():
    g = grid1d(64)
    omega, amp = 3.0, 0.25
    src = states.uniform_current(g, [0, 1, 0], amp, omega)
    times = np.linspace(0.0, 2.0, 9)
    run = maxwell_evolve(EMField.zero(g), src, times, substeps=128)
    for i, t in enumerate(times):
        expect = -4 * np.pi * amp * np.sin(omega * t) / omega
        assert np.max(np.abs(run.e[i][..., 1].real - expect)) < 1e-10
        assert np.max(np.abs(run.b[i])) < 1e-12


def test_gauss_law_with_sources():
    g = grid1d()
    src = states.gaussian_dipole_current(g, [0, 0, 1], 1.0, TWO_PI / 16, 4.0)
    times = np.linspace(0.0, 2.0, 17)
    run = maxwell_evolve(EMField.zero(g), src, times, substeps=128)
    for i, t in enumerate(times):
        gauss = divergence(g, run.e[i]) - 4 * np.pi * src.charge(t)
        assert np.max(np.abs(gauss)) < 1e-10
        divb = divergence(g, run.b[i])
        assert np.max(np.abs(divb)) < 1e-10


def test_compare_free_agreement():
    g = grid1d()
    psi0 = states.travelling_wave(g, 4, "y")
    times = np.linspace(0.0, 5.0, 100)
    run = run_free(psi0, times)
    oracle_run = maxwell_evolve(extract_em(psi0), None, times)
    rep = compare(run, oracle_run)
    assert rep.max_abs < 1e-12
    assert rep.max_rel < 1e-12


def test_compare_sourced_agreement():
    g = grid1d()
    src = states.gaussian_dipole_current(g, [0, 1, 0], 1.0, TWO_PI / 16, 4.0)
    psi0 = embed_em(EMField.zero(g))
    times = np.linspace(0.0, 3.0, 100)
    run = evolve_sourced(psi0, src, times)
    oracle_run = maxwell_evolve(EMField.zero(g), src, times, substeps=32)
    rep = compare(run, oracle_run)
    assert rep.max_abs < 1e-8


def test_compare_negative_control():
    # flip the sign of B in the oracle input: deviations of order one
    g = grid1d(64)
    psi0 = states.travelling_wave(g, 3, "x")
    em0 = extract_em(psi0)
    wrong = EMField(g, em0.e, -em0.b)
    times = np.linspace(0.0, 2.0, 20)
    run = run_free(psi0, times)
    rep = compare(run, maxwell_evolve(wrong, None, times))
    assert rep.max_abs > 0.5


def test_compare_grid_mismatch():
    g1, g2 = grid1d(64), grid1d(128)
    times = np.linspace(0.0, 1.0, 5)
    run = run_free(states.travelling_wave(g1, 1, "x"), times)
    oracle_run = maxwell_evolve(extract_em(states.travelling_wave(g2, 1, "x")), None, times)
    with pytest.raises(GridMismatch):
        compare(run, oracle_run)
    oracle_run2 = maxwell_evolve(extract_em(states.travelling_wave(g1, 1, "x")), None,
                                 np.linspace(0.0, 1.0, 6))
    with pytest.raises(GridMismatch):
        compare(run, oracle_run2)


def _band_limited_divfree(g, seed):
    """Real transverse fields with no content at or above half-Nyquist.

    Keeping clear of the Nyquist planes preserves the k <-> -k conjugate
    pairing, so reality and per-bin transversality coexist.
    """
    rng = np.random.default_rng(seed)
    from dirac88.fields import curl
    axes = tuple(range(g.ndim))

    def lowpass(field):
        hat = np.fft.fftn(field, axes=axes)
        for axis, n in enumerate(g.points):
            modes = np.abs(np.fft.fftfreq(n) * n)
            mask_shape = [1] * (g.ndim + 1)
            mask_shape[axis] = n
            hat = hat * (modes <= n // 4).reshape(mask_shape)
        return np.fft.ifftn(hat, axes=axes)

    e = curl(g, lowpass(rng.standard_normal(g.shape + (3,)))).real
    b = curl(g, lowpass(rng.standard_normal(g.shape + (3,)))).real
    return EMField(g, e.astype(complex), b.astype(complex))


def test_oracle_3d():
    g = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    em0 = _band_limited_divfree(g, 4)
    times = np.linspace(0.0, 2.0, 10)
    run = run_free(embed_em(em0), times)
    rep = compare(run, maxwell_evolve(em0, None, times))
    assert rep.max_abs < 1e-11


def test_longitudinal_content_is_the_scalar_sector():
    # off the constraint surface the wave equation and Maxwell differ by
    # design: longitudinal E excites the Gauss-row sector
    g = GridSpec((8, 8, 8), (TWO_PI,) * 3)
    k_bin = (1, 2, 0)
    k = g.wave_vectors()[k_bin]
    e_hat = np.zeros(g.shape + (3,), dtype=complex)
    e_hat[k_bin] = k / np.linalg.norm(k)
    e = np.fft.ifftn(e_hat, axes=(0, 1, 2))
    em0 = EMField(g, e, np.zeros_like(e))
    times = np.array([0.0, 0.5])
    run = run_free(embed_em(em0), times)
    rep = compare(run, maxwell_evolve(em0, None, times))
    assert rep.max_abs > 1e-6
    assert run.sample(1).constraint_residual() > 1e-6


def test_oracle_imports_no_8x8_machinery():
    import dirac88.oracle
    tree = ast.parse(Path(dirac88.oracle.__file__).read_text())
    forbidden = {"algebra", "evolution", "spin", "lorentz"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            if node.module in (None, "dirac88"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "fields" in imported
    assert not imported & forbidden

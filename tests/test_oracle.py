import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dirac88.errors import GridMismatch
from dirac88.fields import EMField, GridSpec, _time_blocks, divergence, embed_em, extract_em
from dirac88.evolution import evolve_sourced, run_free
from dirac88.oracle import compare, maxwell_evolve
from dirac88 import oracle, states
from sourced_cases import SOURCE_CASES, bits_equal

TWO_PI = 2 * np.pi


def grid1d(n=256):
    return GridSpec((n,), (TWO_PI,))


def stacked(run):
    """Every (e, b) sample of an oracle run, stacked as two arrays: each block is
    copied as it passes, since the next reuses its arrays."""
    e, b = zip(*((e.copy(), b.copy()) for e, b in run.blocks()))
    return np.concatenate(e), np.concatenate(b)


def test_free_plane_wave_closed_form():
    g = grid1d()
    k = 3.0
    em0 = extract_em(states.travelling_wave(g, 3, "x"))
    times = np.linspace(0.0, 4.0, 50)
    e, b = stacked(maxwell_evolve(em0, None, times))
    z = g.positions()[..., 2]
    for i in (10, 49):
        t = times[i]
        assert np.max(np.abs(e[i][..., 0].real - np.cos(k * z - k * t))) < 1e-12
        assert np.max(np.abs(b[i][..., 1].real - np.cos(k * z - k * t))) < 1e-12


def field_energy(g, e, b):
    """int (E^2 + B^2)/8pi dV of real fields."""
    dens = (np.einsum("...i,...i->...", e, e) + np.einsum("...i,...i->...", b, b)) / (8 * np.pi)
    return float(np.sum(dens) * g.cell_volume)


def test_free_energy_conservation_random_divfree():
    g = grid1d(128)
    rng = np.random.default_rng(2)
    from dirac88.fields import curl
    e = curl(g, rng.standard_normal(g.shape + (3,)).astype(complex)).real
    b = curl(g, rng.standard_normal(g.shape + (3,)).astype(complex)).real
    em0 = EMField(g, e.astype(complex), b.astype(complex))
    times = np.linspace(0.0, 6.0, 40)
    run = maxwell_evolve(em0, None, times)
    energies = [field_energy(g, e.real, b.real) for e, b in zip(*stacked(run))]
    assert np.ptp(energies) / energies[0] < 1e-12


def test_uniform_mode_current_closed_form():
    g = grid1d(64)
    omega, amp = 3.0, 0.25
    src = states.uniform_current(g, [0, 1, 0], amp, omega)
    times = np.linspace(0.0, 2.0, 9)
    run = maxwell_evolve(EMField.zero(g), src, times)
    for t, e, b in zip(times, *stacked(run)):
        expect = -4 * np.pi * amp * np.sin(omega * t) / omega
        assert np.max(np.abs(e[..., 1].real - expect)) < 1e-10
        assert np.max(np.abs(b)) < 1e-12


def test_gauss_law_with_sources():
    g = grid1d()
    src = states.gaussian_dipole_current(g, [0, 0, 1], 1.0, TWO_PI / 16, 4.0)
    times = np.linspace(0.0, 2.0, 17)
    run = maxwell_evolve(EMField.zero(g), src, times)
    for t, e, b in zip(times, *stacked(run)):
        gauss = divergence(g, e) - 4 * np.pi * src.charge(t)
        assert np.max(np.abs(gauss)) < 1e-10
        divb = divergence(g, b)
        assert np.max(np.abs(divb)) < 1e-10


def test_compare_free_agreement():
    g = grid1d()
    psi0 = states.travelling_wave(g, 4, "y")
    times = np.linspace(0.0, 5.0, 100)
    run = run_free(psi0, times)
    oracle_run = maxwell_evolve(extract_em(psi0), None, times)
    rep = compare(run, oracle_run)
    assert rep.max_abs < 1e-12
    assert max(rep.rel_e, rep.rel_b) < 1e-12


def test_compare_sourced_agreement():
    g = grid1d()
    src = states.gaussian_dipole_current(g, [0, 1, 0], 1.0, TWO_PI / 16, 4.0)
    psi0 = embed_em(EMField.zero(g))
    times = np.linspace(0.0, 3.0, 100)
    run = evolve_sourced(psi0, src, times)
    oracle_run = maxwell_evolve(EMField.zero(g), src, times)
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


def test_compare_requires_equal_sample_times():
    # samples pair by index, so times that are merely close are a mismatch: a
    # shift of 5e-6 would otherwise read as a deviation of the wave equation
    g = grid1d(64)
    psi = states.travelling_wave(g, 1, "x")
    run = run_free(psi, [0.0, 1.0])
    with pytest.raises(GridMismatch, match="different time grids"):
        compare(run, maxwell_evolve(extract_em(psi), None, [0.0, 1.000005]))
    assert compare(run, maxwell_evolve(extract_em(psi), None, [0.0, 1.0])).max_abs < 1e-12


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


def test_oracle_sees_a_fault_in_the_grid_wave_numbers(monkeypatch):
    # a 1 % scale of GridSpec's wave numbers moves the wave-function route
    # alone, so the comparison must read it (the field is built first: curl
    # uses GridSpec)
    g = grid1d()
    em0 = _band_limited_divfree(g, 99)
    times = np.linspace(0.0, 5.0, 100)
    axis_wave_numbers = GridSpec._axis_wave_numbers
    monkeypatch.setattr(GridSpec, "_axis_wave_numbers",
                        lambda self: [1.01 * k for k in axis_wave_numbers(self)])
    rep = compare(run_free(embed_em(em0), times), maxwell_evolve(em0, None, times))
    assert rep.max_abs > 1e-10


@pytest.mark.parametrize("g", [grid1d(64), GridSpec((8, 8, 8), (TWO_PI, 5.0, 7.0))],
                         ids=["1d", "3d"])
def test_oracle_uses_no_grid_spectral_helper(g, monkeypatch):
    src = states.gaussian_dipole_current(g, [0.3, 1.0, -0.2], 1.0, 0.8, 3.0)
    times = np.linspace(0.0, 1.5, 6)
    expected = stacked(maxwell_evolve(EMField.zero(g), src, times))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a spectral helper of GridSpec")

    for name in ("wave_vectors", "_axis_wave_numbers", "fft", "ifft"):
        monkeypatch.setattr(GridSpec, name, refuse)
    # samples are formed as they are read, so the set-up alone proves nothing
    e, b = stacked(maxwell_evolve(EMField.zero(g), src, times))
    assert np.array_equal(e, expected[0]) and np.array_equal(b, expected[1])


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


def _reference_rotation(grid, c):
    """rotate(v, t, sign): one field F(+-) turned about khat by the angle
    sign c|k|t, through np.cross, with the k = 0 mode kept by np.where."""
    k = grid.wave_vectors()
    kn = np.linalg.norm(k, axis=-1)
    khat = k / np.where(kn > 0.0, kn, 1.0)[..., None]

    def rotate(v, t, sign):
        angle = sign * c * kn * t
        par = np.einsum("...i,...i->...", khat, v)[..., None] * khat
        out = (par + np.cos(angle)[..., None] * (v - par)
               + np.sin(angle)[..., None] * np.cross(khat, v))
        return np.where((kn > 0.0)[..., None], out, v)

    return rotate


def _reference_maxwell_evolve(em0, source, times, substeps, c):
    """The oracle as a node-by-node Simpson loop: rotate the source vector
    back to t = 0 at every node and sum the rotated vectors pair by pair."""
    grid = em0.grid
    axes = tuple(range(grid.ndim))
    rotate = _reference_rotation(grid, c)

    def integrand(t, sign):
        j_hat = np.fft.fftn(source.j_amp.astype(complex), axes=axes)
        return rotate(-4 * np.pi * j_hat * np.cos(source.omega * t), -t, sign)

    f_plus0 = np.fft.fftn(em0.e + 1j * em0.b, axes=axes)
    f_minus0 = np.fft.fftn(em0.e - 1j * em0.b, axes=axes)
    accum_p = np.zeros_like(f_plus0)
    accum_m = np.zeros_like(f_minus0)
    e_out = np.empty((len(times),) + em0.e.shape, dtype=complex)
    b_out = np.empty_like(e_out)
    for idx, t in enumerate(times):
        if idx > 0 and source is not None:
            h = (t - times[idx - 1]) / substeps
            nodes = times[idx - 1] + h * np.arange(substeps + 1)
            fp = [integrand(float(tn), +1.0) for tn in nodes]
            fm = [integrand(float(tn), -1.0) for tn in nodes]
            for pair in range(substeps // 2):
                accum_p += (h / 3.0) * (fp[2 * pair] + 4.0 * fp[2 * pair + 1] + fp[2 * pair + 2])
                accum_m += (h / 3.0) * (fm[2 * pair] + 4.0 * fm[2 * pair + 1] + fm[2 * pair + 2])
        f_p = rotate(f_plus0 + accum_p, float(t), +1.0)
        f_m = rotate(f_minus0 + accum_m, float(t), -1.0)
        e_out[idx] = np.fft.ifftn(0.5 * (f_p + f_m), axes=axes)
        b_out[idx] = np.fft.ifftn((f_p - f_m) / 2j, axes=axes)
    return e_out, b_out


_REFERENCE_CASES = {
    "1d-dipole": (GridSpec((64,), (TWO_PI,)), [0, 1, 0], np.linspace(0.0, 2.0, 9), 64, 1.0),
    "3d-dipole-c1.7": (GridSpec((8, 8, 8), (TWO_PI, 5.0, 7.0)), [0.3, 1.0, -0.2],
                       np.linspace(0.0, 1.5, 6), 32, 1.7),
    "unequal-steps": (GridSpec((16, 8), (TWO_PI, 4.0)), [1, 0.5, 0],
                      np.array([0.0, 0.1, 0.35, 0.4, 1.2, 2.0]), 24, 0.6),
}


@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_simpson_sums_match_node_by_node_reference(name):
    # the node-by-node Simpson reference converges to the closed form at h^4:
    # its error over the field scale read 0.74 h^4, 2.72 h^4 and 0.55 h^4 for
    # these cases (h the largest node step), the same constant at 1/2, 1/4 and
    # 1/8 of each step
    g, direction, times, substeps, c = _REFERENCE_CASES[name]
    src = states.gaussian_dipole_current(g, direction, 1.0, 0.8, 3.0)
    em0 = _band_limited_divfree(g, 7) if g.ndim == 3 else EMField.zero(g)
    e_ref, b_ref = _reference_maxwell_evolve(em0, src, times, substeps, c)
    scale = max(np.max(np.abs(e_ref)), np.max(np.abs(b_ref)))
    assert scale > 0.1
    h = np.max(np.diff(times)) / substeps
    e, b = stacked(maxwell_evolve(em0, src, times, c=c))
    assert np.max(np.abs(e - e_ref)) <= 3.0 * h ** 4 * scale
    assert np.max(np.abs(b - b_ref)) <= 3.0 * h ** 4 * scale

    rng = np.random.default_rng(3)
    em_free = EMField(g, *(rng.standard_normal((2,) + g.shape + (3,)) + 0j))
    e_ref, b_ref = _reference_maxwell_evolve(em_free, None, times, substeps, c)
    e, b = stacked(maxwell_evolve(em_free, None, times, c=c))
    assert np.array_equal(e, e_ref) and np.array_equal(b, b_ref)


def _closed_form_reference(em0, source, times, c):
    """The closed-form oracle with F+ and F- each rotated on its own and E and
    B each transformed on its own: the reference for the stacked rotation."""
    grid = em0.grid
    axes = tuple(range(grid.ndim))
    rotate = _reference_rotation(grid, c)
    k = grid.wave_vectors()
    kn = np.linalg.norm(k, axis=-1)
    khat = k / np.where(kn > 0.0, kn, 1.0)[..., None]
    j_hat = np.fft.fftn(source.j_amp.astype(complex), axes=axes)
    par = np.einsum("...i,...i->...", khat, j_hat)[..., None] * khat
    perp, crossed = j_hat - par, np.cross(khat, j_hat)
    f_plus0 = np.fft.fftn(em0.e + 1j * em0.b, axes=axes)
    f_minus0 = np.fft.fftn(em0.e - 1j * em0.b, axes=axes)
    e_out = np.empty((len(times),) + em0.e.shape, dtype=complex)
    b_out = np.empty_like(e_out)
    for idx, t in enumerate(times):
        a, (b, d) = oracle._source_integrals(float(t), source.omega, c * kn)
        even, odd = a * par + b[..., None] * perp, d[..., None] * crossed
        f_p = rotate(f_plus0 - 4 * np.pi * (even - odd), float(t), +1.0)
        f_m = rotate(f_minus0 - 4 * np.pi * (even + odd), float(t), -1.0)
        e_out[idx] = np.fft.ifftn(0.5 * (f_p + f_m), axes=axes)
        b_out[idx] = np.fft.ifftn((f_p - f_m) / 2j, axes=axes)
    return e_out, b_out


@pytest.mark.parametrize("name", ["1d-256", "3d"])
def test_stacked_rotation_matches_one_field_at_a_time(name):
    if name == "1d-256":   # the grid and source of the bench's compare-oracle runs
        g = grid1d()
        em0, c = EMField.zero(g), 1.0
        src = states.gaussian_dipole_current(g, [1, 0, 0], 1.2, TWO_PI / 16, 4.0)
    else:
        g = GridSpec((8, 8, 8), (TWO_PI, 5.0, 7.0))
        em0, c = _band_limited_divfree(g, 7), 1.7
        src = states.gaussian_dipole_current(g, [0.3, 1.0, -0.2], 1.0, 0.8, 3.0)
    times = np.linspace(0.0, 3.0, 11)
    e_ref, b_ref = _closed_form_reference(em0, src, times, c)
    scale = max(np.max(np.abs(e_ref)), np.max(np.abs(b_ref)))
    assert scale > 0.1
    e, b = stacked(maxwell_evolve(em0, src, times, c=c))
    assert np.max(np.abs(e - e_ref)) <= 1e-15 * scale
    assert np.max(np.abs(b - b_ref)) <= 1e-15 * scale


def _source_integrals_reference(t, omega, ck):
    """(a, b, d) by 30-digit Gauss-Legendre quadrature."""
    t, omega, ck = mpmath.mpf(t), mpmath.mpf(omega), mpmath.mpf(ck)
    pieces = mpmath.linspace(0, t, int((abs(ck) + abs(omega)) * t) // 16 + 2)
    weight = lambda s: mpmath.cos(omega * s)
    return [mpmath.quad(lambda s: weight(s) * f(s), pieces, method="gauss-legendre")
            for f in (lambda s: 1, lambda s: mpmath.cos(ck * s), lambda s: mpmath.sin(ck * s))]


def test_source_integrals_match_quadrature():
    ck = np.array([0.0, 1e-7, 1.0, 4.0, 4.0 - 1e-9, 37.5, 128.0])
    for t in (0.37, 1.0, 3.0):
        for omega in (0.0, 1e-6, -1e-6, 3.0, 4.0, 4.0 + 1e-9, -4.0):
            a, (b, d) = oracle._source_integrals(t, omega, ck)
            for i, cki in enumerate(ck):
                with mpmath.workdps(30):
                    ref = [float(x) for x in _source_integrals_reference(t, omega, cki)]
                assert abs(a - ref[0]) <= 1e-15 * t
                assert abs(b[i] - ref[1]) <= 1e-15 * t
                assert abs(d[i] - ref[2]) <= 1e-15 * t


def test_an_oracle_run_may_start_at_any_time():
    # every sample integrates its source from t = 0, so a run's samples do not
    # depend on the times before them
    g = grid1d()
    src = states.gaussian_dipole_current(g, [0.3, 1.0, -0.2], 1.0, TWO_PI / 16, 3.0)
    em0 = _band_limited_divfree(g, 7)
    times = np.array([0.3, 0.7, 1.1])
    e, b = stacked(maxwell_evolve(em0, src, times, c=1.7))
    e_all, b_all = stacked(maxwell_evolve(em0, src, np.concatenate(([0.0], times)), c=1.7))
    assert np.max(np.abs(e[-1])) > 0.1
    assert np.array_equal(e, e_all[1:]) and np.array_equal(b, b_all[1:])
    psi0 = replace(embed_em(em0), c=1.7)
    rep = compare(evolve_sourced(psi0, src, times), maxwell_evolve(em0, src, times, c=1.7))
    assert rep.max_abs <= 1e-12


def test_compare_fails_a_nan_run():
    g = grid1d(64)
    psi = states.travelling_wave(g, 2, "y")
    times = np.linspace(0.0, 1.0, 5)
    reference = maxwell_evolve(extract_em(psi), None, times)
    psi.values[7, 2] = np.nan
    rep = compare(run_free(psi, times), reference)
    assert np.isnan(rep.max_abs_e) and np.isnan(rep.rel_e)
    assert np.isnan(rep.max_abs) and not rep.max_abs <= 1e-10
    assert np.isnan(oracle.CompareReport(0.0, np.nan, 0.0, np.nan).max_abs)


def test_sourced_oracle_memory_bounded():
    # set-up and every sample within one bound, whatever the sample count; on
    # unequal lengths |k| takes hundreds of values, so anything held per sample
    # and per distinct |k| would show
    for lengths in ((TWO_PI,) * 3, (TWO_PI, 5.0, 7.0)):
        g = GridSpec((16, 16, 16), lengths)
        src = states.gaussian_dipole_current(g, [0, 0, 1], 1.0, 0.8, 4.0)
        peaks = []
        for samples in (11, 161):
            tracemalloc.start()
            try:
                for _ in maxwell_evolve(EMField.zero(g), src,
                                        np.linspace(0.0, 2.0, samples)).blocks():
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2 ** 20, (lengths, samples, peak)
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0], (lengths, peaks)


def test_reading_an_oracle_run_again_starts_over():
    # each read forms every sample afresh from t = 0, so a second pass
    # repeats the first
    g = GridSpec((8, 8, 8), (TWO_PI, 5.0, 7.0))
    src = states.gaussian_dipole_current(g, [0.3, 1.0, -0.2], 1.0, 0.8, 3.0)
    run = maxwell_evolve(EMField.zero(g), src, np.linspace(0.0, 1.5, 6))
    e1, b1 = stacked(run)
    e2, b2 = stacked(run)
    assert np.max(np.abs(e1[-1])) > 0.1
    assert np.array_equal(e1, e2) and np.array_equal(b1, b2)


def _start(source, start):
    g = source.grid
    if start == "vacuum":
        return EMField.zero(g)
    return extract_em(states.travelling_wave(g, 3 if g.ndim == 1 else (1, 0, 1), "y", 0.5))


def _full_part_blocks(em0, source, times, c):
    """The oracle's (E, B) samples formed from every part: F+- turned by its three
    parts, a vacuum's too, less all three parts of 4 pi j, empty or not, each
    scaled by its time factor, a time block at a time in the stacked layout."""
    grid = em0.grid
    axes = tuple(range(-grid.ndim, 0))
    axis_k = [2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
              for n, length in zip(grid.points, grid.lengths)]
    k = np.zeros((3,) + grid.shape)
    k[3 - grid.ndim:] = np.meshgrid(*axis_k, indexing="ij")
    kn = np.sqrt(np.sum(k * k, axis=0))
    khat, ck_mode = k / np.where(kn > 0.0, kn, 1.0), c * kn

    def parts(v):
        comp = -khat.ndim
        par = np.sum(khat * v, axis=comp, keepdims=True) * khat
        return par, v - par, np.cross(khat, v, axisa=0, axisb=comp, axisc=comp).copy()

    f0 = np.fft.fftn(np.moveaxis(np.stack((em0.e + 1j * em0.b, em0.e - 1j * em0.b)), -1, 1),
                     axes=axes)
    free = parts(f0)
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * (grid.ndim + 1))
    j_hat = np.fft.fftn(np.moveaxis(source.j_amp, -1, 0).astype(complex), axes=axes)[None]
    par, perp, crossed = (4 * np.pi * x for x in parts(j_hat))
    ck, mode_ck = np.unique(ck_mode, return_inverse=True)
    mode_ck = mode_ck.reshape(grid.shape)
    e_all, b_all = [], []
    for t in _time_blocks(grid, times):
        angle = (ck_mode * t.reshape((-1,) + (1,) * grid.ndim))[:, None, None]
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        f = np.empty((len(t), 2, 3) + grid.shape, dtype=complex)
        scratch = np.empty_like(f)
        oracle._rotate(*free, cos_a.astype(complex), (sign * sin_a).astype(complex), f, scratch)
        a, bd = oracle._source_integrals(t[:, None], source.omega, ck)
        b, d = bd[:, :, None, None, mode_ck]
        a = a.reshape((-1,) + (1,) * (grid.ndim + 2))
        u, w = cos_a * b + sin_a * d, sin_a * b - cos_a * d
        for scale, part in ((a, par), (u, perp), (w, sign * crossed)):
            f -= scale.astype(complex) * part
        e = 0.5 * (f[:, 0] + f[:, 1])
        b = 0.5j * (f[:, 1] - f[:, 0])
        e_all.append(np.moveaxis(np.fft.ifftn(e, axes=axes), 1, -1))
        b_all.append(np.moveaxis(np.fft.ifftn(b, axes=axes), 1, -1))
    return np.concatenate(e_all), np.concatenate(b_all)


@pytest.mark.parametrize("start", ["vacuum", "wave"])
@pytest.mark.parametrize("case", list(SOURCE_CASES))
def test_oracle_blocks_equal_the_full_part_route(case, start):
    # a vacuum's F+- is neither split nor turned, and an empty part of j (P of a
    # transverse current) is dropped: the blocks stay those of the full route
    source = SOURCE_CASES[case]()
    em0, times = _start(source, start), np.linspace(0.0, 3.0, 11)
    e_ref, b_ref = _full_part_blocks(em0, source, times, 1.3)
    e, b = stacked(maxwell_evolve(em0, source, times, c=1.3))
    assert np.max(np.abs(e[-1])) > 0.1
    assert bits_equal(e, e_ref) and bits_equal(b, b_ref)


def test_a_vacuum_oracle_holds_no_free_parts(monkeypatch):
    # a vacuum's F+- has no P, Q or X to hold and nothing to rotate; a wave's has
    # three (2, 3, *grid) complex arrays, held for the whole run
    source = SOURCE_CASES["3d-dipole"]()
    g = source.grid
    rotations = []
    rotate = oracle._rotate
    monkeypatch.setattr(oracle, "_rotate", lambda *args: rotations.append(1) or rotate(*args))
    held, calls = {}, {}
    for start in ("vacuum", "wave"):
        em0 = _start(source, start)
        tracemalloc.start()
        try:
            run = maxwell_evolve(em0, source, np.linspace(0.0, 1.0, 5))
            held[start] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rotations.clear()
        stacked(run)
        calls[start] = len(rotations)
    field = 3 * int(np.prod(g.shape)) * 16   # one complex vector field
    assert calls == {"vacuum": 0, "wave": 5}
    # six fields; a cache that the first run fills may take a few hundred bytes of them
    assert held["wave"] - held["vacuum"] > 5.5 * field, held
    # the source's shares, P and Q of j and X signed, and per-mode tables
    assert held["vacuum"] < 5 * field, held

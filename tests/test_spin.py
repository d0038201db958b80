from dataclasses import replace

import numpy as np
import pytest

from dirac88.algebra import closure_deviation
from dirac88.fields import GridSpec, SpinorField8
from dirac88.evolution import run_free
from dirac88.spin import (SpinOperator, angular_momentum_series,
                          photon_spin_selection, spin_half, spin_one,
                          verify_spin_evolution)
from dirac88 import states

TWO_PI = 2 * np.pi


def test_hermiticity():
    for op in (spin_half(), spin_one()):
        for comp in op.components:
            assert np.max(np.abs(comp - comp.conj().T)) == 0.0


def test_spin_half_spectrum():
    evals = np.sort(np.linalg.eigvalsh(spin_half().components[2]))
    assert np.allclose(evals, [-0.5] * 4 + [0.5] * 4, atol=1e-13)


def test_spin_one_spectrum_and_casimir():
    op = spin_one()
    evals = np.sort(np.linalg.eigvalsh(op.components[2]))
    assert np.allclose(evals, [-1, -1, 0, 0, 0, 0, 1, 1], atol=1e-13)
    s2 = sum(c @ c for c in op.components)
    evals2 = np.sort(np.linalg.eigvalsh(s2))
    assert np.allclose(evals2, [0, 0] + [2.0] * 6, atol=1e-13)


def test_evolution_identity_exact():
    for op in (spin_half(), spin_one()):
        rep = verify_spin_evolution(op)
        assert rep.passed and rep.deviation == 0.0


def test_evolution_identity_negative_control():
    base = spin_half()
    comps = base.components.copy()
    comps[2] = 2.0 * comps[2]
    bad = SpinOperator(comps, "scaled")
    assert not verify_spin_evolution(bad).passed


def su2_closure(op):
    # [S_i, S_j] = i eps_ijk S_k, through the catalogue's commutator routine
    return closure_deviation(op.components, op.components, op.components)


def test_closure():
    assert su2_closure(spin_half()) == 0.0
    assert su2_closure(spin_one()) == 0.0


def test_photon_selection():
    g = GridSpec((16,), (TWO_PI,))
    psi = states.travelling_wave(g, 1, "x")
    rep = photon_spin_selection(psi)
    assert rep.spin_one_max == 0.0
    assert rep.spin_half_max > 0.1
    assert rep.witness_row in (0, 4)
    assert abs(rep.witness_value) == rep.spin_half_max


def test_selection_zero_field():
    g = GridSpec((8,), (TWO_PI,))
    from dirac88.fields import EMField, embed_em
    rep = photon_spin_selection(embed_em(EMField.zero(g)))
    assert rep.spin_one_max == 0.0 and rep.spin_half_max == 0.0


def test_selection_structural_invariance():
    # spin-1 components have empty rows/cols 0 and 4: they cannot touch the
    # constrained subspace for any state
    op = spin_one()
    for comp in op.components:
        assert np.max(np.abs(comp[0, :])) == 0.0
        assert np.max(np.abs(comp[4, :])) == 0.0
        assert np.max(np.abs(comp[:, 0])) == 0.0
        assert np.max(np.abs(comp[:, 4])) == 0.0


def test_circular_wave_helicity_and_conservation():
    g = GridSpec((64,), (TWO_PI,))
    for hel in (+1, -1):
        psi = states.circular_wave_analytic(g, 2, hel)
        run = run_free(psi, np.linspace(0.0, 5.0, 41))
        orbital, spin, total = angular_momentum_series(run)
        assert spin[0, 2] == pytest.approx(hel * 1.0, abs=1e-12)
        assert np.ptp(spin[:, 2]) < 1e-10
        assert np.max(np.abs(orbital)) < 1e-12


def test_spin_in_the_run_hbar():
    # a helicity +1 wave carries S_z = hbar in the units of its state
    psi = states.circular_wave_analytic(GridSpec((16,), (TWO_PI,)), 2, 1)
    run = run_free(replace(psi, hbar=1.5), np.linspace(0.0, 1.0, 5))
    _, spin, _ = angular_momentum_series(run)
    assert np.max(np.abs(spin[:, 2] - 1.5)) <= 1e-12


def test_linear_wave_no_spin():
    g = GridSpec((64,), (TWO_PI,))
    psi = states.travelling_wave(g, 2, "x")
    run = run_free(psi, np.linspace(0.0, 4.0, 33))
    _, spin, _ = angular_momentum_series(run)
    assert np.max(np.abs(spin[:, 2])) < 1e-12


def test_total_conserved_while_parts_move():
    g = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    spinor = np.zeros(8, complex)
    spinor[3], spinor[0], spinor[2] = 1.0, 0.6, 0.4j
    psi = states.electron_gaussian_packet(g, mass=12.0, sigma=TWO_PI / 14,
                                          k0_mode=(1, 0, 1),
                                          plus_weight=1.0, minus_weight=0.7,
                                          spinor=spinor)
    times = np.linspace(0.0, 10 * np.pi / 12.0, 25)
    run = run_free(psi, times)
    orbital, spin, total = angular_momentum_series(run)
    assert np.ptp(spin, axis=0).max() > 1e-4
    scale = max(np.max(np.abs(total)), 1.0)
    assert np.ptp(total, axis=0).max() / scale < 1e-7


def test_wide_packet_warns():
    g = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    spinor = np.zeros(8, complex)
    spinor[3] = 1.0
    psi = states.electron_gaussian_packet(g, mass=5.0, sigma=TWO_PI / 3,
                                          plus_weight=1.0, spinor=spinor)
    run = run_free(psi, np.linspace(0.0, 0.5, 17))
    with pytest.warns(UserWarning, match="wrap-around") as record:
        angular_momentum_series(run)
    assert record[0].filename == __file__


def narrow_packet():
    spinor = np.zeros(8, complex)
    spinor[3] = 1.0
    return states.electron_gaussian_packet(GridSpec((16, 16, 16), (TWO_PI,) * 3), mass=5.0,
                                           sigma=TWO_PI / 14, plus_weight=1.0, spinor=spinor)


def wave_on_a_line():
    # a full-box wave, but r x p needs two grid axes: on a 1-D grid <L> is 0
    # and wrap-around has nothing to corrupt
    return states.travelling_wave(GridSpec((16,), (TWO_PI,)), 1, "x")


@pytest.mark.parametrize("make", [narrow_packet, wave_on_a_line], ids=["3d-packet", "1d-wave"])
def test_narrow_packet_does_not_warn(make):
    run = run_free(make(), np.linspace(0.0, 0.2, 17))
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        angular_momentum_series(run)


@pytest.mark.filterwarnings("ignore:density RMS width")
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("grid", [GridSpec((16,), (3.0,)), GridSpec((8, 16), (2.0, 5.0)),
                                  GridSpec((8, 16, 4), (3.0, 7.0, 2.0))], ids=["1d", "2d", "3d"])
def test_angular_momentum_matches_full_transform_reference(grid, seed):
    # reference: psi+ (r x p) psi with p psi from one forward and three
    # inverse full transforms; the bound on <L> is relative to
    # sqrt(<r^2> <p^2>), which bounds |<r x p>|
    rng = np.random.default_rng(seed)
    hbar = 0.6
    values = (rng.standard_normal((3,) + grid.shape + (8,))
              + 1j * rng.standard_normal((3,) + grid.shape + (8,)))
    axes = tuple(range(grid.ndim))
    pos, k, dv = grid.positions(), grid.wave_vectors(), grid.cell_volume
    op = hbar * spin_half().components
    for v in values:
        # the given state itself, as the t = 0 sample of its free run
        psi = SpinorField8(grid, v, "electron", 1.3, 1.7, hbar)
        orbital, spin, total = angular_momentum_series(run_free(psi, [0.0]))
        hat = np.fft.fftn(v, axes=axes)
        momentum = np.zeros(grid.shape + (3,), dtype=complex)
        for j in grid.spatial_axes:
            p_psi = np.fft.ifftn(hbar * k[..., j, None] * hat, axes=axes)
            momentum[..., j] = np.einsum("...a,...a->...", v.conj(), p_psi)
        density = np.sum(np.abs(v) ** 2, axis=-1)
        norm = np.sum(density) * dv
        l_ref = (np.sum(np.cross(pos, momentum), axis=axes) * dv).real / norm
        flat = v.reshape(-1, 8)
        s_ref = np.einsum("xa,iab,xb->i", flat.conj(), op, flat).real * dv / norm
        r2 = np.sum(np.sum(pos ** 2, axis=-1) * density) / np.sum(density)
        weights = np.sum(np.abs(hat) ** 2, axis=-1)
        p2 = hbar ** 2 * np.sum(np.sum(k ** 2, axis=-1) * weights) / np.sum(weights)
        assert np.max(np.abs(orbital[0] - l_ref)) <= 1e-13 * np.sqrt(r2 * p2)
        assert np.max(np.abs(spin[0] - s_ref)) <= 1e-13 * hbar
        assert np.array_equal(total[0], orbital[0] + spin[0])

import json
import tracemalloc

import numpy as np
import pytest

from dirac88 import states
from dirac88.algebra import generators
from dirac88.errors import ConstraintViolation
from dirac88.evolution import evolve_free, run_free
from dirac88.fields import (_CSV_BLOCK_POINTS, EMField, FourCurrent, GridSpec, SpinorField8,
                            _alpha_density, constraint_residual, curl, divergence, embed_em,
                            extract_em, field_tensor, load_em_csv, load_spinor_csv, save_em_csv,
                            save_spinor_csv)

TWO_PI = 2 * np.pi


def grid1d(n=64, length=TWO_PI):
    return GridSpec((n,), (length,))


def test_grid_axes_mapping():
    g = grid1d()
    assert g.spatial_axes == (2,)
    assert GridSpec((8, 8), (1.0, 1.0)).spatial_axes == (1, 2)
    assert GridSpec((8, 8, 8), (1.0, 1.0, 1.0)).spatial_axes == (0, 1, 2)
    k = g.wave_vectors()
    assert np.max(np.abs(k[..., 0])) == 0.0 and np.max(np.abs(k[..., 1])) == 0.0
    assert k[1, 2] == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((48,), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((8, 8), (1.0,))


def test_embed_points():
    g = grid1d(4)
    e = np.zeros(g.shape + (3,)); e[..., 0] = 1.0
    b = np.zeros(g.shape + (3,))
    psi = embed_em(EMField(g, e, b))
    assert psi.kind == "photon" and psi.mass == 0.0
    assert np.array_equal(psi.values[0], np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex))
    b2 = np.zeros(g.shape + (3,)); b2[..., 1] = 1.0
    psi2 = embed_em(EMField(g, np.zeros_like(e), b2))
    assert psi2.values[0][6] == 1j
    assert np.max(np.abs(np.delete(psi2.values[0], 6))) == 0.0


def test_embed_extract_roundtrip():
    g = grid1d()
    rng = np.random.default_rng(0)
    e = rng.standard_normal(g.shape + (3,))
    b = rng.standard_normal(g.shape + (3,))
    em = EMField(g, e.astype(complex), b.astype(complex))
    back = extract_em(embed_em(em))
    assert np.max(np.abs(back.e - e)) == 0.0
    assert np.max(np.abs(back.b - b)) == 0.0


def test_extract_constraint_violation():
    g = grid1d(8)
    values = np.zeros(g.shape + (8,), dtype=complex)
    values[..., 0] = 0.1
    with pytest.raises(ConstraintViolation):
        extract_em(SpinorField8(g, values, kind="photon"))


def test_field_tensor_entries():
    ft = field_tensor([1.0, 0, 0], [0, 0, 0])
    expect = np.zeros((4, 4))
    expect[0, 1], expect[1, 0] = -1.0, 1.0
    assert np.max(np.abs(ft - expect)) == 0.0
    ft2 = field_tensor([0, 0, 0], [0, 0, 1.0])
    expect2 = np.zeros((4, 4))
    expect2[1, 2], expect2[2, 1] = -1.0, 1.0
    assert np.max(np.abs(ft2 - expect2)) == 0.0


def test_field_tensor_duality_and_antisymmetry():
    # the dual G = -i kappa.B + i theta.E is the tensor of (B, -E)
    rng = np.random.default_rng(3)
    e = rng.standard_normal(3)
    b = rng.standard_normal(3)
    kappa, theta, _ = generators()
    g = -1j * np.einsum("k,kij->ij", b, kappa) + 1j * np.einsum("k,kij->ij", e, theta)
    ft = field_tensor(e, b)
    assert np.max(np.abs(ft + ft.T)) == 0.0
    assert np.max(np.abs(g + g.T)) == 0.0
    assert np.max(np.abs(g - field_tensor(b, -e))) == 0.0


def test_spectral_divergence_single_mode():
    g = grid1d(64)
    z = g.positions()[..., 2]
    k = 2 * np.pi / g.lengths[0]
    v = np.zeros(g.shape + (3,), dtype=complex)
    v[..., 2] = np.sin(k * z)
    div = divergence(g, v)
    assert np.max(np.abs(div.real - k * np.cos(k * z))) < 1e-12
    assert np.max(np.abs(div.imag)) < 1e-12


def test_spectral_curl_single_mode():
    g = grid1d(64)
    z = g.positions()[..., 2]
    k = 3.0
    v = np.zeros(g.shape + (3,), dtype=complex)
    v[..., 1] = np.cos(k * z)   # B = y cos(kz)
    c = curl(g, v)
    # curl(y f(z)) = -x f'(z) = +x k sin(kz)
    assert np.max(np.abs(c[..., 0].real - k * np.sin(k * z))) < 1e-12
    assert np.max(np.abs(c[..., 1])) < 1e-12
    assert np.max(np.abs(c[..., 2])) < 1e-12


def test_divergence_of_curl_vanishes():
    g = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.shape + (3,)).astype(complex)
    dc = divergence(g, curl(g, v))
    assert np.max(np.abs(dc)) < 1e-12


def energy_and_poynting(em, c=1.0):
    """Total energy int (E^2 + B^2)/8pi dV, S = (c/4pi) E x B per point, and the
    flux read through the embedding, psi+ alpha psi / 2, which for real fields
    must equal E x B pointwise (the classical flux integrand)."""
    e, b = em.e.real, em.b.real
    density = (np.einsum("...i,...i->...", e, e) + np.einsum("...i,...i->...", b, b)) / (8 * np.pi)
    energy = float(np.sum(density) * em.grid.cell_volume)
    return energy, (c / (4 * np.pi)) * np.cross(e, b), 0.5 * _alpha_density(embed_em(em).values)


def test_energy_and_poynting_crossed_fields():
    g = grid1d(8)
    e = np.zeros(g.shape + (3,), dtype=complex); e[..., 0] = 1.0
    b = np.zeros(g.shape + (3,), dtype=complex); b[..., 1] = 1.0
    energy, poynting, from_spinor = energy_and_poynting(EMField(g, e, b))
    assert energy == pytest.approx(2 * np.prod(g.lengths) / (8 * np.pi))
    assert np.allclose(poynting[..., 2], 1.0 / (4 * np.pi))
    # spinor route reproduces E x B (not divided by 4 pi)
    assert np.max(np.abs(from_spinor[..., 2] - 1.0)) < 1e-12
    assert np.max(np.abs(from_spinor[..., :2])) < 1e-12


def test_energy_zero_fields():
    g = grid1d(8)
    energy, poynting, _ = energy_and_poynting(EMField.zero(g))
    assert energy == 0.0
    assert np.max(np.abs(poynting)) == 0.0


def test_poynting_spinor_pointwise_identity_random():
    g = grid1d(32)
    rng = np.random.default_rng(11)
    e = rng.standard_normal(g.shape + (3,))
    b = rng.standard_normal(g.shape + (3,))
    _, _, from_spinor = energy_and_poynting(EMField(g, e.astype(complex), b.astype(complex)))
    assert np.max(np.abs(from_spinor - np.cross(e, b))) < 1e-12


def test_four_current_continuity():
    g = grid1d(64)
    z = g.positions()[..., 2]
    j = np.zeros(g.shape + (3,))
    j[..., 2] = np.exp(-z ** 2 / (2 * 0.3 ** 2))     # band-limited on 64 points
    cur = FourCurrent(g, j, omega=2.0)
    for t in (0.0, 0.3, 1.7):
        assert cur.continuity_residual(t) < 1e-12
    bad = FourCurrent(g, j, omega=2.0, rho_amp=np.zeros(g.shape))
    assert bad.continuity_residual(0.0) > 1e-3
    # exp(-z^2) is cut off at the box edge: its Nyquist mode carries an imaginary
    # divergence that no real charge balances, and the residual must show it
    j[..., 2] = np.exp(-z ** 2)
    assert FourCurrent(g, j, omega=2.0).continuity_residual(0.0) > 1e-6


def test_csv_roundtrip(tmp_path):
    g = grid1d(8)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(g.shape + (8,)) + 1j * rng.standard_normal(g.shape + (8,))
    psi = SpinorField8(g, values, kind="generic", mass=0.5)
    path = tmp_path / "psi.csv"
    save_spinor_csv(path, psi)
    back = load_spinor_csv(path)
    assert back.kind == "generic" and back.mass == 0.5
    assert np.max(np.abs(back.values - values)) < 1e-15

    e = rng.standard_normal(g.shape + (3,))
    b = rng.standard_normal(g.shape + (3,))
    em = EMField(g, e.astype(complex), b.astype(complex))
    path2 = tmp_path / "em.csv"
    save_em_csv(path2, em)
    back2 = load_em_csv(path2)
    assert np.max(np.abs(back2.e - em.e)) < 1e-15
    assert np.max(np.abs(back2.b - em.b)) < 1e-15


def test_csv_roundtrip_3d(tmp_path):
    g = GridSpec((4, 8, 4), (1.0, 2.0, 1.0))
    rng = np.random.default_rng(13)
    values = rng.standard_normal(g.shape + (8,)) + 1j * rng.standard_normal(g.shape + (8,))
    psi = SpinorField8(g, values, kind="electron", mass=2.0)
    path = tmp_path / "psi3d.csv"
    save_spinor_csv(path, psi)
    back = load_spinor_csv(path)
    assert back.grid == g and back.mass == 2.0
    assert np.max(np.abs(back.values - values)) < 1e-15


_EDGE_VALUES = [-0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf, 1 / 3, -2.5, 0.0]


def edge_field(kind, points):
    """A spinor or EM field whose real parts cycle through the edge cases of
    %.17g, and whose imaginary parts cycle through them shifted by three."""
    grid = GridSpec(points, tuple(0.5 * 2.0 ** axis for axis in range(len(points))))
    values = np.empty(grid.shape + (8 if kind == "spinor" else 6,), dtype=complex)
    values.real = np.resize(_EDGE_VALUES, values.shape)
    values.imag = np.resize(_EDGE_VALUES[3:] + _EDGE_VALUES[:3], values.shape)
    if kind == "spinor":
        return SpinorField8(grid, values, kind="electron", mass=0.5)
    return EMField(grid, values[..., :3], values[..., 3:])


# The snapshot format, byte for byte, as the row-by-row csv.writer version of
# the writer produced it: (kind, points, CSV body, JSON sidecar).
GOLDEN_SNAPSHOTS = [
    ("spinor", (2,), (
        "i,j,k,component,re,im\r\n"
        "0,0,0,0,-0,nan\r\n"
        "0,0,0,1,1e-300,inf\r\n"
        "0,0,0,2,1.0000000000000001e+300,-inf\r\n"
        "0,0,0,3,nan,0.33333333333333331\r\n"
        "0,0,0,4,inf,-2.5\r\n"
        "0,0,0,5,-inf,0\r\n"
        "0,0,0,6,0.33333333333333331,-0\r\n"
        "0,0,0,7,-2.5,1e-300\r\n"
        "1,0,0,0,0,1.0000000000000001e+300\r\n"
        "1,0,0,1,-0,nan\r\n"
        "1,0,0,2,1e-300,inf\r\n"
        "1,0,0,3,1.0000000000000001e+300,-inf\r\n"
        "1,0,0,4,nan,0.33333333333333331\r\n"
        "1,0,0,5,inf,-2.5\r\n"
        "1,0,0,6,-inf,0\r\n"
        "1,0,0,7,0.33333333333333331,-0\r\n"
    ), (
        '{\n'
        ' "grid": {\n'
        '  "points": [\n'
        '   2\n'
        '  ],\n'
        '  "lengths": [\n'
        '   0.5\n'
        '  ]\n'
        ' },\n'
        ' "components": 8,\n'
        ' "kind": "electron",\n'
        ' "mass": 0.5,\n'
        ' "c": 1.0,\n'
        ' "hbar": 1.0\n'
        '}'
    )),
    ("em", (2, 2), (
        "i,j,k,component,re,im\r\n"
        "0,0,0,0,-0,nan\r\n"
        "0,0,0,1,1e-300,inf\r\n"
        "0,0,0,2,1.0000000000000001e+300,-inf\r\n"
        "0,0,0,3,nan,0.33333333333333331\r\n"
        "0,0,0,4,inf,-2.5\r\n"
        "0,0,0,5,-inf,0\r\n"
        "0,1,0,0,0.33333333333333331,-0\r\n"
        "0,1,0,1,-2.5,1e-300\r\n"
        "0,1,0,2,0,1.0000000000000001e+300\r\n"
        "0,1,0,3,-0,nan\r\n"
        "0,1,0,4,1e-300,inf\r\n"
        "0,1,0,5,1.0000000000000001e+300,-inf\r\n"
        "1,0,0,0,nan,0.33333333333333331\r\n"
        "1,0,0,1,inf,-2.5\r\n"
        "1,0,0,2,-inf,0\r\n"
        "1,0,0,3,0.33333333333333331,-0\r\n"
        "1,0,0,4,-2.5,1e-300\r\n"
        "1,0,0,5,0,1.0000000000000001e+300\r\n"
        "1,1,0,0,-0,nan\r\n"
        "1,1,0,1,1e-300,inf\r\n"
        "1,1,0,2,1.0000000000000001e+300,-inf\r\n"
        "1,1,0,3,nan,0.33333333333333331\r\n"
        "1,1,0,4,inf,-2.5\r\n"
        "1,1,0,5,-inf,0\r\n"
    ), (
        '{\n'
        ' "grid": {\n'
        '  "points": [\n'
        '   2,\n'
        '   2\n'
        '  ],\n'
        '  "lengths": [\n'
        '   0.5,\n'
        '   1.0\n'
        '  ]\n'
        ' },\n'
        ' "components": 6,\n'
        ' "kind": "em"\n'
        '}'
    )),
    ("em", (2, 2, 2), (
        "i,j,k,component,re,im\r\n"
        "0,0,0,0,-0,nan\r\n"
        "0,0,0,1,1e-300,inf\r\n"
        "0,0,0,2,1.0000000000000001e+300,-inf\r\n"
        "0,0,0,3,nan,0.33333333333333331\r\n"
        "0,0,0,4,inf,-2.5\r\n"
        "0,0,0,5,-inf,0\r\n"
        "0,0,1,0,0.33333333333333331,-0\r\n"
        "0,0,1,1,-2.5,1e-300\r\n"
        "0,0,1,2,0,1.0000000000000001e+300\r\n"
        "0,0,1,3,-0,nan\r\n"
        "0,0,1,4,1e-300,inf\r\n"
        "0,0,1,5,1.0000000000000001e+300,-inf\r\n"
        "0,1,0,0,nan,0.33333333333333331\r\n"
        "0,1,0,1,inf,-2.5\r\n"
        "0,1,0,2,-inf,0\r\n"
        "0,1,0,3,0.33333333333333331,-0\r\n"
        "0,1,0,4,-2.5,1e-300\r\n"
        "0,1,0,5,0,1.0000000000000001e+300\r\n"
        "0,1,1,0,-0,nan\r\n"
        "0,1,1,1,1e-300,inf\r\n"
        "0,1,1,2,1.0000000000000001e+300,-inf\r\n"
        "0,1,1,3,nan,0.33333333333333331\r\n"
        "0,1,1,4,inf,-2.5\r\n"
        "0,1,1,5,-inf,0\r\n"
        "1,0,0,0,0.33333333333333331,-0\r\n"
        "1,0,0,1,-2.5,1e-300\r\n"
        "1,0,0,2,0,1.0000000000000001e+300\r\n"
        "1,0,0,3,-0,nan\r\n"
        "1,0,0,4,1e-300,inf\r\n"
        "1,0,0,5,1.0000000000000001e+300,-inf\r\n"
        "1,0,1,0,nan,0.33333333333333331\r\n"
        "1,0,1,1,inf,-2.5\r\n"
        "1,0,1,2,-inf,0\r\n"
        "1,0,1,3,0.33333333333333331,-0\r\n"
        "1,0,1,4,-2.5,1e-300\r\n"
        "1,0,1,5,0,1.0000000000000001e+300\r\n"
        "1,1,0,0,-0,nan\r\n"
        "1,1,0,1,1e-300,inf\r\n"
        "1,1,0,2,1.0000000000000001e+300,-inf\r\n"
        "1,1,0,3,nan,0.33333333333333331\r\n"
        "1,1,0,4,inf,-2.5\r\n"
        "1,1,0,5,-inf,0\r\n"
        "1,1,1,0,0.33333333333333331,-0\r\n"
        "1,1,1,1,-2.5,1e-300\r\n"
        "1,1,1,2,0,1.0000000000000001e+300\r\n"
        "1,1,1,3,-0,nan\r\n"
        "1,1,1,4,1e-300,inf\r\n"
        "1,1,1,5,1.0000000000000001e+300,-inf\r\n"
    ), (
        '{\n'
        ' "grid": {\n'
        '  "points": [\n'
        '   2,\n'
        '   2,\n'
        '   2\n'
        '  ],\n'
        '  "lengths": [\n'
        '   0.5,\n'
        '   1.0,\n'
        '   2.0\n'
        '  ]\n'
        ' },\n'
        ' "components": 6,\n'
        ' "kind": "em"\n'
        '}'
    )),
]


@pytest.mark.parametrize("kind, points, csv_text, sidecar_text", GOLDEN_SNAPSHOTS,
                         ids=["spinor-1d", "em-2d", "em-3d"])
def test_snapshot_csv_golden_bytes(tmp_path, kind, points, csv_text, sidecar_text):
    path = tmp_path / "snap.csv"
    (save_spinor_csv if kind == "spinor" else save_em_csv)(path, edge_field(kind, points))
    assert path.read_bytes() == csv_text.encode()
    assert (tmp_path / "snap.csv.json").read_bytes() == sidecar_text.encode()


def _reference_csv(grid, values):
    """The snapshot CSV body written row by row: the reference for the block
    writer, which formats each distinct double of a block once."""
    idx_shape = grid.shape + (1,) * (3 - grid.ndim)
    rows = ["i,j,k,component,re,im\r\n"]
    for (i, j, k), point in zip(np.ndindex(idx_shape), values.reshape(-1, values.shape[-1])):
        for comp, v in enumerate(point.tolist()):
            rows.append("%d,%d,%d,%d,%.17g,%.17g\r\n" % (i, j, k, comp, v.real, v.imag))
    return "".join(rows).encode()


def _redundant_em():
    """A 16^3 EM field of two blocks whose first block holds both zeros, NaNs
    of both signs and two payloads, the infinities, the smallest subnormal and
    a double beside its neighbour; the rest repeats a few levels."""
    g = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    rng = np.random.default_rng(23)
    values = rng.choice([0.0, -0.0, 0.5, -1.25, 1 / 3], size=g.shape + (6,)).astype(complex)
    values.imag = rng.choice([0.0, 2.0 ** -40, rng.standard_normal()], size=values.shape)
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000003,
                     0xFFF4000000000000], dtype=np.uint64).view(float)
    x = 0.1
    special = np.concatenate([[0.0, -0.0, np.nan, -np.nan], nans,
                              [np.inf, -np.inf, 5e-324, -5e-324, 1e-300, x, np.nextafter(x, 1.0),
                               np.nextafter(x, 0.0), 1e300, np.nextafter(1e300, np.inf)]])
    flat = values.reshape(-1)
    flat.real[:len(special)] = special
    flat.imag[40:40 + len(special)] = special[::-1]
    return EMField(g, values[..., :3], values[..., 3:])


def _travelling_wave_snapshot():
    g = GridSpec((16, 16, 16), (TWO_PI, 2.0, 3.0))
    run = run_free(states.travelling_wave(g, [1, 0, 2], "y"), np.linspace(0.0, 1.3, 3))
    return extract_em(run.sample(2))


def _redundant_spinor():
    g = GridSpec((128, 32), (TWO_PI, 3.0))
    rng = np.random.default_rng(29)
    values = rng.standard_normal(g.shape + (8,)).astype(complex)
    values.imag = rng.choice([0.0, -0.0, 0.75], values.shape)
    values.real[::3] = 0.0
    return SpinorField8(g, values, kind="electron", mass=0.5)


@pytest.mark.parametrize("field", [_redundant_em, _redundant_spinor, _travelling_wave_snapshot],
                         ids=["edge-em-3d", "spinor-2d", "travelling-wave-3d"])
def test_snapshot_csv_equals_the_row_by_row_writer(tmp_path, field):
    field = field()
    path = tmp_path / "snap.csv"
    if isinstance(field, EMField):
        save_em_csv(path, field)
        values = np.concatenate([field.e, field.b], axis=-1)
    else:
        save_spinor_csv(path, field)
        values = field.values
    assert values.size // values.shape[-1] > _CSV_BLOCK_POINTS
    assert path.read_bytes() == _reference_csv(field.grid, values)


def assert_bits_equal(got, want):
    for a, b in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_csv_roundtrip_bit_exact_3d(tmp_path):
    g = GridSpec((4, 8, 2), (1.0, 2.0, 0.5))
    rng = np.random.default_rng(17)
    values = np.empty(g.shape + (8,), dtype=complex)
    values.real = rng.standard_normal(values.shape) * 10.0 ** rng.integers(-300, 300, values.shape)
    values.imag = rng.standard_normal(values.shape)
    values.real.flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
    values.imag.flat[-len(_EDGE_VALUES):] = _EDGE_VALUES
    save_spinor_csv(tmp_path / "psi.csv", SpinorField8(g, values, kind="electron", mass=2.0))
    assert_bits_equal(load_spinor_csv(tmp_path / "psi.csv").values, values)
    save_em_csv(tmp_path / "em.csv", EMField(g, values[..., :3], values[..., 5:]))
    back = load_em_csv(tmp_path / "em.csv")
    assert_bits_equal(back.e, values[..., :3])
    assert_bits_equal(back.b, values[..., 5:])


def test_constraint_residual_of_points_stacks_and_empty_arrays():
    point = np.zeros(8, dtype=complex)
    point[4] = -3.0 + 4.0j
    assert constraint_residual(point) == 5.0
    stack = np.zeros((2, 4, 8), dtype=complex)
    stack[1, 2, 0] = 0.25j
    assert constraint_residual(stack) == 0.25
    assert constraint_residual(np.zeros((0, 8))) == 0.0
    stack[0, 1, 4] = np.nan
    assert np.isnan(constraint_residual(stack))


def test_spinor_csv_keeps_the_units(tmp_path):
    g = GridSpec((8,), (2.0 * np.pi,))
    rest = np.zeros(g.shape + (8,), dtype=complex)
    rest[..., 3] = 1.0
    psi = SpinorField8(g, rest, kind="electron", mass=1.0, c=2.0, hbar=1.5)
    save_spinor_csv(tmp_path / "psi.csv", psi)
    back = load_spinor_csv(tmp_path / "psi.csv")
    assert (back.kind, back.mass, back.c, back.hbar) == ("electron", 1.0, 2.0, 1.5)
    assert np.array_equal(evolve_free(back, 1.0).values, evolve_free(psi, 1.0).values)


def test_spinor_csv_without_units_loads_natural_units(tmp_path):
    g = GridSpec((2,), (1.0,))
    save_spinor_csv(tmp_path / "psi.csv", SpinorField8(g, np.ones((2, 8)), mass=0.5))
    sidecar = tmp_path / "psi.csv.json"
    meta = json.loads(sidecar.read_text())
    del meta["c"], meta["hbar"]
    sidecar.write_text(json.dumps(meta))
    back = load_spinor_csv(tmp_path / "psi.csv")
    assert (back.mass, back.c, back.hbar) == (0.5, 1.0, 1.0)


def test_snapshot_write_memory_budget(tmp_path):
    """Rows are formatted a block at a time, so one 32^3 snapshot (a 3 MiB
    array of E and B) peaks near 5 MiB; formatting all rows at once would
    take about 36 MiB."""
    g = GridSpec((32, 32, 32), (TWO_PI,) * 3)
    rng = np.random.default_rng(19)
    em = EMField(g, rng.standard_normal(g.shape + (3,)), rng.standard_normal(g.shape + (3,)))
    tracemalloc.start()
    try:
        save_em_csv(tmp_path / "em.csv", em)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_plane_wave_snapshot_write_memory_budget(tmp_path):
    """The per-block distinct values, their inverse and their strings stay
    small beside the block's rows: a 32^3 plane wave keeps the same bound."""
    g = GridSpec((32, 32, 32), (TWO_PI,) * 3)
    em = extract_em(states.travelling_wave(g, [1, 2, 0], "z", amplitude=0.9))
    tracemalloc.start()
    try:
        save_em_csv(tmp_path / "em.csv", em)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20

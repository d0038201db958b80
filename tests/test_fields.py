import json
import tracemalloc

import numpy as np
import pytest

from dirac88 import states
from dirac88.algebra import generators
from dirac88.cli import run_command
from dirac88.errors import ConstraintViolation
from dirac88.evolution import evolve_free, run_free
from dirac88.fields import (_CSV_BLOCK_POINTS, EMField, FourCurrent, GridSpec, SpinorField8,
                            _alpha_density, _check_em, _point_blocks, _write_csv,
                            check_constraint, constraint_residual, curl,
                            divergence, embed_em, extract_em, field_tensor, load_em_csv,
                            load_spinor_csv, save_em_csv, save_spinor_csv)

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


@pytest.mark.parametrize("points, lengths, named", [
    ((8,), (-1.0,), "lengths"), ((8,), (0.0,), "lengths"), ((8,), (np.nan,), "lengths"),
    ((8, 8), (1.0, np.inf), "lengths"), ((8.0,), (1.0,), "points"), ((8.7,), (1.0,), "points"),
], ids=["length-negative", "length-zero", "length-nan", "length-inf", "points-float-8",
        "points-float-8.7"])
def test_grid_domains(points, lengths, named):
    # a negative length gave a negative cell volume, float points a TypeError from &
    with pytest.raises(ValueError, match=named):
        GridSpec(points, lengths)


def test_grid_of_numpy_integers_writes_its_sidecar(tmp_path):
    # the sidecar's json.dumps raised a TypeError on numpy integer points
    grid = GridSpec(tuple(np.array([4, 2])), (1.0, 2.0))
    save_em_csv(tmp_path / "em.csv", EMField.zero(grid))
    assert load_em_csv(tmp_path / "em.csv").grid == grid


def test_grid_from_dict_does_not_truncate_points(tmp_path):
    # the sidecar of a CSV is read through from_dict: 8.7 points was read as 8
    with pytest.raises(ValueError, match="points"):
        GridSpec.from_dict({"points": [8.7], "lengths": [1.0]})
    save_em_csv(tmp_path / "em.csv", EMField.zero(GridSpec((2,), (1.0,))))
    sidecar = tmp_path / "em.csv.json"
    meta = json.loads(sidecar.read_text())
    meta["grid"]["lengths"] = [-1.0]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="lengths"):
        load_em_csv(tmp_path / "em.csv")


@pytest.mark.parametrize("units, named", [
    ({"c": 0.0}, "c"), ({"c": -1.0}, "c"), ({"c": np.nan}, "c"), ({"c": np.inf}, "c"),
    ({"hbar": 0.0}, "hbar"), ({"hbar": np.nan}, "hbar"), ({"mass": -1.0}, "mass"),
    ({"mass": np.nan}, "mass"), ({"mass": np.inf}, "mass"),
], ids=["c-zero", "c-negative", "c-nan", "c-inf", "hbar-zero", "hbar-nan", "mass-negative",
        "mass-nan", "mass-inf"])
def test_state_unit_domains(units, named):
    # at c = 0 a travelling wave never moved: the largest change after t = 1 read 1.4e-16
    from dataclasses import replace
    psi = states.travelling_wave(grid1d(16), 1)
    with pytest.raises(ValueError, match=f"^{named} must be"):
        replace(psi, **units)


def test_spinor_csv_with_bad_units_is_rejected(tmp_path):
    g = GridSpec((2,), (1.0,))
    save_spinor_csv(tmp_path / "psi.csv", SpinorField8(g, np.ones((2, 8)), mass=0.5))
    sidecar = tmp_path / "psi.csv.json"
    meta = json.loads(sidecar.read_text())
    meta["c"] = 0.0
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="c must be"):
        load_spinor_csv(tmp_path / "psi.csv")


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


@pytest.mark.parametrize("slot, value, message", [
    (0, np.nan, "components 0/4"), (4, complex(0.0, np.nan), "components 0/4"),
    (2, complex(0.0, np.nan), "imaginary residue"), (6, np.nan, "imaginary residue"),
], ids=["nan-in-slot-0", "nan-in-slot-4", "e-imaginary-nan", "b-real-nan"])
def test_extract_fails_a_nan(slot, value, message):
    # an E entry of 0 + NaN i passed the reality check, and .real wrote E = 0 there
    g = grid1d(8)
    values = np.zeros(g.shape + (8,), dtype=complex)
    values[3, slot] = value
    with pytest.raises(ConstraintViolation, match=message):
        extract_em(SpinorField8(g, values, kind="photon"))


@pytest.mark.parametrize("field, slot, value, scale", [
    (1e11, 4, 1e2, 1e11), (1e11, 0, 1e6, None), (1e11, 0, np.inf, None),
    (1e11, 4, np.nan, None), (1.0, 2, np.inf, None), (1.0, 2, np.nan, None),
], ids=["residue-below-the-scale", "residue-above-the-scale", "inf-residue", "nan-residue",
        "inf-field", "nan-field"])
def test_check_constraint_is_relative_to_the_finite_field_scale(field, slot, value, scale):
    # components 0/4 are judged against tol * max(largest finite |value|, 1): an
    # inf or NaN field entry lifts no scale, so components 0/4 at 1e-3 still fail
    values = np.zeros((8, 8), dtype=complex)
    values[:, 1:4] = field
    values[:, 0] = 1e-3 * (field == 1.0)
    values[3, slot] = value
    if scale is not None:
        assert check_constraint(values, tol=1e-6) == scale
    else:
        with pytest.raises(ConstraintViolation, match="components 0/4 reach"):
            check_constraint(values, tol=1e-6)


def _embedded_wave_16():
    """A sample of a 16^3 photon wave's run: two CSV blocks of rows."""
    g = GridSpec((16, 16, 16), (TWO_PI, 5.0, 9.0))
    return run_free(states.travelling_wave(g, [1, 0, 2], "y"), [0.0, 0.7]).sample(1)


@pytest.mark.parametrize("slot, value, message", [
    (4, 1e-3, "components 0/4 reach"), (0, np.nan, "components 0/4 reach"),
    (2, 1e-3j, "imaginary residue"), (6, 1e-3, "imaginary residue"),
    (7, complex(0.0, np.nan), "imaginary residue"),
], ids=["constraint", "constraint-nan", "e-imaginary", "b-imaginary", "b-nan"])
def test_a_failing_snapshot_writes_no_file(tmp_path, slot, value, message):
    # the fault sits in the last block of rows: the checks run over the whole
    # sample before the file is opened, with extract_em's messages
    psi = _embedded_wave_16()
    psi.values[-1, -1, -1, slot] += value
    with pytest.raises(ConstraintViolation, match=message) as raised:
        save_em_csv(tmp_path / "fields-1.csv", psi, tol=1e-6)
    with pytest.raises(ConstraintViolation) as extracted:
        extract_em(psi, tol=1e-6)
    assert str(raised.value) == str(extracted.value)
    assert list(tmp_path.iterdir()) == []


def _two_pass_checks(values, tol):
    """``extract_em``'s checks read in two passes, the constraint's whole pass
    first: the reference for the one read.  Returns the error message, or None."""
    rows, scale, resid, imag = values.reshape(-1, 8), 1.0, 0.0, 0.0
    for start in range(0, len(rows), 1024):
        size = np.abs(rows[start:start + 1024])
        scale = max(scale, float(np.max(size, where=size < np.inf, initial=1.0)))
        resid = np.maximum(resid, np.max(size[:, ::4]))
    if not resid <= tol * scale:
        return (f"components 0/4 reach {resid:.3e} (tolerance {tol:.1e} of the field scale "
                f"{scale:.3g}); Gauss-law or transversality constraint broken")
    for start in range(0, len(rows), 1024):
        block = rows[start:start + 1024]
        imag = np.maximum(imag, np.maximum(np.max(np.abs(block[:, 1:4].imag)),
                                           np.max(np.abs((-1j * block[:, 5:8]).imag))))
    if not imag <= tol * scale:
        return (f"recovered fields have imaginary residue {float(imag):.3e} "
                f"(tolerance {tol:.1e} of the field scale {scale:.3g})")
    return None


@pytest.mark.parametrize("faults", [
    {0: np.nan}, {6: complex(0.0, np.inf)}, {6: np.inf}, {1: np.inf}, {5: complex(0.0, np.nan)},
    {1: 1e-3j}, {3: 1e-3j}, {4: 1e-3, 2: 1e-3j}, {0: np.nan, 7: complex(0.0, np.inf)},
    {3: 2.5 - 1e-9j},
], ids=["nan-in-0", "inf-in-im-6", "inf-in-re-6", "inf-in-e", "nan-in-im-5", "e-imaginary-1",
        "e-imaginary-3", "both-fail", "both-fail-non-finite", "passes"])
def test_snapshot_checks_read_as_the_two_passes(faults):
    # one read gives the messages, their order (the constraint's first) and the
    # NaN/inf verdicts of the two passes: an inf in Im psi_5..7 fails through
    # (-1j psi).imag's 0 * inf, and an inf in E lifts no scale and passes (the
    # CLI runs with numpy's warnings off, so 0 * inf warns nowhere)
    values = _embedded_wave_16().values.copy()
    for slot, value in faults.items():
        values[-1, -1, -1, slot] += value
    with np.errstate(all="ignore"):
        want = _two_pass_checks(values, 1e-6)
        assert (want is None) == (faults == {3: 2.5 - 1e-9j} or faults == {1: np.inf})
        if want is None:
            _check_em(values, 1e-6)
            return
        with pytest.raises(ConstraintViolation) as raised:
            _check_em(values, 1e-6)
    assert str(raised.value) == want


class _RowReads(np.ndarray):
    """Spinor values that record each block of rows sliced from them."""

    reads = []

    def __getitem__(self, key):
        if isinstance(key, slice):
            _RowReads.reads.append((key.start, key.stop))
        return super().__getitem__(key)


def test_snapshot_checks_read_each_row_block_once():
    values = _embedded_wave_16().values   # 4096 points, four blocks of rows
    _RowReads.reads = []
    _check_em(values.view(_RowReads), 1e-6)
    assert _RowReads.reads == [(start, start + 1024) for start in range(0, 4096, 1024)]


def test_a_spinor_snapshot_equals_its_extracted_fields(tmp_path):
    # the writer recovers E and B a block at a time with extract_em's arithmetic:
    # signed zeros, the residues that .real drops and every digit come out the same
    psi = _embedded_wave_16()
    rng = np.random.default_rng(37)
    values = psi.values
    values[..., [1, 2, 3, 5, 6, 7]] *= rng.choice([1.0, -1.0, 1.0 + 1e-9j], values.shape[:-1] + (6,))
    values.reshape(-1)[rng.choice(values.size, 400)] *= -0.0
    assert len(np.unique(values)) > 10
    save_em_csv(tmp_path / "spinor.csv", psi, tol=1e-6)
    save_em_csv(tmp_path / "fields.csv", extract_em(psi, tol=1e-6))
    for suffix in ("", ".json"):
        assert ((tmp_path / f"spinor.csv{suffix}").read_bytes()
                == (tmp_path / f"fields.csv{suffix}").read_bytes())


# signed zeros, subnormals, the extremes of the range, infinities and NaN payloads
_SPECIAL_DOUBLES = np.r_[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
                         1e300, -1.0000000000000001e300, np.inf, -np.inf, 0.1, -1.0 / 3.0,
                         np.array([0x7FF8000000000123, 0xFFF0000000000042, 0x7FF0000000000001],
                                  np.uint64).view(float)]


@pytest.mark.parametrize("points", [(4096,), (32, 128), (8, 16, 32)], ids=["1d", "2d", "3d"])
def test_a_real_snapshot_block_writes_the_bytes_of_its_complex_one(tmp_path, points):
    # a float64 block writes each im cell as the "0" of a complex block's +0.0
    g = GridSpec(points, (TWO_PI,) * len(points))
    rng = np.random.default_rng(43)
    values = rng.choice(_SPECIAL_DOUBLES, g.shape + (6,))
    values.reshape(-1)[rng.choice(values.size, values.size // 2)] = rng.standard_normal(values.size // 2)
    for name, v in (("real", values), ("complex", values.astype(complex))):
        _write_csv(tmp_path / f"{name}.csv", g, _point_blocks(v, 6), 6, {"kind": "em"})
    real = (tmp_path / "real.csv").read_bytes()
    assert real == (tmp_path / "complex.csv").read_bytes()
    assert real == _reference_csv(g, values.astype(complex))
    # and through the checks: a spinor's real columns against its extracted complex fields
    finite = np.where(np.isfinite(values), values, -0.0)
    psi = embed_em(EMField(g, finite[..., :3], finite[..., 3:]))
    save_em_csv(tmp_path / "spinor.csv", psi)
    save_em_csv(tmp_path / "fields.csv", extract_em(psi))
    assert (tmp_path / "spinor.csv").read_bytes() == (tmp_path / "fields.csv").read_bytes()


def test_a_snapshot_of_a_large_amplitude_wave_passes(tmp_path):
    # the imaginary residue of a 1e11 wave is ~1e-5 absolute, 2e-16 of its scale
    cfg = {"grid": {"points": [64], "lengths": [TWO_PI]}, "duration": 2.0, "samples": 8,
           "state": {"type": "travelling_wave", "mode": 3, "amplitude": 1e11},
           "checks": {"norm_drift": 1e-8}, "outputs": {"snapshots": [1]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_command("evolve", str(path), str(tmp_path / "out")) == 0
    em = load_em_csv(tmp_path / "out" / "fields-1.csv")
    assert 0.99e11 < np.max(np.abs(em.e)) <= 1e11


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
    assert cur.continuity_residual() < 1e-12
    cur.rho_amp = np.zeros(g.shape)   # the fault: a current with no charge
    assert cur.continuity_residual() > 1e-3
    # exp(-z^2) is cut off at the box edge: its Nyquist mode carries an imaginary
    # divergence that no real charge balances, and the residual must show it
    j[..., 2] = np.exp(-z ** 2)
    assert FourCurrent(g, j, omega=2.0).continuity_residual() > 1e-6


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


def _carried_table_spinor():
    """A 1-D spinor of eight blocks, each against the table of the block
    before it: the same doubles (full overlap), half of them (partial), new
    ones (none), only +0.0 beside the widest text (-1.0000000000000001e+300)
    on either side, then all distinct doubles."""
    g = GridSpec((8 * _CSV_BLOCK_POINTS,), (TWO_PI,))
    rng = np.random.default_rng(31)
    a, b, c = (rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40) for _ in range(3))
    a[:4] = 0.0, -0.0, np.nan, 1e-300
    levels = [a, a[::-1], np.r_[a[:20], b[:20]], c, [0.0], [-1e300, 0.5],
              [0.0], rng.standard_normal(2 * 8 * _CSV_BLOCK_POINTS)]
    blocks = [rng.choice(level, (_CSV_BLOCK_POINTS, 8, 2)) for level in levels]
    values = np.concatenate(blocks).view(complex)[..., 0]
    return SpinorField8(g, values, kind="electron", mass=0.5)


@pytest.mark.parametrize("field", [_redundant_em, _redundant_spinor, _travelling_wave_snapshot,
                                   _carried_table_spinor],
                         ids=["edge-em-3d", "spinor-2d", "travelling-wave-3d", "carried-table-1d"])
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


# each polarisation axis, with the mode in the other two: an x-polarised wave
# holds the most distinct doubles per block of the three
@pytest.mark.parametrize("polarisation, mode", [("x", [0, 1, -2]), ("y", [2, 0, 1]),
                                                ("z", [-1, 2, 0])])
def test_evolve_snapshots_equal_the_row_by_row_writer(tmp_path, polarisation, mode):
    cfg = {"grid": {"points": [16, 16, 16], "lengths": [TWO_PI] * 3}, "duration": 0.9,
           "samples": 3, "outputs": {"snapshots": [0, 1, 2]},
           "state": {"type": "travelling_wave", "mode": mode, "polarisation": polarisation}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_command("evolve", str(tmp_path / "cfg.json"), str(tmp_path)) == 0
    for n in range(3):
        path = tmp_path / f"fields-{n}.csv"
        em = load_em_csv(path)
        values = np.concatenate([em.e, em.b], axis=-1)
        assert len(np.unique(values)) > 2
        assert path.read_bytes() == _reference_csv(em.grid, values)


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
    array of E and B) peaks at 6.6 MiB (tracemalloc, numpy 2.4); formatting
    all rows at once would take about 36 MiB."""
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

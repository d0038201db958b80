"""Fields on a periodic grid: wave-functions, classical E/B, spectral calculus.

Grid axes map onto the last ``ndim`` Cartesian directions, so a 1-D grid
varies along z, a 2-D grid along (y, z), and a 3-D grid along (x, y, z).
Vector fields have shape (*grid, 3), wave-functions (*grid, 8); storage
is complex throughout, with reality enforced only where classical fields
are read out.

Units are Gaussian; a wave-function carries the m, c and hbar of its
Hamiltonian (natural units c = hbar = 1 by default).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import generators, transformed_dirac88
from .errors import ConstraintViolation

__all__ = [
    "GridSpec",
    "EMField",
    "SpinorField8",
    "FourCurrent",
    "embed_em",
    "extract_em",
    "field_tensor",
    "divergence",
    "curl",
    "constraint_residual",
    "save_spinor_csv",
    "load_spinor_csv",
    "save_em_csv",
    "load_em_csv",
]

PHOTON = "photon"
ELECTRON = "electron"
GENERIC = "generic"

# Each alpha'_i has exactly one nonzero entry per row, a unit phase, so
# alpha'_i applied to psi is a gather and a scale:
# (alpha'_i psi)_a = _ALPHA_COEF[i, a] * psi[..., _ALPHA_COL[i, a]].
_ALPHA, _BETA = transformed_dirac88()
_ALPHA_COL = np.argmax(_ALPHA != 0, axis=-1)
_ALPHA_COEF = np.take_along_axis(_ALPHA, _ALPHA_COL[..., None], axis=-1)[..., 0]


@dataclass(frozen=True)
class GridSpec:
    """Periodic box: points per axis (powers of two) and box lengths."""

    points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.lengths):
            raise ValueError("points and lengths must have equal rank")
        if not 1 <= len(self.points) <= 3:
            raise ValueError("grid rank must be 1, 2 or 3")
        for n in self.points:
            if n < 2 or n & (n - 1):
                raise ValueError(f"points per axis must be a power of two >= 2, got {n}")

    @property
    def ndim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / n for length, n in zip(self.lengths, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        """Cartesian indices the grid axes map to: z for 1-D, (y,z), (x,y,z)."""
        return tuple(range(3 - self.ndim, 3))

    def axis_coords(self) -> list[np.ndarray]:
        """Box-centred coordinates per grid axis, from -L/2 to L/2 - dx."""
        return [(-0.5 * length + spacing * np.arange(n))
                for length, spacing, n in zip(self.lengths, self.spacings, self.points)]

    def positions(self) -> np.ndarray:
        """(x, y, z) per grid point, shape (*grid, 3); off-grid directions are 0."""
        out = np.zeros(self.shape + (3,))
        mesh = np.meshgrid(*self.axis_coords(), indexing="ij")
        for axis, cart in enumerate(self.spatial_axes):
            out[..., cart] = mesh[axis]
        return out

    def _axis_wave_numbers(self) -> list[np.ndarray]:
        """Discrete Fourier wave numbers per grid axis, in fft order."""
        return [2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
                for n, spacing in zip(self.points, self.spacings)]

    def wave_vectors(self) -> np.ndarray:
        """Discrete Fourier wave vectors, shape (*grid, 3)."""
        out = np.zeros(self.shape + (3,))
        mesh = np.meshgrid(*self._axis_wave_numbers(), indexing="ij")
        for axis, cart in enumerate(self.spatial_axes):
            out[..., cart] = mesh[axis]
        return out

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Forward DFT over the grid axes, which lead every field array."""
        return np.fft.fftn(values, axes=tuple(range(self.ndim)))

    def ifft(self, values: np.ndarray) -> np.ndarray:
        """Inverse of ``fft``."""
        return np.fft.ifftn(values, axes=tuple(range(self.ndim)))

    def ifft_staged(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``ifft(values)`` into ``out``, as one-axis transforms in ifftn's own
        order, last grid axis first, so ``out`` receives the same bits.  Every
        stage but the last runs in place in ``values``, which is left holding
        the transform over grid axes 1.. alone: fft(out, axis=0) up to
        round-off (the spectral amplitudes themselves on a 1-D grid)."""
        for axis in range(self.ndim - 1, 0, -1):
            np.fft.ifft(values, axis=axis, out=values)
        return np.fft.ifft(values, axis=0, out=out)

    def to_dict(self) -> dict:
        return {"points": list(self.points), "lengths": list(self.lengths)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(points=tuple(int(p) for p in d["points"]),
                   lengths=tuple(float(x) for x in d["lengths"]))


@dataclass
class EMField:
    """Classical E and B on a grid, shape (*grid, 3) each, complex storage."""

    grid: GridSpec
    e: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.e = np.asarray(self.e, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)
        want = self.grid.shape + (3,)
        if self.e.shape != want or self.b.shape != want:
            raise ValueError(f"field shape must be {want}")

    @classmethod
    def zero(cls, grid: GridSpec) -> "EMField":
        z = np.zeros(grid.shape + (3,), dtype=complex)
        return cls(grid, z, z.copy())


@dataclass
class SpinorField8:
    """Eight complex components per grid point plus kind ('photon' states
    keep components 0 and 4 at zero) and the units of its Hamiltonian: rest
    mass, c and hbar.  ``dataclasses.replace(psi, c=2.0)`` sets other units
    on the same values."""

    grid: GridSpec
    values: np.ndarray
    kind: str = GENERIC
    mass: float = 0.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape + (8,):
            raise ValueError(f"wave-function shape must be {self.grid.shape + (8,)}")
        if self.kind not in (PHOTON, ELECTRON, GENERIC):
            raise ValueError(f"unknown kind {self.kind!r}")

    def norm(self) -> float:
        """Integral of psi+ psi over the box."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)

    def constraint_residual(self) -> float:
        """Largest magnitude on the two constrained components."""
        return constraint_residual(self.values)


def constraint_residual(values: np.ndarray) -> float:
    """Largest magnitude on the constrained components 0 and 4 of ``values`` (..., 8)."""
    return float(np.maximum(np.max(np.abs(values[..., 0]), initial=0.0),   # keeps NaN
                            np.max(np.abs(values[..., 4]), initial=0.0)))


@dataclass
class FourCurrent:
    """Prescribed source: J(r, t) = j_amp(r) cos(Omega t) with the charge
    density following from continuity, rho(r, t) = rho_amp(r) sin(Omega t)/Omega.

    By default rho_amp = -div j_amp (computed spectrally), which satisfies
    continuity exactly.  Passing ``rho_amp`` explicitly allows deliberately
    inconsistent sources for negative controls.
    """

    grid: GridSpec
    j_amp: np.ndarray
    omega: float = 0.0
    rho_amp: np.ndarray | None = None

    def __post_init__(self):
        self.j_amp = np.asarray(self.j_amp, dtype=float)
        if self.j_amp.shape != self.grid.shape + (3,):
            raise ValueError(f"current amplitude shape must be {self.grid.shape + (3,)}")
        if self.rho_amp is None:
            self.rho_amp = -divergence(self.grid, self.j_amp).real
        else:
            self.rho_amp = np.asarray(self.rho_amp, dtype=float)
            if self.rho_amp.shape != self.grid.shape:
                raise ValueError(f"charge amplitude shape must be {self.grid.shape}")

    def current(self, t: float) -> np.ndarray:
        return self.j_amp * np.cos(self.omega * t)

    def charge(self, t: float) -> np.ndarray:
        # sin(w t)/w with a smooth w -> 0 limit of t
        return self.rho_amp * (t * np.sinc(self.omega * t / np.pi))

    def charge_rate(self, t: float) -> np.ndarray:
        return self.rho_amp * np.cos(self.omega * t)

    def continuity_residual(self, t: float) -> float:
        """max |d rho/dt + div J| at time t (complex spectral divergence, as evolved)."""
        r = self.charge_rate(t) + divergence(self.grid, self.current(t).astype(complex))
        return float(np.max(np.abs(r)))


def embed_em(em: EMField) -> SpinorField8:
    """Pack (E, B) into the eight-component wave-function [0, E, 0, iB]."""
    values = np.zeros(em.grid.shape + (8,), dtype=complex)
    values[..., 1:4] = em.e
    values[..., 5:8] = 1j * em.b
    return SpinorField8(em.grid, values, kind=PHOTON, mass=0.0)


def extract_em(psi: SpinorField8, tol: float = 1e-10) -> EMField:
    """Read (E, B) back out of a photon-embedded wave-function.

    Raises ConstraintViolation if components 0 or 4 exceed ``tol`` anywhere
    (broken transversality / Gauss constraint), or if the recovered fields
    fail the reality check at the same tolerance.
    """
    resid = psi.constraint_residual()
    if resid > tol:
        raise ConstraintViolation(
            f"components 0/4 reach {resid:.3e} (tolerance {tol:.1e}); "
            "Gauss-law or transversality constraint broken")
    e = psi.values[..., 1:4]
    b = -1j * psi.values[..., 5:8]
    imag = max(float(np.max(np.abs(e.imag))), float(np.max(np.abs(b.imag))))
    if imag > tol:
        raise ConstraintViolation(
            f"recovered fields have imaginary residue {imag:.3e} (tolerance {tol:.1e})")
    return EMField(psi.grid, e.real.astype(complex), b.real.astype(complex))


def extract_em_amplitudes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex (E, B) amplitudes from the embedding slots of spinor values, no reality check."""
    values = np.asarray(values, complex)
    return values[..., 1:4].copy(), -1j * values[..., 5:8]


def field_tensor(e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The antisymmetric 4x4 field tensor of pointwise (E, B) on the generator
    basis, F = -i kappa.E - i theta.B; its dual is ``field_tensor(b, -e)``."""
    kappa, theta, _ = generators()
    e = np.asarray(e, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return -1j * np.einsum("k,kij->ij", e, kappa) - 1j * np.einsum("k,kij->ij", b, theta)


def _alpha_density(values: np.ndarray) -> np.ndarray:
    """psi+ alpha psi per point, shape (..., 3), real."""
    conj = values.conj()
    return np.stack([((conj * values[..., _ALPHA_COL[i]]) @ _ALPHA_COEF[i]).real
                     for i in range(3)], axis=-1)


@dataclass(frozen=True)
class _Moments:
    """Grid sums over each sample of a run, as ``_MomentsPass`` takes them.

    ``norms[s]`` is sum |psi|^2 (numpy's pairwise sum) and ``gram[s]`` the
    8x8 Gram matrix G_ab = sum psi_a* psi_b, so that sum psi+ M psi =
    sum_ab M_ab G_ab for any constant matrix M.  The momentum sums are
    ``kinetic[s]`` = sum psi+ (alpha'.k) psi and ``rk[s, i, j]`` =
    sum r_i psi+ (k_j psi) for Cartesian i != j (zero otherwise), with k the
    spectral wave-vector operator -i grad.  ``density0`` is sum_a |psi_a|^2 per
    point of the first sample.
    """

    norms: np.ndarray
    gram: np.ndarray
    kinetic: np.ndarray
    rk: np.ndarray
    density0: np.ndarray

    def per_norm(self, sums: np.ndarray) -> np.ndarray:
        """Each sample's sums (leading axis) over that sample's norm: 0 for an
        identically-zero sample, NaN for a NaN one."""
        norms = self.norms.reshape((-1,) + (1,) * (np.ndim(sums) - 1))
        return np.divide(sums, norms, out=np.zeros_like(sums), where=norms != 0.0)


class _MomentsPass:
    """Every volume diagnostic of a run's samples, taken one sample at a time.

    The set-up (coordinates, axis wave numbers, the line-Gram weights) and the
    scratch arrays are made once per pass; ``add`` measures one sample into
    them, allocating nothing of the sample's size, and ``result`` hands back
    the ``_Moments``.  The norm and the Gram matrix are sums over the sample
    itself.  The momentum sums take, per grid axis b, the 1-D DFT
    A_b = fft(psi, axis=b), laid out with k_b leading, and Parseval along b
    alone: k_b varies only along b, while alpha'_b and the coordinate r_a of
    any other axis are constant along it.  So sum psi+ alpha'_b k_b psi =
    sum_k k_b A_b+ alpha'_b A_b / N_b, summed per k_b line through an 8x8
    Gram matrix, and sum r_a psi+ k_b psi = sum r_a k_b |A_b|^2 / N_b.  A line
    Gram is a real product of the float view x of the line, with the real
    and imaginary parts of component a in columns 2a and 2a + 1: from
    R = x^T x, G = (rr + ii) + i (ri - ir).  Every sample brings A_0 along,
    the stage before the last of its inverse transform
    (``GridSpec.ifft_staged``), so it costs one forward transform fewer.
    """

    def __init__(self, grid: GridSpec, n: int):
        self.grid = grid
        self.norms = np.empty(n)
        self.gram = np.empty((n, 8, 8), dtype=complex)
        self.kinetic = np.zeros(n)
        self.rk = np.zeros((n, 3, 3))
        self.density0 = None    # the first sample's, set when it is measured
        self._coords = grid.axis_coords()
        self._k_axes = grid._axis_wave_numbers()
        # Re sum_ab alpha'_ab G_ab as a weight on the real line Gram R
        self._line_weights = []
        for cart in grid.spatial_axes:
            alpha = _ALPHA[cart]
            w = np.empty((8, 2, 8, 2))
            w[:, 0, :, 0] = w[:, 1, :, 1] = alpha.real
            w[:, 0, :, 1], w[:, 1, :, 0] = -alpha.imag, alpha.imag
            self._line_weights.append(w.reshape(-1))
        self._power = np.empty(grid.shape + (8,))
        self._scratch = np.empty(grid.shape + (8,), dtype=complex)

    def add(self, s: int, v: np.ndarray, axis0: np.ndarray):
        """Measure sample ``s``, of shape (*grid, 8); ``axis0`` is fft(v, axis=0)
        up to round-off and is read in place of that transform."""
        grid, cart = self.grid, self.grid.spatial_axes
        power = np.square(np.abs(v, out=self._power), out=self._power)
        self.norms[s] = np.sum(power)
        if s == 0:
            self.density0 = power.sum(axis=-1)
        flat = v.reshape(-1, 8)
        self.gram[s] = np.conjugate(flat, out=self._scratch.reshape(-1, 8)).T @ flat
        for b, n_b in enumerate(grid.points):
            others = grid.points[:b] + grid.points[b + 1:]
            if b == 0:
                lead = axis0
            else:   # A_b straight into the reused array, k_b leading
                lead = self._scratch.reshape((n_b,) + others + (8,))
                np.fft.fft(v, axis=b, out=np.moveaxis(lead, 0, b))
            x = lead.reshape(n_b, -1, 8).view(float)
            k_gram = self._k_axes[b] @ (x.transpose(0, 2, 1) @ x).reshape(n_b, -1)
            self.kinetic[s] += k_gram @ self._line_weights[b] / n_b
            weighted = (self._k_axes[b] @ np.einsum("kmi,kmi->km", x, x)).reshape(others)
            for a in range(grid.ndim):
                if a != b:
                    along = a - (a > b)   # axis a among the others
                    rest = tuple(ax for ax in range(len(others)) if ax != along)
                    self.rk[s, cart[a], cart[b]] = (weighted.sum(axis=rest) @ self._coords[a]
                                                    / n_b)

    def result(self) -> _Moments:
        return _Moments(self.norms, self.gram, self.kinetic, self.rk, self.density0)


def divergence(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """Spectral divergence of a 3-vector field; exact for band-limited input."""
    hat = grid.fft(np.asarray(v, dtype=complex))
    return grid.ifft(1j * np.einsum("...i,...i->...", grid.wave_vectors(), hat))


def curl(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """Spectral curl of a 3-vector field."""
    hat = grid.fft(np.asarray(v, dtype=complex))
    return grid.ifft(1j * np.cross(grid.wave_vectors(), hat))


# --- columnar serialisation: CSV body plus a JSON sidecar with the grid ---

# Grid points formatted per write: one block's row strings are held at a
# time, never a whole snapshot's.
_CSV_BLOCK_POINTS = 2048


def _write_csv(path: Path, grid: GridSpec, values: np.ndarray, ncomp: int, kindmeta: dict):
    """Rows ``i,j,k,component,re,im`` in C order, CRLF ends, ``%.17g`` values.

    A block formats each distinct double once: snapshots repeat few values
    (exact zeros, a plane wave's few levels). Doubles are told apart by
    their bit pattern, not their value, since 0.0 == -0.0 prints apart
    ("0", "-0") and a value key would merge them.
    """
    path = Path(path)
    idx_shape = grid.shape + (1,) * (3 - grid.ndim)
    flat = values.reshape(-1, ncomp)
    # one point's rows; the first %s takes that point's "i,j,k," prefix
    point_rows = "".join(f"%s{comp},%s,%s\r\n" for comp in range(ncomp))
    with path.open("w", newline="") as fh:
        fh.write("i,j,k,component,re,im\r\n")
        for start in range(0, len(flat), _CSV_BLOCK_POINTS):
            block = flat[start:start + _CSV_BLOCK_POINTS]
            ijk = np.unravel_index(np.arange(start, start + len(block)), idx_shape)
            prefixes = [f"{i},{j},{k}," for i, j, k in zip(*(a.tolist() for a in ijk))]
            bits, inverse = np.unique(np.stack((block.real, block.imag), -1).view(np.int64),
                                      return_inverse=True)
            text = ("%.17g\n" * len(bits) % tuple(bits.view(float).tolist())).split("\n")
            cells = np.empty(block.shape + (3,), dtype=object)
            cells[..., 0] = np.array(prefixes, dtype=object)[:, None]
            # the inverse's shape differs across numpy releases
            cells[..., 1:] = np.array(text, dtype=object)[inverse.reshape(block.shape + (2,))]
            fh.write(point_rows * len(block) % tuple(cells.ravel().tolist()))
    sidecar = {"grid": grid.to_dict(), "components": ncomp}
    sidecar.update(kindmeta)
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=1))


def _read_csv(path: Path) -> tuple[GridSpec, np.ndarray, dict]:
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    grid = GridSpec.from_dict(meta["grid"])
    ncomp = int(meta["components"])
    idx_shape = grid.shape + (1,) * (3 - grid.ndim)
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    ijkc = body[:, :4].astype(np.intp)
    point = np.ravel_multi_index(tuple(ijkc[:, :3].T), idx_shape)
    values = np.zeros(grid.shape + (ncomp,), dtype=complex)
    flat = values.reshape(-1, ncomp)
    # real and imaginary parts are set apart: re + 1j*im turns an infinite
    # imaginary part into a NaN real one
    flat.real[point, ijkc[:, 3]] = body[:, 4]
    flat.imag[point, ijkc[:, 3]] = body[:, 5]
    return grid, values, meta


def save_spinor_csv(path, psi: SpinorField8):
    _write_csv(Path(path), psi.grid, psi.values, 8,
               {"kind": psi.kind, "mass": psi.mass, "c": psi.c, "hbar": psi.hbar})


def load_spinor_csv(path) -> SpinorField8:
    """The state ``save_spinor_csv`` wrote; a sidecar without units loads c = hbar = 1."""
    grid, values, meta = _read_csv(Path(path))
    return SpinorField8(grid, values, kind=meta.get("kind", GENERIC),
                        mass=float(meta.get("mass", 0.0)), c=float(meta.get("c", 1.0)),
                        hbar=float(meta.get("hbar", 1.0)))


def save_em_csv(path, em: EMField):
    stacked = np.concatenate([em.e, em.b], axis=-1)
    _write_csv(Path(path), em.grid, stacked, 6, {"kind": "em"})


def load_em_csv(path) -> EMField:
    grid, values, _ = _read_csv(Path(path))
    return EMField(grid, values[..., :3], values[..., 3:])

"""Fields on a periodic grid: wave-functions, classical E/B, spectral calculus.

Grid axes map onto the last ``ndim`` Cartesian directions, so a 1-D grid
varies along z, a 2-D grid along (y, z), and a 3-D grid along (x, y, z).
Vector fields have shape (*grid, 3), wave-functions (*grid, 8); storage
is complex throughout, with reality enforced only where classical fields
are read out.  A run's field arrays have those shapes too, as views of
memory stored components first (``_components_first``).

Units are Gaussian; a wave-function carries the m, c and hbar of its
Hamiltonian (natural units c = hbar = 1 by default).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    "check_constraint",
    "save_spinor_csv",
    "load_spinor_csv",
    "save_em_csv",
    "load_em_csv",
]

PHOTON = "photon"
ELECTRON = "electron"
GENERIC = "generic"

_CONSTRAINT_TOL = 1e-10   # constrained components, relative to the field scale

# Each alpha'_i has exactly one nonzero entry per row, a unit phase, so
# alpha'_i applied to psi is a gather and a scale:
# (alpha'_i psi)_a = _ALPHA_COEF[i, a] * psi[..., _ALPHA_COL[i, a]].
_ALPHA, _BETA = transformed_dirac88()
_ALPHA_COL = np.argmax(_ALPHA != 0, axis=-1)
_ALPHA_COEF = np.take_along_axis(_ALPHA, _ALPHA_COL[..., None], axis=-1)[..., 0]


@dataclass(frozen=True)
class GridSpec:
    """Periodic box: points per axis (integer powers of two) and box lengths (finite, > 0)."""

    points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.lengths):
            raise ValueError("points and lengths must have equal rank")
        if not 1 <= len(self.points) <= 3:
            raise ValueError("grid rank must be 1, 2 or 3")
        for n in self.points:
            if not isinstance(n, (int, np.integer)) or n < 2 or n & (n - 1):
                raise ValueError(f"points per axis must be integer powers of two >= 2, got {n!r}")
        for length in self.lengths:
            if not 0.0 < length < np.inf:
                raise ValueError(f"lengths must be finite numbers > 0, got {length!r}")

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

    def fft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward DFT over the grid axes, which lead every field array, into
        ``out`` if given (any layout: the same bits)."""
        return np.fft.fftn(values, axes=tuple(range(self.ndim)), out=out)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        """Inverse of ``fft``."""
        return np.fft.ifftn(values, axes=tuple(range(self.ndim)))

    def ifft_staged(self, values: np.ndarray, out: np.ndarray, stage=None) -> np.ndarray:
        """``ifft(values)`` into ``out``, as one-axis transforms in ifftn's own
        order, last grid axis first, so ``out`` receives the same bits; a block
        (B, *grid, 8) is transformed sample by sample.  A run's blocks are stored
        components first (``_components_first``), so each one-axis transform
        runs within whole component planes.  Every stage but the last
        runs in place in ``values``, which is left holding the transform over
        grid axes 1.. alone: fft(out) along grid axis 0 up to round-off (the
        spectral amplitudes themselves on a 1-D grid).  ``stage(b, values)``, if
        given, is called just before grid axis b is transformed, when ``values``
        is still spectral along grid axes 0..b and already spatial along the rest."""
        for b in range(self.ndim - 1, 0, -1):
            if stage is not None:
                stage(b, values)
            np.fft.ifft(values, axis=b - self.ndim - 1, out=values)
        if stage is not None:
            stage(0, values)
        return np.fft.ifft(values, axis=-1 - self.ndim, out=out)

    def to_dict(self) -> dict:
        return {"points": [int(n) for n in self.points], "lengths": list(self.lengths)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(points=tuple(d["points"]), lengths=tuple(float(x) for x in d["lengths"]))


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
    mass (finite, >= 0), c and hbar (finite, > 0).  ``dataclasses.replace(psi,
    c=2.0)`` sets other units on the same values."""

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
        if not 0.0 <= self.mass < np.inf:
            raise ValueError(f"mass must be a finite number >= 0, got {self.mass!r}")
        for name, value in (("c", self.c), ("hbar", self.hbar)):
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

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
    density that continuity gives it, rho(r, t) = rho_amp(r) sin(Omega t)/Omega.

    A source is its current: rho_amp = -div j_amp (computed spectrally) is
    derived when the source is made, not given.
    """

    grid: GridSpec
    j_amp: np.ndarray
    omega: float = 0.0
    rho_amp: np.ndarray = field(init=False)

    def __post_init__(self):
        self.j_amp = np.asarray(self.j_amp, dtype=float)
        if self.j_amp.shape != self.grid.shape + (3,):
            raise ValueError(f"current amplitude shape must be {self.grid.shape + (3,)}")
        self.rho_amp = -divergence(self.grid, self.j_amp).real

    def charge(self, t: float) -> np.ndarray:
        # sin(w t)/w with a smooth w -> 0 limit of t
        return self.rho_amp * (t * np.sinc(self.omega * t / np.pi))

    def continuity_residual(self) -> float:
        """max |d rho/dt + div J| at t = 0, its peak (complex spectral divergence, as evolved)."""
        r = self.rho_amp + divergence(self.grid, self.j_amp.astype(complex))
        return float(np.max(np.abs(r)))


def embed_em(em: EMField) -> SpinorField8:
    """Pack (E, B) into the eight-component wave-function [0, E, 0, iB]."""
    values = np.zeros(em.grid.shape + (8,), dtype=complex)
    values[..., 1:4] = em.e
    values[..., 5:8] = 1j * em.b
    return SpinorField8(em.grid, values, kind=PHOTON, mass=0.0)


def _scan(values: np.ndarray, em: bool = False):
    """One read of spinor values (..., 8), a block of rows at a time: the field
    scale, max(largest finite |value|, 1); the largest |value| on components 0
    and 4; and, if ``em``, the imaginary residue of the recovered fields
    (``_em_columns`` before the real part is taken), else 0.  NaN stays in both
    residues.  A finite block reads that residue as the largest of |Im psi_1..3|
    and |Re psi_5..7|; a block with an inf or NaN takes it from the complex forms,
    where an inf in Im psi_5..7 turns (-1j psi).imag NaN through 0 * inf."""
    rows, scale, resid, imag = values.reshape(-1, 8), 1.0, 0.0, 0.0
    for start in range(0, len(rows), _TIME_BLOCK_POINTS):   # no temporary of the field's size
        block = rows[start:start + _TIME_BLOCK_POINTS]
        size = np.abs(block)
        top = np.max(size)
        finite = top < np.inf   # NaN is not
        if not finite:
            top = np.max(size, where=size < np.inf, initial=1.0)
        scale = max(scale, float(top))
        resid = np.maximum(resid, np.max(size[:, ::4]))   # keeps NaN
        del size   # the residue's temporaries below take its place
        if em and finite:
            imag = np.maximum(imag, max(np.max(np.abs(block.imag[:, 1:4])),
                                        np.max(np.abs(block.real[:, 5:8]))))
        elif em:
            imag = np.maximum(imag, np.maximum(np.max(np.abs(block[:, 1:4].imag)),   # keeps NaN
                                               np.max(np.abs((-1j * block[:, 5:8]).imag))))
    return scale, resid, imag


def _raise_constraint(resid, scale: float, tol: float):
    if not resid <= tol * scale:
        raise ConstraintViolation(
            f"components 0/4 reach {resid:.3e} (tolerance {tol:.1e} of the field scale "
            f"{scale:.3g}); Gauss-law or transversality constraint broken")


def check_constraint(values: np.ndarray, tol: float = _CONSTRAINT_TOL) -> float:
    """The field scale of spinor values (..., 8), max(largest finite |value|, 1),
    once components 0 and 4 stay within ``tol`` times it; else ConstraintViolation
    (broken transversality / Gauss constraint), which a NaN or inf there raises too."""
    scale, resid, _ = _scan(values)
    _raise_constraint(resid, scale, tol)
    return scale


def _check_em(values: np.ndarray, tol: float):
    """``extract_em``'s checks on spinor values (..., 8), in one read (``_scan``):
    ``check_constraint``'s, then the imaginary residue of the recovered fields
    against the same field scale; either raises ConstraintViolation, the
    constraint's first, and a NaN fails."""
    scale, resid, imag = _scan(values, em=True)
    _raise_constraint(resid, scale, tol)
    if not imag <= tol * scale:
        raise ConstraintViolation(f"recovered fields have imaginary residue {float(imag):.3e} "
                                  f"(tolerance {tol:.1e} of the field scale {scale:.3g})")


def _em_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real E and B of spinor values (..., 8) as float arrays: Re psi_1..3 and
    Re(-i psi_5..7), with no check."""
    return values[..., 1:4].real, (-1j * values[..., 5:8]).real


def extract_em(psi: SpinorField8, tol: float = _CONSTRAINT_TOL) -> EMField:
    """Read (E, B) back out of a photon-embedded wave-function.

    Raises ConstraintViolation if components 0 or 4 exceed ``tol`` times the
    field scale anywhere (``check_constraint``), or if the recovered fields fail
    the reality check by the same rule; a NaN fails either.
    """
    _check_em(psi.values, tol)
    return EMField(psi.grid, *_em_columns(psi.values))


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


# grid points per time block, whose arrays a pass holds several of: 128 KiB each
_TIME_BLOCK_POINTS = 1024


def _components_first(shape: tuple, ndim: int) -> np.ndarray:
    """A complex array of zeros of ``shape`` (..., *grid, m), for a grid of ``ndim``
    axes, stored components first: (..., m, *grid) in memory.  Every per-point
    product and one-axis transform over it runs along whole grid planes."""
    lead = len(shape) - ndim - 1
    planes = np.zeros(shape[:lead] + shape[-1:] + shape[lead:-1], dtype=complex)
    return np.moveaxis(planes, lead, -1)


class _Moments:
    """Every volume diagnostic of a run's samples, taken a time block at a time.

    ``norms[s]`` is sum |psi|^2 (numpy's pairwise sum) and ``gram[s]`` the
    8x8 Gram matrix G_ab = sum psi_a* psi_b, so that sum psi+ M psi =
    sum_ab M_ab G_ab for any constant matrix M.  The momentum sums are
    ``kinetic[s]`` = sum psi+ (alpha'.k) psi and the orbital sums ``rk[s, i, j]`` =
    sum r_i psi+ (k_j psi) for Cartesian i != j (zero otherwise), with k the
    spectral wave-vector operator -i grad.  ``density0`` is sum_a |psi_a|^2 per
    point of the first sample, and ``constraint[s]`` the largest |psi_0| or
    |psi_4| of sample s (``constraint_residual``; NaN stays NaN).

    A block of samples (B, *grid, 8), stored components first
    (``_components_first``), is measured as it is formed: ``stage`` takes each
    kinetic share from the block's inverse transform (``GridSpec.ifft_staged``),
    and ``add`` takes the rest from the block and its axis-0 stage, which it is
    handed and overwrites; neither holds an array of the block's size, and each
    sample reads the bits it would read alone.  The norm and the Gram matrix are
    sums over the sample itself.  Axis b's kinetic share is read from the stage
    that is still spectral along grid axes 0..b, just before b is transformed:
    k_b varies only along b and alpha'_b is constant, so by Parseval along the
    spectral axes sum psi+ alpha'_b k_b psi = sum k_b A+ alpha'_b A /
    prod_{a<=b} N_a over that stage A.  alpha'_b has one entry per row, a unit
    phase i s at (a, c), in four Hermitian pairs, so A+ alpha'_b A is
    sum over pairs of -2 s Im(A_a* A_c), a product of two component planes
    per pair summed per k_b: a dot along the contiguous k_b lines, or, on the
    last grid axis, where a k_b line is one point, two real products.  So the
    pass makes no forward transform for the kinetic sums, and the first
    transform of each sample follows real products.

    The orbital sums take, per grid axis b, the 1-D DFT A_b = fft(psi, axis=b)
    (for b = 0 the axis-0 stage itself), and Parseval along b alone:
    sum r_a psi+ k_b psi = sum r_a k_b |A_b|^2 / N_b, with r_a constant along b
    and |A_b|^2 summed over the component planes.  ``add`` takes them when the
    pass was made with ``orbital`` true; otherwise ``rk`` is None.  The record
    holds what one pass measured and calls back into no run.
    """
    def __init__(self, grid: GridSpec, n: int, orbital: bool = False):
        self.grid = grid
        self.norms = np.empty(n)
        self.gram = np.empty((n, 8, 8), dtype=complex)
        self.kinetic = np.zeros(n)
        self.rk = np.zeros((n, 3, 3)) if orbital else None
        self.constraint = np.empty(n)
        self.density0 = None    # the first sample's, set when it is measured
        self._coords = grid.axis_coords()
        self._k_axes = grid._axis_wave_numbers()
        self._lines = {}   # grid axis -> per-k_b kinetic sums of the block being formed
        # per grid axis, alpha'_b's pairs (a, c) with a < c and the weight -2 s of
        # Im(A_a* A_c), s the imaginary part of its entry (every entry is +-i)
        self._pairs = [[(a, c, -2.0 * _ALPHA_COEF[cart, a].imag)
                        for a, c in enumerate(_ALPHA_COL[cart]) if a < c]
                       for cart in grid.spatial_axes]

    @np.errstate(over="ignore", invalid="ignore")
    def stage(self, b: int, values: np.ndarray):
        """Axis b's kinetic share of a block (B, *grid, 8) that is spectral along
        grid axes 0..b (``GridSpec.ifft_staged``'s hook): per k_b, the sum of
        Re A+ alpha'_b A over the other grid axes, pair by pair, for ``add``."""
        n_b, inner = self.grid.points[b], math.prod(self.grid.points[b + 1:])
        planes = np.moveaxis(values, -1, 1).reshape((len(values), 8, -1, n_b, inner))
        lines = 0.0
        for a, c, weight in self._pairs[b]:
            x, y = planes[:, a], planes[:, c]
            if inner > 1:   # sum_i x* y along each contiguous k_b line, then over outer points
                im = np.vecdot(x, y).sum(axis=1).imag
            else:
                im = (np.einsum("soki,soki->sk", x.real, y.imag)
                      - np.einsum("soki,soki->sk", x.imag, y.real))
            lines = lines + weight * im
        self._lines[b] = lines

    @np.errstate(over="ignore", invalid="ignore")
    def add(self, s0: int, v: np.ndarray, axis0: np.ndarray):
        """Measure samples s0, s0 + 1, ... of a block ``v`` of shape (B, *grid, 8),
        whose kinetic shares ``stage`` took as the block was formed; ``axis0`` is
        the fft of ``v`` along grid axis 0 up to round-off, read in place of that
        transform, then overwritten.  Both are stored components first.  A sample
        whose squares overflow reads inf or NaN, which the checks fail.

        ``axis0`` holds |psi|^2 (point-major, as a stacked sample would read it),
        then psi* for the Gram product, then (orbital sums) each A_b, b >= 1, in
        turn.  Order rule: a complex ``@`` (the Gram product) leaves numpy's
        transform along a grid axis about 1.4x slower until a real product runs.
        The kinetic shares are reduced over k (real products) between the Gram
        product and the next transform, a forward one for the orbital sums or the
        next block's inverse one, which the last axis's real products precede.
        """
        n, s = len(v), slice(s0, s0 + len(v))
        orbital = self.rk is not None and self.grid.ndim > 1   # a 1-D grid's rk stays zeros
        if orbital:   # rk[s]: axis 0's share first, then each A_b (b >= 1)
            self._reduce_rk(s, 0, self._power(axis0))
        planes, dead = np.moveaxis(v, -1, 1), np.moveaxis(axis0, -1, 1)   # (B, 8, *grid)
        # |psi|, then |psi|^2, point-major in the head of the dead stage, which psi*
        # overwrites after it
        power = dead.reshape(-1).view(float)[:v.size].reshape(v.shape)
        np.abs(planes, out=np.moveaxis(power, -1, 1))
        self.constraint[s] = power[..., ::4].max(axis=tuple(range(1, v.ndim)))   # keeps NaN
        power = np.square(power, out=power)
        self.norms[s] = power.reshape(n, -1).sum(axis=1)
        if s0 == 0:
            self.density0 = power[0].sum(axis=-1)
        planes = planes.reshape(n, 8, -1)
        self.gram[s] = np.conjugate(planes, out=dead.reshape(planes.shape)) @ planes.transpose(0, 2, 1)
        for b in sorted(self._lines):
            scale = math.prod(self.grid.points[:b + 1])
            self.kinetic[s] += np.vecdot(self._lines[b], self._k_axes[b]) / scale
        self._lines.clear()
        if orbital:
            for b in range(1, self.grid.ndim):
                np.fft.fft(v, axis=b - self.grid.ndim - 1, out=axis0)
                self._reduce_rk(s, b, self._power(axis0))

    @staticmethod
    def _power(spectrum: np.ndarray) -> np.ndarray:
        """sum_a |A_a|^2 per point of a block (B, *grid, 8) stored components
        first, summed over its component planes: (B, *grid)."""
        planes = np.moveaxis(spectrum, -1, 1)
        x = planes.view(float).reshape(len(planes), 8, -1)   # re and im of each point
        squares = np.einsum("scp,scp->sp", x, x)
        power = np.add(squares[:, ::2], squares[:, 1::2], out=squares[:, ::2])
        return power.reshape(planes.shape[:1] + planes.shape[2:])

    def _reduce_rk(self, s: slice, b: int, power: np.ndarray):
        """Axis b's share of ``rk[s]`` from ``_power`` of A_b."""
        grid, n_b = self.grid, self.grid.points[b]
        weighted = np.moveaxis(power, b + 1, -1) @ self._k_axes[b]   # (B, the other axes)
        for a in range(grid.ndim):
            if a != b:
                along = a - (a > b)   # axis a among the others
                rest = tuple(ax + 1 for ax in range(grid.ndim - 1) if ax != along)
                self.rk[s, grid.spatial_axes[a], grid.spatial_axes[b]] = np.vecdot(
                    weighted.sum(axis=rest), self._coords[a]) / n_b

    @np.errstate(invalid="ignore")   # inf / inf reads NaN, which the checks fail
    def per_norm(self, sums: np.ndarray) -> np.ndarray:
        """Each sample's sums (leading axis) over that sample's norm: 0 for an
        identically-zero sample, NaN for a NaN or overflowing one."""
        norms = self.norms.reshape((-1,) + (1,) * (np.ndim(sums) - 1))
        return np.divide(sums, norms, out=np.zeros_like(sums), where=norms != 0.0)


def _block_size(grid: GridSpec) -> int:
    """Samples per time block: as many as fill ``_TIME_BLOCK_POINTS`` grid points,
    and at least one."""
    return max(1, _TIME_BLOCK_POINTS // int(np.prod(grid.shape)))


def _time_blocks(grid: GridSpec, times: np.ndarray):
    """Consecutive time blocks of ``times``, of ``_block_size`` samples each."""
    size = _block_size(grid)
    return (times[i:i + size] for i in range(0, len(times), size))


def divergence(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """Spectral divergence of a 3-vector field; exact for band-limited input."""
    hat = grid.fft(np.asarray(v, dtype=complex))
    return grid.ifft(1j * np.einsum("...i,...i->...", grid.wave_vectors(), hat))


def curl(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """Spectral curl of a 3-vector field."""
    hat = grid.fft(np.asarray(v, dtype=complex))
    return grid.ifft(1j * np.cross(grid.wave_vectors(), hat))


# --- columnar serialisation: CSV body plus a JSON sidecar with the grid ---

# Grid points whose distinct doubles are formatted together, and grid points
# whose rows are held and written at a time: never a whole snapshot's.
_CSV_BLOCK_POINTS = 2048
_CSV_ROW_POINTS = 512


def _point_blocks(values: np.ndarray, ncomp: int):
    """``values`` (..., ncomp) in consecutive blocks of ``_CSV_BLOCK_POINTS``
    grid points, C order, each a view of shape (points, ncomp)."""
    flat = values.reshape(-1, ncomp)
    return (flat[start:start + _CSV_BLOCK_POINTS]
            for start in range(0, len(flat), _CSV_BLOCK_POINTS))


def _records(shape: tuple, cells: list) -> np.ndarray:
    """One record per entry of ``shape``: the byte-string ``cells``, each
    broadcast to ``shape`` and NUL-padded to its width, side by side."""
    rows = np.empty(shape, [(f"f{n}", cell.dtype) for n, cell in enumerate(cells)])
    for name, cell in zip(rows.dtype.names, cells):
        rows[name] = cell
    return rows


def _write_csv(path: Path, grid: GridSpec, blocks, ncomp: int, kindmeta: dict):
    """Rows ``i,j,k,component,re,im`` in C order, CRLF ends, ``%.17g`` values,
    from ``blocks`` of values shaped as ``_point_blocks`` yields them: complex,
    or float64, whose im cell is the text of +0.0, "0".

    Snapshots repeat few values (exact zeros, a plane wave's few levels), so
    a block formats only the doubles that the previous block's table lacks.
    Doubles are keyed by bit pattern: 0.0 == -0.0 prints apart ("0", "-0").
    The block's rows are then written ``_CSV_ROW_POINTS`` grid points at a
    time, each chunk one record of NUL-padded cells per CSV row: ``i,``, the
    ``j,k,component,`` prefix (a table of one record per (j, k, component),
    made once), re, then ``,``, im and CRLF, or ``,0`` and CRLF for a float
    block.  No cell can contain a NUL, so dropping the NULs leaves exactly the
    rows.
    """
    path = Path(path)
    idx_shape = grid.shape + (1,) * (3 - grid.ndim)
    i_cells, j_cells, k_cells = (np.array([f"{i}," for i in range(n)], dtype="S")
                                 for n in idx_shape)
    comp = np.array([f"{c}," for c in range(ncomp)], dtype="S")
    jk = np.arange(idx_shape[1] * idx_shape[2])
    prefix = _records(jk.shape + (ncomp,), [j_cells[jk // idx_shape[2], None],
                                            k_cells[jk % idx_shape[2], None], comp])
    prefix = prefix.view(np.dtype((np.void, prefix.itemsize)))   # one cell, NULs kept
    # one block's sorted bits and %.17g texts (<= 24 bytes); row 0 is +0.0, never sorted
    known_bits, known = np.zeros(1, np.uint64), np.array([b"0"], "S24")
    with path.open("wb") as fh:
        fh.write(b"i,j,k,component,re,im\r\n")
        start = 0
        for block in blocks:
            keys = np.ascontiguousarray(block).view(np.uint64).ravel()   # re (and im) per value
            order = np.flatnonzero(keys)
            order = order[keys[order].argsort()]   # equal keys make one run in any order
            run = np.r_[np.uint64(0), keys[order]]
            starts = np.r_[True, run[1:] != run[:-1]]
            inverse = np.zeros(keys.shape, np.intp)
            inverse[order] = starts.cumsum()[1:] - 1
            bits = run[starts]
            del keys, order, run, starts   # the rows are formed without them
            at = np.minimum(known_bits.searchsorted(bits), len(known_bits) - 1)
            miss = known_bits[at] != bits
            known_bits, known = bits, known[at]
            known[miss] = ("%.17g " * miss.sum() % tuple(bits[miss].view(float).tolist())).split()
            inverse = inverse.reshape(block.shape + (-1,))   # (points, ncomp, re and im)
            for first in range(0, len(block), _CSV_ROW_POINTS):
                text = known[inverse[first:first + _CSV_ROW_POINTS]]
                point = np.arange(start, start + len(text))
                cells = [i_cells[point // len(prefix), None],
                         np.take(prefix, point, axis=0, mode="wrap"), text[..., 0]]
                cells += ([np.bytes_(b","), text[..., 1], np.bytes_(b"\r\n")]
                          if text.shape[-1] == 2 else [np.bytes_(b",0\r\n")])
                rows = _records(text.shape[:2], cells)
                del cells, text
                fh.write(rows.tobytes().translate(None, b"\0"))
                start += len(point)
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
    _write_csv(Path(path), psi.grid, _point_blocks(psi.values, 8), 8,
               {"kind": psi.kind, "mass": psi.mass, "c": psi.c, "hbar": psi.hbar})


def load_spinor_csv(path) -> SpinorField8:
    """The state ``save_spinor_csv`` wrote; a sidecar without units loads c = hbar = 1."""
    grid, values, meta = _read_csv(Path(path))
    return SpinorField8(grid, values, kind=meta.get("kind", GENERIC),
                        mass=float(meta.get("mass", 0.0)), c=float(meta.get("c", 1.0)),
                        hbar=float(meta.get("hbar", 1.0)))


def save_em_csv(path, field: EMField | SpinorField8, tol: float = _CONSTRAINT_TOL):
    """Write E and B as one six-component snapshot, a block of rows at a time.

    ``field`` is an ``EMField`` or a photon-embedded ``SpinorField8``, which is
    read exactly as ``extract_em`` reads it: its checks run first, with ``tol``,
    and a field that fails them raises ConstraintViolation before the file is
    opened; each block's real E and B are then recovered as the block is
    written, so the snapshot makes no copy of the whole field, and their im
    cells are the "0" that ``extract_em``'s complex fields would print.
    """
    if isinstance(field, EMField):
        parts = zip(_point_blocks(field.e, 3), _point_blocks(field.b, 3))
    else:
        _check_em(field.values, tol)
        parts = map(_em_columns, _point_blocks(field.values, 8))
    blocks = map(lambda part: np.concatenate(part, axis=-1), parts)
    _write_csv(Path(path), field.grid, blocks, 6, {"kind": "em"})


def load_em_csv(path) -> EMField:
    grid, values, _ = _read_csv(Path(path))
    return EMField(grid, values[..., :3], values[..., 3:])

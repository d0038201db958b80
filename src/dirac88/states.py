"""Initial-state builders shared by tests, demos and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .evolution import mode_decomposition
from .fields import ELECTRON, EMField, FourCurrent, GridSpec, SpinorField8, embed_em

__all__ = [
    "mode_wave_vector",
    "zero_field",
    "travelling_wave",
    "standing_wave",
    "circular_wave_analytic",
    "electron_rest_mix",
    "electron_gaussian_packet",
    "uniform_current",
    "gaussian_dipole_current",
]

_UNIT = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]), "z": np.array([0, 0, 1.0])}


def mode_wave_vector(grid: GridSpec, mode) -> np.ndarray:
    """Wave vector of integer mode numbers on the grid axes."""
    mode = np.atleast_1d(np.asarray(mode, dtype=int))
    if len(mode) != grid.ndim:
        raise ConfigError(f"mode needs {grid.ndim} integers for this grid")
    k = np.zeros(3)
    for axis, (m, length) in enumerate(zip(mode, grid.lengths)):
        k[grid.spatial_axes[axis]] = 2.0 * np.pi * m / length
    return k


def _phase(grid: GridSpec, k: np.ndarray) -> np.ndarray:
    return np.einsum("...i,i->...", grid.positions(), k)


def _center(grid: GridSpec, center) -> np.ndarray:
    """(x, y, z) of a centre given as None (the origin), one number or one per grid axis."""
    out = np.zeros(3)
    if center is not None:
        center = np.asarray(center, dtype=float)
        if center.ndim > 1 or center.ndim == 1 and len(center) != grid.ndim:
            raise ValueError(f"center must be one number or one per grid axis, got {center}")
        out[list(grid.spatial_axes)] = center
    return out


def _squared_distance(grid: GridSpec, center) -> np.ndarray:
    """|r - r0|^2 per grid point, r0 the ``_center`` of ``center``."""
    delta = grid.positions() - _center(grid, center)
    return np.einsum("...i,...i->...", delta, delta)


def zero_field(grid: GridSpec) -> SpinorField8:
    """The photon vacuum: E = B = 0."""
    return embed_em(EMField.zero(grid))


def _wave_vector(grid: GridSpec, mode, polarisation: str | None = None) -> np.ndarray:
    """k of a wave's mode.  An EM wave is transverse: k must be nonzero, and a
    given polarisation perpendicular to it."""
    k = mode_wave_vector(grid, mode)
    if np.linalg.norm(k) == 0.0:
        raise ConfigError("state.mode must be nonzero for a wave")
    if polarisation is not None and abs(_UNIT[polarisation] @ k) > 1e-12:
        raise ConfigError("state.polarisation must be transverse to state.mode")
    return k


def travelling_wave(grid: GridSpec, mode, polarisation: str = "x",
                    amplitude: float = 1.0) -> SpinorField8:
    """Real travelling wave E = A p cos(k.r), B = A (khat x p) cos(k.r)."""
    k = _wave_vector(grid, mode, polarisation)
    pol = _UNIT[polarisation]
    phase = np.cos(_phase(grid, k))
    e = amplitude * phase[..., None] * pol
    b = amplitude * phase[..., None] * np.cross(k / np.linalg.norm(k), pol)
    return embed_em(EMField(grid, e, b))


def standing_wave(grid: GridSpec, mode, polarisation: str = "x",
                  amplitude: float = 1.0) -> SpinorField8:
    """Equal mixture of counter-propagating waves: E = A p cos(k.r), B = 0."""
    k = _wave_vector(grid, mode, polarisation)
    e = amplitude * np.cos(_phase(grid, k))[..., None] * _UNIT[polarisation]
    return embed_em(EMField(grid, e, np.zeros_like(e)))


def circular_wave_analytic(grid: GridSpec, mode, helicity: int = +1,
                           amplitude: float = 1.0) -> SpinorField8:
    """Pure positive-frequency circular wave (complex fields).

    E(r) = A (p1 + i h p2) e^{i k.r} with B = khat x E: a single energy
    eigenstate, so it shows no jitter anywhere.
    """
    if helicity not in (+1, -1):
        raise ConfigError("helicity must be +1 or -1")
    k = _wave_vector(grid, mode)
    khat = k / np.linalg.norm(k)
    p1 = _UNIT["x"] if abs(khat @ _UNIT["x"]) < 0.9 else _UNIT["y"]
    p1 = p1 - (p1 @ khat) * khat
    p1 /= np.linalg.norm(p1)
    p2 = np.cross(khat, p1)
    pol = (p1 + 1j * helicity * p2) / np.sqrt(2.0)
    carrier = np.exp(1j * _phase(grid, k))
    e = amplitude * carrier[..., None] * pol
    return embed_em(EMField(grid, e, np.cross(khat, e)))


def _check_weights(plus_weight: float, minus_weight: float):
    """At least one energy branch must carry the state."""
    if plus_weight == 0.0 and minus_weight == 0.0:
        raise ConfigError("state.plus_weight must be > 0 when state.minus_weight is 0")


def electron_rest_mix(grid: GridSpec, mass: float, plus_weight: float = 1.0,
                      minus_weight: float = 1.0) -> SpinorField8:
    """Uniform (k = 0) electron state mixing one positive- and one
    negative-frequency rest spinor with a nonzero velocity cross term."""
    if mass <= 0.0:
        raise ConfigError("mass must be > 0 for an electron rest mixture")
    _check_weights(plus_weight, minus_weight)
    values = np.zeros(grid.shape + (8,), dtype=complex)
    # beta' = diag(-1,1,1,1, 1,-1,-1,-1): component 3 is positive frequency,
    # component 0 negative, and alpha_z couples them.
    norm = np.hypot(plus_weight, minus_weight)
    values[..., 3] = plus_weight / norm
    values[..., 0] = minus_weight / norm
    return SpinorField8(grid, values, kind=ELECTRON, mass=mass)


def electron_gaussian_packet(grid: GridSpec, mass: float, sigma: float,
                             k0_mode=None, center=None,
                             plus_weight: float = 1.0, minus_weight: float = 0.0,
                             spinor: np.ndarray | None = None,
                             c: float = 1.0, hbar: float = 1.0) -> SpinorField8:
    """Gaussian electron packet projected onto an energy mixture per mode.

    The envelope exp(-|r - r0|^2 / (4 sigma^2)) modulates a carrier mode
    and a fixed 8-spinor; each Fourier mode is then split into its energy
    branches of the H that mass, c and hbar set (the state carries all three)
    and recombined with both weights over the larger, so none can underflow.
    The branches are weighted and summed in place and transformed back into
    the envelope's array, which the split leaves dead.
    """
    _check_weights(plus_weight, minus_weight)
    if spinor is None:
        spinor = np.zeros(8, dtype=complex)
        spinor[3] = 1.0
        spinor[2] = 0.5
    spinor = np.asarray(spinor, dtype=complex)
    env = np.exp(-_squared_distance(grid, center) / (4.0 * sigma * sigma))
    if k0_mode is not None:
        k0 = mode_wave_vector(grid, k0_mode)
        env = env * np.exp(1j * _phase(grid, k0))
    values = env[..., None] * spinor
    psi = SpinorField8(grid, values, kind=ELECTRON, mass=mass, c=c, hbar=hbar)
    dec = mode_decomposition(psi)
    larger = max(abs(plus_weight), abs(minus_weight))
    mixed = np.multiply(plus_weight / larger, dec.plus, out=dec.plus)
    mixed += np.multiply(minus_weight / larger, dec.minus, out=dec.minus)
    out = grid.ifft_staged(mixed, out=psi.values)
    size = np.abs(out)
    out_norm = np.sqrt(np.sum(np.square(size, out=size)) * grid.cell_volume)
    return SpinorField8(grid, np.divide(out, out_norm, out=out), kind=ELECTRON, mass=mass,
                        c=c, hbar=hbar)


def uniform_current(grid: GridSpec, direction, amplitude: float, omega: float) -> FourCurrent:
    """Spatially uniform J = A d cos(w t); divergence-free, rho = 0."""
    d = np.asarray(direction, dtype=float)
    j = np.broadcast_to(amplitude * d, grid.shape + (3,)).copy()
    return FourCurrent(grid, j, omega=omega)


def gaussian_dipole_current(grid: GridSpec, direction, amplitude: float,
                            sigma: float, omega: float, center=None) -> FourCurrent:
    """Band-limited dipole: J = A d exp(-|r - r0|^2 / (2 sigma^2)) cos(w t),
    with the charge density that continuity gives it (``FourCurrent``)."""
    env = amplitude * np.exp(-_squared_distance(grid, center) / (2.0 * sigma * sigma))
    j = env[..., None] * np.asarray(direction, dtype=float)
    return FourCurrent(grid, j, omega=omega)

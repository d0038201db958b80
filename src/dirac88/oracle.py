"""Independent classical Maxwell solver used as ground truth.

Works per Fourier mode on the six field components directly: the free
curl equations rotate E +- iB about the wave vector by -+ c|k|t (Rodrigues
form, exact), and the current source is integrated with a fourth-order
composite Simpson rule.  The wave-function evolution integrates its source
in closed form, so in sourced runs ``compare`` measures this quadrature's
error.  Nothing here touches the 8x8 machinery, so agreement with it is
evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .fields import EMField, FourCurrent, GridSpec

__all__ = ["OracleRun", "CompareReport", "maxwell_evolve", "compare"]


@dataclass
class OracleRun:
    """Classical field samples on a time grid."""

    grid: GridSpec
    times: np.ndarray
    e: np.ndarray      # (n_times, *grid, 3)
    b: np.ndarray

    def sample(self, index: int) -> EMField:
        return EMField(self.grid, self.e[index].copy(), self.b[index].copy())

    def energy(self, index: int) -> float:
        e = self.e[index].real
        b = self.b[index].real
        dens = (np.einsum("...i,...i->...", e, e) + np.einsum("...i,...i->...", b, b)) / (8 * np.pi)
        return float(np.sum(dens) * self.grid.cell_volume)


@dataclass(frozen=True)
class CompareReport:
    """Max-norm deviations between a wave-function run and the oracle."""

    max_abs_e: float
    max_abs_b: float
    rel_e: float
    rel_b: float

    @property
    def max_abs(self) -> float:
        return max(self.max_abs_e, self.max_abs_b)

    @property
    def max_rel(self) -> float:
        return max(self.rel_e, self.rel_b)


def _rotation_about_k(k: np.ndarray, angle: np.ndarray):
    """Pointwise Rodrigues rotation data for axis k (safe at k = 0)."""
    kn = np.linalg.norm(k, axis=-1)
    safe = np.where(kn > 0.0, kn, 1.0)
    khat = k / safe[..., None]
    return khat, np.cos(angle), np.sin(angle), kn > 0.0


def _rotate(khat: np.ndarray, cos_a: np.ndarray, sin_a: np.ndarray,
            nonzero: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate complex vectors v about khat by the pointwise angle."""
    par = np.einsum("...i,...i->...", khat, v)[..., None] * khat
    perp = v - par
    crossed = np.cross(khat, v)
    out = par + cos_a[..., None] * perp + sin_a[..., None] * crossed
    return np.where(nonzero[..., None], out, v)


def maxwell_evolve(em0: EMField, source: FourCurrent | None, times: np.ndarray,
                   substeps: int = 64, c: float = 1.0) -> OracleRun:
    """Evolve dE/dt = c curl B - 4 pi J, dB/dt = -c curl E on the periodic box.

    Free part: per mode, F(+-) = E +- iB rotates about k by -+ c|k|t.
    Sourced part: interaction-picture composite Simpson with ``substeps``
    even subintervals between consecutive samples.
    """
    grid = em0.grid
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("oracle runs must start at t = 0")
    if substeps < 2 or substeps % 2:
        raise ValueError("substeps must be an even integer >= 2")
    axes = tuple(range(grid.ndim))
    k = grid.wave_vectors()

    f_plus0 = np.fft.fftn(em0.e + 1j * em0.b, axes=axes)
    f_minus0 = np.fft.fftn(em0.e - 1j * em0.b, axes=axes)
    kn = np.linalg.norm(k, axis=-1)

    if source is not None:
        j_hat = np.fft.fftn(source.j_amp.astype(complex), axes=axes)
        w_src = source.omega

    def free_rotate(f: np.ndarray, t: float, sign: float) -> np.ndarray:
        # dF(+-)/dt = +- c k x F(+-); rotation angle -+ c |k| t about khat
        khat, cos_a, sin_a, nonzero = _rotation_about_k(k, sign * c * kn * t)
        return _rotate(khat, cos_a, sin_a, nonzero, f)

    e_out = np.empty((len(times),) + em0.e.shape, dtype=complex)
    b_out = np.empty_like(e_out)
    accum_p = np.zeros_like(f_plus0)
    accum_m = np.zeros_like(f_minus0)
    t_prev = 0.0

    def integrand(t: float, sign: float) -> np.ndarray:
        # U(-t) applied to the source -4 pi J(t) of dF/dt
        s = -4 * np.pi * j_hat * np.cos(w_src * t)
        return free_rotate(s, -t, sign)

    for idx, t in enumerate(times):
        if idx > 0 and source is not None:
            h = (t - t_prev) / substeps
            nodes = t_prev + h * np.arange(substeps + 1)
            fp = [integrand(float(tn), +1.0) for tn in nodes]
            fm = [integrand(float(tn), -1.0) for tn in nodes]
            for pair in range(substeps // 2):
                accum_p += (h / 3.0) * (fp[2 * pair] + 4.0 * fp[2 * pair + 1] + fp[2 * pair + 2])
                accum_m += (h / 3.0) * (fm[2 * pair] + 4.0 * fm[2 * pair + 1] + fm[2 * pair + 2])
        if idx > 0:
            t_prev = t
        f_p = free_rotate(f_plus0 + accum_p, float(t), +1.0)
        f_m = free_rotate(f_minus0 + accum_m, float(t), -1.0)
        e_hat = 0.5 * (f_p + f_m)
        b_hat = (f_p - f_m) / 2j
        e_out[idx] = np.fft.ifftn(e_hat, axes=axes)
        b_out[idx] = np.fft.ifftn(b_hat, axes=axes)
    return OracleRun(grid, times, e_out, b_out)


def compare(run, oracle: OracleRun) -> CompareReport:
    """Max over samples and points of the field deviations, absolute and
    relative to the oracle field RMS.  ``run`` is an ``EvolutionRun``;
    only its grid, times and photon-embedded values are read."""
    if run.grid != oracle.grid:
        raise GridMismatch("wave-function run and oracle run use different grids")
    if len(run.times) != len(oracle.times) or not np.allclose(run.times, oracle.times):
        raise GridMismatch("wave-function run and oracle run use different time grids")
    e_run = run.values[..., 1:4]
    b_run = -1j * run.values[..., 5:8]
    dev_e = float(np.max(np.abs(e_run - oracle.e)))
    dev_b = float(np.max(np.abs(b_run - oracle.b)))
    rms_e = float(np.sqrt(np.mean(np.abs(oracle.e) ** 2)))
    rms_b = float(np.sqrt(np.mean(np.abs(oracle.b) ** 2)))
    scale = max(rms_e, rms_b, 1e-300)
    return CompareReport(dev_e, dev_b, dev_e / scale, dev_b / scale)

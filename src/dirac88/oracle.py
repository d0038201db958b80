"""Independent classical Maxwell solver used as ground truth.

Works per Fourier mode on the six field components directly: the free
curl equations rotate E +- iB about the wave vector by the angle +- c|k|t
(Rodrigues form, exact), and the current source is integrated in closed
form.  The source's time factor is the scalar cos(omega s), so rotating it
back to t = 0 and integrating weights three fixed vector parts of the
source amplitude by three elementary integrals (a, b(k), d(k)).  Nothing
here touches the 8x8 machinery, and the wave-function evolution reaches
its own closed form by another route (the Duhamel kernels of H(k)), so
agreement with it is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .fields import EMField, FourCurrent, GridSpec, _block_size, _time_blocks

__all__ = ["OracleRun", "CompareReport", "maxwell_evolve", "compare"]


class OracleRun:
    """Classical fields on a time grid, formed when read: ``blocks()`` yields
    (e, b) a time block of B times at a time (``_time_blocks``), each
    (B, *grid, 3) and each sample from t = 0 alone.  ``form(t, f, scratch)``
    forms a block in two arrays (B, 2, 3, *grid) that a pass makes once and
    every block reuses, so a yielded pair is valid until the next."""

    def __init__(self, grid: GridSpec, times: np.ndarray, form):
        self.grid, self.times = grid, times
        self._form = form

    def blocks(self):
        shape = (min(len(self.times), _block_size(self.grid)), 2, 3) + self.grid.shape
        f_rows, scratch_rows = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for t in _time_blocks(self.grid, self.times):
            yield self._form(t, f_rows[:len(t)], scratch_rows[:len(t)])


@dataclass(frozen=True)
class CompareReport:
    """Max-norm deviations between a wave-function run and the oracle."""

    max_abs_e: float
    max_abs_b: float
    rel_e: float
    rel_b: float

    @property
    def max_abs(self) -> float:
        return float(np.maximum(self.max_abs_e, self.max_abs_b))


def _rotate(par: np.ndarray, perp: np.ndarray, crossed: np.ndarray,
            cos_a: np.ndarray, sin_a: np.ndarray, out: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """Vectors with parts par along unit vectors khat and perp across them, and
    crossed = khat x perp, turned about khat by the angle of cos_a and sin_a,
    into ``out`` through ``scratch`` (both of the result's shape)."""
    np.multiply(cos_a, perp, out=out)
    out += par
    out += np.multiply(sin_a, crossed, out=scratch)
    return out


def _source_integrals(t, omega: float, ck: np.ndarray):
    """a = int_0^t cos(omega s) ds and, stacked per c|k| as (2, len(ck)),
    b = int_0^t cos(omega s) cos(ck s) ds and d = int_0^t cos(omega s) sin(ck s) ds
    (times of shape (B, 1) give (B, 1) and (2, B, len(ck))).  Over the half phases
    h = (ck -+ omega) t / 2, b = t/2 sum sinc(h) cos(h) and d = t/2 sum sinc(h) sin(h):
    forms that stay smooth at omega = 0, ck = 0 and ck = +-omega."""
    half = 0.5 * np.stack(((ck - omega) * t, (ck + omega) * t))
    cos_sin = np.stack((np.cos(half), np.sin(half)))
    sinc_h = np.divide(cos_sin[1], half, out=np.ones_like(half), where=half != 0.0)
    wt = np.asarray(omega * t)
    sinc_wt = np.divide(np.sin(wt), wt, out=np.ones_like(wt), where=wt != 0.0)
    return t * sinc_wt, 0.5 * t * (sinc_h * cos_sin).sum(axis=1)


def maxwell_evolve(em0: EMField, source: FourCurrent | None, times: np.ndarray,
                   c: float = 1.0) -> OracleRun:
    """Evolve dE/dt = c curl B - 4 pi J, dB/dt = -c curl E on the periodic box.

    Free part: per mode, F(+-) = E +- iB rotates about k by the angle
    +- c|k|t.  Sourced part: in the interaction picture, F(+-) at t is the
    rotation of F(+-)(0) - 4 pi int_0^t R(-+s) j cos(omega s) ds, where R(s)
    rotates about khat by c|k|s.  That rotation is linear in the parts
    P = (khat.j)khat, Q = j - P and X = khat x j of the source amplitude j,
    so the integral is a P + b(k) Q -+ d(k) X, with the closed-form
    integrals a, b, d of ``_source_integrals``.  Turned by R(+-c|k|t) it reads
    a P + u Q +- w X, with u = b cos + d sin and w = b sin - d cos of c|k|t.
    Only the parts of F(+-) at t = 0 and of j are made here; the run forms
    each time block as it is read, from t = 0, so its times may start anywhere.
    """
    grid = em0.grid
    times = np.asarray(times, dtype=float)
    axes = tuple(range(-grid.ndim, 0))   # vectors are (3, *grid) here, components first
    # k from points and lengths, not GridSpec's wave vectors, so a fault there shows
    axis_k = [2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
              for n, length in zip(grid.points, grid.lengths)]
    k = np.zeros((3,) + grid.shape)
    k[3 - grid.ndim:] = np.meshgrid(*axis_k, indexing="ij")
    kn = np.sqrt(np.sum(k * k, axis=0))
    # khat is 0 at k = 0, where the angle c|k|t is 0 too: that mode stays as it is
    khat, ck_mode = k / np.where(kn > 0.0, kn, 1.0), c * kn

    def parts(v):
        """P v = (khat.v) khat, Q v = v - P v and X v = khat x v, of vectors (..., 3, *grid)."""
        comp = -khat.ndim
        par = np.sum(khat * v, axis=comp, keepdims=True) * khat
        # copied to C order: np.cross leaves the components last, which slows each block
        return par, v - par, np.cross(khat, v, axisa=0, axisb=comp, axisc=comp).copy()

    # F(+) and F(-) stacked on a leading axis, along which ``sign`` turns sin(angle) to +-sin
    f0 = np.fft.fftn(np.moveaxis(np.stack((em0.e + 1j * em0.b, em0.e - 1j * em0.b)), -1, 1),
                     axes=axes)
    free = parts(f0)
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * (grid.ndim + 1))
    if source is not None:
        j_hat = np.fft.fftn(np.moveaxis(source.j_amp, -1, 0).astype(complex), axes=axes)[None]
        # the parts of 4 pi j (a leading axis of 1, or of 2 once signed): form scales
        # them by the time factors of its share
        par, perp, crossed = (4 * np.pi * x for x in parts(j_hat))
        signed_crossed = sign * crossed
        # b and d depend on |k| alone, and many modes share it (k and -k at least)
        ck, mode_ck = np.unique(ck_mode, return_inverse=True)
        mode_ck = mode_ck.reshape(grid.shape)

    def form(t, f, scratch):
        """(E, B) at a block of times t, each (len(t), *grid, 3): F(+-) turned by
        +-c|k|t in one stacked rotation of its parts into ``f``, less 4 pi times
        the source's share turned with it, transformed back as one stacked array
        in place; ``scratch`` is overwritten."""
        angle = (ck_mode * t.reshape((-1,) + (1,) * grid.ndim))[:, None, None]
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        _rotate(*free, cos_a.astype(complex), (sign * sin_a).astype(complex), f, scratch)
        if source is not None:
            a, bd = _source_integrals(t[:, None], source.omega, ck)
            b, d = bd[:, :, None, None, mode_ck]
            # R(+-)(a P + b Q -+ d X) = a P + u Q + w (+-X), each part taken off in place
            a = a.reshape((-1,) + (1,) * (grid.ndim + 2))
            u, w = cos_a * b + sin_a * d, sin_a * b - cos_a * d
            for scale, part in ((a, par), (u, perp), (w, signed_crossed)):
                f -= np.multiply(scale.astype(complex), part, out=scratch[:, :len(part)])
        # E = (F+ + F-) / 2 and B = (F+ - F-) / 2i, in place, then back to space
        minus = np.subtract(f[:, 1], f[:, 0], out=scratch[:, 0])
        f[:, 0] += f[:, 1]
        f[:, 0] *= 0.5
        np.multiply(minus, 0.5j, out=f[:, 1])
        fields = np.moveaxis(np.fft.ifftn(f, axes=axes, out=f), 2, -1)
        return fields[:, 0], fields[:, 1]

    return OracleRun(grid, times, form)


def compare(run, oracle: OracleRun) -> CompareReport:
    """Max over samples and points of the field deviations, absolute and
    relative to the oracle field RMS.  ``run`` is an ``EvolutionRun`` on the
    oracle's grid and times; its blocks and the oracle's, which hold the same
    samples, are read in step, and the RMS is summed as they pass."""
    if run.grid != oracle.grid:
        raise GridMismatch("wave-function run and oracle run use different grids")
    if not np.array_equal(run.times, oracle.times):   # samples pair by index
        raise GridMismatch("wave-function run and oracle run use different time grids")
    dev_e = dev_b = sum_e = sum_b = 0.0
    for values, (e, b) in zip(run.blocks(), oracle.blocks()):   # np.maximum keeps NaN
        dev_e = np.maximum(dev_e, np.max(np.abs(values[..., 1:4] - e)))
        dev_b = np.maximum(dev_b, np.max(np.abs(-1j * values[..., 5:8] - b)))
        sum_e += np.vdot(e, e).real
        sum_b += np.vdot(b, b).real
    dev_e, dev_b = float(dev_e), float(dev_b)
    count = len(oracle.times) * 3 * int(np.prod(oracle.grid.shape))
    scale = max(float(np.sqrt(max(sum_e, sum_b) / count)), 1e-300)
    return CompareReport(dev_e, dev_b, dev_e / scale, dev_b / scale)

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
from .fields import EMField, FourCurrent, GridSpec

__all__ = ["OracleRun", "CompareReport", "maxwell_evolve", "compare"]

_NEXT, _PREV = [1, 2, 0], [2, 0, 1]   # (khat x v)_i = khat_{i+1} v_{i+2} - khat_{i+2} v_{i+1}
_TO_EB = np.array([[0.5, 0.5], [-0.5j, 0.5j]])   # E = (F+ + F-) / 2, B = (F+ - F-) / 2i


class OracleRun:
    """Classical fields on a time grid, formed when read: ``samples()`` yields
    (e, b), each of shape (*grid, 3), at every time in order, in fresh arrays,
    each formed from t = 0 by ``form(t)`` alone."""

    def __init__(self, grid: GridSpec, times: np.ndarray, form):
        self.grid, self.times = grid, times
        self._form = form

    def samples(self):
        for t in self.times:
            yield self._form(t)


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


def _rotate(khat: np.ndarray, khat_next: np.ndarray, khat_prev: np.ndarray,
            cos_a: np.ndarray, sin_a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate complex vectors v about unit vectors khat by the angle of cos_a and sin_a;
    khat_next and khat_prev are khat with its components cycled by one and by two."""
    par = np.einsum("...i,...i->...", khat, v)[..., None] * khat
    crossed = khat_next * v[..., _PREV] - khat_prev * v[..., _NEXT]
    return par + cos_a * (v - par) + sin_a * crossed


def _source_integrals(t: float, omega: float, ck: np.ndarray):
    """a = int_0^t cos(omega s) ds and, stacked per c|k| as (2, len(ck)),
    b = int_0^t cos(omega s) cos(ck s) ds and d = int_0^t cos(omega s) sin(ck s) ds,
    in sinc forms that stay smooth at omega = 0, ck = 0 and ck = +-omega."""
    sinc = lambda x: np.sinc(x / np.pi)
    minus, plus = (ck - omega) * t, (ck + omega) * t
    b = 0.5 * t * (sinc(minus) + sinc(plus))
    # (1 - cos xt) / x = x t^2 sinc^2(xt / 2) / 2, for x = ck -+ omega
    d = 0.25 * t * (minus * sinc(0.5 * minus) ** 2 + plus * sinc(0.5 * plus) ** 2)
    return t * sinc(omega * t), np.stack((b, d))


def maxwell_evolve(em0: EMField, source: FourCurrent | None, times: np.ndarray,
                   c: float = 1.0) -> OracleRun:
    """Evolve dE/dt = c curl B - 4 pi J, dB/dt = -c curl E on the periodic box.

    Free part: per mode, F(+-) = E +- iB rotates about k by the angle
    +- c|k|t.  Sourced part: in the interaction picture, F(+-) at t is the
    rotation of F(+-)(0) - 4 pi int_0^t R(-+s) j cos(omega s) ds, where R(s)
    rotates about khat by c|k|s.  That rotation is linear in the parts
    P = (khat.j)khat, Q = j - P and X = khat x j of the source amplitude j,
    so the integral is a P + b(k) Q -+ d(k) X, with the closed-form
    integrals a, b, d of ``_source_integrals``.  Only F(+-) at t = 0 and the
    parts are made here; the run forms each sample as it is read, from
    t = 0, so its times may start anywhere.
    """
    grid = em0.grid
    times = np.asarray(times, dtype=float)
    axes = tuple(range(grid.ndim))
    # k from points and lengths, not GridSpec's wave vectors, so a fault there shows
    axis_k = [2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
              for n, length in zip(grid.points, grid.lengths)]
    k = np.zeros(grid.shape + (3,))
    k[..., 3 - grid.ndim:] = np.stack(np.meshgrid(*axis_k, indexing="ij"), axis=-1)
    kn = np.linalg.norm(k, axis=-1)
    # khat is 0 at k = 0, where the angle c|k|t is 0 too: that mode stays as it is
    khat = k / np.where(kn > 0.0, kn, 1.0)[..., None]
    axis = (khat, khat[..., _NEXT], khat[..., _PREV])

    # F(+) and F(-) stacked on a leading axis, along which ``sign`` turns sin(angle) to +-sin
    stack_axes = tuple(range(1, grid.ndim + 1))
    f0 = np.fft.fftn(np.stack((em0.e + 1j * em0.b, em0.e - 1j * em0.b)), axes=stack_axes)
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * (grid.ndim + 1))
    if source is not None:
        j_hat = np.fft.fftn(source.j_amp.astype(complex), axes=axes)
        par = np.einsum("...i,...i->...", khat, j_hat)[..., None] * khat
        perp = j_hat - par
        signed_crossed = sign * np.cross(khat, j_hat)
        # b and d depend on |k| alone, and many modes share it (k and -k at least)
        ck, mode_ck = np.unique(c * kn, return_inverse=True)
        mode_ck = mode_ck.reshape(grid.shape)

    def form(t):
        """(E, B) at t: F(+-) with the source's share, both turned in one
        rotation by +-c|k|t and transformed back as one stacked array."""
        f = f0
        if source is not None:
            a, bd = _source_integrals(t, source.omega, ck)
            b, d = bd[:, mode_ck, None]
            f = f0 - 4 * np.pi * (a * par + b * perp - d * signed_crossed)
        angle = (c * kn * t)[..., None]
        f = _rotate(*axis, np.cos(angle), sign * np.sin(angle), f)
        return tuple(np.fft.ifftn(np.einsum("ts,s...->t...", _TO_EB, f), axes=stack_axes))

    return OracleRun(grid, times, form)


def compare(run, oracle: OracleRun) -> CompareReport:
    """Max over samples and points of the field deviations, absolute and
    relative to the oracle field RMS.  ``run`` is an ``EvolutionRun`` on the
    oracle's grid and times; its samples and the oracle's are read in step, one
    of each at a time, and the RMS is summed as they pass."""
    if run.grid != oracle.grid:
        raise GridMismatch("wave-function run and oracle run use different grids")
    if not np.array_equal(run.times, oracle.times):   # samples pair by index
        raise GridMismatch("wave-function run and oracle run use different time grids")
    dev_e = dev_b = 0.0
    sum_e = sum_b = count = 0
    for i, (e, b) in enumerate(oracle.samples()):   # np.maximum keeps NaN
        values = run.sample(i).values
        dev_e = np.maximum(dev_e, np.max(np.abs(values[..., 1:4] - e)))
        dev_b = np.maximum(dev_b, np.max(np.abs(-1j * values[..., 5:8] - b)))
        sum_e += np.sum(np.abs(e) ** 2)
        sum_b += np.sum(np.abs(b) ** 2)
        count += e.size
    dev_e, dev_b = float(dev_e), float(dev_b)
    scale = max(float(np.sqrt(max(sum_e, sum_b) / count)), 1e-300)
    return CompareReport(dev_e, dev_b, dev_e / scale, dev_b / scale)

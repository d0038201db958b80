"""Independent classical Maxwell solver used as ground truth.

Works per Fourier mode on the six field components directly: the free
curl equations rotate E +- iB about the wave vector by the angle +- c|k|t
(Rodrigues form, exact), and the current source is integrated with a
fourth-order composite Simpson rule.  The source's time factor is a scalar,
so the rule's node sums are formed per mode as three scalar sums (a, b(k),
d(k)) that weight three fixed vector parts of the source amplitude: same
fourth-order rule, same nodes as summing the rotated source vectors node by
node.  The wave-function evolution integrates its source in closed form, so
in sourced runs ``compare`` measures this quadrature's error.  Nothing here
touches the 8x8 machinery, so agreement with it is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import GridMismatch
from .fields import EMField, FourCurrent, GridSpec

__all__ = ["OracleRun", "CompareReport", "maxwell_evolve", "compare"]


class OracleRun:
    """Classical fields on a time grid, formed when read: ``samples()`` yields
    (e, b), each of shape (*grid, 3), at every time in order, in fresh arrays,
    formed from the running source sums that a fresh ``sums()`` iterator
    yields in the same order (None at every time of a free run)."""

    def __init__(self, grid: GridSpec, times: np.ndarray, form, sums):
        self.grid, self.times = grid, times
        self._form, self._sums = form, sums

    def samples(self):
        for t, sums in zip(self.times, self._sums()):
            yield self._form(t, sums)


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


# Bound on the bytes of each (nodes x modes) temporary of the Simpson sums;
# larger blocks measured no faster.
_BLOCK_BYTES = 1 << 20


def _rotate(khat: np.ndarray, cos_a: np.ndarray, sin_a: np.ndarray,
            nonzero: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate complex vectors v about khat by the pointwise angle."""
    par = np.einsum("...i,...i->...", khat, v)[..., None] * khat
    perp = v - par
    crossed = np.cross(khat, v)
    out = par + cos_a[..., None] * perp + sin_a[..., None] * crossed
    return np.where(nonzero[..., None], out, v)


def _simpson_sums(times: np.ndarray, substeps: int, omega: float, ck: np.ndarray):
    """Running composite-Simpson sums through each sample, in time order, over
    the ``substeps + 1`` nodes s of every sample interval:
    a = sum w cos(omega s), b = sum w cos(omega s) cos(ck s) and
    d = sum w cos(omega s) sin(ck s), with w the Simpson weights
    (h/3)(1, 4, 2, ..., 4, 1) of the interval's step h.  Yields (a, bd) at
    every time, zeros at the first, with b, d stacked as bd of shape
    (2, len(ck)): one array, updated in place as each interval is added."""
    weights = np.full(substeps + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    cols = min(ck.size, max(1, _BLOCK_BYTES // (16 * (substeps + 1))))
    a, bd = 0.0, np.zeros((2, ck.size))
    yield a, bd
    for t0, t1 in zip(times[:-1], times[1:]):
        h = (t1 - t0) / substeps
        nodes = t0 + h * np.arange(substeps + 1)
        g = h / 3.0 * weights * np.cos(omega * nodes)
        a += g.sum()
        for m in range(0, ck.size, cols):   # a slice of modes at a time
            phase = nodes[:, None] * ck[m:m + cols]
            trig = np.empty((2,) + phase.shape)
            np.cos(phase, out=trig[0])
            np.sin(phase, out=trig[1])
            bd[:, m:m + cols] += np.einsum("n,jnm->jm", g, trig)
        del phase, trig   # not held while the sample is formed
        yield a, bd


def maxwell_evolve(em0: EMField, source: FourCurrent | None, times: np.ndarray,
                   substeps: int = 64, c: float = 1.0) -> OracleRun:
    """Evolve dE/dt = c curl B - 4 pi J, dB/dt = -c curl E on the periodic box.

    Free part: per mode, F(+-) = E +- iB rotates about k by the angle
    +- c|k|t.  Sourced part: interaction-picture composite Simpson with
    ``substeps`` even subintervals between consecutive samples.  The
    rotation back to t = 0 is linear in the parts P = (khat.j)khat,
    Q = j - P and X = khat x j of the source amplitude j, and the source's
    time factor is the scalar cos(omega t), so the Simpson accumulator of
    F(+-) through a sample is -4 pi [a P + b(k) Q -+ d(k) X], with the
    running node sums a, b, d of ``_simpson_sums``: same fourth-order rule,
    same nodes.  Only F(+-) at t = 0 and the parts are made here; the run
    adds up the sums and forms each sample as it is read, in time order.
    """
    grid = em0.grid
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("oracle runs must start at t = 0")
    if substeps < 2 or substeps % 2:
        raise ValueError("substeps must be an even integer >= 2")
    axes = tuple(range(grid.ndim))
    # k from points and lengths, not GridSpec's wave vectors, so a fault there shows
    axis_k = [2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
              for n, length in zip(grid.points, grid.lengths)]
    k = np.zeros(grid.shape + (3,))
    k[..., 3 - grid.ndim:] = np.stack(np.meshgrid(*axis_k, indexing="ij"), axis=-1)
    kn = np.linalg.norm(k, axis=-1)
    nonzero = kn > 0.0
    khat = k / np.where(nonzero, kn, 1.0)[..., None]

    f_plus0 = np.fft.fftn(em0.e + 1j * em0.b, axes=axes)
    f_minus0 = np.fft.fftn(em0.e - 1j * em0.b, axes=axes)
    if source is not None:
        j_hat = np.fft.fftn(source.j_amp.astype(complex), axes=axes)
        par = np.einsum("...i,...i->...", khat, j_hat)[..., None] * khat
        perp = j_hat - par
        crossed = np.cross(khat, j_hat)
        # b and d depend on |k| alone, and many modes share it (k and -k at least)
        ck, mode_ck = np.unique(c * kn, return_inverse=True)
        mode_ck = mode_ck.reshape(grid.shape)

    def form(t, sums):
        f_p, f_m = f_plus0, f_minus0
        if sums is not None:
            # dF(+-)/dt = +- c k x F(+-) - 4 pi J
            a, bd = sums
            b, d = bd[:, mode_ck, None]
            even = a * par + b * perp
            odd = d * crossed
            f_p = f_plus0 - 4 * np.pi * (even - odd)
            f_m = f_minus0 - 4 * np.pi * (even + odd)
        # F(+-) rotates about khat by the angle +- c |k| t
        angle = c * kn * t
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        f_p = _rotate(khat, cos_a, sin_a, nonzero, f_p)
        f_m = _rotate(khat, cos_a, -sin_a, nonzero, f_m)
        e_hat = 0.5 * (f_p + f_m)
        b_hat = (f_p - f_m) / 2j
        return np.fft.ifftn(e_hat, axes=axes), np.fft.ifftn(b_hat, axes=axes)

    if source is None:
        return OracleRun(grid, times, form, partial(itertools.repeat, None))
    return OracleRun(grid, times, form, partial(_simpson_sums, times, substeps, source.omega, ck))


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

"""Exact spectral time evolution and Zitterbewegung analysis.

Free propagation is exact per Fourier mode: each energy branch of the state,
H psi(+-) = +- hbar w psi(+-) (``mode_decomposition``), turns by its own
phase e^{-+i w t}, so every tolerance in free runs is round-off dominated.
Sourced runs are exact too: the source is separable in space and time, so
the Duhamel integral of the source term has a closed form per mode.  The
constants m, c and hbar of H come from the state (``SpinorField8``) and
travel with it into every run, sample and mode decomposition.  A run, free
or sourced, stores no samples: it holds the energy branches of its t = 0
state, and ``EvolutionRun.samples`` forms the samples a time block at a time, in
reused arrays, and measures each block as it passes.

The velocity expectation <alpha>(t) over the whole box is the quantity
whose oscillatory component is the Zitterbewegung.  For photon states the
volume-integrated flux is a conserved quantity (total field momentum), so
the jitter lives in the local flux density; ``alpha_density_series``
exposes it pointwise, and ``zitter_equals_poynting`` checks that it is the
sum-frequency part 2 Re(E+ x B+) of the Poynting flux, with every mode of the
run turning at its own frequency.
``zitter_decompose`` measures the jitter frequency in closed form: uniform
samples of dc + A cos(W t + phi) obey a three-term recurrence whose one
coefficient, 4 sin^2(W dt / 2), comes from a single linear least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConstraintViolation, FitError
from .fields import (_ALPHA, _ALPHA_COEF, _ALPHA_COL, _BETA, _CONSTRAINT_TOL, FourCurrent,
                     GridSpec, SpinorField8, _alpha_density, _block_size, _Moments,
                     _time_blocks, extract_em_amplitudes)

__all__ = [
    "EvolutionRun",
    "ModeDecomposition",
    "ZitterReport",
    "PoyntingSplitReport",
    "omega_k",
    "hamiltonian_k",
    "evolve_free",
    "run_free",
    "evolve_sourced",
    "mode_decomposition",
    "alpha_expectation_series",
    "alpha_density_series",
    "energy_expectation",
    "energy_expectation_series",
    "zitter_decompose",
    "zitter_equals_poynting",
]

_CONTINUITY_TOL = 1e-8
_MIN_SAMPLES = 16           # jitter analysis
_MAX_LINES = 8
_LINE_FLOOR = 1e-10


class EvolutionRun:
    """Samples of a wave-function over a time grid, and the one diagnostics
    pass that every series of the run reads.

    A run holds no samples.  It holds ``branches``, the ``ModeDecomposition`` of
    its t = 0 state (grid, mass, c and hbar come from it), and, for a sourced run
    (``evolve_sourced``), the spectral source term added to each sample; it forms
    each sample when it is read (``_formed``).  ``samples()`` is the pass: it forms
    and measures a time block of samples at a time, then yields them in
    time order, each a read-only ``SpinorField8`` over a buffer the next block
    reuses, so a yielded sample stays valid only until the pass leaves its block
    (copy what must outlive it).  It measures from the stages of the block's
    inverse transform, so the pass makes no forward transform but for the
    orbital sums of <L>, which it takes when asked (``samples(orbital=True)``)
    and otherwise leaves to a pass of their own, run when ``moments.rk`` is
    first read.  When the pass completes it fills ``moments``; a pass left early
    fills nothing.  ``moments`` on a run nobody iterated runs the same pass.
    ``blocks()`` yields the same time blocks, read-only (B, *grid, 8), and
    measures nothing.  ``sample(i)`` forms one sample as a fresh, writable copy.
    """

    def __init__(self, branches: ModeDecomposition, times: np.ndarray, kind: str,
                 source_term=None):
        self.branches, self.times, self.kind = branches, np.asarray(times, dtype=float), kind
        self.grid, self.mass, self.c, self.hbar = (branches.grid, branches.mass, branches.c,
                                                   branches.hbar)
        self._source_term = source_term
        self._moments: _Moments | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def _formed(self, times, stage=None):
        """Yield (block, axis-0 stage), each (B, *grid, 8), per time block of B times
        (``_time_blocks``).  The block is the inverse transform of the spectral
        amplitudes branches.at(t), plus what the source term adds to them in place
        (t of shape (B, 1)), taken one axis at a time (``GridSpec.ifft_staged``,
        which hands ``stage`` each stage before its axis is transformed); the
        axis-0 stage is that transform over grid axes 1.. alone, each sample's fft
        along grid axis 0 up to round-off, which the moments pass reads instead of
        transforming the block again.  Both live in arrays that every block
        reuses, so a yielded pair is valid until the next; the block is a
        read-only view.
        A sourced sample is checked as it is formed: its constrained components
        stay below ``_CONSTRAINT_TOL`` times the field scale, or the first that
        does not raises ConstraintViolation (NaN fails too)."""
        dec, grid, source_term = self.branches, self.grid, self._source_term
        shape = (min(len(times), _block_size(grid)),) + dec.plus.shape
        hat_rows, value_rows = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for t in _time_blocks(grid, times):
            hat, values = hat_rows[:len(t)], value_rows[:len(t)]
            dec.at(t, out=hat, scratch=values)
            if source_term is not None:
                source_term(t[:, None], hat, values)
            block = grid.ifft_staged(hat, out=values, stage=stage)
            if source_term is not None:
                size = abs(block).reshape(len(t), -1, 8).max(axis=1)   # per sample and component
                resid, scale = size[:, ::4].max(axis=1), np.maximum(size.max(axis=1), 1.0)
                bad = np.flatnonzero(~(resid <= _CONSTRAINT_TOL * scale))   # NaN fails
                if len(bad):
                    raise ConstraintViolation(
                        f"constrained components reached {resid[bad[0]]:.3e} at "
                        f"t = {t[bad[0]]:.6g}; check source continuity and the Gauss law "
                        "of the initial data")
            block = block.view()
            block.flags.writeable = False
            yield block, hat

    def samples(self, orbital: bool = False):
        """The pass over the samples; see the class docstring."""
        measure = _Moments(self.grid, self.n_samples, orbital) if self._moments is None else None
        s0 = 0
        for block, axis0 in self._formed(self.times, None if measure is None else measure.stage):
            if measure is not None:
                measure.add(s0, block, axis0)
            s0 += len(block)
            for values in block:
                yield SpinorField8(self.grid, values, self.kind, self.mass, self.c, self.hbar)
        if measure is not None:
            measure.orbital_pass = self._orbital_pass
            self._moments = measure

    def _orbital_pass(self):
        """The orbital sums of ``moments`` alone, its samples formed again."""
        s0 = 0
        for block, axis0 in self._formed(self.times):
            self._moments.add_orbital(s0, block, axis0)
            s0 += len(block)

    def blocks(self):
        """The samples a time block at a time, unmeasured; see the class docstring."""
        for block, _ in self._formed(self.times):
            yield block

    @property
    def moments(self) -> _Moments:
        """Grid sums of every sample: norms, Gram matrices and momentum sums."""
        if self._moments is None:
            for _ in self.samples():
                pass
        return self._moments

    def sample(self, index: int) -> SpinorField8:
        values = next(self._formed(self.times[[index]]))[0][0].copy()
        return SpinorField8(self.grid, values, self.kind, self.mass, self.c, self.hbar)


@dataclass
class ModeDecomposition:
    """Positive/negative-frequency amplitudes per wave vector.

    ``plus`` and ``minus`` hold the spectral amplitudes (fft convention,
    shape (*grid, 8)); ``omega`` the positive branch frequency.  A zero
    mode with zero mass has no frequency split and is stored entirely in
    ``plus`` with omega = 0 (it does not evolve).  ``populations`` are constant in
    time.  A run's ``branches`` split its t = 0 state.
    """

    grid: GridSpec
    plus: np.ndarray
    minus: np.ndarray
    omega: np.ndarray
    mass: float
    c: float = 1.0
    hbar: float = 1.0

    @cached_property
    def populations(self) -> tuple[np.ndarray, np.ndarray]:
        """|plus|^2 and |minus|^2 of each mode, summed over the eight components."""
        return tuple(np.einsum("...a,...a->...", x.conj(), x).real for x in (self.plus, self.minus))

    @cached_property
    def _empty(self) -> bool:
        """Whether both branches are identically zero (a branch may be the scalar 0)."""
        return not (np.any(self.plus) or np.any(self.minus))

    @cached_property
    def _distinct_omega(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct frequencies and, per mode, the index of its own."""
        distinct, mode = np.unique(self.omega, return_inverse=True)
        return distinct, mode.reshape(self.omega.shape)

    def at(self, t, out: np.ndarray | None = None,
           scratch: np.ndarray | None = None) -> np.ndarray:
        """Spectral amplitudes at time t, e^{-i w t} plus + e^{+i w t} minus; a
        vector of B times gives a block (B, *grid, 8).  Arrays of the result's
        shape given as ``out`` (the result) and ``scratch`` (overwritten) spare
        the two full-size temporaries.  Each distinct w's phase is taken once
        and spread over the modes and components, so the products run along rows;
        identically zero branches turn no phase and give zeros."""
        if self._empty:
            out = np.empty(np.shape(t) + self.omega.shape + (8,), complex) if out is None else out
            out.fill(0.0)
            return out
        distinct, mode = self._distinct_omega
        phase = np.exp(-1j * distinct * np.asarray(t, dtype=float)[..., None])[..., mode, None]
        out, scratch = (np.empty(phase.shape[:-1] + (8,), dtype=complex) if a is None else a
                        for a in (out, scratch))
        np.copyto(scratch, phase)
        np.multiply(scratch, self.plus, out=out)
        out += np.multiply(np.conjugate(scratch, out=scratch), self.minus, out=scratch)
        return out


@dataclass(frozen=True)
class ZitterReport:
    """Split of a velocity-expectation series into dc and oscillation."""

    dc: np.ndarray
    dc_prediction: np.ndarray
    amplitude: np.ndarray
    fitted_frequency: float
    expected_frequency: float
    relative_frequency_error: float
    lines: list

    def to_dict(self) -> dict:
        return {
            "dc": [float(x) for x in self.dc],
            "dc_prediction": [float(x) for x in self.dc_prediction],
            "oscillation_amplitude": [float(x) for x in self.amplitude],
            "fitted_frequency": float(self.fitted_frequency),
            "expected_frequency": float(self.expected_frequency),
            "relative_frequency_error": float(self.relative_frequency_error),
            "lines": [{"k": [float(x) for x in k], "frequency": float(w), "strength": float(s)}
                      for k, w, s in self.lines],
        }


@dataclass(frozen=True)
class PoyntingSplitReport:
    """Agreement between the oscillatory flux of a run and the sum-frequency
    Poynting flux of its positive-frequency fields."""

    volume_deviation: float
    pointwise_deviation: float


def omega_k(k: np.ndarray, mass: float, c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Dispersion w(k) = c sqrt(k^2 + (m c / hbar)^2)."""
    k = np.asarray(k, dtype=float)
    k2 = np.einsum("...i,...i->...", k, k)
    rest = mass * c / hbar   # squared as a product: a float's ** 2 raises OverflowError
    return c * np.sqrt(k2 + rest * rest)


def hamiltonian_k(k: np.ndarray, mass: float, c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Per-mode Hamiltonian c hbar alpha.k + beta' m c^2, Hermitian 8x8."""
    k = np.asarray(k, dtype=float)
    return c * hbar * np.einsum("i,iab->ab", k, _ALPHA) + mass * c * c * _BETA


class _Spectral:
    """w(k), a zero-safe 1/w and H(k) of one (grid, mass, c, hbar), from which
    ``mode_decomposition`` splits a state into the energy branches that free
    evolution turns each by its own phase (``ModeDecomposition.at``).  H is the
    diagonal mass term plus a gather and a scale per grid axis (see ``_ALPHA_COL``).
    """

    def __init__(self, grid: GridSpec, mass: float, c: float, hbar: float):
        k = grid.wave_vectors()
        self.omega = omega_k(k, mass, c, hbar)
        self.inv_omega = np.divide(1.0, self.omega, out=np.zeros_like(self.omega),
                                   where=self.omega > 0.0)
        self._mass_diag = mass * c * c * np.diag(_BETA).real
        self._ck = [(i, c * hbar * k[..., i, None]) for i in grid.spatial_axes]

    def apply_h(self, hat: np.ndarray) -> np.ndarray:
        """H(k) applied to spectral amplitudes of shape (*grid, 8), through one
        gathered array (mode "clip" writes it in place; "raise" would buffer it)."""
        out, term = self._mass_diag * hat, np.empty_like(hat)
        for i, ck in self._ck:
            np.take(hat, _ALPHA_COL[i], axis=-1, out=term, mode="clip")
            term *= _ALPHA_COEF[i]
            term *= ck
            out += term
        return out


def evolve_free(psi: SpinorField8, t: float) -> SpinorField8:
    """Free evolution by time t, exact up to round-off (no stepping error)."""
    return run_free(psi, [t]).sample(0)


def run_free(psi0: SpinorField8, times: np.ndarray) -> EvolutionRun:
    """Free evolution sampled on a time grid, each sample propagated from t = 0.

    The run holds the energy branches of psi0 and stores no samples: each is
    formed when read (``EvolutionRun.samples``, ``sample``)."""
    return EvolutionRun(mode_decomposition(psi0), times, psi0.kind)


def _source_hat_parts(grid: GridSpec, source: FourCurrent, c: float, hbar: float):
    """Spectral amplitudes of the source term 4 pi hbar [c rho, -iJ, 0...].

    Time factors are scalar: rho(t) = rho_amp sin(wt)/w, J(t) = j_amp cos(wt),
    so s_hat(t) = rho_part * sin(wt)/w + j_part * cos(wt).
    """
    rho_hat = grid.fft(source.rho_amp.astype(complex))
    j_hat = grid.fft(source.j_amp.astype(complex))
    rho_part = np.zeros(grid.shape + (8,), dtype=complex)
    rho_part[..., 0] = 4 * np.pi * hbar * c * rho_hat
    j_part = np.zeros(grid.shape + (8,), dtype=complex)
    j_part[..., 1:4] = -4j * np.pi * hbar * j_hat
    return rho_part, j_part


def _duhamel_kernels(w: np.ndarray, omega: float, t, r: bool):
    """Duhamel kernels at time t, per mode frequency w, in closed form (times
    of shape (B, 1) give kernels (B, len(w))); R is None unless ``r``.

    With the propagator's factors cos w(t-s) and sin w(t-s)/w and the source's
    cos(omega s) and sin(omega s)/omega integrated over s in [0, t]:
    C_c = int cos.cos, C_r = int cos.sin/omega (equal to int sin/w.cos) and
    R = int sin/w.sin/omega, set to 0 at the inert w = 0 mode.  R divides by
    the larger of w and |omega|, which keeps it accurate at resonance and as
    omega -> 0, where splitting sin(omega s) into exponentials loses digits."""
    pm = np.stack((0.5 * (omega + w) * t, 0.5 * (omega - w) * t))   # p and m
    sinc_pm = np.divide(np.sin(pm), pm, out=np.ones_like(pm), where=pm != 0.0)
    re_plus, re_minus = t * np.cos(pm) * sinc_pm[::-1]
    cc, cr = 0.5 * (re_plus + re_minus), 0.5 * t * t * sinc_pm[0] * sinc_pm[1]
    if not r:
        return cc, cr, None
    wt = np.asarray(omega * t)
    sinc_wt = np.divide(np.sin(wt), wt, out=np.ones_like(wt), where=wt != 0.0)
    w_larger = w >= abs(omega)
    num = np.where(w_larger, t * sinc_wt - cc, 0.5 * (re_minus - re_plus))
    den = np.where(w_larger, w * w, omega * w)
    return cc, cr, np.divide(num, den, out=np.zeros_like(num), where=w > 0.0)


def evolve_sourced(psi0: SpinorField8, source: FourCurrent, times: np.ndarray) -> EvolutionRun:
    """Evolve with a prescribed four-current source, exact up to round-off.

    Each sample is U(t) psi_hat_0 plus the Duhamel term
    int_0^t U(t-s) s_hat(s) ds / (i hbar), in closed form per mode
    (``_duhamel_kernels``).  The run holds psi0's energy branches and that term,
    and forms each sample when it is read.  Continuity, whose residual
    (rho_amp + div j_amp) cos(Omega t) peaks at t = 0, is checked here; the
    constrained components are checked wherever a sample is formed, so a
    violation raises on the first read that reaches it: they stay below
    ``_CONSTRAINT_TOL`` (times the field scale) when the initial data satisfy
    the Gauss law and the source satisfies continuity.
    """
    if psi0.kind != "photon":
        raise ValueError("sourced evolution is defined for photon-embedded states")
    cont = source.continuity_residual()
    if not cont <= _CONTINUITY_TOL:
        raise ConstraintViolation(
            f"source continuity residual {cont:.3e} exceeds {_CONTINUITY_TOL:.1e}")

    hbar = psi0.hbar
    spectral = _Spectral(psi0.grid, psi0.mass, psi0.c, hbar)
    rho_part, j_part = _source_hat_parts(psi0.grid, source, psi0.c, hbar)
    # (C_c j + C_r (rho - i H j / hbar) - i R H rho / hbar) / (i hbar), one part per kernel
    parts = (j_part / (1j * hbar),
             (rho_part - 1j * spectral.apply_h(j_part) / hbar) / (1j * hbar),
             spectral.apply_h(rho_part) / -(hbar * hbar))

    # each part held on the span of components it fills, with the index of its
    # kernel; an empty part is dropped, and its kernel is not taken (a transverse
    # current has no rho: no last part, no R)
    filled = []
    for i, part in enumerate(parts):
        comps = np.flatnonzero(np.any(part.reshape(-1, 8), axis=0))   # NaN fills
        if len(comps):
            span = slice(comps[0], comps[-1] + 1)
            filled.append((i, span, part[..., span].copy()))
    need_r = any(i == 2 for i, _, _ in filled)
    branches = _split(psi0, spectral)
    distinct, mode = branches._distinct_omega   # the kernels depend on w alone

    def duhamel(t, out: np.ndarray, scratch: np.ndarray):
        """Add the term at t, or at times (B, 1), to the spectral amplitudes
        ``out``, each part into its span, through ``scratch``."""
        kernels = _duhamel_kernels(distinct, source.omega, t, need_r)
        for i, span, part in filled:
            term = scratch[..., :part.shape[-1]]
            out[..., span] += np.multiply(kernels[i][..., mode, None], part, out=term)

    return EvolutionRun(branches, times, psi0.kind, duhamel)


def mode_decomposition(psi: SpinorField8) -> ModeDecomposition:
    """Split a state into positive/negative-frequency spectral amplitudes."""
    return _split(psi, _Spectral(psi.grid, psi.mass, psi.c, psi.hbar))


def _split(psi: SpinorField8, spectral: _Spectral) -> ModeDecomposition:
    """``mode_decomposition`` with the spectral core of psi's grid and units:
    plus = (hat + ratio) / 2 and minus = (hat - ratio) / 2 with
    ratio = H hat / (hbar w), in three arrays of the state's size."""
    grid = psi.grid
    hat = grid.fft(psi.values)
    ratio = spectral.apply_h(hat)
    np.multiply((spectral.inv_omega / psi.hbar)[..., None], ratio, out=ratio)
    plus = np.add(hat, ratio)
    np.multiply(0.5, plus, out=plus)
    minus = np.subtract(hat, ratio, out=ratio)
    np.multiply(0.5, minus, out=minus)
    zero = spectral.omega == 0.0
    if np.any(zero):
        # static zero mode: keep the whole amplitude on the plus side
        plus[zero] = hat[zero]
        minus[zero] = 0.0
    return ModeDecomposition(grid, plus, minus, spectral.omega, psi.mass, psi.c, psi.hbar)


def alpha_expectation_series(run: EvolutionRun) -> np.ndarray:
    """<alpha>(t) = int psi+ alpha psi / int psi+ psi per sample, shape
    (samples, 3) (zero for identically-zero samples, NaN for NaN ones)."""
    moments = run.moments
    return moments.per_norm(np.einsum("iab,sab->si", _ALPHA, moments.gram).real)


def alpha_density_series(run: EvolutionRun, index: tuple[int, ...]) -> np.ndarray:
    """The local velocity density psi+ alpha psi at one grid point per sample, normalised
    by the sample's total norm as <alpha> is; carries the pointwise jitter."""
    index = tuple(index)
    # copied: each yielded sample's buffer is reused by the next
    point = np.array([psi.values[index].copy() for psi in run.samples()])
    return run.moments.per_norm(_alpha_density(point))


def energy_expectation(psi: SpinorField8) -> float:
    """<H> per unit norm (zero for an identically-zero state), read from the
    state's own free run at t = 0."""
    return float(energy_expectation_series(run_free(psi, [0.0]))[0])


def energy_expectation_series(run: EvolutionRun) -> np.ndarray:
    """<H> per unit norm of each sample: c hbar sum psi+ alpha'.k psi plus
    m c^2 sum_a beta'_aa G_aa, over sum |psi|^2 (zero for identically-zero
    samples, NaN for NaN ones)."""
    moments, c = run.moments, run.c
    mass_term = run.mass * c * c * np.einsum("a,saa->s", np.diag(_BETA).real, moments.gram).real
    return moments.per_norm(c * run.hbar * moments.kinetic + mass_term)


def _drift_prediction(dec: ModeDecomposition) -> np.ndarray:
    """The drift part c <p H^-1> of <alpha>: each energy branch drifts at +- c k / w,
    its group velocity over c (zero for an identically-zero state)."""
    pop_plus, pop_minus = dec.populations
    weight = np.divide(dec.c * (pop_plus - pop_minus), dec.omega,
                       out=np.zeros_like(dec.omega), where=dec.omega > 0.0)
    num = weight.reshape(-1) @ dec.grid.wave_vectors().reshape(-1, 3)
    den = np.sum(pop_plus + pop_minus)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _lines(dec: ModeDecomposition) -> list[tuple[np.ndarray, float, float]]:
    """Strongest ``_MAX_LINES`` (k, 2 w(k), strength) interference lines of a state.

    Strength is the product of the positive- and negative-branch
    populations at each mode (normalised by the total), the weight with
    which that mode can contribute a doubled-frequency cross term; lines
    below ``_LINE_FLOOR`` are dropped as round-off, so an identically-zero state
    has none.
    """
    pop_plus, pop_minus = (np.sqrt(p) for p in dec.populations)
    norm = np.sum(pop_plus ** 2 + pop_minus ** 2)
    cross = np.divide(pop_plus * pop_minus, norm, out=np.zeros_like(pop_plus), where=norm != 0.0)
    k = dec.grid.wave_vectors()
    flat = np.argsort(cross.reshape(-1))[::-1][:_MAX_LINES]
    lines = []
    for fi in flat:
        s = float(cross.reshape(-1)[fi])
        if s <= _LINE_FLOOR:
            break
        idx = np.unravel_index(fi, cross.shape)
        lines.append((k[idx], 2.0 * float(dec.omega[idx]), s))
    return lines


def zitter_decompose(run: EvolutionRun, series: np.ndarray | None = None) -> ZitterReport:
    """Split a velocity series into dc and oscillation and measure the frequency.

    ``series`` (``alpha_expectation_series`` when omitted) holds one 3-vector per
    sample of ``run.times``; another length raises ValueError, as does a run with a
    source term, which the t = 0 branches do not describe.  The dc part is the time
    mean, compared against the mode-space drift prediction c <p H^-1>.  The
    frequency W of the largest-amplitude component comes from one linear least
    squares on its second differences, -4 sin^2(W dt / 2) times the samples plus a
    constant, and is compared with 2 w(k) of the strongest interference line; both
    predictions read the run's t = 0 ``branches``.  Raises FitError below ``_MIN_SAMPLES``
    samples or two periods, on a series that is not finite (a norm that
    overflows makes it NaN), or when several distinct lines are comparably strong
    (the message names their frequencies).
    """
    if run._source_term is not None:
        raise ValueError("a sourced run has no jitter analysis: its branches are those of t = 0")
    if run.n_samples < _MIN_SAMPLES:
        raise FitError(f"need at least {_MIN_SAMPLES} samples, got {run.n_samples}")
    if series is None:
        series = alpha_expectation_series(run)
    elif len(series) != run.n_samples:
        raise ValueError(f"the series has {len(series)} samples, the run {run.n_samples}")
    if not np.all(np.isfinite(series)):
        raise FitError("the velocity series is not finite; nothing to fit")
    dec = run.branches
    dc = series.mean(axis=0)
    osc = series - dc
    amplitude = np.sqrt(2.0 * np.mean(osc ** 2, axis=0))
    prediction = _drift_prediction(dec)

    lines = _lines(dec)
    if not lines:
        # single energy branch everywhere: nothing oscillates, nothing to fit
        return ZitterReport(dc, prediction, amplitude, 0.0, 0.0, 0.0, [])
    strongest = lines[0][2]
    distinct = sorted({round(w, 9) for _, w, s in lines if s > 0.01 * strongest})
    if len(distinct) > 1:
        raise FitError(f"{len(distinct)} comparable interference lines, at frequencies "
                       f"{', '.join(f'{w:.6g}' for w in distinct)}; no single dominant mode")
    expected = lines[0][1]

    component = int(np.argmax(amplitude))
    span = run.times[-1] - run.times[0]
    if expected * span < 4.0 * np.pi:
        raise FitError("run shorter than two oscillation periods of the dominant line")

    # samples of dc + A cos(W t + phi) obey x[n+1] - 2 x[n] + x[n-1] = -q x[n] + const
    # with q = 4 sin^2(W dt / 2); clipping q to [0, 4] maps any series into [0, pi / dt]
    x = osc[:, component]
    design = np.stack([x[1:-1], np.ones(len(x) - 2)], axis=1)
    slope = np.linalg.lstsq(design, x[2:] - 2.0 * x[1:-1] + x[:-2], rcond=None)[0][0]
    q = min(max(-slope, 0.0), 4.0)
    fitted = 2.0 / (run.times[1] - run.times[0]) * float(np.arcsin(np.sqrt(q) / 2.0))
    rel = abs(fitted - expected) / expected
    return ZitterReport(dc, prediction, amplitude, fitted, expected, rel, lines)


def zitter_equals_poynting(run: EvolutionRun) -> PoyntingSplitReport:
    """Check that the Zitterbewegung of a free field is the sum-frequency part
    of its Poynting flux, every mode turning at its own frequency.

    Per sample t, E+(t) and B+(t) are the plus branch of the run's t = 0
    ``branches``, each mode turned by e^{-i w t}, and a static mode (w = 0, kept
    whole in plus by the split) halved, so E = E+ + conj(E+).  The flux
    psi+ alpha psi / 2 = E x B then splits into a slow part 2 Re(E+* x B+) and
    the sum-frequency part 2 Re(E+ x B+), the jitter, which a time average drops.
    ``pointwise_deviation``: the largest |slow + sum-frequency - psi+ alpha psi / 2|
    over samples and points.  ``volume_deviation``: the volume integrals of the
    sum-frequency part and of the flux, each less its time mean, compared.

    The fields must be real, on the constraint surface and band-limited, clear of
    the Nyquist planes (a field with Nyquist content reads about 1 pointwise: it
    fails, not passes).  For a complex field only the volume row means anything.
    For photon fields the volume row is ~0 on both sides (total field momentum
    is conserved), so the pointwise row carries the check.

    The run's blocks are read beside those of a run of its plus branch: each route
    is formed once, and nothing is measured.
    """
    dec, grid = run.branches, run.grid
    plus = np.where((dec.omega == 0.0)[..., None], 0.5 * dec.plus, dec.plus)
    positive = EvolutionRun(replace(dec, plus=plus, minus=0), run.times, run.kind)
    grid_axes = tuple(range(1, grid.ndim + 1))
    flux, jitter, pointwise_dev = [], [], 0.0
    for values, values_plus in zip(run.blocks(), positive.blocks()):
        density = 0.5 * _alpha_density(values)
        e, b = extract_em_amplitudes(values_plus)
        slow = 2.0 * np.cross(e.conj(), b).real
        fast = 2.0 * np.cross(e, b).real
        pointwise_dev = np.maximum(pointwise_dev, np.max(np.abs(slow + fast - density)))
        flux.append(np.sum(density, axis=grid_axes))
        jitter.append(np.sum(fast, axis=grid_axes))
    flux, jitter = (np.concatenate(x) * grid.cell_volume for x in (flux, jitter))
    osc = (flux - flux.mean(axis=0)) - (jitter - jitter.mean(axis=0))
    return PoyntingSplitReport(float(np.max(np.abs(osc))), float(pointwise_dev))

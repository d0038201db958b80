"""Exact spectral time evolution and Zitterbewegung analysis.

Free propagation is exact per Fourier mode: with H(k)^2 = (hbar w)^2 the
propagator is cos(w t) - i sin(w t) H / (hbar w), so every tolerance in
free runs is round-off dominated.  Sourced runs are exact too: the source
is separable in space and time, so the Duhamel integral of the source
term has a closed form per mode.  The constants m, c and hbar of H come
from the state (``SpinorField8``) and travel with it into every run,
sample and mode decomposition.

The velocity expectation <alpha>(t) over the whole box is the quantity
whose oscillatory component is the Zitterbewegung.  For photon states the
volume-integrated flux is a conserved quantity (total field momentum), so
the jitter lives in the local flux density; ``alpha_density_series``
exposes it pointwise and ``poynting_split`` gives its single-frequency
decomposition into a dc part and a doubled-frequency carrier.
``zitter_decompose`` measures the jitter frequency in closed form: uniform
samples of dc + A cos(W t + phi) obey a three-term recurrence whose one
coefficient, 4 sin^2(W dt / 2), comes from a single linear least squares.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstraintViolation, DegenerateMode, FitError
from .fields import (_ALPHA, _ALPHA_COEF, _ALPHA_COL, _BETA, FourCurrent, GridSpec,
                     SpinorField8, _alpha_density, _Moments, _sample_moments,
                     constraint_residual, extract_em_amplitudes)
from .spin import ExpectationSeries

__all__ = [
    "EvolutionRun",
    "ModeDecomposition",
    "ZitterReport",
    "PoyntingSplitReport",
    "omega_k",
    "hamiltonian_k",
    "energy_projectors",
    "evolve_free",
    "run_free",
    "evolve_sourced",
    "mode_decomposition",
    "positive_frequency_amplitudes",
    "alpha_expectation_series",
    "alpha_density_series",
    "momentum_velocity_prediction",
    "energy_expectation",
    "energy_expectation_series",
    "zitter_lines",
    "zitter_decompose",
    "poynting_split",
    "zitter_equals_poynting",
]

_CONSTRAINT_TOL = 1e-10     # sourced runs, relative to the field scale
_CONTINUITY_TOL = 1e-8
_MIN_SAMPLES = 16           # jitter analysis
_MAX_LINES = 8
_LINE_FLOOR = 1e-10


@dataclass
class EvolutionRun:
    """Immutable sample snapshots of a wave-function over a time grid; ``values``
    is a read-only view, so the one ``moments`` pass every diagnostic reads stays valid."""

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray          # (n_times, *grid, 8)
    kind: str
    mass: float
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values).view()
        self.values.flags.writeable = False

    @functools.cached_property
    def moments(self) -> _Moments:
        """Grid sums of every sample: norms, Gram matrices and momentum sums."""
        return _sample_moments(self.grid, self.values)

    def sample(self, index: int) -> SpinorField8:
        return SpinorField8(self.grid, self.values[index].copy(), self.kind, self.mass,
                            self.c, self.hbar)

    @property
    def n_samples(self) -> int:
        return len(self.times)


@dataclass
class ModeDecomposition:
    """Positive/negative-frequency amplitudes per wave vector.

    ``plus`` and ``minus`` hold the spectral amplitudes (fft convention,
    shape (*grid, 8)); ``omega`` the positive branch frequency.  A zero
    mode with zero mass has no frequency split and is stored entirely in
    ``plus`` with omega = 0 (it does not evolve).
    """

    grid: GridSpec
    plus: np.ndarray
    minus: np.ndarray
    omega: np.ndarray
    mass: float
    c: float = 1.0
    hbar: float = 1.0

    def projector_residual(self) -> float:
        """Max residual of H psi_hat(+-) = +- hbar w psi_hat(+-)."""
        spectral = _spectral(self.grid, self.mass, self.c, self.hbar)
        h_plus = spectral.apply_h(self.plus)
        h_minus = spectral.apply_h(self.minus)
        w = self.hbar * self.omega[..., None]
        scale = max(float(np.max(np.abs(self.plus))), float(np.max(np.abs(self.minus))), 1.0)
        return float(max(np.max(np.abs(h_plus - w * self.plus)),
                         np.max(np.abs(h_minus + w * self.minus)))) / scale


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
    """Agreement between the oscillatory flux of a run and the
    single-frequency split of its complex amplitudes."""

    volume_deviation: float
    pointwise_deviation: float
    volume_scale: float


def omega_k(k: np.ndarray, mass: float, c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Dispersion w(k) = c sqrt(k^2 + (m c / hbar)^2)."""
    k = np.asarray(k, dtype=float)
    k2 = np.einsum("...i,...i->...", k, k)
    return c * np.sqrt(k2 + (mass * c / hbar) ** 2)


def hamiltonian_k(k: np.ndarray, mass: float, c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Per-mode Hamiltonian c hbar alpha.k + beta' m c^2, Hermitian 8x8."""
    k = np.asarray(k, dtype=float)
    return c * hbar * np.einsum("i,iab->ab", k, _ALPHA) + mass * c * c * _BETA


def energy_projectors(k: np.ndarray, mass: float, c: float = 1.0,
                      hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors P(+-) = (I +- H/(hbar w))/2 of one mode."""
    w = float(omega_k(np.asarray(k, dtype=float), mass, c, hbar))
    if w == 0.0:
        raise DegenerateMode("k = 0 with zero mass has no energy splitting; "
                             "the constant mode does not evolve")
    h = hamiltonian_k(k, mass, c, hbar) / (hbar * w)
    eye = np.eye(8, dtype=complex)
    return 0.5 * (eye + h), 0.5 * (eye - h)


class _Spectral:
    """Wave vectors, w(k), a zero-safe 1/w and H(k) of one (grid, mass, c, hbar).

    H is the diagonal mass term plus a gather and a scale per grid axis
    (see ``_ALPHA_COL``).  Instances are shared through ``_spectral``, so
    their arrays are read-only.
    """

    def __init__(self, grid: GridSpec, mass: float, c: float, hbar: float):
        self.hbar = hbar
        self.k = grid.wave_vectors()
        self.omega = omega_k(self.k, mass, c, hbar)
        self.inv_omega = np.divide(1.0, self.omega, out=np.zeros_like(self.omega),
                                   where=self.omega > 0.0)
        self._mass_diag = mass * c * c * np.diag(_BETA).real
        self._ck = [(i, c * hbar * self.k[..., i, None]) for i in grid.spatial_axes]
        for array in (self.k, self.omega, self.inv_omega, *(ck for _, ck in self._ck)):
            array.flags.writeable = False

    def apply_h(self, hat: np.ndarray) -> np.ndarray:
        """H(k) applied to spectral amplitudes of shape (*grid, 8)."""
        out = self._mass_diag * hat
        for i, ck in self._ck:
            term = hat[..., _ALPHA_COL[i]]
            term *= _ALPHA_COEF[i]
            term *= ck
            out += term
        return out

    def propagate(self, hat: np.ndarray, h_hat: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t / hbar) on spectral amplitudes given H hat; exact, zero mode inert."""
        wt = self.omega * t
        sin_fac = np.sin(wt) * self.inv_omega / self.hbar
        return np.cos(wt)[..., None] * hat - 1j * sin_fac[..., None] * h_hat


@functools.lru_cache(maxsize=4)
def _spectral(grid: GridSpec, mass: float, c: float, hbar: float) -> _Spectral:
    return _Spectral(grid, mass, c, hbar)


def evolve_free(psi: SpinorField8, t: float) -> SpinorField8:
    """Free evolution by time t, exact up to round-off (no stepping error)."""
    spectral = _spectral(psi.grid, psi.mass, psi.c, psi.hbar)
    hat = psi.grid.fft(psi.values)
    return replace(psi, values=psi.grid.ifft(spectral.propagate(hat, spectral.apply_h(hat), t)))


def run_free(psi0: SpinorField8, times: np.ndarray) -> EvolutionRun:
    """Sample free evolution on a time grid; each sample propagated from t = 0."""
    times = np.asarray(times, dtype=float)
    grid = psi0.grid
    spectral = _spectral(grid, psi0.mass, psi0.c, psi0.hbar)
    hat0 = grid.fft(psi0.values)
    h_hat0 = spectral.apply_h(hat0)
    values = np.empty((len(times),) + psi0.values.shape, dtype=complex)
    for i, t in enumerate(times):
        values[i] = grid.ifft(spectral.propagate(hat0, h_hat0, float(t)))
    return EvolutionRun(grid, times, values, psi0.kind, psi0.mass, psi0.c, psi0.hbar)


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


def _duhamel_kernels(w: np.ndarray, omega: float, t: float):
    """Duhamel kernels of one time t, per mode frequency w, in closed form.

    With the propagator's factors cos w(t-s) and sin w(t-s)/w and the source's
    cos(omega s) and sin(omega s)/omega integrated over s in [0, t]:
    C_c = int cos.cos, C_r = int cos.sin/omega (equal to int sin/w.cos) and
    R = int sin/w.sin/omega, set to 0 at the inert w = 0 mode.  R divides by
    the larger of w and |omega|, which keeps it accurate at resonance and as
    omega -> 0, where splitting sin(omega s) into exponentials loses digits."""
    sinc = lambda x: np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    p, m = 0.5 * (omega + w) * t, 0.5 * (omega - w) * t
    re_plus, re_minus = t * np.cos(p) * sinc(m), t * np.cos(m) * sinc(p)
    cc, cr = 0.5 * (re_plus + re_minus), 0.5 * t * t * sinc(p) * sinc(m)
    w_larger = w >= abs(omega)
    num = np.where(w_larger, t * sinc(np.asarray(omega * t)) - cc, 0.5 * (re_minus - re_plus))
    den = np.where(w_larger, w * w, omega * w)
    return cc, cr, np.divide(num, den, out=np.zeros_like(num), where=w > 0.0)


def evolve_sourced(psi0: SpinorField8, source: FourCurrent, times: np.ndarray) -> EvolutionRun:
    """Evolve with a prescribed four-current source, exact up to round-off.

    Each sample is U(t) psi_hat_0 plus the Duhamel term
    int_0^t U(t-s) s_hat(s) ds / (i hbar), in closed form per mode
    (``_duhamel_kernels``).  The constrained components are checked every
    sample: they stay below ``_CONSTRAINT_TOL`` (times the field scale) when the
    initial data satisfy the Gauss law and the source satisfies continuity,
    whose residual (rho_amp + div j_amp) cos(Omega t) peaks at t = 0.
    """
    if psi0.kind != "photon":
        raise ValueError("sourced evolution is defined for photon-embedded states")
    times = np.asarray(times, dtype=float)
    grid = psi0.grid
    cont = source.continuity_residual(0.0)
    if cont > _CONTINUITY_TOL:
        raise ConstraintViolation(
            f"source continuity residual {cont:.3e} exceeds {_CONTINUITY_TOL:.1e}")

    hbar = psi0.hbar
    spectral = _spectral(grid, psi0.mass, psi0.c, hbar)
    hat0 = grid.fft(psi0.values)
    h_hat0 = spectral.apply_h(hat0)
    rho_part, j_part = _source_hat_parts(grid, source, psi0.c, hbar)
    h_rho, h_j = spectral.apply_h(rho_part), spectral.apply_h(j_part)
    values = np.empty((len(times),) + psi0.values.shape, dtype=complex)
    for idx, t in enumerate(times):
        cc, cr, r = (k[..., None] for k in _duhamel_kernels(spectral.omega, source.omega, float(t)))
        duhamel = cr * rho_part + cc * j_part - 1j * (r * h_rho + cr * h_j) / hbar
        values[idx] = grid.ifft(spectral.propagate(hat0, h_hat0, float(t)) + duhamel / (1j * hbar))
        resid = constraint_residual(values[idx])
        scale = max(float(np.max(np.abs(values[idx]))), 1.0)
        if resid > _CONSTRAINT_TOL * scale:
            raise ConstraintViolation(
                f"constrained components reached {resid:.3e} at t = {t:.6g}; "
                "check source continuity and the Gauss law of the initial data")
    return EvolutionRun(grid, times, values, psi0.kind, psi0.mass, psi0.c, psi0.hbar)


def mode_decomposition(psi: SpinorField8) -> ModeDecomposition:
    """Split a state into positive/negative-frequency spectral amplitudes."""
    grid = psi.grid
    spectral = _spectral(grid, psi.mass, psi.c, psi.hbar)
    hat = grid.fft(psi.values)
    ratio = (spectral.inv_omega / psi.hbar)[..., None] * spectral.apply_h(hat)
    plus = 0.5 * (hat + ratio)
    minus = 0.5 * (hat - ratio)
    zero = spectral.omega == 0.0
    if np.any(zero):
        # static zero mode: keep the whole amplitude on the plus side
        plus[zero] = hat[zero]
        minus[zero] = 0.0
    return ModeDecomposition(grid, plus, minus, spectral.omega, psi.mass, psi.c, psi.hbar)


def positive_frequency_amplitudes(psi: SpinorField8) -> tuple[np.ndarray, np.ndarray]:
    """Complex field amplitudes E(r), B(r) of the positive-frequency part.

    For a real monofrequency field, E(r, t) = E(r) e^{-iwt} + c.c. with
    these amplitudes.
    """
    return extract_em_amplitudes(psi.grid.ifft(mode_decomposition(psi).plus))


def alpha_expectation_series(run: EvolutionRun) -> ExpectationSeries:
    """<alpha>(t) = int psi+ alpha psi / int psi+ psi per sample (zero for
    identically-zero samples)."""
    gram = run.moments.gram
    num = np.einsum("iab,sab->si", _ALPHA, gram).real
    norm = np.trace(gram, axis1=1, axis2=2).real[:, None]
    out = np.divide(num, norm, out=np.zeros_like(num), where=norm > 0.0)
    return ExpectationSeries(run.times, out, "velocity expectation")


def alpha_density_series(run: EvolutionRun, index: tuple[int, ...]) -> ExpectationSeries:
    """The local velocity density psi+ alpha psi at one grid point, normalised
    by the (conserved) total norm; carries the pointwise jitter."""
    norms = run.moments.norms[:, None]
    density = _alpha_density(run.values[(slice(None),) + tuple(index)])
    out = np.divide(density, norms, out=np.zeros_like(density), where=norms > 0.0)
    return ExpectationSeries(run.times, out, f"velocity density at {index}")


def energy_expectation(psi: SpinorField8) -> float:
    """<H> per unit norm (zero for an identically-zero state)."""
    return float(energy_expectation_series(EvolutionRun(
        psi.grid, np.zeros(1), psi.values[None], psi.kind, psi.mass, psi.c, psi.hbar))[0])


def energy_expectation_series(run: EvolutionRun) -> np.ndarray:
    """<H> per unit norm of each sample: c hbar sum psi+ alpha'.k psi plus
    m c^2 sum_a beta'_aa G_aa, over sum |psi|^2 (zero for identically-zero samples)."""
    moments, c = run.moments, run.c
    mass_term = run.mass * c * c * np.einsum("a,saa->s", np.diag(_BETA).real, moments.gram).real
    num = c * run.hbar * moments.kinetic + mass_term
    return np.divide(num, moments.norms, out=np.zeros_like(num), where=moments.norms != 0.0)


def momentum_velocity_prediction(psi: SpinorField8) -> np.ndarray:
    """The drift part c <p H^-1> evaluated directly in mode space (zero for an
    identically-zero state)."""
    c, hbar = psi.c, psi.hbar
    spectral = _spectral(psi.grid, psi.mass, c, hbar)
    hat = psi.grid.fft(psi.values)
    weight = (np.einsum("...a,...a->...", hat.conj(), spectral.apply_h(hat)).real
              * spectral.inv_omega ** 2 / hbar)
    num = np.stack([np.sum(c * hbar * spectral.k[..., i] * weight) for i in range(3)])
    den = np.sum(np.abs(hat) ** 2)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def zitter_lines(psi: SpinorField8) -> list[tuple[np.ndarray, float, float]]:
    """Strongest ``_MAX_LINES`` (k, 2 w(k), strength) interference lines of a state.

    Strength is the product of the positive- and negative-branch
    populations at each mode (normalised by the total), the weight with
    which that mode can contribute a doubled-frequency cross term; lines
    below ``_LINE_FLOOR`` are dropped as round-off, so an identically-zero state
    has none.
    """
    dec = mode_decomposition(psi)
    pop_plus = np.sqrt(np.einsum("...a,...a->...", dec.plus.conj(), dec.plus).real)
    pop_minus = np.sqrt(np.einsum("...a,...a->...", dec.minus.conj(), dec.minus).real)
    norm = np.sum(pop_plus ** 2 + pop_minus ** 2)
    cross = np.divide(pop_plus * pop_minus, norm, out=np.zeros_like(pop_plus), where=norm != 0.0)
    k = _spectral(psi.grid, psi.mass, psi.c, psi.hbar).k
    flat = np.argsort(cross.reshape(-1))[::-1][:_MAX_LINES]
    lines = []
    for fi in flat:
        s = float(cross.reshape(-1)[fi])
        if s <= _LINE_FLOOR:
            break
        idx = np.unravel_index(fi, cross.shape)
        lines.append((k[idx], 2.0 * float(dec.omega[idx]), s))
    return lines


def zitter_decompose(run: EvolutionRun,
                     series: ExpectationSeries | None = None) -> ZitterReport:
    """Split a velocity series into dc and oscillation and measure the frequency.

    The dc part is the time mean, compared against the mode-space drift
    prediction c <p H^-1>.  The frequency W of the largest-amplitude
    component comes from one linear least squares on its second
    differences, -4 sin^2(W dt / 2) times the samples plus a constant, and
    is compared with 2 w(k) of the strongest interference line.  Raises
    FitError below ``_MIN_SAMPLES`` samples or two periods, or when several
    distinct lines are comparably strong (consult ``zitter_lines`` then).
    """
    if run.n_samples < _MIN_SAMPLES:
        raise FitError(f"need at least {_MIN_SAMPLES} samples, got {run.n_samples}")
    if series is None:
        series = alpha_expectation_series(run)
    psi0 = run.sample(0)
    dc = series.values.mean(axis=0)
    osc = series.values - dc
    amplitude = np.sqrt(2.0 * np.mean(osc ** 2, axis=0))
    prediction = momentum_velocity_prediction(psi0)

    lines = zitter_lines(psi0)
    if not lines:
        # single energy branch everywhere: nothing oscillates, nothing to fit
        return ZitterReport(dc, prediction, amplitude, 0.0, 0.0, 0.0, [])
    strongest = lines[0][2]
    distinct = {round(w, 9) for _, w, s in lines if s > 0.01 * strongest}
    if len(distinct) > 1:
        raise FitError(
            f"{len(distinct)} comparable interference lines; no single dominant mode")
    expected = lines[0][1]

    component = int(np.argmax(amplitude))
    span = series.times[-1] - series.times[0]
    if expected * span < 4.0 * np.pi:
        raise FitError("run shorter than two oscillation periods of the dominant line")

    # samples of dc + A cos(W t + phi) obey x[n+1] - 2 x[n] + x[n-1] = -q x[n] + const
    # with q = 4 sin^2(W dt / 2); clipping q to [0, 4] maps any series into [0, pi / dt]
    x = osc[:, component]
    design = np.stack([x[1:-1], np.ones(len(x) - 2)], axis=1)
    slope = np.linalg.lstsq(design, x[2:] - 2.0 * x[1:-1] + x[:-2], rcond=None)[0][0]
    q = min(max(-slope, 0.0), 4.0)
    fitted = 2.0 / (series.times[1] - series.times[0]) * float(np.arcsin(np.sqrt(q) / 2.0))
    rel = abs(fitted - expected) / expected
    return ZitterReport(dc, prediction, amplitude, fitted, expected, rel, lines)


def poynting_split(e_amp: np.ndarray, b_amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the flux of a single-frequency field into dc and carrier parts.

    For E = E(r) e^{-iwt} + c.c. (same for B), the flux integrand
    psi+ alpha psi / 2 equals dc + osc e^{-2iwt} + conj(osc) e^{+2iwt}
    with dc = E* x B + E x B* (real) and osc = E x B.
    """
    e_amp = np.asarray(e_amp, dtype=complex)
    b_amp = np.asarray(b_amp, dtype=complex)
    dc = (np.cross(e_amp.conj(), b_amp) + np.cross(e_amp, b_amp.conj())).real
    osc = np.cross(e_amp, b_amp)
    return dc, osc


def zitter_equals_poynting(run: EvolutionRun, omega: float,
                           e_amp: np.ndarray | None = None,
                           b_amp: np.ndarray | None = None) -> PoyntingSplitReport:
    """Check that the oscillatory velocity expectation is the oscillatory flux.

    Side A: <alpha>(t) (int psi+ psi) / 2 with its time mean removed.
    Side B: the volume integral of the carrier terms of ``poynting_split``
    evaluated per sample.  Also reports the largest pointwise deviation of
    the reconstruction dc + osc e^{-2iwt} + c.c. from psi+ alpha psi / 2.
    """
    if e_amp is None or b_amp is None:
        e_amp, b_amp = positive_frequency_amplitudes(run.sample(0))
    dc, osc = poynting_split(e_amp, b_amp)
    dv = run.grid.cell_volume
    grid_axes = tuple(range(run.grid.ndim))
    osc_volume = np.sum(osc, axis=grid_axes) * dv

    n = run.n_samples
    side_a = np.zeros((n, 3))
    pointwise_dev = 0.0
    for it, t in enumerate(run.times):
        values = run.values[it]
        density = 0.5 * _alpha_density(values)
        side_a[it] = np.sum(density, axis=grid_axes) * dv
        carrier = np.exp(-2j * omega * t)
        recon = dc + (osc * carrier).real * 2.0
        pointwise_dev = max(pointwise_dev, float(np.max(np.abs(recon - density))))
    side_a -= side_a.mean(axis=0)
    side_b = np.stack([(osc_volume * np.exp(-2j * omega * t)).real * 2.0 for t in run.times])
    side_b -= side_b.mean(axis=0)
    scale = max(float(np.max(np.abs(side_a))), float(np.max(np.abs(side_b))),
                float(np.abs(osc_volume).max()) if osc_volume.size else 0.0)
    dev = float(np.max(np.abs(side_a - side_b)))
    return PoyntingSplitReport(dev, pointwise_dev, scale)

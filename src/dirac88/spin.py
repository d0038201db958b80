"""Spin operators of the 8x8 wave equation and angular-momentum diagnostics.

Two inequivalent spin operators solve the same operator evolution identity
dS/dt = -c alpha x p: the spin-1/2 blocks (theta on the diagonal, kappa
off it) and the spin-1 doubled-theta form.  Which applies is decided by
the photon constraint: the spin-1 operator never touches the two
constrained components, the spin-1/2 one leaks into them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import AlgebraReport, generators, levi_civita, transformed_dirac88
from .fields import PHOTON, SpinorField8, constraint_residual

__all__ = [
    "SpinOperator",
    "ExpectationSeries",
    "SpinSelectionReport",
    "spin_half",
    "spin_one",
    "verify_spin_evolution",
    "closure_deviation",
    "photon_spin_selection",
    "angular_momentum_series",
    "write_angular_momentum_csv",
]

_EPS = levi_civita()


@dataclass(frozen=True)
class SpinOperator:
    """Three Hermitian 8x8 components, in units of hbar."""

    components: np.ndarray
    label: str
    hbar: float = 1.0


@dataclass
class ExpectationSeries:
    """Sampled 3-vector expectation values over time."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


@dataclass(frozen=True)
class SpinSelectionReport:
    """Largest leakage into the constrained components per operator, with a
    witness for the operator that fails to preserve them."""

    spin_one_max: float
    spin_half_max: float
    witness_component: int
    witness_row: int
    witness_value: complex

    @property
    def selects_spin_one(self) -> bool:
        return self.spin_one_max == 0.0 and self.spin_half_max > 0.0


def spin_half(hbar: float = 1.0) -> SpinOperator:
    """S_i = (hbar/2) [[theta_i, kappa_i], [kappa_i, theta_i]]."""
    kappa, theta, _ = generators()
    comps = np.stack([np.block([[t, k], [k, t]]) for k, t in zip(kappa, theta)])
    return SpinOperator(0.5 * hbar * comps, "spin-1/2", hbar)


def spin_one(hbar: float = 1.0) -> SpinOperator:
    """S_i = hbar diag(theta_i, theta_i)."""
    _, theta, _ = generators()
    z4 = np.zeros((4, 4), dtype=complex)
    comps = np.stack([np.block([[t, z4], [z4, t]]) for t in theta])
    return SpinOperator(hbar * comps, "spin-1", hbar)


def verify_spin_evolution(op: SpinOperator) -> AlgebraReport:
    """Check the momentum-independent content of dS/dt = -c alpha x p.

    Substituting H = c alpha.p + beta' m c^2 reduces the identity to
    (i/hbar)[alpha_k, S_i] = -eps_ijk alpha_j for every (i, k), together
    with [beta', S_i] = 0 so the mass term drops out.  Deviation is the
    max over all component pairs.
    """
    alpha, beta = transformed_dirac88()
    hbar = op.hbar
    dev = 0.0
    for i in range(3):
        s_i = op.components[i]
        for k in range(3):
            lhs = (1j / hbar) * (alpha[k] @ s_i - s_i @ alpha[k])
            rhs = -np.einsum("j,jml->ml", _EPS[i, :, k], alpha)
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
        dev = max(dev, float(np.max(np.abs(beta @ s_i - s_i @ beta))))
    return AlgebraReport(f"{op.label} satisfies dS/dt = -c alpha x p", dev, 0.0, dev <= 0.0)


def closure_deviation(op: SpinOperator) -> float:
    """Max deviation of [S_i, S_j] = i hbar eps_ijk S_k."""
    dev = 0.0
    for i in range(3):
        for j in range(3):
            lhs = op.components[i] @ op.components[j] - op.components[j] @ op.components[i]
            rhs = 1j * op.hbar * np.einsum("k,kml->ml", _EPS[i, j], op.components)
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return dev


def photon_spin_selection(psi: SpinorField8) -> SpinSelectionReport:
    """Apply both spin operators to a photon-embedded state and measure how
    much each writes into the constrained components 0 and 4."""
    if psi.kind != PHOTON:
        raise ValueError("selection argument applies to photon-embedded states")
    values = psi.values
    one_max = 0.0
    half_max = 0.0
    witness = (0, 0, 0.0 + 0.0j)
    one, half = spin_one(), spin_half()
    for i in range(3):
        out1 = np.einsum("ab,...b->...a", one.components[i], values)
        outh = np.einsum("ab,...b->...a", half.components[i], values)
        one_max = max(one_max, constraint_residual(out1))
        for row in (0, 4):
            m = float(np.max(np.abs(outh[..., row])))
            if m > half_max:
                half_max = m
                flat = np.argmax(np.abs(outh[..., row]))
                witness = (i, row, complex(outh[..., row].reshape(-1)[flat]))
    return SpinSelectionReport(one_max, half_max, witness[0], witness[1], witness[2])


def _warn_if_packet_too_wide(run):
    """The box-centred coordinate wraps at the boundary; warn when the
    density RMS width exceeds L/8 on some axis (translation-invariant
    states are exempt, their width is a matter of convention)."""
    density = np.sum(np.abs(run.values[0]) ** 2, axis=-1)
    total = float(np.sum(density))
    peak = float(np.max(density))
    if total == 0.0 or (peak - float(np.min(density))) < 1e-6 * peak:
        return
    for axis in range(run.grid.ndim):
        n = run.grid.points[axis]
        length = run.grid.lengths[axis]
        marginal = np.sum(density, axis=tuple(a for a in range(run.grid.ndim) if a != axis))
        angles = 2.0 * np.pi * np.arange(n) / n
        centre = np.arctan2(np.sum(marginal * np.sin(angles)), np.sum(marginal * np.cos(angles)))
        dist = (angles - centre + np.pi) % (2.0 * np.pi) - np.pi
        width = np.sqrt(np.sum(marginal * dist ** 2) / total) * length / (2.0 * np.pi)
        if width > length / 8.0:
            warnings.warn(
                f"density RMS width {width:.3g} exceeds L/8 = {length / 8.0:.3g} on a "
                "grid axis; orbital angular momentum picks up wrap-around error "
                "from the box-centred coordinate", stacklevel=3)
            return


def angular_momentum_series(run) -> tuple[ExpectationSeries, ExpectationSeries, ExpectationSeries]:
    """Orbital, spin, and total angular-momentum expectations over a run.

    <L> integrates psi+ (r x p) psi with box-centred coordinates and the
    spectral momentum p = hbar k; <S> uses the kind-appropriate operator
    (spin-1 for photon runs, spin-1/2 otherwise).  Both take hbar from the
    run and are normalised by the wave-function norm (zero for
    identically-zero samples).  Warns when a localised packet reaches the
    box boundary (wrap-around corrupts <L>).
    """
    hbar, moments = run.hbar, run.moments
    operator = spin_one(hbar) if run.kind == PHOTON else spin_half(hbar)
    _warn_if_packet_too_wide(run)
    # L_i = eps_ijk <r_j p_k> with p = hbar k; int psi+ S_i psi = sum_ab (S_i)_ab G_ab
    norm = np.trace(moments.gram, axis1=1, axis2=2).real[:, None]
    orbital = hbar * np.einsum("ijk,sjk->si", _EPS, moments.rk)
    orbital = np.divide(orbital, norm, out=np.zeros_like(orbital), where=norm != 0.0)
    spin = np.einsum("iab,sab->si", operator.components, moments.gram).real
    spin = np.divide(spin, norm, out=np.zeros_like(spin), where=norm != 0.0)
    total = orbital + spin
    return (ExpectationSeries(run.times, orbital, "orbital"),
            ExpectationSeries(run.times, spin, "spin"),
            ExpectationSeries(run.times, total, "total"))


def write_angular_momentum_csv(path, orbital: ExpectationSeries, spin: ExpectationSeries,
                               total: ExpectationSeries):
    """t, Lx, Ly, Lz, Sx, Sy, Sz, Jx, Jy, Jz rows."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "Lx", "Ly", "Lz", "Sx", "Sy", "Sz", "Jx", "Jy", "Jz"])
        for i, t in enumerate(orbital.times):
            row = [f"{t:.17g}"]
            for series in (orbital, spin, total):
                row.extend(f"{x:.17g}" for x in series.values[i])
            writer.writerow(row)

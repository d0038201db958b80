"""Spin operators of the 8x8 wave equation and angular-momentum diagnostics.

Two inequivalent spin operators solve the same operator evolution identity
dS/dt = -c alpha x p: the spin-1/2 blocks (theta on the diagonal, kappa
off it) and the spin-1 doubled-theta form.  Which applies is decided by
the photon constraint: the spin-1 operator never touches the two
constrained components, the spin-1/2 one leaks into them.  Both are fixed
matrices in units of hbar, with eigenvalues +-1/2 and {-1, 0, 1}; a run's
own hbar scales them where an expectation is taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraReport, closure_deviation, generators, levi_civita,
                      transformed_dirac88)
from .fields import PHOTON, SpinorField8, constraint_residual

__all__ = [
    "SpinOperator",
    "SpinSelectionReport",
    "spin_half",
    "spin_one",
    "verify_spin_evolution",
    "photon_spin_selection",
    "angular_momentum_series",
]

_EPS = levi_civita()


@dataclass(frozen=True)
class SpinOperator:
    """Three Hermitian 8x8 components, in units of hbar."""

    components: np.ndarray
    label: str


@dataclass(frozen=True)
class SpinSelectionReport:
    """Largest leakage into the constrained components per operator, with a
    witness for the operator that fails to preserve them."""

    spin_one_max: float
    spin_half_max: float
    witness_component: int
    witness_row: int
    witness_value: complex


def spin_half() -> SpinOperator:
    """S_i = (1/2) [[theta_i, kappa_i], [kappa_i, theta_i]], eigenvalues +-1/2."""
    kappa, theta, _ = generators()
    comps = np.stack([np.block([[t, k], [k, t]]) for k, t in zip(kappa, theta)])
    return SpinOperator(0.5 * comps, "spin-1/2")


def spin_one() -> SpinOperator:
    """S_i = diag(theta_i, theta_i), eigenvalues {-1, 0, 1}."""
    _, theta, _ = generators()
    z4 = np.zeros((4, 4), dtype=complex)
    comps = np.stack([np.block([[t, z4], [z4, t]]) for t in theta])
    return SpinOperator(comps, "spin-1")


def verify_spin_evolution(op: SpinOperator) -> AlgebraReport:
    """Check the momentum-independent content of dS/dt = -c alpha x p.

    Substituting H = c alpha.p + beta' m c^2 reduces the identity, with S in
    units of hbar, to i[alpha_k, S_i] = -eps_ijk alpha_j for every (i, k),
    that is the closure [alpha_k, S_i] = i eps_kij alpha_j, together with
    [beta', S_i] = 0 so the mass term drops out.  Deviation is the max over
    all component pairs.
    """
    alpha, beta = transformed_dirac88()
    dev = max(closure_deviation(alpha, op.components, alpha),
              *(float(np.max(np.abs(beta @ s_i - s_i @ beta))) for s_i in op.components))
    return AlgebraReport(f"{op.label} satisfies dS/dt = -c alpha x p", dev, 0.0, dev <= 0.0)


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
    """The box-centred coordinate wraps at the boundary; warn when the first
    sample's density RMS width exceeds L/8 on some axis (translation-invariant
    states are exempt, their width is a matter of convention, and so are 1-D
    grids, where r x p needs two grid axes and <L> is identically 0)."""
    density = run.moments.density0
    total = float(np.sum(density))
    peak = float(np.max(density))
    if run.grid.ndim < 2 or total == 0.0 or (peak - float(np.min(density))) < 1e-6 * peak:
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


def angular_momentum_series(run) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbital, spin, and total angular-momentum expectations over a run,
    each of shape (samples, 3) over ``run.times``.

    <L> integrates psi+ (r x p) psi with box-centred coordinates and the
    spectral momentum p = hbar k; <S> uses the kind-appropriate operator
    (spin-1 for photon runs, spin-1/2 otherwise) times hbar.  Both take hbar
    from the run and are normalised by the wave-function norm (zero for
    identically-zero samples, NaN for NaN ones).  Warns when a localised
    packet reaches the boundary of a 2-D or 3-D box (wrap-around corrupts <L>).
    """
    hbar, moments = run.hbar, run.measured(orbital=True)
    spin_op = (spin_one() if run.kind == PHOTON else spin_half()).components
    _warn_if_packet_too_wide(run)
    # L_i = eps_ijk <r_j p_k> with p = hbar k; int psi+ S_i psi = hbar sum_ab (S_i)_ab G_ab
    orbital = moments.per_norm(hbar * np.einsum("ijk,sjk->si", _EPS, moments.rk))
    spin = moments.per_norm(hbar * np.einsum("iab,sab->si", spin_op, moments.gram).real)
    return orbital, spin, orbital + spin


"""Boosts of the eight-component wave-function, four-vectors, and fields.

All transformations are passive (frame change): a boost with velocity v
re-expresses the same physics in the frame moving at +v.  One convention
fixes everything: the four-vector boost below, under which a photon
four-momentum along the boost picks up the Doppler factor gamma(1 - beta),
and plane-wave field amplitudes must pick up the same factor.

Three independent routes transform field amplitudes:

* ``em_wavefunction_transform``: the 8x8 matrix acting on the embedded
  wave-function.  The E -+ iB halves rotate by exp(-+ phi n.theta), built
  from the rotation generators; the two constrained components are left
  exactly invariant.  Through the chiral intertwiner this realises the
  block law diag(L^-1 (x) L, L (x) L^-1) (it coincides with that literal
  Kronecker form for boosts along x and z, which
  ``tests/test_lorentz.py::test_block_law_coincides_on_x_and_z`` pins).
* ``tensor_boost_oracle``: conjugates the 4x4 field tensor by the
  complex-orthogonal boost exp(phi n.kappa) in (ict, x, y, z) coordinates.
* ``closed_form_field_boost``: the textbook E/B formulas, the arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import generators, levi_civita, pauli_matrices
from .errors import ConstraintViolation
from .fields import constraint_residual, field_tensor

__all__ = [
    "Boost",
    "boost_matrix_L",
    "four_vector_boost",
    "em_wavefunction_transform",
    "em_transform_matrix",
    "electron_transform_matrix",
    "chiral_intertwiner",
    "current_coupling_matrix",
    "nonmomentum_em",
    "nonmomentum_boost_residual",
    "tensor_boost_oracle",
    "closed_form_field_boost",
]

_EPS = levi_civita()
_CONSTRAINT_TOL = 1e-10     # boost leakage, relative to the field scale


@dataclass(frozen=True)
class Boost:
    """Boost velocity (units of c) and derived factors."""

    velocity: tuple[float, float, float]
    c: float = 1.0

    def __post_init__(self):
        if self.speed >= self.c:
            raise ValueError(f"|v| = {self.speed} must be below c = {self.c}")

    @property
    def v(self) -> np.ndarray:
        return np.asarray(self.velocity, dtype=float)

    @property
    def beta(self) -> np.ndarray:
        return self.v / self.c

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - float(self.beta @ self.beta))

    @property
    def rapidity(self) -> float:
        return float(np.arctanh(self.speed / self.c))

    @property
    def direction(self) -> np.ndarray:
        if self.speed == 0.0:
            return np.zeros(3)
        return self.v / self.speed


def boost_matrix_L(boost: Boost) -> np.ndarray:
    """Hermitian positive 2x2 spinor boost, sqrt((g+1)/2) + sigma.(g v)/(c sqrt(2(1+g)))."""
    g = boost.gamma
    sig = np.stack(pauli_matrices())
    return (np.sqrt((g + 1) / 2) * np.eye(2)
            + np.einsum("k,kij->ij", boost.v, sig) * (g / (boost.c * np.sqrt(2 * (1 + g)))))


def four_vector_boost(x: np.ndarray, boost: Boost) -> np.ndarray:
    """Standard passive boost of (x0, x); preserves the Minkowski norm."""
    arr = np.asarray(x, dtype=float)
    beta = boost.beta
    b2 = float(beta @ beta)
    if b2 == 0.0:
        return arr.copy()
    g = boost.gamma
    t = g * (arr[0] - beta @ arr[1:])
    s = arr[1:] + ((g - 1) * (arr[1:] @ beta) / b2 - g * arr[0]) * beta
    return np.concatenate([[t], s])


def _rotation_exp(n: np.ndarray, phi: float) -> np.ndarray:
    """exp(phi n.theta) on 4 components (scalar slot inert): Rodrigues form."""
    _, theta, _ = generators()
    g = np.einsum("k,kij->ij", n, theta)
    return np.eye(4, dtype=complex) + np.sinh(phi) * g + (np.cosh(phi) - 1.0) * (g @ g)


def em_transform_matrix(boost: Boost) -> np.ndarray:
    """The 8x8 electromagnetic boost on the embedded basis.

    The halves X1 = (0, E) and X2 = (0, iB) combine into X1 -+ X2 =
    (0, E -+ iB), which rotate by exp(+-phi n.theta); components 0 and 4
    are untouched for every velocity, which is the transversality
    constraint surviving the transformation.
    """
    if boost.speed == 0.0:
        return np.eye(8, dtype=complex)
    n = boost.direction
    phi = boost.rapidity
    a = _rotation_exp(n, +phi)   # acts on X1 - X2
    b = _rotation_exp(n, -phi)   # acts on X1 + X2
    return 0.5 * np.block([[a + b, b - a], [b - a, a + b]])


def em_wavefunction_transform(psi: np.ndarray, boost: Boost) -> np.ndarray:
    """Boost photon-embedded wave-function values, shape (..., 8), per point or mode.

    Raises ConstraintViolation if the output grows components 0/4 past
    ``_CONSTRAINT_TOL`` relative to the field scale (a convention or
    implementation error; the law preserves them identically).
    """
    values = np.einsum("ab,...b->...a", em_transform_matrix(boost), np.asarray(psi, dtype=complex))
    resid = constraint_residual(values)
    scale = float(np.max(np.abs(values)))
    if resid > _CONSTRAINT_TOL * max(scale, 1.0):
        raise ConstraintViolation(
            f"boost leaked {resid:.3e} into the constrained components")
    return values


def current_coupling_matrix() -> np.ndarray:
    """The 4x4 matrix T coupling (c rho, -iJ) into the chiral source term."""
    return np.array([
        [1, 0, 0, -1j],
        [0, -1j, 1, 0],
        [0, -1j, -1, 0],
        [1, 0, 0, 1j],
    ], dtype=complex)


def chiral_intertwiner() -> np.ndarray:
    """The change of basis V from the embedded basis to the chiral basis.

    V = [[-T Q, T Q], [-T, -T]] with Q = diag(-1, 1, 1, 1); it maps
    alpha'_i to diag(-I2 (x) sigma_i, I2 (x) sigma_i) and beta' to the
    off-diagonal gamma^0, and its first four columns are pinned by the
    four-current coupling.  V / 2 is unitary.
    """
    t = current_coupling_matrix()
    q = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
    tq = t @ q
    return np.block([[-tq, tq], [-t, -t]])


def _chiral_law(boost: Boost, photon: bool) -> np.ndarray:
    """The chiral-basis block law diag(X (x) L, Y (x) L^-1), with (X, Y) =
    (L^-1, L) for the electromagnetic law and (I2, I2) for the electron's."""
    el = boost_matrix_L(boost)
    eli = np.linalg.inv(el)
    x, y = (eli, el) if photon else (np.eye(2), np.eye(2))
    z4 = np.zeros((4, 4), dtype=complex)
    return np.block([[np.kron(x, el), z4], [z4, np.kron(y, eli)]])


def _embedded_law(boost: Boost, photon: bool) -> np.ndarray:
    """``_chiral_law`` mapped to the embedded basis by the chiral intertwiner.

    The electromagnetic one coincides with ``em_transform_matrix`` for boosts
    along x or z only: for other directions the mixed Kronecker pairing is no
    group homomorphism, and the theta-rotation form is the one meeting the
    tensor and closed-form routes."""
    v = chiral_intertwiner()
    return v.conj().T @ _chiral_law(boost, photon) @ v / 4.0


def electron_transform_matrix(boost: Boost) -> np.ndarray:
    """The 8x8 electron boost diag(I2 (x) L, I2 (x) L^-1) in the chiral
    basis, expressed on the embedded basis."""
    return _embedded_law(boost, photon=False)


def nonmomentum_em(rho: float, current: np.ndarray, c: float = 1.0,
                   hbar: float = 1.0) -> np.ndarray:
    """The momentum-independent source term Y built from the four-current:
    Y = -(4 pi hbar / c) diag(T, T) [c rho, -iJ, -c rho, -iJ]."""
    t = current_coupling_matrix()
    u = np.concatenate([[c * rho], -1j * np.asarray(current, dtype=complex)])
    q = np.diag([-1.0, 1.0, 1.0, 1.0])
    stacked = np.concatenate([u, q @ u])
    z4 = np.zeros((4, 4), dtype=complex)
    return -(4 * np.pi * hbar / c) * (np.block([[t, z4], [z4, t]]) @ stacked)


def nonmomentum_boost_residual(rho: float, current: np.ndarray, boost: Boost) -> float:
    """Measured residual of the claim that Y built from the boosted
    four-current equals the chiral block law applied to Y, in the boost's c
    and hbar = 1.

    Reported, not asserted: with the intertwiner pinned by the same
    coupling matrix, the identity holds only on special axes.
    """
    c = boost.c
    fc = four_vector_boost(np.concatenate([[c * rho], np.asarray(current, float)]), boost)
    y_boosted = nonmomentum_em(fc[0] / c, fc[1:], c=c)
    y_law = _chiral_law(boost, photon=True) @ nonmomentum_em(rho, current, c=c)
    return float(np.max(np.abs(y_boosted - y_law)))


def tensor_boost_oracle(e: np.ndarray, b: np.ndarray, boost: Boost) -> tuple[np.ndarray, np.ndarray]:
    """Boost pointwise field values through the 4x4 tensor route.

    Builds F on the generator basis, moves to (ict, x, y, z) coordinates
    where the boost is the complex-orthogonal exp(phi n.kappa), conjugates,
    and reads E and B back off the tensor.
    """
    if boost.speed == 0.0:
        lam = np.eye(4, dtype=complex)
    else:
        kappa, _, _ = generators()
        g = np.einsum("k,kij->ij", boost.direction, kappa)
        phi = boost.rapidity
        lam = np.eye(4) + np.sinh(phi) * g + (np.cosh(phi) - 1.0) * (g @ g)
    s = np.diag([1j, 1.0, 1.0, 1.0])
    s_inv = np.diag([-1j, 1.0, 1.0, 1.0])
    f_ict = s @ field_tensor(e, b) @ s.T
    f_ict = lam @ f_ict @ lam.T
    f_new = s_inv @ f_ict @ s_inv.T
    e_out = np.array([-f_new[0, i] for i in (1, 2, 3)])
    b_out = -0.5 * np.array([np.einsum("ml,ml->", _EPS[j], f_new[1:, 1:]) for j in range(3)])
    return e_out, b_out


def closed_form_field_boost(e: np.ndarray, b: np.ndarray, boost: Boost) -> tuple[np.ndarray, np.ndarray]:
    """Textbook passive field boost: E'_perp = gamma(E + beta x B)_perp etc."""
    e = np.asarray(e, dtype=complex)
    b = np.asarray(b, dtype=complex)
    beta = boost.beta
    b2 = float(beta @ beta)
    if b2 == 0.0:
        return e.copy(), b.copy()
    g = boost.gamma
    e_out = g * (e + np.cross(beta, b)) - (g * g / (g + 1)) * beta * (beta @ e)
    b_out = g * (b - np.cross(beta, e)) - (g * g / (g + 1)) * beta * (beta @ b)
    return e_out, b_out

"""Boosts of the eight-component wave-function, four-vectors, and fields.

All transformations are passive (frame change): a boost with velocity
beta, in units of c, re-expresses the same physics in the frame moving at
+beta.  One convention fixes everything: the four-vector boost below, under
which a photon four-momentum along the boost picks up the Doppler factor
gamma(1 - beta), and plane-wave field amplitudes must pick up the same
factor.  Every law is one formula in beta; at beta = 0 it is the identity.

Three independent routes transform field amplitudes:

* ``em_wavefunction_transform``: the 8x8 matrix acting on the embedded
  wave-function.  The E -+ iB halves rotate by exp(-+ phi n.theta), built
  from the rotation generators; the two constrained components are left
  exactly invariant.  Through the chiral intertwiner this realises the
  block law diag(L^-1 (x) L, L (x) L^-1).  It coincides with that literal
  Kronecker form for boosts along x and z only, which
  ``tests/test_lorentz.py::test_block_law_coincides_on_x_and_z`` pins: for
  other directions the mixed Kronecker pairing is no group homomorphism.
* ``tensor_boost_oracle``: conjugates the 4x4 field tensor by the
  complex-orthogonal boost exp(phi n.kappa) in (ict, x, y, z) coordinates.
* ``closed_form_field_boost``: the textbook E/B formulas, the arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import generators, levi_civita, pauli_matrices
from .errors import ConstraintViolation
from .fields import _first_violation, _sizes, field_tensor

__all__ = [
    "Boost",
    "boost_matrix_L",
    "four_vector_boost",
    "em_wavefunction_transform",
    "em_transform_matrix",
    "electron_transform_matrix",
    "chiral_intertwiner",
    "current_coupling_matrix",
    "tensor_boost_oracle",
    "closed_form_field_boost",
]

_EPS = levi_civita()


@dataclass(frozen=True)
class Boost:
    """Boost velocity in units of c (3 finite components, |beta| < 1) and its derived factors."""

    beta: tuple[float, float, float]

    def __post_init__(self):
        if np.shape(self.beta) != (3,) or not self.speed < 1.0:   # NaN fails too
            raise ValueError(f"beta must be 3 finite components with |beta| < 1, got {self.beta!r}")

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.beta))

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - float(np.dot(self.beta, self.beta)))

    @property
    def rapidity(self) -> float:
        return float(np.arctanh(self.speed))

    @property
    def direction(self) -> np.ndarray:
        if self.speed == 0.0:
            return np.zeros(3)
        return np.divide(self.beta, self.speed)


def boost_matrix_L(boost: Boost) -> np.ndarray:
    """Hermitian positive 2x2 spinor boost, sqrt((g+1)/2) + sigma.(g beta)/sqrt(2(1+g))."""
    g = boost.gamma
    sig = np.stack(pauli_matrices())
    return (np.sqrt((g + 1) / 2) * np.eye(2)
            + np.einsum("k,kij->ij", boost.beta, sig) * (g / np.sqrt(2 * (1 + g))))


def four_vector_boost(x: np.ndarray, boost: Boost) -> np.ndarray:
    """Standard passive boost of (x0, x); preserves the Minkowski norm."""
    arr = np.asarray(x, dtype=float)
    beta = np.asarray(boost.beta, dtype=float)
    g = boost.gamma
    t = g * (arr[0] - beta @ arr[1:])
    s = arr[1:] + (g * g / (g + 1) * (arr[1:] @ beta) - g * arr[0]) * beta
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
    n = boost.direction
    phi = boost.rapidity
    a = _rotation_exp(n, +phi)   # acts on X1 - X2
    b = _rotation_exp(n, -phi)   # acts on X1 + X2
    return 0.5 * np.block([[a + b, b - a], [b - a, a + b]])


def em_wavefunction_transform(psi: np.ndarray, boost: Boost) -> np.ndarray:
    """Boost photon-embedded wave-function values, shape (..., 8), per point or mode.

    Raises ConstraintViolation if the output grows components 0/4 past the
    constraint's relative tolerance (``fields._first_violation``; a convention or
    implementation error, the law preserves them identically), or NaN there.
    """
    values = np.einsum("ab,...b->...a", em_transform_matrix(boost), np.asarray(psi, dtype=complex))
    (resid,), (top,) = _sizes(values[None])
    if _first_violation(resid, top) is not None:
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


def electron_transform_matrix(boost: Boost) -> np.ndarray:
    """The 8x8 electron boost diag(I2 (x) L, I2 (x) L^-1) in the chiral
    basis, mapped to the embedded basis by the chiral intertwiner."""
    el = boost_matrix_L(boost)
    z4 = np.zeros((4, 4), dtype=complex)
    law = np.block([[np.kron(np.eye(2), el), z4], [z4, np.kron(np.eye(2), np.linalg.inv(el))]])
    v = chiral_intertwiner()
    return v.conj().T @ law @ v / 4.0


def tensor_boost_oracle(e: np.ndarray, b: np.ndarray, boost: Boost) -> tuple[np.ndarray, np.ndarray]:
    """Boost pointwise field values through the 4x4 tensor route.

    Builds F on the generator basis, moves to (ict, x, y, z) coordinates
    where the boost is the complex-orthogonal exp(phi n.kappa), conjugates,
    and reads E and B back off the tensor.
    """
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
    beta = np.asarray(boost.beta, dtype=float)
    g = boost.gamma
    e_out = g * (e + np.cross(beta, b)) - (g * g / (g + 1)) * beta * (beta @ e)
    b_out = g * (b - np.cross(beta, e)) - (g * g / (g + 1)) * beta * (beta @ b)
    return e_out, b_out

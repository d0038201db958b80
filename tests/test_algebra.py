import numpy as np
import pytest

from dirac88.algebra import (dirac44, dirac88, gamma88, generators,
                             pauli_matrices, transformed_dirac88, unitary_u,
                             verify_identities)


def test_pauli_entries_and_products():
    sx, sy, sz = pauli_matrices()
    assert sz[0, 0] == 1 and sz[1, 1] == -1
    assert np.array_equal(sx @ sx, np.eye(2))
    assert np.array_equal(sx @ sy, 1j * sz)


def test_dirac44_blocks_and_conditions():
    alpha, beta = dirac44()
    sx, _, _ = pauli_matrices()
    assert np.array_equal(alpha[0][0:2, 2:4], sx)
    assert np.array_equal(beta @ beta, np.eye(4))
    for a in alpha:
        assert np.max(np.abs(a @ beta + beta @ a)) == 0.0


def test_dirac88_kronecker_structure():
    alpha8, beta8 = dirac88()
    alpha4, beta4 = dirac44()
    assert np.array_equal(alpha8[0][:4, :4], alpha4[0])
    assert np.array_equal(alpha8[0][4:, 4:], alpha4[0])
    assert np.max(np.abs(alpha8[0][:4, 4:])) == 0.0
    for i in range(3):
        for j in range(3):
            anti = alpha8[i] @ alpha8[j] + alpha8[j] @ alpha8[i]
            target = 2.0 * np.eye(8) if i == j else 0.0
            assert np.max(np.abs(anti - target)) == 0.0
        assert np.max(np.abs(alpha8[i] @ beta8 + beta8 @ alpha8[i])) == 0.0
    assert np.array_equal(beta8 @ beta8, np.eye(8))


def test_generator_entries_as_printed():
    kappa, theta, eta = generators()
    assert kappa[0][0, 1] == -1j and kappa[0][1, 0] == 1j
    assert kappa[1][0, 2] == -1j and kappa[2][0, 3] == -1j
    assert theta[2][1, 2] == -1j and theta[2][2, 1] == 1j
    assert theta[0][2, 3] == -1j and theta[0][3, 2] == 1j
    assert theta[1][1, 3] == 1j and theta[1][3, 1] == -1j
    assert np.array_equal(eta, np.diag([1, -1, -1, -1]))


def test_kappa_commutator_closes_on_theta():
    # oracle: build both generators literally and take the 4x4 product
    k1 = np.zeros((4, 4), dtype=complex)
    k1[0, 1], k1[1, 0] = -1j, 1j
    k2 = np.zeros((4, 4), dtype=complex)
    k2[0, 2], k2[2, 0] = -1j, 1j
    t3 = np.zeros((4, 4), dtype=complex)
    t3[1, 2], t3[2, 1] = -1j, 1j
    assert np.max(np.abs(k1 @ k2 - k2 @ k1 - 1j * t3)) == 0.0
    kappa, theta, _ = generators()
    assert np.max(np.abs(kappa[0] @ kappa[1] - kappa[1] @ kappa[0] - 1j * theta[2])) == 0.0
    assert np.max(np.abs(theta[0] @ theta[1] - theta[1] @ theta[0] - 1j * theta[2])) == 0.0


def test_unitary_u_properties():
    u = unitary_u()
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-15
    alpha8, beta8 = dirac88()
    alpha_p, beta_p = transformed_dirac88()
    for i in range(3):
        assert np.max(np.abs(u @ alpha8[i] @ u.conj().T - alpha_p[i])) < 1e-15
    assert np.max(np.abs(u @ beta8 @ u.conj().T - beta_p)) < 1e-15


def test_transformed_blocks_match_generators():
    kappa, theta, eta = generators()
    alpha_p, beta_p = transformed_dirac88()
    assert np.array_equal(alpha_p[2][:4, :4], kappa[2])
    assert np.array_equal(alpha_p[2][:4, 4:], theta[2])
    assert np.array_equal(beta_p[:4, :4], -eta)
    assert np.array_equal(beta_p[4:, 4:], eta)


def test_gamma_metric():
    gam = gamma88()
    assert np.array_equal(gam[0] @ gam[0], np.eye(8))
    assert np.array_equal(gam[1] @ gam[1], -np.eye(8))
    assert np.max(np.abs(gam[0] @ gam[1] + gam[1] @ gam[0])) == 0.0


def test_verify_identities_all_pass():
    reports = verify_identities()
    assert len(reports) >= 12
    for rep in reports:
        assert rep.passed, rep.identity
        assert rep.deviation <= 1e-15
    exact = [r for r in reports if r.tolerance == 0.0]
    assert all(r.deviation == 0.0 for r in exact)


def test_verify_identities_negative_control(monkeypatch):
    import dirac88.algebra as algebra
    kappa, theta, eta = generators()
    kappa[0, 0, 1] = -0.5j
    monkeypatch.setattr(algebra, "generators", lambda: (kappa, theta, eta))
    reports = verify_identities()
    failed = [r for r in reports if not r.passed]
    assert any("kappa" in r.identity for r in failed)
    # untouched families still pass
    assert all(r.passed for r in reports if "theta_i, theta_j" in r.identity)


def test_report_serialisation():
    import json

    rep = verify_identities()[0]
    d = rep.to_dict()
    assert set(d) == {"identity", "deviation", "tolerance", "pass"}
    parsed = json.loads(json.dumps(d))
    assert parsed == d


def negated_beta():
    alpha, beta = transformed_dirac88()
    return alpha, -beta


def negated_alpha_y():
    alpha, beta = transformed_dirac88()
    alpha[1] = -alpha[1]
    return alpha, beta


@pytest.mark.parametrize("fault, row", [(negated_beta, "U beta U+ = diag(-eta, eta)"),
                                        (negated_alpha_y, "U alpha_y U+ block form")],
                         ids=["beta-sign", "alpha-y-sign"])
def test_u_rows_read_the_matrices_the_kernels_run_on(fault, row, monkeypatch, tmp_path):
    # a sign fault in transformed_dirac88 reaches every kernel through
    # fields._ALPHA/_BETA, and the U row that names it reads it
    import json

    import dirac88.algebra as algebra
    from dirac88.cli import run_command

    monkeypatch.setattr(algebra, "transformed_dirac88", fault)
    failed = {rep.identity: rep.deviation for rep in verify_identities() if not rep.passed}
    assert set(failed) == {row} and failed[row] >= 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert run_command("verify-algebra", str(cfg), str(tmp_path / "out")) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [r["name"] for r in summary["checks"] if not r["pass"]] == [row]

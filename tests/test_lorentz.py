import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac88.algebra import gamma88, pauli_matrices, transformed_dirac88
from dirac88.errors import ConstraintViolation
from dirac88.evolution import hamiltonian_k
from dirac88.lorentz import (Boost, boost_matrix_L,
                             chiral_intertwiner, closed_form_field_boost,
                             current_coupling_matrix, electron_transform_matrix,
                             em_transform_matrix, em_wavefunction_transform,
                             four_vector_boost, tensor_boost_oracle)

RNG = np.random.default_rng(20240811)


def random_boost(max_speed=0.9):
    v = RNG.standard_normal(3)
    v = v / np.linalg.norm(v) * RNG.uniform(0.0, max_speed)
    return Boost(tuple(v))


def embed_point(e, b):
    psi = np.zeros(8, dtype=complex)
    psi[1:4] = e
    psi[5:8] = 1j * np.asarray(b, dtype=complex)
    return psi


def fields_of(psi):
    return psi[1:4], -1j * psi[5:8]


def test_boost_validation_and_factors():
    with pytest.raises(ValueError):
        Boost((1.0, 0, 0))
    b = Boost((0, 0, 0.6))
    assert b.gamma == pytest.approx(1.25)
    assert b.rapidity == pytest.approx(np.arctanh(0.6))


@pytest.mark.parametrize("beta", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf), (0.5,),
                                  (0.1, 0.2), (0, 0, 0, 0.5)],
                         ids=["nan", "inf", "minus-inf", "one-component", "two-components",
                              "four-components"])
def test_boost_needs_three_finite_components(beta):
    # Boost((nan, 0, 0)) had gamma = NaN; Boost((0.5,)) failed later inside np.cross
    with pytest.raises(ValueError, match="beta"):
        Boost(beta)


def test_em_transform_fails_a_nan():
    # the leak check compared with >, so an all-NaN input came back NaN without a word
    with pytest.raises(ConstraintViolation, match="leaked nan"):
        em_wavefunction_transform(np.full(8, np.nan, dtype=complex), Boost((0, 0, 0.6)))
    with pytest.raises(ConstraintViolation, match="leaked nan"):
        em_wavefunction_transform(embed_point([np.nan, 0, 0], [0, 1, 0]), Boost((0, 0.3, 0)))


def test_L_identity_at_rest():
    assert np.max(np.abs(boost_matrix_L(Boost((0.0, 0, 0))) - np.eye(2))) == 0.0


def test_L_closed_form_06z():
    el = boost_matrix_L(Boost((0, 0, 0.6)))
    assert el[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert el[1, 1] == pytest.approx(1 / np.sqrt(2.0), abs=1e-14)
    assert abs(el[0, 1]) == 0.0 and abs(el[1, 0]) == 0.0


def test_L_determinant_hermitian_inverse():
    for _ in range(100):
        b = random_boost(0.99)
        el = boost_matrix_L(b)
        assert np.linalg.det(el).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(el - el.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(el)) > 0.0
        assert np.max(np.abs(el @ boost_matrix_L(Boost(tuple(-np.array(b.beta)))) - np.eye(2))) < 1e-12


def test_four_vector_boost_examples():
    b = Boost((0, 0, 0.6))
    out = four_vector_boost(np.array([1.0, 0, 0, 0]), b)
    assert np.allclose(out, [1.25, 0, 0, -0.75])
    photon = four_vector_boost(np.array([1.0, 0, 0, 1.0]), b)
    assert np.allclose(photon, [0.5, 0, 0, 0.5])
    assert photon[0] ** 2 - photon[1:] @ photon[1:] == pytest.approx(0.0, abs=1e-12)
    x = np.array([1.0, 0.2, -0.1, 0.4])
    y = four_vector_boost(x, b)
    assert y[0] ** 2 - y[1:] @ y[1:] == pytest.approx(x[0] ** 2 - x[1:] @ x[1:], abs=1e-12)


def test_em_transform_identity_and_doppler():
    psi = embed_point([1, 0, 0], [0, 1, 0])
    out = em_wavefunction_transform(psi, Boost((0.0, 0.0, 0.0)))
    assert np.max(np.abs(out - psi)) == 0.0
    out = em_wavefunction_transform(psi, Boost((0, 0, 0.6)))
    e, b = fields_of(out)
    assert np.allclose(e.real, [0.5, 0, 0], atol=1e-14)
    assert np.allclose(b.real, [0, 0.5, 0], atol=1e-14)
    out = em_wavefunction_transform(psi, Boost((0, 0, -0.6)))
    e, b = fields_of(out)
    assert np.allclose(e.real, [2.0, 0, 0], atol=1e-13)
    assert np.allclose(b.real, [0, 2.0, 0], atol=1e-13)


def test_em_transform_matches_both_oracles():
    for _ in range(100):
        e = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        b = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        boost = random_boost()
        out = em_wavefunction_transform(embed_point(e, b), boost)
        e1, b1 = fields_of(out)
        e2, b2 = tensor_boost_oracle(e, b, boost)
        e3, b3 = closed_form_field_boost(e, b, boost)
        assert np.max(np.abs(e1 - e3)) < 1e-10
        assert np.max(np.abs(b1 - b3)) < 1e-10
        assert np.max(np.abs(e2 - e3)) < 1e-10
        assert np.max(np.abs(b2 - b3)) < 1e-10


def test_em_transform_preserves_constraint_components():
    for _ in range(50):
        e = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        b = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        out = em_wavefunction_transform(embed_point(e, b), random_boost())
        assert abs(out[0]) < 1e-10 and abs(out[4]) < 1e-10


def test_block_law_coincides_on_x_and_z():
    # reference: the literal chiral-basis law diag(L^-1 (x) L, L (x) L^-1),
    # mapped to the embedded basis by the chiral intertwiner
    v = chiral_intertwiner()
    z4 = np.zeros((4, 4), dtype=complex)
    for velocity in ((0.6, 0, 0), (0, 0, 0.6), (0.35, 0, 0), (0, 0, -0.8)):
        b = Boost(velocity)
        el = boost_matrix_L(b)
        eli = np.linalg.inv(el)
        law = v.conj().T @ np.block([[np.kron(eli, el), z4], [z4, np.kron(el, eli)]]) @ v / 4.0
        assert np.max(np.abs(law - em_transform_matrix(b))) < 1e-13


def test_electron_transform_identity_and_kron_structure():
    psi = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    out = electron_transform_matrix(Boost((0.0, 0.0, 0.0))) @ psi
    assert np.max(np.abs(out - psi)) < 1e-15
    # chiral-basis blocks are I2 (x) L and I2 (x) L^-1: two stacked 2-spinors
    b = Boost((0.1, -0.2, 0.3))
    el = boost_matrix_L(b)
    v = chiral_intertwiner()
    s = v @ electron_transform_matrix(b) @ v.conj().T / 4.0
    assert np.max(np.abs(s[:4, :4] - np.kron(np.eye(2), el))) < 1e-13
    assert np.max(np.abs(s[4:, 4:] - np.kron(np.eye(2), np.linalg.inv(el)))) < 1e-13
    assert np.max(np.abs(s[:4, 4:])) < 1e-14


def test_electron_transform_maps_eigenmodes():
    m = 1.0
    for _ in range(30):
        k = RNG.standard_normal(3) * 1.5
        w = np.sqrt(k @ k + m * m)
        evals, evecs = np.linalg.eigh(hamiltonian_k(k, m))
        boost = random_boost()
        for idx, sgn in ((7, +1.0), (0, -1.0)):
            psi = evecs[:, idx]
            fp = four_vector_boost(np.concatenate([[sgn * w], k]), boost)
            psi2 = electron_transform_matrix(boost) @ psi
            resid = np.linalg.norm(hamiltonian_k(fp[1:], m) @ psi2 - fp[0] * psi2)
            assert resid / np.linalg.norm(psi2) < 1e-10


def test_rest_spinor_boost_matches_eigenvector():
    m = 1.0
    evals, evecs = np.linalg.eigh(hamiltonian_k(np.zeros(3), m))
    psi = evecs[:, 7]
    boost = Boost((0.0, 0.0, 0.5))
    fp = four_vector_boost(np.array([m, 0.0, 0.0, 0.0]), boost)
    psi2 = electron_transform_matrix(boost) @ psi
    resid = np.linalg.norm(hamiltonian_k(fp[1:], m) @ psi2 - fp[0] * psi2)
    assert resid < 1e-12


def test_every_law_is_the_identity_at_rest():
    # one formula per law, with no zero-speed branch: at beta = 0 it gives its input back
    rest = Boost((0.0, 0.0, 0.0))
    e = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    b = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    psi = embed_point(e, b)
    assert (em_wavefunction_transform(psi, rest) == psi).all()
    for route in (tensor_boost_oracle, closed_form_field_boost):
        e_out, b_out = route(e, b, rest)
        assert (e_out == e).all() and (b_out == b).all(), route.__name__
    x = RNG.standard_normal(4)
    assert (four_vector_boost(x, rest) == x).all()


def test_current_coupling_entries():
    t = current_coupling_matrix()
    assert t[0, 0] == 1 and t[0, 3] == -1j and t[3, 3] == 1j
    assert t[1, 1] == -1j and t[1, 2] == 1 and t[2, 2] == -1


def test_tensor_oracle_examples():
    b = Boost((0, 0, 0.6))
    e, bb = tensor_boost_oracle(np.array([1.0, 0, 0]), np.zeros(3), b)
    assert np.allclose(e.real, [1.25, 0, 0], atol=1e-12)
    assert np.allclose(bb.real, [0, -0.75, 0], atol=1e-12)
    e2, b2 = tensor_boost_oracle(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), b)
    assert np.allclose(e2.real, [0.5, 0, 0], atol=1e-12)
    assert np.allclose(b2.real, [0, 0.5, 0], atol=1e-12)
    e0, b0 = tensor_boost_oracle(np.array([0.3, 0.1, -0.2]), np.array([0.5, 0, 0.7]),
                                 Boost((0.0, 0.0, 0.0)))
    assert np.allclose(e0.real, [0.3, 0.1, -0.2])


def test_intertwiner_relations():
    v = chiral_intertwiner()
    alpha, beta = transformed_dirac88()
    gam = gamma88()
    assert np.max(np.abs(v @ v.conj().T - 4 * np.eye(8))) == 0.0
    z4 = np.zeros((4, 4))
    for i, s in enumerate(pauli_matrices()):
        chiral = np.block([[-np.kron(np.eye(2), s), z4], [z4, np.kron(np.eye(2), s)]])
        assert np.max(np.abs(v @ alpha[i] - chiral @ v)) == 0.0
    assert np.max(np.abs(v @ beta - gam[0] @ v)) == 0.0



COMPONENT = st.floats(-3.0, 3.0)
VECTOR = st.tuples(COMPONENT, COMPONENT, COMPONENT)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(direction=VECTOR.filter(lambda d: np.linalg.norm(d) > 1e-3), fraction=st.floats(0.0, 0.95),
       e=VECTOR, b=VECTOR)
def test_three_boost_routes_agree_for_random_velocity_and_fields(direction, fraction, e, b):
    boost = Boost(tuple(np.array(direction) / np.linalg.norm(direction) * fraction))
    e, b = np.array(e, dtype=complex), np.array(b, dtype=complex)
    e1, b1 = fields_of(em_wavefunction_transform(embed_point(e, b), boost))
    e2, b2 = tensor_boost_oracle(e, b, boost)
    e3, b3 = closed_form_field_boost(e, b, boost)
    scale = 1.0 + boost.gamma * max(np.max(np.abs(e)), np.max(np.abs(b)))
    for route_e, route_b in ((e1, b1), (e2, b2)):
        assert np.max(np.abs(route_e - e3)) < 1e-13 * scale
        assert np.max(np.abs(route_b - b3)) < 1e-13 * scale

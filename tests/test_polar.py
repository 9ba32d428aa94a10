"""Refined polar factorization: gates, uniqueness, and structural closure.

scipy.linalg.sqrtm is used as an independent oracle for the positive factor.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import jlab.polar
from jlab.conjugation import canonical, random_conjugation
from jlab.errors import BadFactor, DimensionMismatch, NotJUnitary, Singular
from jlab.jclass import classify
from jlab.numkernel import frobenius, herm_eig, subspace_gap
from jlab.polar import (
    check_prop21,
    check_reciprocity,
    check_unitary_equiv,
    random_j_real_unitary,
    random_j_unitary,
    random_positive_j_unitary,
    refined_polar,
    synthesize,
)

# positive J-unitary with eigenvalues {1/2, 2}: exp([[0, i ln2], [-i ln2, 0]])
B2 = np.array([[1.25, 0.75j], [-0.75j, 1.25]])
# J-real unitary rotation
R2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def test_refined_polar_identity():
    parts = refined_polar(canonical(2), np.eye(2, dtype=complex))
    assert parts.report.passed
    np.testing.assert_allclose(parts.u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(parts.b, np.eye(2), atol=1e-12)


def test_refined_polar_positive_input_has_trivial_unitary():
    parts = refined_polar(canonical(2), B2)
    assert parts.report.passed
    np.testing.assert_allclose(parts.u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(parts.b, B2, atol=1e-12)
    assert parts.report.extras["b_floor"] > 0.4
    assert abs(parts.report.extras["cond"] - frobenius(B2) ** 2) < 1e-10


def test_refined_polar_recovers_frozen_factors():
    parts = refined_polar(canonical(2), R2 @ B2)
    assert parts.report.passed
    np.testing.assert_allclose(parts.u, R2, atol=1e-12)
    np.testing.assert_allclose(parts.b, B2, atol=1e-12)


def test_refined_polar_gate_rejects_non_j_unitary():
    j = canonical(2)
    with pytest.raises(NotJUnitary):
        refined_polar(j, np.diag([2.0, 1.0]).astype(complex))
    with pytest.raises(NotJUnitary):
        refined_polar(j, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_refined_polar_against_scipy_sqrtm():
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 7))
        j = random_conjugation(n, seed)
        a = synthesize(
            j,
            random_j_real_unitary(j, n, 2 * seed),
            random_positive_j_unitary(j, n, 2 * seed + 1),
        )
        parts = refined_polar(j, a)
        b_oracle = scipy.linalg.sqrtm(a.conj().T @ a)
        assert frobenius(parts.b - b_oracle) / (1.0 + frobenius(b_oracle)) < 1e-9
        u_oracle = a @ np.linalg.inv(b_oracle)
        assert frobenius(parts.u - u_oracle) / (1.0 + frobenius(u_oracle)) < 1e-8


def test_factor_uniqueness_round_trip():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(1, 9))
        j = random_conjugation(n, seed)
        u0 = random_j_real_unitary(j, n, 3 * seed)
        b0 = random_positive_j_unitary(j, n, 3 * seed + 1)
        a = synthesize(j, u0, b0)
        parts = refined_polar(j, a)
        assert frobenius(parts.u - u0) / (1.0 + frobenius(u0)) < 1e-9
        assert frobenius(parts.b - b0) / (1.0 + frobenius(b0)) < 1e-9
        assert frobenius(a - parts.u @ parts.b) / (1.0 + frobenius(a)) < 1e-10


def test_synthesize_rejects_bad_factors():
    j = canonical(2)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(BadFactor, match="unitary"):
        synthesize(j, 2.0 * eye, B2)
    with pytest.raises(BadFactor, match="J-real"):
        synthesize(j, np.diag([1.0, 1j]), B2)
    with pytest.raises(BadFactor, match="Hermitian"):
        synthesize(j, R2, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(BadFactor, match="positive"):
        synthesize(j, R2, np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(BadFactor):
        synthesize(j, R2, np.diag([2.0, 1.0]).astype(complex))
    with pytest.raises(DimensionMismatch):
        synthesize(j, np.eye(3, dtype=complex), B2)
    np.testing.assert_allclose(synthesize(j, R2, B2), R2 @ B2, atol=0)


def test_random_j_real_unitary_properties():
    j = random_conjugation(5, 21)
    u = random_j_real_unitary(j, 5, 4)
    assert frobenius(u.conj().T @ u - np.eye(5)) < 1e-12
    assert frobenius(u - j.sandwich(u)) < 1e-12
    np.testing.assert_array_equal(u, random_j_real_unitary(j, 5, 4))
    assert frobenius(u - random_j_real_unitary(j, 5, 5)) > 1e-3
    with pytest.raises(DimensionMismatch):
        random_j_real_unitary(j, 4, 0)


def test_random_positive_j_unitary_properties():
    j = random_conjugation(6, 33)
    b = random_positive_j_unitary(j, 6, 8)
    assert frobenius(b - b.conj().T) < 1e-11
    dec = herm_eig(b)
    # spectrum bounded by the generator cap: exp of [-2, 2]
    assert dec.eigenvalues[0] > math.exp(-2.0) - 1e-9
    assert dec.eigenvalues[-1] < math.exp(2.0) + 1e-9
    assert classify(j, b).residual("J-unitary") < 1e-10
    np.testing.assert_array_equal(b, random_positive_j_unitary(j, 6, 8))


def test_random_j_unitary_passes_the_gate():
    j = random_conjugation(4, 2)
    a = random_j_unitary(j, 4, 12)
    assert classify(j, a).passes("J-unitary")
    np.testing.assert_array_equal(a, random_j_unitary(j, 4, 12))
    parts = refined_polar(j, a)
    assert parts.report.passed


def test_check_prop21_closure_properties():
    for seed in (0, 3, 4):
        rng = np.random.default_rng(70 + seed)
        n = int(rng.integers(1, 7))
        j = random_conjugation(n, seed)
        a = random_j_unitary(j, n, 5 * seed + 1)
        rep = check_prop21(refined_polar(j, a))
        assert rep.passed, [it.name for it in rep.items if not it.passed]


def test_check_unitary_equiv_frozen_spectra():
    j = canonical(2)
    a = R2 @ B2
    rep = check_unitary_equiv(refined_polar(j, a))
    assert rep.passed
    gram = herm_eig(a.conj().T @ a)
    np.testing.assert_allclose(gram.eigenvalues, [0.25, 4.0], atol=1e-12)
    cogram = herm_eig(a @ a.conj().T)
    np.testing.assert_allclose(cogram.eigenvalues, [0.25, 4.0], atol=1e-12)


def test_check_reciprocity_swaps_eigenspaces():
    j = canonical(2)
    rep = check_reciprocity(refined_polar(j, B2))
    assert rep.passed, [it.name for it in rep.items if not it.passed]
    # J maps the eigenspace for 2 onto the eigenspace for 1/2
    v_two = np.array([[1.0], [-1.0j]]) / math.sqrt(2.0)
    v_half = np.array([[1.0], [1.0j]]) / math.sqrt(2.0)
    assert np.linalg.norm(B2 @ v_two - 2.0 * v_two) < 1e-12
    assert subspace_gap(j.apply(v_two), v_half) < 1e-12


def test_check_reciprocity_on_random_j_unitaries():
    for seed in (1, 2):
        rng = np.random.default_rng(80 + seed)
        n = int(rng.integers(2, 7))
        j = random_conjugation(n, seed)
        a = random_j_unitary(j, n, 7 * seed)
        rep = check_reciprocity(refined_polar(j, a))
        assert rep.passed, [it.name for it in rep.items if not it.passed]


def test_check_prop21_singular_gram_raises_singular():
    # the loose tol lets A = diag(1, 1e-7) through the gate and the
    # factorization, but G = diag(1, 1e-14) is singular to elimination
    j = canonical(2)
    parts = refined_polar(j, np.diag([1.0, 1e-7]).astype(complex), tol=2.0)
    with pytest.raises(Singular, match="Gram matrix"):
        check_prop21(parts)


def test_polar_checks_gate_once_and_decompose_g_once(monkeypatch):
    j = random_conjugation(6, 11)
    a = random_j_unitary(j, 6, 13)
    g = a.conj().T @ a
    eig_args, classify_args = [], []

    def counting(calls, fn, pos):
        def wrapped(*args, **kwargs):
            calls.append(np.array(args[pos]))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(jlab.polar, "herm_eig", counting(eig_args, jlab.polar.herm_eig, 0))
    monkeypatch.setattr(jlab.polar, "classify", counting(classify_args, jlab.polar.classify, 1))
    parts = refined_polar(j, a)
    for check in (check_prop21, check_unitary_equiv, check_reciprocity):
        assert check(parts).passed
    # G once, plus the independent A A*; A gated once, plus A^-1, A*, G
    assert sum(np.array_equal(m, g) for m in eig_args) == 1
    assert len(eig_args) == 2
    assert sum(np.array_equal(m, a) for m in classify_args) == 1
    assert len(classify_args) == 4

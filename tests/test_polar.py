"""Refined polar factorization: gates, uniqueness, and structural closure.

scipy.linalg.sqrtm is used as an independent oracle for the positive factor.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg

import jlab.jclass
import jlab.numkernel
import jlab.polar
from jlab.conjugation import Conjugation, canonical, random_conjugation
from jlab.errors import BadFactor, DimensionMismatch, NotConjugation, NotJUnitary, Singular
from jlab.jclass import classify
from jlab.numkernel import (
    SpectralDecomp,
    frobenius,
    herm_eig,
    singular_extremes,
    subspace_gap,
)
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
from jlab.suites import polar_trials

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
            random_j_real_unitary(j, 2 * seed),
            random_positive_j_unitary(j, 2 * seed + 1),
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
        u0 = random_j_real_unitary(j, 3 * seed)
        b0 = random_positive_j_unitary(j, 3 * seed + 1)
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
    # each residual below overflows to inf / inf = NaN, which `r > tol` let through;
    # the constructor rejects the overflowing coefficient, so build past it
    coeff = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotConjugation):
        Conjugation(2, coeff)
    huge = object.__new__(Conjugation)
    object.__setattr__(huge, "dim", 2)
    object.__setattr__(huge, "coeff", coeff)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BadFactor, match="U is not unitary: residual nan"):
            synthesize(j, 1e200 * eye, eye)
        with pytest.raises(BadFactor, match="U is not J-real: residual nan"):
            synthesize(huge, eye, eye)
        b = np.array([[1e200, 1e200], [-1e200, 1e200]])
        with pytest.raises(BadFactor, match="B is not Hermitian: residual nan"):
            synthesize(j, eye, b)


def test_synthesize_names_the_failing_cholesky_pivot():
    j = canonical(3)
    u = np.eye(3, dtype=complex)
    # leading 2 x 2 block is positive definite; the Schur complement is not
    b = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.25]], dtype=complex)
    message = r"positive definite: Cholesky pivot -2\.500e-01 at column 2"
    with pytest.raises(BadFactor, match=message):
        synthesize(j, u, b)


def test_nan_cholesky_pivot_is_not_positive(monkeypatch):
    # no finite input was found to reach a NaN pivot, so inject one at [1, 1]
    j = canonical(3)
    b = random_positive_j_unitary(j, 4)
    real = jlab.numkernel._hermitian_part

    def nan_pivot(a):
        herm, scales = real(a)
        herm[:, 1, 1] = np.nan
        return herm, scales

    monkeypatch.setattr(jlab.numkernel, "_hermitian_part", nan_pivot)
    col, pivot = jlab.numkernel.nonpositive_pivot(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert col == 1 and math.isnan(pivot)
    # b passes every other factor gate, so only the pivot rule can reject it
    with pytest.raises(BadFactor, match="Cholesky pivot nan at column 1"):
        synthesize(j, np.eye(3, dtype=complex), b)


def test_random_j_real_unitary_properties():
    j = random_conjugation(5, 21)
    u = random_j_real_unitary(j, 4)
    assert frobenius(u.conj().T @ u - np.eye(5)) < 1e-12
    assert frobenius(u - j.sandwich(u)) < 1e-12
    np.testing.assert_array_equal(u, random_j_real_unitary(j, 4))
    assert frobenius(u - random_j_real_unitary(j, 5)) > 1e-3


def test_random_positive_j_unitary_properties():
    j = random_conjugation(6, 33)
    b = random_positive_j_unitary(j, 8)
    assert frobenius(b - b.conj().T) < 1e-11
    dec = herm_eig(b)
    # spectrum bounded by the generator cap: exp of [-2, 2]
    assert dec.eigenvalues[0] > math.exp(-2.0) - 1e-9
    assert dec.eigenvalues[-1] < math.exp(2.0) + 1e-9
    assert classify(j, b).item("J-unitary").residual < 1e-10
    np.testing.assert_array_equal(b, random_positive_j_unitary(j, 8))


def _two_solve_positive_j_unitary(j, dim, seed):
    # the earlier route: spectral norm of K for the rescale, then exp of h
    rng = np.random.default_rng(seed)
    k = rng.uniform(-2.0, 2.0, (dim, dim))
    k = 0.5 * (k - k.T)
    top = singular_extremes(k.astype(complex))[1]
    if top > 2.0:
        k *= 2.0 / top
    phi = j.fixed_frame()
    return herm_eig(phi @ (1j * k.astype(complex)) @ phi.conj().T).apply(math.exp)


def test_positive_j_unitary_draws_match_the_two_solve_route():
    for dim, seed in ((1, 0), (2, 1), (5, 2), (12, 3), (16, 4)):
        j = random_conjugation(dim, seed)
        b = random_positive_j_unitary(j, 40 + seed)
        ref = _two_solve_positive_j_unitary(j, dim, 40 + seed)
        assert frobenius(b - ref) <= 1e-12 * frobenius(ref)
        lam = herm_eig(b).eigenvalues
        assert lam[0] > math.exp(-2.0) - 1e-9 and lam[-1] < math.exp(2.0) + 1e-9


def test_random_j_unitary_passes_the_gate():
    j = random_conjugation(4, 2)
    a = random_j_unitary(j, 12)
    assert classify(j, a).item("J-unitary").passed
    np.testing.assert_array_equal(a, random_j_unitary(j, 12))
    parts = refined_polar(j, a)
    assert parts.report.passed


def test_check_prop21_closure_properties():
    for seed in (0, 3, 4):
        rng = np.random.default_rng(70 + seed)
        n = int(rng.integers(1, 7))
        j = random_conjugation(n, seed)
        a = random_j_unitary(j, 5 * seed + 1)
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
        a = random_j_unitary(j, 7 * seed)
        rep = check_reciprocity(refined_polar(j, a))
        assert rep.passed, [it.name for it in rep.items if not it.passed]


def _nan_at(dec, i):
    vals = dec.eigenvalues.copy()
    vals[i] = np.nan
    return SpectralDecomp(vals, dec.vectors, dec.clusters)


def test_nan_in_the_cogram_spectrum_fails_spectra_match(monkeypatch):
    # fault injection: A A*'s second eigenvalue turns NaN in the stacked call
    original = jlab.polar.herm_eig

    def faulty(m):
        dec, dec_cogram, dec_ginv = original(m)
        return dec, _nan_at(dec_cogram, 1), dec_ginv

    monkeypatch.setattr(jlab.polar, "herm_eig", faulty)
    rep = check_unitary_equiv(refined_polar(canonical(2), R2 @ B2))
    assert rep.item("similarity").passed
    assert math.isnan(rep.item("spectra_match").residual)
    assert not rep.item("spectra_match").passed


def test_nan_cluster_value_fails_eigenvalue_reciprocity():
    # G has eigenvalues 1/2, 1, 2; the middle one turns NaN, while 1/2 and 2
    # still find each other
    b3 = np.zeros((3, 3), dtype=complex)
    b3[:2, :2] = B2
    b3[2, 2] = 1.0
    parts = refined_polar(canonical(3), b3)
    assert check_reciprocity(parts).passed
    parts.dec = _nan_at(parts.dec, 1)
    rep = check_reciprocity(parts)
    assert math.isnan(rep.item("eigenvalue_reciprocity").residual)
    assert not rep.item("eigenvalue_reciprocity").passed


def test_nan_singular_value_fails_eigenspace_reciprocity(monkeypatch):
    # G has the two-dimensional clusters {1/4, 1/4} and {4, 4}, so each
    # eigenspace gap is a spectral norm from singular_extremes; fault
    # injection turns the top eigenvalue of every Gram it decomposes NaN
    b4 = np.zeros((4, 4), dtype=complex)
    b4[:2, :2] = b4[2:, 2:] = B2
    parts = refined_polar(canonical(4), b4)
    assert [len(c) for c in parts.dec.clusters] == [2, 2]
    assert check_reciprocity(parts).passed
    original = jlab.numkernel._sorted_spectrum

    def faulty(m, vectors):
        vals, vecs = original(m, vectors)
        vals[:, -1] = np.nan
        return vals, vecs

    monkeypatch.setattr(jlab.numkernel, "_sorted_spectrum", faulty)
    rep = check_reciprocity(parts)
    assert math.isnan(rep.item("eigenspace_reciprocity").residual)
    assert not rep.item("eigenspace_reciprocity").passed


def test_check_prop21_singular_gram_raises_singular():
    # the loose tol lets A = diag(1, 1e-7) through the gate and the
    # factorization, but G = diag(1, 1e-14) is singular to elimination
    j = canonical(2)
    parts = refined_polar(j, np.diag([1.0, 1e-7]).astype(complex), tol=2.0)
    with pytest.raises(Singular, match="Gram matrix"):
        check_prop21(parts)


def test_polar_checks_gate_once_and_decompose_g_once(monkeypatch):
    j = random_conjugation(6, 11)
    a = random_j_unitary(j, 13)
    g = a.conj().T @ a
    eig_args, gate_args, classify_args = [], [], []

    def counting(calls, fn, pos):
        def wrapped(*args, **kwargs):
            calls.append(np.array(args[pos]))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(jlab.polar, "herm_eig", counting(eig_args, jlab.polar.herm_eig, 0))
    gate = counting(gate_args, jlab.polar.j_unitary_residual, 1)
    monkeypatch.setattr(jlab.polar, "j_unitary_residual", gate)
    monkeypatch.setattr(jlab.jclass, "classify", counting(classify_args, jlab.jclass.classify, 1))
    parts = refined_polar(j, a)
    # one stacked eigensolve: G, then A A* and G^-1 = A^-1 A^-* from the gate
    ainv = parts.ainv
    assert len(eig_args) == 1
    assert eig_args[0].shape == (3, 6, 6)
    assert np.array_equal(eig_args[0][0], g)
    assert np.array_equal(eig_args[0][1], a @ a.conj().T)
    assert np.array_equal(eig_args[0][2], ainv @ ainv.conj().T)
    for check in (check_prop21, check_unitary_equiv, check_reciprocity):
        assert check(parts).passed
    assert len(eig_args) == 1
    # the J-unitary gate: A once, then A^-1, A* and G; no nine-class profile
    assert len(gate_args) == 4
    for got, want in zip(gate_args, (a, ainv, a.conj().T, g), strict=True):
        assert np.array_equal(got, want)
    assert classify_args == []
    assert not hasattr(jlab.polar, "classify")


def test_checks_read_the_stacked_decompositions():
    j = random_conjugation(5, 21)
    a = random_j_unitary(j, 22)
    parts = refined_polar(j, a)
    assert check_unitary_equiv(parts).passed and check_reciprocity(parts).passed
    # a wrong decomposition in parts must show in the residual that reads it
    wrong = herm_eig(2.0 * parts.g)
    rep = check_unitary_equiv(dataclasses.replace(parts, dec_cogram=wrong))
    assert [it.name for it in rep.items if not it.passed] == ["spectra_match"]
    rep = check_reciprocity(dataclasses.replace(parts, dec_ginv=wrong))
    assert [it.name for it in rep.items if not it.passed] == ["sqrt_inverse_commute"]


def test_a_doubled_b_fails_sqrt_conjugation_by_its_stated_residual():
    # B^-1 = J B J gives ||B||_F = ||B^-1||_F = x on valid input, so only a
    # B off that identity shows the denominator 1 + ||B||_F + ||B^-1||_F.
    # With 2B, J(2B)J - (2B)^-1 = 1.5 B^-1: the residual is
    # 1.5x / (1 + 2x + x/2), where a sign slip in the denominator reads
    # 1.5x / (1 + 1.5x) or a negative value
    for n in (2, 5, 8):
        j = random_conjugation(n, 40 + n)
        parts = refined_polar(j, random_j_unitary(j, 50 + n))
        assert check_reciprocity(parts).passed
        rep = check_reciprocity(dataclasses.replace(parts, b=2.0 * parts.b))
        x = frobenius(parts.b)
        assert rep.item("sqrt_conjugation").residual == pytest.approx(1.5 * x / (1 + 2.5 * x))
        assert not rep.item("sqrt_conjugation").passed


def test_polar_program_decomposes_once_per_purpose(monkeypatch):
    # per gated trial: the generator's h and the one stack of G, A A* and
    # G^-1; the positivity gates take no eigensolve, and a subspace gap
    # takes one only for a multi-column cluster
    original = jlab.numkernel.herm_eig
    eig_calls, multi = [], []

    def counting_eig(*args, **kwargs):
        eig_calls.append(args[0])
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "jlab" and getattr(mod, "herm_eig", None) is original:
            monkeypatch.setattr(mod, "herm_eig", counting_eig)
    gap = jlab.polar.subspace_gap

    def counting_gap(u, v):
        if u.shape[1] > 1 and u.shape[1] == v.shape[1]:
            multi.append(u.shape[1])
        return gap(u, v)

    monkeypatch.setattr(jlab.polar, "subspace_gap", counting_gap)
    records = polar_trials(16, 16, 0)
    gated = sum(rec.residuals["gate"] == 0.0 for rec in records)
    assert gated == len(records) == 16
    assert len(eig_calls) <= 2 * gated + len(multi)

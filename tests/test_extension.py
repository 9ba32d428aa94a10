"""Cayley extension machinery: defects, pairings, the parity-rule flip, round trips."""

import dataclasses
import math

import numpy as np
import pytest

from jlab import extension
from jlab.conjugation import Conjugation, canonical, fixed_basis, random_conjugation
from jlab.errors import (
    BadShape,
    DimensionMismatch,
    DomainNotJInvariant,
    MultivaluedRelation,
    NotConjugation,
    NotJImaginary,
    Singular,
)
from jlab.examples import jacobi_imag
from jlab.extension import (
    SINGULAR_FLOOR,
    DefectData,
    PartialSymmetricOperator,
    check_defect_j_invariance,
    extend,
    random_jimaginary_partial,
    ranges_defects,
    verify_symmetric_jimaginary,
)
from jlab.numkernel import frobenius, herm_eig, inverse


def test_partial_operator_shape_gates():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(BadShape):
        PartialSymmetricOperator(0, eye[:, :1], eye[:, :1])
    with pytest.raises(BadShape):
        PartialSymmetricOperator(3, np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(BadShape):
        PartialSymmetricOperator(3, eye[:, :2], eye[:, :1])
    with pytest.raises(DimensionMismatch):
        PartialSymmetricOperator(3, eye[:, :0], eye[:, :0])
    with pytest.raises(BadShape):
        PartialSymmetricOperator(3, 2.0 * eye[:, :1], eye[:, :1])
    # Q* Q overflows to inf - inf = NaN, which `residual > bound` let through
    q = np.array([[1e200, 1e200], [1e200, -1e200], [0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BadShape, match=r"not orthonormal \(residual nan\)"):
            PartialSymmetricOperator(3, q, np.zeros((3, 2)))
    t = PartialSymmetricOperator(3, eye[:, :2], eye[:, 1:3])
    assert t.domain_dim == 2


def test_verify_passes_on_jacobi_restrictions():
    for n, d in ((2, 1), (4, 2), (5, 3)):
        j, t = jacobi_imag(n, d)
        rep = verify_symmetric_jimaginary(j, t)
        assert rep.passed
        assert rep.extras["domain_dim"] == d


def test_verify_measures_broken_symmetry():
    j = canonical(2)
    t = PartialSymmetricOperator(
        2, np.eye(2, dtype=complex), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    )
    rep = verify_symmetric_jimaginary(j, t)
    assert not rep.item("symmetry").passed


def test_verify_rejects_non_invariant_domain():
    j = canonical(2)
    q = np.array([[1.0], [1j]]) / math.sqrt(2.0)
    t = PartialSymmetricOperator(2, q, np.array([[1j], [0.0]]))
    with pytest.raises(DomainNotJInvariant):
        verify_symmetric_jimaginary(j, t)
    # C C* overflows to inf - inf, so the projector residual is NaN; the
    # constructor rejects the overflowing coefficient, so build past it
    coeff = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotConjugation):
        Conjugation(2, coeff)
    huge = object.__new__(Conjugation)
    object.__setattr__(huge, "dim", 2)
    object.__setattr__(huge, "coeff", coeff)
    t = PartialSymmetricOperator(2, np.eye(2, dtype=complex), np.zeros((2, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainNotJInvariant, match="residual nan"):
            verify_symmetric_jimaginary(huge, t)


def _assert_cayley_geometry(t, defect):
    """N_+- are orthonormal complements of ran(T -+ i), and the isometry maps
    (T - i)f to (T + i)f, vanishes on N_+ and has initial projector onto
    ran(T - i)."""
    t_minus = t.action - 1j * t.domain_basis
    t_plus = t.action + 1j * t.domain_basis
    k = t.ambient - t.domain_dim
    assert defect.defect_numbers == (k, k)
    for frame, rng in ((defect.n_plus, t_minus), (defect.n_minus, t_plus)):
        assert frame.shape == (t.ambient, k)
        assert frobenius(frame.conj().T @ frame - np.eye(k)) < 1e-12
        assert frobenius(frame.conj().T @ rng) < 1e-12
    u = defect.isometry
    assert frobenius(u @ t_minus - t_plus) < 1e-12
    assert frobenius(u @ defect.n_plus) < 1e-12
    proj = t_minus @ np.linalg.solve(t_minus.conj().T @ t_minus, t_minus.conj().T)
    assert frobenius(u.conj().T @ u - proj) < 1e-12


def test_ranges_defects_frozen_jacobi():
    j, t = jacobi_imag(3, 1)
    defect = ranges_defects(t)
    assert defect.defect_numbers == (2, 2)
    # T - i = [-i, -i, 0] and T + i = [i, -i, 0] on the domain e_0
    np.testing.assert_allclose(t.action - 1j * t.domain_basis, [[-1j], [-1j], [0.0]], atol=0)
    np.testing.assert_allclose(t.action + 1j * t.domain_basis, [[1j], [-1j], [0.0]], atol=0)
    _assert_cayley_geometry(t, defect)
    # U maps (e_0 + e_1)/sqrt 2 to (-e_0 + e_1)/sqrt 2 and vanishes elsewhere
    u = np.array([[-0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(defect.isometry, u, rtol=0, atol=1e-15)
    rep = check_defect_j_invariance(j, defect)
    assert rep.passed
    with pytest.raises(DimensionMismatch):
        check_defect_j_invariance(canonical(4), defect)


def test_cayley_isometry_of_the_zero_operator():
    t = PartialSymmetricOperator(2, np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    np.testing.assert_allclose(ranges_defects(t).isometry, -np.eye(2), atol=1e-13)


def test_cayley_isometry_spectral_mapping():
    a = np.array([[0.0, 1j], [-1j, 0.0]])
    t = PartialSymmetricOperator(2, np.eye(2, dtype=complex), a)
    u = ranges_defects(t).isometry
    v_plus = np.array([1.0, -1j]) / math.sqrt(2.0)  # eigenvalue +1 of a
    v_minus = np.array([1.0, 1j]) / math.sqrt(2.0)  # eigenvalue -1 of a
    # lambda maps to (lambda + i) / (lambda - i)
    assert np.linalg.norm(u @ v_plus - 1j * v_plus) < 1e-12
    assert np.linalg.norm(u @ v_minus + 1j * v_minus) < 1e-12
    assert frobenius(u.conj().T @ u - np.eye(2)) < 1e-12


def test_extend_factors_each_range_once(monkeypatch):
    # ranges_defects factors T - i and T + i on its first call on T and
    # fixed_basis takes the defect frames as they are: two QRs per extend of a
    # fresh T; a second ranges_defects returns T's kept data, isometry included
    cases = []
    for n, d, seed in ((8, 3, 0), (5, 1, 1), (6, 5, 2)):
        j = random_conjugation(n, seed)
        cases.append((j, random_jimaginary_partial(j, d, seed)))
    calls = []
    qr = np.linalg.qr

    def spy(b, *args, **kwargs):
        calls.append(b.shape)
        return qr(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    for j, t in cases:
        calls.clear()
        extend(j, t)
        assert len(calls) == 2, calls
        calls.clear()
        assert ranges_defects(t).isometry.shape == (t.ambient, t.ambient)
        assert calls == []


def test_ranges_defects_is_kept_read_only_on_the_operator():
    j = random_conjugation(6, 3)
    t = random_jimaginary_partial(j, 2, 3)
    defect = ranges_defects(t)
    assert ranges_defects(t) is defect
    assert [f.name for f in dataclasses.fields(DefectData)] == [
        "n_plus",
        "n_minus",
        "defect_numbers",
        "isometry",
    ]
    _assert_cayley_geometry(t, defect)
    for arr in (defect.n_plus, defect.n_minus, defect.isometry, t.domain_basis, t.action):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    # repr (and equality) read the dataclass fields only
    assert repr(PartialSymmetricOperator(t.ambient, t.domain_basis, t.action)) == repr(t)


def test_extend_after_ranges_defects_runs_no_qr(monkeypatch):
    # the kept DefectData holds both defect frames, which fixed_basis takes as
    # they are, so extend runs no QR and changes no output bit
    j = random_conjugation(8, 4)
    t = random_jimaginary_partial(j, 3, 4)
    ranges_defects(t)
    calls = []
    qr = np.linalg.qr

    def spy(b, *args, **kwargs):
        calls.append(b.shape)
        return qr(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    kept = extend(j, t)
    assert calls == []
    fresh = extend(j, PartialSymmetricOperator(t.ambient, t.domain_basis, t.action))
    for name in ("a_tilde", "v", "w"):
        got, want = getattr(kept, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_build_w_pairs_fixed_defect_bases():
    # extend's pairing W: each column of W f+ is the matching column of f-,
    # up to the sign a retry flipped
    j, t = jacobi_imag(4, 2)
    defect = ranges_defects(t)
    w = extend(j, t).w
    f_plus = fixed_basis(j, defect.n_plus)
    f_minus = fixed_basis(j, defect.n_minus)
    for got, want in zip((w @ f_plus).T, f_minus.T, strict=True):
        assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-12
    # partial isometry with initial space N_i, and J-real
    np.testing.assert_allclose(w.conj().T @ w, f_plus @ f_plus.conj().T, atol=1e-12)
    assert frobenius(w - j.sandwich(w)) < 1e-12


def test_extend_jacobi_two_frozen():
    j, t = jacobi_imag(2, 1)
    res = extend(j, t)
    np.testing.assert_allclose(res.a_tilde, np.array([[0.0, 1j], [-1j, 0.0]]), atol=1e-12)
    assert res.report.passed
    assert res.report.extras["defect_numbers"] == (1, 1)
    assert res.report.extras["flipped_columns"] == [0]
    assert res.report.extras["attempts"] == 2
    # sigma(V - I) = {sqrt 2, sqrt 2}, so 1/||(V - I)^-1||_F = 1
    assert res.report.extras["min_singular_bound"] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(2, 9) for d in range(1, n)])
def test_extend_jacobi_three_needs_multicolumn_flip(n, d):
    j, t = jacobi_imag(n, d)
    res = extend(j, t)
    assert res.report.passed
    # the unflipped pairing leaves one unit-eigenvalue channel per defect
    # direction, so the parity rule must flip every defect column at once
    assert res.report.extras["flipped_columns"] == list(range(n - d))
    assert res.report.extras["attempts"] == 2
    if (n, d) == (3, 1):
        np.testing.assert_allclose(res.a_tilde[:, 0], np.array([0.0, -1j, 0.0]), atol=1e-12)
    assert frobenius(res.a_tilde - res.a_tilde.conj().T) < 1e-12
    assert np.max(np.abs(res.a_tilde.real)) < 1e-12


def test_extend_flips_by_the_kernel_parity_rule():
    # the first 100 inputs of extension_trials(..., maxdim=12, seed=100_000)
    for tseed in range(100_000, 100_100):
        rng = np.random.default_rng(tseed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, n))
        s_j, s_t = np.random.SeedSequence(tseed).spawn(2)
        j = random_conjugation(n, s_j)
        t = random_jimaginary_partial(j, d, s_t)
        res = extend(j, t)
        attempts = res.report.extras["attempts"]
        # the unflipped V, and its kernel counted by numpy's SVD
        defect = ranges_defects(t)
        w = fixed_basis(j, defect.n_minus) @ fixed_basis(j, defect.n_plus).conj().T
        v = defect.isometry + w
        svals = np.linalg.svd(v - np.eye(n), compute_uv=False)
        kernel_dim = int(np.sum(svals <= SINGULAR_FLOOR))
        assert attempts == (2 if kernel_dim else 1), tseed
        if kernel_dim:
            assert len(res.report.extras["flipped_columns"]) == kernel_dim, tseed
        # V is real orthogonal in a J-fixed frame: det V (-1)^n = (-1)^dim ker(V - I)
        det = np.linalg.det(v)
        assert abs(det * (-1) ** n - (-1) ** kernel_dim) < 1e-8, tseed
        # 1/||X^-1||_F <= sigma_min(X) <= sqrt(n)/||X^-1||_F, with equality on
        # the right when every singular value is equal: allow rounding there
        bound = res.report.extras["min_singular_bound"]
        smin = np.linalg.svd(res.v - np.eye(n), compute_uv=False)[-1]
        assert bound <= smin * (1 + 1e-12), tseed
        assert smin <= math.sqrt(n) * bound * (1 + 1e-12), tseed


def test_extend_multivalued_after_the_flip_reports_kernel(monkeypatch):
    # sigma(V - I) is {2, 0, 0} unflipped and {2, sqrt 2, sqrt 2} flipped for
    # jacobi_imag(3, 1), {2, 0} and {sqrt 2, sqrt 2} for jacobi_imag(2, 1): a
    # floor of 1.5 keeps the true kernels and leaves the flip singular too
    monkeypatch.setattr(extension, "SINGULAR_FLOOR", 1.5)
    for (n, d), kernel_dim in (((3, 1), 2), ((2, 1), 1)):
        j, t = jacobi_imag(n, d)
        with pytest.raises(MultivaluedRelation, match=r"through 2 attempt\(s\)") as info:
            extend(j, t)
        assert info.value.kernel_dim == kernel_dim
        assert f"kernel dimension {kernel_dim} on the unflipped pairing" in str(info.value)


def _count_eigensolves(monkeypatch):
    calls = []

    def spy(m):
        calls.append(m.shape)
        return herm_eig(m)

    monkeypatch.setattr(extension, "herm_eig", spy)
    return calls


def test_extend_decomposes_only_attempts_the_inverse_cannot_certify(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    m = np.array(
        [[0.0, 2.0j, 0.0], [-2.0j, 0.0, 1j], [0.0, -1j, 0.0]], dtype=complex
    )
    extend(canonical(3), PartialSymmetricOperator(3, np.eye(3, dtype=complex), m))
    assert calls == []
    # the unflipped V - I fails elimination at its last column, which gives
    # its one-dimensional kernel; the flip is certified
    res = extend(*jacobi_imag(2, 1))
    assert res.report.extras["attempts"] == 2
    assert calls == []
    # a two-dimensional kernel fails elimination earlier and takes the Gram route
    res = extend(*jacobi_imag(3, 1))
    assert res.report.extras["attempts"] == 2
    assert calls == [(3, 3)]


def test_extend_trusts_the_elimination_kernel_only_when_it_certifies(monkeypatch):
    # a bound at the floor, or a unit vector that V - I does not annihilate
    # (the one orthogonal to the true kernel, ||(V - I) y|| = 2), certifies
    # nothing: the attempt takes the Gram route and ends where it would
    j, t = jacobi_imag(2, 1)
    want = _extend_outcome(j, t)
    calls = _count_eigensolves(monkeypatch)
    payloads = (
        lambda x, bound: (x, SINGULAR_FLOOR),
        lambda x, bound: (np.array([-x[1].conj(), x[0].conj()]), bound),
    )
    for payload in payloads:

        def weak_singular(m):
            try:
                return inverse(m)
            except Singular as err:
                raise Singular(str(err), *payload(err.kernel, err.second_sigma_bound)) from None

        monkeypatch.setattr(extension, "inverse", weak_singular)
        calls.clear()
        assert _extend_outcome(j, t) == want
        assert calls == [(2, 2)]


def test_extend_singular_retry_runs_no_eigensolve(monkeypatch):
    # a coupling of 1e12 leaves V - I within rounding of singular on both
    # pairings: the unflipped attempt needs the Gram route for its
    # three-dimensional kernel, and the retry is multivalued whatever its own
    calls = _count_eigensolves(monkeypatch)
    with pytest.raises(MultivaluedRelation, match=r"through 2 attempt\(s\)") as info:
        extend(*jacobi_imag(3, 1, [1e12, 1.0]))
    assert info.value.kernel_dim == 3
    assert "kernel dimension 3 on the unflipped pairing" in str(info.value)
    assert calls == [(3, 3)]


def _extension_trial_inputs(count, seed):
    """(J, T) of the first count trials of extension_trials(..., 12, seed)."""
    for tseed in range(seed, seed + count):
        rng = np.random.default_rng(tseed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, n))
        s_j, s_t = np.random.SeedSequence(tseed).spawn(2)
        j = random_conjugation(n, s_j)
        yield j, random_jimaginary_partial(j, d, s_t)


def _extend_outcome(j, t):
    try:
        res = extend(j, t)
    except MultivaluedRelation as err:
        return repr((str(err), err.kernel_dim))
    return repr(res.report) + "".join(
        a.tobytes().hex() for a in (res.v, res.a_tilde, res.w)
    )


def test_extend_with_the_elimination_kernel_equals_the_gram_route(monkeypatch):
    cases = list(_extension_trial_inputs(200, 100_000))
    cases += [jacobi_imag(n, d) for n in range(2, 9) for d in range(1, n)]
    calls = _count_eigensolves(monkeypatch)
    got = [_extend_outcome(j, t) for j, t in cases]
    with_payload = len(calls)

    def bare_singular(m):
        try:
            return inverse(m)
        except Singular as err:
            raise Singular(str(err)) from None

    monkeypatch.setattr(extension, "inverse", bare_singular)
    for (j, t), outcome in zip(cases, got):
        assert _extend_outcome(j, t) == outcome
    # the payload spared eigensolves that the Gram route runs
    assert len(calls) - with_payload > with_payload


def test_extend_undecided_bound_falls_back_to_the_gram_estimate(monkeypatch):
    # sigma(V - I) = {2, sqrt 2, sqrt 2} after the flip, so the bound
    # 1/sqrt(1.25) ~ 0.894 cannot certify a floor of 1; the Gram estimate
    # sqrt 2 clears it
    monkeypatch.setattr(extension, "SINGULAR_FLOOR", 1.0)
    calls = _count_eigensolves(monkeypatch)
    res = extend(*jacobi_imag(3, 1))
    assert res.report.passed
    assert res.report.extras["attempts"] == 2
    assert res.report.extras["flipped_columns"] == [0, 1]
    assert res.report.extras["min_singular_bound"] == pytest.approx(1 / math.sqrt(1.25))
    assert calls == [(3, 3), (3, 3)]


def test_extend_zero_defect_round_trip():
    m = np.array(
        [[0.0, 2.0j, 0.0], [-2.0j, 0.0, 1j], [0.0, -1j, 0.0]], dtype=complex
    )
    j = canonical(3)
    t = PartialSymmetricOperator(3, np.eye(3, dtype=complex), m)
    assert ranges_defects(t).defect_numbers == (0, 0)
    res = extend(j, t)
    np.testing.assert_allclose(res.a_tilde, m, atol=1e-12)
    assert res.report.extras["flipped_columns"] is None
    assert res.report.extras["attempts"] == 1


def test_extend_gates_and_mismatches():
    j, t = jacobi_imag(2, 1)
    with pytest.raises(DimensionMismatch):
        extend(canonical(3), t)
    bad = PartialSymmetricOperator(
        2, np.eye(2, dtype=complex)[:, :1], np.array([[1.0], [0.0]], dtype=complex)
    )
    with pytest.raises(NotJImaginary):
        extend(canonical(2), bad)


def test_extend_is_deterministic():
    j, t = jacobi_imag(4, 2)
    first = extend(j, t)
    second = extend(j, t)
    np.testing.assert_array_equal(first.a_tilde, second.a_tilde)
    np.testing.assert_array_equal(first.v, second.v)


def test_random_jimaginary_partial_properties():
    j = random_conjugation(5, 9)
    t = random_jimaginary_partial(j, 2, 3)
    assert t.ambient == 5
    assert t.domain_dim == 2
    assert verify_symmetric_jimaginary(j, t).passed
    assert ranges_defects(t).defect_numbers == (3, 3)
    again = random_jimaginary_partial(j, 2, 3)
    np.testing.assert_array_equal(t.action, again.action)
    np.testing.assert_array_equal(t.domain_basis, again.domain_basis)
    with pytest.raises(BadShape):
        random_jimaginary_partial(j, 0, 1)
    with pytest.raises(BadShape):
        random_jimaginary_partial(j, 6, 1)


def test_random_full_domain_extends_exactly():
    j = random_conjugation(4, 15)
    t = random_jimaginary_partial(j, 4, 8)
    res = extend(j, t)
    # zero defect: the extension is the operator itself on its full domain
    recon = res.a_tilde @ t.domain_basis
    assert frobenius(recon - t.action) / (1.0 + frobenius(t.action)) < 1e-11
    assert res.report.extras["defect_numbers"] == (0, 0)


def test_extend_ignores_later_edits_to_the_callers_arrays():
    # 2A is still J-imaginary symmetric on the same domain, so a T that read
    # the caller's arrays would pass its gate and extend a stale DefectData
    j = random_conjugation(6, 1)
    src = random_jimaginary_partial(j, 3, 2)
    q, a = src.domain_basis.copy(), src.action.copy()
    t = PartialSymmetricOperator(6, q, a)
    assert t.domain_basis is not q and t.action is not a
    first = extend(j, t)
    a *= 2.0
    second = extend(j, t)
    assert second.report.passed
    for name in ("a_tilde", "v", "w"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name

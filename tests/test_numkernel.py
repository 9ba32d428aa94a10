"""Kernel checks: Jacobi eigensolver (and its cyclic reference), elimination
inverse, frames, gaps.

numpy.linalg (eigh, inv, svd) appears here only as an independent oracle;
the package code under test never calls it for these operations.
"""

import math
import warnings

import numpy as np
import pytest

from jlab.errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotHermitian,
    RankDeficient,
    Singular,
)
from jlab.numkernel import (
    CLUSTER_REL_TOL,
    HERMITIAN_REL_TOL,
    JACOBI_REL_TOL,
    JACOBI_SWEEP_LIMIT,
    SpectralDecomp,
    _cluster_indices,
    _offdiag_norm,
    _round_robin,
    as_matrix,
    as_square,
    as_vector,
    frobenius,
    herm_eig,
    herm_fn,
    inverse,
    orth_complement,
    orthonormal_columns,
    resolvent,
    singular_extremes,
    spectral_norm,
    subspace_gap,
)

LN2 = math.log(2.0)


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def _cyclic_herm_eig(
    m,
    *,
    sweep_limit=JACOBI_SWEEP_LIMIT,
    conv_rel=JACOBI_REL_TOL,
    cluster_rel=CLUSTER_REL_TOL,
    hermitian_rel=HERMITIAN_REL_TOL,
):
    """Reference: the row-by-row cyclic Jacobi solver, one rotation at a time."""
    a0 = as_square(m)
    scale = frobenius(a0)
    if frobenius(a0 - a0.conj().T) > hermitian_rel * (1.0 + scale):
        raise NotHermitian(
            f"||M - M*||_F = {frobenius(a0 - a0.conj().T):.3e} exceeds tolerance"
        )
    n = a0.shape[0]
    # symmetrize once so representational noise cannot bias the rotations
    a = 0.5 * (a0 + a0.conj().T)
    v = np.eye(n, dtype=complex)
    target = conv_rel * scale
    converged = _offdiag_norm(a) <= target
    sweeps = 0
    while not converged:
        if sweeps >= sweep_limit:
            raise NoConvergence(
                f"Jacobi sweep budget {sweep_limit} exhausted; "
                f"off-diagonal norm {_offdiag_norm(a):.3e} > {target:.3e}"
            )
        # entries already far below target cannot affect convergence this sweep
        skip = target / max(1, 2 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = (t * c) * phase
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - np.conj(s) * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = np.conj(s) * rp + c * rq
                # exact zeros here by construction; keep diagonal real
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - np.conj(s) * vq
                v[:, q] = s * vp + c * vq
        sweeps += 1
        converged = _offdiag_norm(a) <= target
    vals = np.real(np.diag(a)).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    return SpectralDecomp(vals, vecs, _cluster_indices(vals, cluster_rel))


def test_shape_coercions_reject_bad_input():
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        as_square([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(DimensionMismatch):
        as_vector([np.nan])


def test_herm_eig_diagonal_is_sorted_permutation():
    dec = herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    # eigenvectors of a diagonal matrix are (phases of) standard basis vectors
    np.testing.assert_allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_herm_eig_two_by_two_exact():
    m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    dec = herm_eig(m)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-13)
    for lam, v in zip(dec.eigenvalues, dec.vectors.T):
        assert np.linalg.norm(m @ v - lam * v) < 1e-13


def test_herm_eig_matches_numpy_on_random_hermitians():
    rng = np.random.default_rng(314)
    for n in range(1, 11):
        m = random_hermitian(rng, n)
        dec = herm_eig(m)
        scale = 1.0 + frobenius(m)
        # decomposition properties
        assert frobenius(dec.vectors.conj().T @ dec.vectors - np.eye(n)) < 1e-12
        recon = dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.conj().T
        assert frobenius(m - recon) / scale < 1e-12
        # eigenvalues against the LAPACK oracle
        np.testing.assert_allclose(
            dec.eigenvalues, np.linalg.eigh(m)[0], atol=1e-10 * scale
        )


def _reference_cases(rng, n):
    yield "random", random_hermitian(rng, n)
    yield "zero", np.zeros((n, n), dtype=complex)
    yield "diagonal", np.diag(rng.standard_normal(n)).astype(complex)
    tied = random_hermitian(rng, n)
    np.fill_diagonal(tied, 1.0)
    yield "tied", tied  # tau = 0 on the first rotations
    blocks = np.zeros((n, n), dtype=complex)
    h = n // 2
    blocks[:h, :h] = random_hermitian(rng, h)
    blocks[h:, h:] = random_hermitian(rng, n - h)
    yield "blocks", blocks  # exact zero couplings that stay zero
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    repeated = np.repeat([-1.0, 2.0, 2.0, 0.5], n)[:n]
    yield "repeated", (u * repeated) @ u.conj().T
    # a diagonal with strong couplings on some pairs and couplings far below
    # the per-pair skip threshold on the rest
    mixed = np.diag(np.arange(n, dtype=complex))
    big = rng.random((n, n)) < 0.3
    mixed[big] += rng.standard_normal(int(big.sum()))
    mixed = 0.5 * (mixed + mixed.conj().T)
    skip = JACOBI_REL_TOL * frobenius(mixed) / max(1, 2 * n)
    tiny = ~big & ~big.T & ~np.eye(n, dtype=bool)
    mixed[tiny] = 1e-3 * skip * (1.0 + 1j)
    yield "mixed", 0.5 * (mixed + mixed.conj().T)


def test_round_robin_matches_cyclic_reference():
    rng = np.random.default_rng(2718)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (*range(1, 17), 24, 32, 48, 64):
            for kind, m in _reference_cases(rng, n):
                dec = herm_eig(m)
                ref = _cyclic_herm_eig(m)
                scale = 1.0 + frobenius(m)
                where = f"n={n} {kind}"
                gap = np.max(np.abs(dec.eigenvalues - ref.eigenvalues))
                assert gap <= 1e-12 * scale, where
                gram = dec.vectors.conj().T @ dec.vectors
                assert frobenius(gram - np.eye(n)) <= 1e-12, where
                recon = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
                assert frobenius(m - recon) / scale <= 1e-12, where
                assert dec.clusters == ref.clusters, where
                if n == 2:  # one rotation: the same arithmetic as the reference
                    np.testing.assert_allclose(dec.vectors, ref.vectors, atol=1e-15)


def test_round_robin_schedule_covers_every_pair_once():
    for n in range(1, 66):
        rounds = _round_robin(n)
        assert len(rounds) == (n - 1 if n % 2 == 0 else n)
        seen = []
        for p, q in rounds:
            assert not p.flags.writeable and not q.flags.writeable
            assert np.all(p < q)
            members = np.concatenate([p, q])
            assert len(set(members.tolist())) == members.size
            seen.extend(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert _round_robin(n) is rounds


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_herm_eig_sweep_budget_exhaustion():
    m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(NoConvergence):
        herm_eig(m, sweep_limit=0)
    assert JACOBI_SWEEP_LIMIT == 60
    big = random_hermitian(np.random.default_rng(16), 16)
    with pytest.raises(NoConvergence, match="budget 1 exhausted"):
        herm_eig(big, sweep_limit=1)
    # an already diagonal input needs no sweep and no rotation
    dec = herm_eig(np.diag([-2.0, 0.5, 3.0]).astype(complex), sweep_limit=0)
    assert np.array_equal(dec.vectors, np.eye(3))


def test_eigenvalue_clustering_merges_consecutive_near_ties():
    m = np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex)
    dec = herm_eig(m)
    assert dec.clusters == ((0, 1), (2,))
    assert abs(dec.cluster_value(0) - (1.0 + 5e-13)) < 1e-15
    np.testing.assert_allclose(
        dec.cluster_projector(0), np.diag([1.0, 1.0, 0.0]), atol=1e-13
    )
    # the split threshold is relative with the pinned constant
    assert CLUSTER_REL_TOL == 1e-8
    wide = herm_eig(np.diag([1.0, 1.0 + 1e-7, 5.0]).astype(complex))
    assert wide.clusters == ((0,), (1,), (2,))


def test_herm_fn_exponential_frozen_value():
    m = np.array([[0.0, 1j * LN2], [-1j * LN2, 0.0]])
    expected = np.array([[1.25, 0.75j], [-0.75j, 1.25]])
    np.testing.assert_allclose(herm_fn(m, math.exp), expected, atol=1e-13)


def test_herm_fn_reciprocal_agrees_with_elimination_inverse():
    rng = np.random.default_rng(5150)
    for n in (1, 3, 6):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = z @ z.conj().T + np.eye(n)
        diff = herm_fn(g, lambda u: 1.0 / u) - inverse(g)
        assert frobenius(diff) / (1.0 + frobenius(g)) < 1e-11


def test_herm_fn_domain_errors():
    with pytest.raises(DomainError):
        herm_fn(np.diag([-1.0, 1.0]).astype(complex), math.sqrt)
    with pytest.raises(DomainError):
        herm_fn(np.diag([0.0, 1.0]).astype(complex), lambda u: 1.0 / u)
    with pytest.raises(DomainError):
        herm_fn(np.eye(2, dtype=complex), lambda u: float("nan"))


def test_inverse_frozen_two_by_two():
    a = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    expected = (4.0 / 3.0) * np.array([[1.0, -0.5j], [0.5j, 1.0]])
    np.testing.assert_allclose(inverse(a), expected, atol=1e-13)


def test_inverse_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(99)
    for n in range(1, 11):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = inverse(a)
        scale = 1.0 + frobenius(np.linalg.inv(a))
        assert frobenius(got - np.linalg.inv(a)) / scale < 1e-10
        assert frobenius(a @ got - np.eye(n)) < 1e-9


def test_inverse_rejects_singular():
    with pytest.raises(Singular):
        inverse(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))
    with pytest.raises(Singular):
        inverse(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_resolvent_values_and_poles():
    m = np.diag([1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(resolvent(m, 3.0), np.diag([-0.5, -1.0]), atol=1e-13)
    with pytest.raises(Singular):
        resolvent(m, 1.0)
    with pytest.raises(DimensionMismatch):
        resolvent(m, complex(np.inf))


def test_orthonormal_columns_properties():
    rng = np.random.default_rng(17)
    b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    q, r = orthonormal_columns(b)
    assert frobenius(q.conj().T @ q - np.eye(3)) < 1e-13
    assert frobenius(q @ r - b) < 1e-13
    with pytest.raises(RankDeficient):
        orthonormal_columns(np.column_stack([b[:, 0], 2.0 * b[:, 0]]))
    with pytest.raises(RankDeficient):
        orthonormal_columns(np.ones((2, 3), dtype=complex))


def test_orth_complement_spans_and_edges():
    rng = np.random.default_rng(23)
    b = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    q = orth_complement(b)
    assert q.shape == (4, 3)
    assert frobenius(q.conj().T @ q - np.eye(3)) < 1e-13
    assert np.max(np.abs(q.conj().T @ b)) < 1e-13
    np.testing.assert_allclose(
        orth_complement(np.zeros((3, 0), dtype=complex)), np.eye(3), atol=0
    )
    full = orth_complement(np.eye(3, dtype=complex))
    assert full.shape == (3, 0)
    with pytest.raises(RankDeficient):
        orth_complement(np.column_stack([b, b]))


def test_singular_extremes_match_numpy_svd():
    rng = np.random.default_rng(8)
    for shape in ((3, 3), (5, 2), (2, 5)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lo, hi = singular_extremes(m)
        svals = np.linalg.svd(m, compute_uv=False)
        assert abs(hi - svals[0]) < 1e-10 * (1.0 + svals[0])
        assert abs(spectral_norm(m) - svals[0]) < 1e-10 * (1.0 + svals[0])
        if shape[1] <= shape[0]:
            assert abs(lo - svals[-1]) < 1e-10 * (1.0 + svals[0])
        else:
            # wide matrix: the Gram M*M is rank deficient, so lo reads as 0
            assert lo < 1e-7


def test_subspace_gap_is_the_sine_of_the_angle():
    e0 = np.eye(3, dtype=complex)[:, :1]
    e1 = np.eye(3, dtype=complex)[:, 1:2]
    assert subspace_gap(e0, e0 * 1j) < 1e-14  # same span, different phase
    assert abs(subspace_gap(e0, e1) - 1.0) < 1e-14
    theta = 0.3
    tilted = np.array([[math.cos(theta)], [math.sin(theta)], [0.0]], dtype=complex)
    assert abs(subspace_gap(e0, tilted) - math.sin(theta)) < 1e-12
    assert subspace_gap(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0
    assert subspace_gap(e0, np.eye(3, dtype=complex)[:, :2]) == 1.0

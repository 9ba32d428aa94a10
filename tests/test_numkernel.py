"""Kernel checks: Jacobi eigensolver (its stacked form, its serial
one-matrix reference and its cyclic reference), elimination inverse (its
stacked form, its column-loop and its augmented-array references), the
Cholesky positivity gate, frames, gaps, and the Frobenius norm against
numpy's and against its per-stack form.

numpy.linalg (eigh, inv, svd) appears here only as an independent oracle;
the package code under test never calls it for these operations.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

from jlab import conjugation, jclass, numkernel
from jlab.examples import cayley_v, growth_probe, norm_growth, truncation_family
from jlab.errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotHermitian,
    OutOfRange,
    RankDeficient,
    Singular,
)
from jlab.numkernel import (
    CLUSTER_REL_TOL,
    HERMITIAN_REL_TOL,
    JACOBI_REL_TOL,
    JACOBI_SWEEP_LIMIT,
    PIVOT_REL_TOL,
    SpectralDecomp,
    _frobenius_rows,
    _round_robin,
    as_matrix,
    as_square,
    as_vector,
    frobenius,
    herm_eig,
    inverse,
    nonpositive_pivot,
    orthonormal_columns,
    singular_extremes,
    subspace_gap,
)

LN2 = math.log(2.0)
# the width on which the block-structured inverse cases lay their blocks
EDGE = 32


def _diagonal_blocks(m):
    """The n 2 x 2 diagonal blocks of a 2n x 2n array, as one (n, 2, 2) gather."""
    n = m.shape[0] // 2
    k = np.arange(n)
    return m.reshape(n, 2, n, 2)[k, :, k]


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def _offdiag_norm(a):
    off = a.copy()
    off.flat[:: a.shape[0] + 1] = 0.0
    return frobenius(off)


def _cluster_indices(vals, rel_tol):
    groups = [[0]]
    for i in range(1, len(vals)):
        prev = vals[i - 1]
        if abs(vals[i] - prev) <= rel_tol * (1.0 + abs(prev)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


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


def _serial_hermitian_part(m, hermitian_rel):
    """(M + M*) / 2 and ||M||_F; NotHermitian when ||M - M*||_F exceeds
    hermitian_rel * (1 + ||M||_F)."""
    a0 = as_square(m)
    scale = frobenius(a0)
    skew = frobenius(a0 - a0.conj().T)
    if skew > hermitian_rel * (1.0 + scale):
        raise NotHermitian(f"||M - M*||_F = {skew:.3e} exceeds tolerance")
    return 0.5 * (a0 + a0.conj().T), scale


def _serial_herm_eig(
    m,
    *,
    sweep_limit=JACOBI_SWEEP_LIMIT,
    conv_rel=JACOBI_REL_TOL,
    cluster_rel=CLUSTER_REL_TOL,
    hermitian_rel=HERMITIAN_REL_TOL,
):
    """Reference: the one-matrix round-robin kernel, a dense rotation per round."""
    # symmetrize once so representational noise cannot bias the rotations
    a, scale = _serial_hermitian_part(m, hermitian_rel)
    n = a.shape[0]
    v = eye = np.eye(n, dtype=complex)
    target = conv_rel * scale
    # entries already far below target cannot affect convergence this sweep
    skip = target / max(1, 2 * n)
    converged = _offdiag_norm(a) <= target
    sweeps = 0
    while not converged:
        if sweeps >= sweep_limit:
            raise NoConvergence(
                f"Jacobi sweep budget {sweep_limit} exhausted; "
                f"off-diagonal norm {_offdiag_norm(a):.3e} > {target:.3e}"
            )
        for p, q in _round_robin(n):
            apq = a[p, q]
            r = np.abs(apq)
            k = (r > skip).nonzero()[0]
            if not k.size:
                continue
            p, q, apq, r = p[k], q[k], apq[k], r[k]
            d = a.diagonal().real
            tau = (d[q] - d[p]) / (2.0 * r)
            # sign form: the tie tau = 0 takes t = +1 and no branch divides by zero
            sign = np.where(tau >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = (t * c) * (apq / r)
            # the pairs are disjoint, so one rotation matrix applies them all
            rot = eye.copy()
            rot[p, p] = rot[q, q] = c
            rot[p, q], rot[q, p] = s, -s.conj()
            a = rot.conj().T @ a @ rot
            # exact zeros here by construction; keep diagonal real
            a[p, q] = a[q, p] = 0.0
            a.flat[:: n + 1] = a.diagonal().real
            v = v @ rot
        sweeps += 1
        converged = _offdiag_norm(a) <= target
    vals = np.real(np.diag(a)).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    return SpectralDecomp(vals, vecs, _cluster_indices(vals, cluster_rel))


def _column_loop_inverse(m, *, pivot_rel=PIVOT_REL_TOL):
    """Reference: the classic column loop, in-place Gauss-Jordan with one
    rank-1 pass over the whole n x n working copy per column.  A NaN pivot
    is not above the floor, so it raises as a pivot at or below it."""
    a = as_square(m).copy()
    n = a.shape[0]
    floor = pivot_rel * frobenius(a)
    rows = list(range(n))
    for k in range(n):
        piv = int(np.argmax(np.abs(a[k:, k]))) + k
        mag = abs(a[piv, k])
        if not mag > floor:
            raise Singular(
                f"pivot {mag:.3e} at column {k} is at or below the floor {floor:.3e}"
            )
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            rows[k], rows[piv] = rows[piv], rows[k]
        pivot = a[k, k]
        col = a[:, k].copy()
        col[k] = 0.0
        # column k is spent; it now carries the unit column e_k of the
        # identity block, i.e. inverse column rows[k]
        a[:, k] = 0.0
        a[k, k] = 1.0
        a[k] /= pivot
        a -= col[:, None] * a[k]
    out = np.empty_like(a)
    out[:, rows] = a
    return out


def _augmented_inverse(m, *, pivot_rel=PIVOT_REL_TOL):
    """Reference: Gauss-Jordan elimination on the n x 2n augmented array [A | I]."""
    a = as_square(m)
    n = a.shape[0]
    floor = pivot_rel * frobenius(a)
    aug = np.hstack([a.astype(complex, copy=True), np.eye(n, dtype=complex)])
    for k in range(n):
        piv = int(np.argmax(np.abs(aug[k:, k]))) + k
        mag = abs(aug[piv, k])
        if not mag > floor:
            raise Singular(
                f"pivot {mag:.3e} at column {k} is at or below the floor {floor:.3e}"
            )
        if piv != k:
            aug[[k, piv]] = aug[[piv, k]]
        aug[k] = aug[k] / aug[k, k]
        col = aug[:, k].copy()
        col[k] = 0.0
        aug -= np.outer(col, aug[k])
    return aug[:, n:]


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


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _same_decomposition(d1, d2):
    return (
        _same_bits(d1.eigenvalues, d2.eigenvalues)
        and _same_bits(d1.vectors, d2.vectors)
        and d1.clusters == d2.clusters
    )


def _mixed_kinds(rng, n, count, kinds=_reference_cases):
    """count matrices cycling through the kinds(rng, n) cases."""
    cases = []
    while len(cases) < count:
        cases += kinds(rng, n)
    return cases[:count]


def test_stacked_herm_eig_is_bit_identical_to_serial():
    rng = np.random.default_rng(2719)
    blocks = _diagonal_blocks(cayley_v(256))
    gram = blocks.conj().swapaxes(1, 2) @ blocks  # the stack norm_growth(256) decomposes
    stacks = [list(_reference_cases(rng, n)) for n in (*range(1, 17), 24, 32)]
    stacks.append([(f"gram {k}", g) for k, g in enumerate(gram, 1)])
    stacks.append(_mixed_kinds(np.random.default_rng(2722), 4, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cases in stacks:
            kinds, mats = zip(*cases)
            stack = np.stack(mats)
            n = stack.shape[1]
            forward = herm_eig(stack)
            backward = herm_eig(stack[::-1])[::-1]
            assert isinstance(forward, tuple) and len(forward) == len(mats)
            for kind, m, dec, rev in zip(kinds, mats, forward, backward):
                one = herm_eig(m)
                assert isinstance(one, SpectralDecomp)
                assert _same_decomposition(one, _serial_herm_eig(m)), f"n={n} {kind}"
                assert _same_decomposition(dec, one), f"n={n} {kind}"
                assert _same_decomposition(rev, one), f"n={n} {kind}"


def test_stacked_herm_eig_errors_name_the_stack_index(monkeypatch):
    rng = np.random.default_rng(2720)
    good = random_hermitian(rng, 4)
    bad = good.copy()
    bad[0, 1] += 1.0
    with pytest.raises(NotHermitian, match="stack index 2:"):
        herm_eig(np.stack([good, good, bad]))
    with pytest.raises(NotHermitian, match="stack index 1:"):
        herm_eig(np.stack([good, bad, bad.T, good]))
    diag = np.diag([3.0, -1.0, 0.5, 2.0]).astype(complex)
    monkeypatch.setattr(numkernel, "JACOBI_SWEEP_LIMIT", 0)
    with pytest.raises(NoConvergence, match="stack index 1: Jacobi sweep budget 0"):
        herm_eig(np.stack([diag, good, diag]))
    # the diagonal members need no sweep, so they alone pass at budget 0
    for dec in herm_eig(np.stack([diag, diag])):
        assert np.array_equal(dec.vectors, np.eye(4)[:, [1, 2, 3, 0]])
    for shape in ((3,), (0, 2, 2), (2, 2, 3), (1, 2, 2, 2)):
        with pytest.raises(DimensionMismatch):
            herm_eig(np.zeros(shape, dtype=complex))
    with pytest.raises(DimensionMismatch):
        herm_eig(np.stack([good, np.full((4, 4), np.nan)]))
    # an overflowing ||M||_F made the Jacobi target inf, so M came back
    # unrotated: {1e300, 1e300} for the true eigenvalues {0, 2e300}
    ok = np.diag([1.0, 2.0]).astype(complex)
    with np.errstate(over="ignore"):
        for scale in (1e300, 1e155):
            m = scale * np.array([[1.0, 1j], [-1j, 1.0]])
            with pytest.raises(OutOfRange, match="stack index 1: .* overflows"):
                herm_eig(np.stack([ok, m]))
        # the first failing index is named, whichever check fails there
        big = 1e300 * np.array([[1.0, 1j], [-1j, 1.0]])
        skewed = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NotHermitian, match="stack index 0:"):
            herm_eig(np.stack([skewed, big, ok]))
        with pytest.raises(OutOfRange, match="stack index 0:"):
            herm_eig(np.stack([big, skewed, ok]))
        # nor may the Hermitian gate judge against an infinite bound: this
        # skew matrix had Hermitian part 0 and read as eigenvalues {0, 0}
        skew = np.array([[0.0, 1e300], [-1e300, 0.0]], dtype=complex)
        with pytest.raises(OutOfRange, match="stack index 0"):
            herm_eig(skew)
        with pytest.raises(OutOfRange):
            nonpositive_pivot(skew)


def test_nan_eigenvalue_propagates_to_the_singular_values(monkeypatch):
    original = numkernel._sorted_spectrum

    def faulty(m):
        vals, vecs = original(m)
        vals[:, -1] = np.nan
        return vals, vecs

    monkeypatch.setattr(numkernel, "_sorted_spectrum", faulty)
    lo, hi = singular_extremes(np.diag([1.0, 2.0]).astype(complex))
    assert lo == 1.0 and math.isnan(hi)
    # the spans share e1 only: true gap 1.0, and a clamp to 0.0 read them equal
    eye = np.eye(3, dtype=complex)
    assert math.isnan(subspace_gap(eye[:, :2], eye[:, 1:]))


def test_stacked_singular_extremes_match_one_call_each():
    rng = np.random.default_rng(2721)
    for shape in ((7, 2, 2), (3, 5, 2), (2, 2, 5), (1, 4, 4)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pairs = singular_extremes(stack)
        assert pairs == tuple(singular_extremes(m) for m in stack)


def test_singular_extremes_are_the_decomposition_route_bit_for_bit():
    # singular_extremes reads the sorted spectrum without building a
    # SpectralDecomp; its ends must be herm_eig's eigenvalues, bit for bit
    rng = np.random.default_rng(2721)
    blocks = _diagonal_blocks(cayley_v(256))
    stacks = [blocks]
    for shape in ((7, 2, 2), (3, 5, 2), (2, 2, 5), (1, 4, 4)):
        stacks.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for stack in stacks:
        decs = herm_eig(stack.conj().swapaxes(1, 2) @ stack)
        want = [np.sqrt(np.clip(dec.eigenvalues[[0, -1]], 0.0, None)) for dec in decs]
        for got in (singular_extremes(stack), [singular_extremes(m) for m in stack]):
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_apply_is_the_cluster_sum_in_one_product():
    # the bound's constant was fixed before the first run
    c = 16
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2722)
    spectra = [
        [1.0, 1.0, 2.0, 3.0, 3.0, 3.0],
        [0.5, 0.5 + 1e-12, 2.0, 4.0, 4.0 + 3e-12, 4.0 - 2e-12, 7.0],
        [2.5],
        list(rng.uniform(0.1, 9.0, 16)),
    ]
    fns = (math.sqrt, lambda lam: 1.0 / math.sqrt(lam), math.exp)
    sizes = []
    for spectrum in spectra:
        n = len(spectrum)
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        dec = herm_eig((u * np.array(spectrum)) @ u.conj().T)
        means = [dec.cluster_value(k) for k in range(len(dec.clusters))]
        sizes.append([len(idx) for idx in dec.clusters])
        for f in fns:
            calls = []
            got = dec.apply(lambda lam: calls.append(lam) or f(lam))
            # f is evaluated once per cluster, at the cluster mean, in cluster order
            assert calls == means
            ref = np.zeros((n, n), dtype=complex)
            for k, mean in enumerate(means):
                v = dec.cluster_basis(k)
                ref += f(mean) * (v @ v.conj().T)
            scale = c * eps * (1.0 + frobenius(ref))
            assert frobenius(got - ref) <= scale, (spectrum, f)
            assert frobenius(got - got.conj().T) <= scale, (spectrum, f)
            for k, mean in enumerate(means):
                v = dec.cluster_basis(k)
                assert frobenius(got @ v - f(mean) * v) <= scale, (spectrum, f, k)
        # the decomposition keeps no state beyond its three fields
        assert set(vars(dec)) == {"eigenvalues", "vectors", "clusters"}
    assert sizes[:3] == [[2, 1, 3], [2, 1, 3, 1], [1]]


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


def test_herm_eig_sweep_budget_exhaustion(monkeypatch):
    assert JACOBI_SWEEP_LIMIT == 60
    m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    # the budget is read at call time
    monkeypatch.setattr(numkernel, "JACOBI_SWEEP_LIMIT", 0)
    with pytest.raises(NoConvergence):
        herm_eig(m)
    # an already diagonal input needs no sweep and no rotation
    dec = herm_eig(np.diag([-2.0, 0.5, 3.0]).astype(complex))
    assert np.array_equal(dec.vectors, np.eye(3))
    big = random_hermitian(np.random.default_rng(16), 16)
    monkeypatch.setattr(numkernel, "JACOBI_SWEEP_LIMIT", 1)
    with pytest.raises(NoConvergence, match="budget 1 exhausted"):
        herm_eig(big)


def test_kernels_take_no_tolerance_keywords():
    removed = {
        "sweep_limit",
        "conv_rel",
        "cluster_rel",
        "hermitian_rel",
        "pivot_rel",
        "rank_rel",
        "invariance_tol",
        "discard_tol",
        "cap",
    }
    kernels = (
        herm_eig,
        inverse,
        orthonormal_columns,
        conjugation.fixed_basis,
        jclass.definitional_oracle,
    )
    for fn in kernels:
        assert not removed & set(inspect.signature(fn).parameters), fn.__name__
    # the twelfth was verify's tol: the conjugation axioms are judged at AXIOM_TOL
    assert "tol" not in inspect.signature(conjugation.verify).parameters
    assert conjugation.AXIOM_TOL == 1e-10


def test_eigenvalue_clustering_merges_consecutive_near_ties():
    m = np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex)
    dec = herm_eig(m)
    assert dec.clusters == ((0, 1), (2,))
    assert abs(dec.cluster_value(0) - (1.0 + 5e-13)) < 1e-15
    v = dec.cluster_basis(0)
    np.testing.assert_allclose(v @ v.conj().T, np.diag([1.0, 1.0, 0.0]), atol=1e-13)
    # the split threshold is relative with the pinned constant
    assert CLUSTER_REL_TOL == 1e-8
    wide = herm_eig(np.diag([1.0, 1.0 + 1e-7, 5.0]).astype(complex))
    assert wide.clusters == ((0,), (1,), (2,))


def test_herm_fn_exponential_frozen_value():
    m = np.array([[0.0, 1j * LN2], [-1j * LN2, 0.0]])
    expected = np.array([[1.25, 0.75j], [-0.75j, 1.25]])
    np.testing.assert_allclose(herm_eig(m).apply(math.exp), expected, atol=1e-13)


def test_herm_fn_reciprocal_agrees_with_elimination_inverse():
    rng = np.random.default_rng(5150)
    for n in (1, 3, 6):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = z @ z.conj().T + np.eye(n)
        diff = herm_eig(g).apply(lambda u: 1.0 / u) - inverse(g)
        assert frobenius(diff) / (1.0 + frobenius(g)) < 1e-11


def test_herm_fn_domain_errors():
    with pytest.raises(DomainError):
        herm_eig(np.diag([-1.0, 1.0]).astype(complex)).apply(math.sqrt)
    with pytest.raises(DomainError):
        herm_eig(np.diag([0.0, 1.0]).astype(complex)).apply(lambda u: 1.0 / u)
    with pytest.raises(DomainError):
        herm_eig(np.eye(2, dtype=complex)).apply(lambda u: float("nan"))


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


def _rank_deficient(rng, n, rank):
    u = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return u @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))


def test_a_last_column_singular_carries_a_null_vector_and_a_sigma_bound():
    rng = np.random.default_rng(1407)
    for n in range(2, 13):
        for _ in range(50):
            m = _rank_deficient(rng, n, n - 1)
            with pytest.raises(Singular, match=f"at column {n - 1} ") as info:
                inverse(m)
            x, bound = info.value.kernel, info.value.second_sigma_bound
            assert x.shape == (n,)
            assert abs(frobenius(x) - 1.0) <= 1e-15
            assert frobenius(m @ x) <= 1e-12 * frobenius(m)
            assert 0.0 < bound <= np.linalg.svd(m, compute_uv=False)[-2]
    # n = 1: the whole space is the kernel and no other singular value exists
    with pytest.raises(Singular) as info:
        inverse(np.zeros((1, 1)))
    assert info.value.kernel.tolist() == [1.0]
    assert info.value.second_sigma_bound == math.inf


def test_other_singular_raises_carry_no_payload():
    rng = np.random.default_rng(1408)
    for n in range(2, 13):
        with pytest.raises(Singular) as early:
            inverse(_rank_deficient(rng, n, n - 2))
        assert f"at column {n - 2} " in str(early.value)
        # a stack member failing at its last column carries nothing either
        mats = np.stack([_rank_deficient(rng, n, n), _rank_deficient(rng, n, n - 1)])
        with pytest.raises(Singular, match=f"stack index 1: .* at column {n - 1} ") as stacked:
            inverse(mats)
        for err in (early.value, stacked.value):
            assert err.kernel is None and err.second_sigma_bound is None


def test_inverse_and_classify_reject_an_overflowing_norm():
    # ||1e200 I||_F overflows, so no pivot floor can be set; the matrix must
    # not read as singular, since 1e-200 I is its representable inverse
    huge = 1e200 * np.eye(2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OutOfRange, match="overflows to inf"):
            inverse(huge)
        with pytest.raises(OutOfRange, match="overflows to inf"):
            jclass.classify(conjugation.canonical(2), huge)
    big = 1e150 * np.eye(2, dtype=complex)
    np.testing.assert_allclose(inverse(big), 1e-150 * np.eye(2), rtol=1e-15)


def _inverse_reference_cases(rng):
    for n in (*range(1, 17), 32, 64):
        yield f"random n={n}", rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    tiny = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    tiny[0, 0] = 1e-14  # the swap takes another row
    yield "tiny a[0, 0]", tiny
    small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    small[:, 0] *= 1e-10  # every first-column entry tiny, still above the floor
    yield "tiny first column", small
    for level in (16, 64):
        fam = truncation_family(level)
        eye = np.eye(2 * level, dtype=complex)
        yield f"I + A, L={level}", eye + fam.operator
        yield f"A - I, L={level}", fam.operator - eye


def _dense_inverse_cases(rng, n):
    """A Gaussian n x n matrix, and one built from it with far pivot rows."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    yield "gaussian", z
    # column k's dominant entry sits in row k + EDGE (mod n), so nearly every
    # pivot row lies far below the diagonal
    far = np.roll(3.0 * np.eye(n) + z / math.sqrt(2 * n), EDGE, axis=0)
    assert int(np.argmax(np.abs(far[:, 0]))) == EDGE % n
    yield "far pivots", far


def test_inplace_inverse_matches_augmented_reference():
    rng = np.random.default_rng(1414)
    # the column loop is the augmented array's steps on half its columns,
    # and array_equal has -0.0 == +0.0
    for where, m in _inverse_reference_cases(rng):
        assert np.array_equal(inverse(m), _augmented_inverse(m)), where
    # permutations swap rows at nearly every step; their inverses are exact
    for n in (2, 3, 7, 16, 33, 67, 100):
        for p in (np.eye(n)[::-1], np.eye(n)[rng.permutation(n)]):
            p = p.astype(complex)
            got = inverse(p)
            assert np.array_equal(got, _augmented_inverse(p)), n
            assert np.array_equal(got, p.T), n


def test_inplace_inverse_singular_messages_match_reference():
    rank_two = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 2.0]], dtype=complex)
    for m, column in ((np.zeros((3, 3), dtype=complex), 0), (rank_two, 2)):
        with pytest.raises(Singular) as got:
            inverse(m)
        with pytest.raises(Singular) as ref:
            _augmented_inverse(m)
        assert str(got.value) == str(ref.value)
        assert f"at column {column} " in str(got.value)


def test_inverse_leaves_the_callers_array_unchanged():
    rng = np.random.default_rng(7)
    for shape in ((9, 9), (69, 69), (3, 9, 9)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = a.copy()
        # the coercion hands back the caller's array, so the kernel must copy it
        assert np.shares_memory(numkernel._as_stack(a, square=True)[0], a)
        inverse(a)
        assert np.array_equal(a.view(np.uint64), before.view(np.uint64)), shape


def test_matrix_inverse_is_the_column_loop_reference():
    rng = np.random.default_rng(2024)
    # a matrix takes the column loop at every n: the same bits
    cases = [
        (f"{kind} n={n}", m)
        for n in (*range(1, 34), 64, 65, 100, 200)
        for kind, m in _dense_inverse_cases(rng, n)
    ]
    cases += [(w, m) for w, m in _inverse_reference_cases(rng) if w.startswith("tiny")]
    for where, m in cases:
        got, ref = inverse(m), _column_loop_inverse(m)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), where


def test_truncation_inverses_are_the_column_loop_reference_bit_for_bit():
    # the examples invert the 2 x 2 blocks as a stack: the whole-matrix loop
    # pivots inside each block, so its blocks are the stack's, bit for bit,
    # and off the blocks it leaves exact zeros
    for level in (1, 2, 3, 8, 15, 16, 17, 33, 64, 100, 128):
        fam = truncation_family(level)
        eye = np.eye(2 * level, dtype=complex)
        off = ~np.kron(np.eye(level, dtype=bool), np.ones((2, 2), dtype=bool))
        for m in (eye + fam.operator, fam.operator - eye):
            got, ref = inverse(m), _column_loop_inverse(m)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), level
            stacked = inverse(_diagonal_blocks(m))
            assert _same_bits(stacked, _diagonal_blocks(ref)), level
            assert not ref[off].any(), level


def test_singular_column_deep_in_the_matrix_matches_the_column_loop_reference():
    rng = np.random.default_rng(17)
    n, column = 71, 35
    zero = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zero[:, column] = 0.0
    # a dependent column leaves rounding noise far below the floor
    dependent = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dependent[:, column] = dependent[:, 0] - 2.0 * dependent[:, 5]
    cases = [(zero, column), (dependent, column), (_nan_pivot_matrix(), 524)]
    for m, col in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Singular) as got:
                inverse(m)
            with pytest.raises(Singular) as ref:
                _column_loop_inverse(m)
        assert f"at column {col} " in str(got.value)
        assert str(got.value) == str(ref.value)


def _nan_pivot_matrix():
    """A finite 525 x 525 matrix whose elimination meets a NaN pivot.

    Wilkinson's growth matrix (g on the diagonal, -g below it, s in the last
    column) doubles the last column each step, so row k holds s 2^k there
    when column k is eliminated, and s 2^523 overflows to inf.  The last
    row's +g in column 523 subtracts that inf from its own, leaving NaN
    for the final pivot.  Every pivot before it is g, above the floor."""
    n, g, s = 525, 1e140, 1e151
    m = g * (np.eye(n) - np.tril(np.ones((n, n)), -1))
    m[:, -1] = s
    m[-1, n - 2] = g
    return m


def _block_diagonal(rng, sizes):
    """Random complex blocks of the given sizes down the diagonal."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    i = 0
    for b in sizes:
        m[i : i + b, i : i + b] = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        i += b
    return m


def _straddling_sizes(rng, n):
    """Block sizes 1-5 summing to n, with a block across every EDGE multiple."""
    sizes, i = [], 0
    while i < n:
        b = min(int(rng.integers(1, 6)), n - i)
        edge = (i // EDGE + 1) * EDGE
        if edge < n and edge - i <= 4:
            b = min(int(rng.integers(edge - i + 1, 6)), n - i)  # across the edge
        elif i + b == edge < n:
            b -= 1  # a block of 5 ending on the edge; the next one crosses it
        sizes.append(b)
        i += b
    return sizes


def _block_structured_cases(rng):
    for level in (17, 24, 48, 181):
        fam = truncation_family(level)
        eye = np.eye(2 * level, dtype=complex)
        yield f"I + A, L={level}", eye + fam.operator
        yield f"A - I, L={level}", fam.operator - eye
    for n in (EDGE + 1, 2 * EDGE + 3, 100, 200):
        sizes = _straddling_sizes(rng, n)
        starts = np.cumsum([0, *sizes[:-1]])
        for edge in range(EDGE, n, EDGE):
            assert any(s < edge < s + b for s, b in zip(starts, sizes)), (n, edge)
        m = _block_diagonal(rng, sizes)
        yield f"blocks n={n}", m
        # pivots then come from rows outside the block's own rows
        yield f"blocks, rows permuted n={n}", m[rng.permutation(n)]
    for n, width in ((EDGE + 9, 2), (100, 3), (200, 5)):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= width
        yield f"band {width} n={n}", np.where(band, z, 0.0)
    for n in (EDGE + 16, 2 * EDGE, 3 * EDGE + 7):
        # dense diagonal blocks of EDGE, the last possibly narrower, rows
        # permuted inside each block so that pivots move
        sizes = [min(EDGE, n - s) for s in range(0, n, EDGE)]
        m = _block_diagonal(rng, sizes)
        m = m[np.concatenate([s + rng.permutation(b) for s, b in zip(range(0, n, EDGE), sizes)])]
        yield f"diagonal blocks n={n}", m


def test_block_structured_inverses_match_the_unpanelled_kernel():
    rng = np.random.default_rng(1401)
    for where, m in _block_structured_cases(rng):
        before = m.copy()
        got, ref = inverse(m), _column_loop_inverse(m)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), where
        assert np.array_equal(m.view(np.uint64), before.view(np.uint64)), where


def test_block_structured_singular_messages_match_the_unpanelled_kernel():
    rng = np.random.default_rng(1402)
    n = 3 * EDGE + 5
    cases = []
    for column in (EDGE + 3, 2 * EDGE + 31):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        zero, dependent = z.copy(), z.copy()
        zero[:, column] = 0.0
        dependent[:, column] = z[:, 0] - 2.0 * z[:, 5]
        cases += [(zero, [column]), (dependent, [column])]
    # block-structured: a zero 2 x 2 block in the third block, and a zero
    # column in blocks that straddle every edge
    n = 3 * EDGE + 6
    blocks = _block_diagonal(rng, [2] * (n // 2))
    blocks[2 * EDGE + 6 : 2 * EDGE + 8] = 0.0
    straddle = _block_diagonal(rng, _straddling_sizes(rng, n))
    zero, above, below = straddle.copy(), straddle.copy(), straddle.copy()
    zero[:, EDGE + 9] = 0.0
    # column EDGE + 3 is a sum of earlier columns, so its nonzeros lie in rows
    # above its block and it fails at once; column 2 EDGE + 4 is a sum of
    # later columns, so its nonzeros lie in rows below its block, it takes a
    # pivot from one of them, and the rank is found missing in the last block
    above[:, EDGE + 3] = 2.0 * straddle[:, 3] - 3.0j * straddle[:, 20]
    below[:, 2 * EDGE + 4] = straddle[:, 3 * EDGE + 1] + 0.5 * straddle[:, 3 * EDGE + 3]
    cases += [(blocks, [2 * EDGE + 6]), (zero, [EDGE + 9]), (above, [EDGE + 3])]
    cases += [(below, range(3 * EDGE, n))]
    for m, columns in cases:
        before = m.copy()
        with pytest.raises(Singular) as got:
            inverse(m)
        with pytest.raises(Singular) as ref:
            _column_loop_inverse(m)
        # the column and the pivot's magnitude are the reference's
        assert str(got.value) == str(ref.value)
        assert any(f"at column {c} " in str(got.value) for c in columns), str(got.value)
        assert np.array_equal(m.view(np.uint64), before.view(np.uint64))


def test_stacked_inverse_members_are_their_own_calls():
    rng = np.random.default_rng(1405)
    # scales 1e-12 to 1e12 side by side: a member's pivots pass or fail
    # against its own floor, not a stack mate's
    scales = 10.0 ** np.arange(-12, 13, 6)
    for n in (*range(1, 17), 32, 64):
        cases = _mixed_kinds(rng, n, 200, _dense_inverse_cases)
        mats = [m * scales[b % len(scales)] for b, (_, m) in enumerate(cases)]
        ones = [inverse(m) for m in mats]
        stack = np.stack(mats)
        # the reversed stack is a negative-stride view, so the kernel copies it
        runs = [(count, inverse(stack[:count])) for count in (1, 3, 200)]
        runs.append((200, inverse(stack[::-1])[::-1]))
        for count, got in runs:
            assert got.shape == (count, n, n)
            for b in range(count):
                assert _same_bits(got[b], ones[b]), (n, count, b)


def test_stacked_inverse_errors_name_the_stack_index():
    rng = np.random.default_rng(1406)
    good = [m for _, m in _mixed_kinds(rng, 6, 4, _dense_inverse_cases)]
    later, earlier, also_earlier, dependent = (m.copy() for m in good)
    later[:, 4] = 0.0
    earlier[:, 1] = 0.0
    also_earlier[:, 1] = 0.0
    # a rounding-noise pivot: the member's own arithmetic, bit for bit
    dependent[:, 3] = good[3][:, 0] - 2.0j * good[3][:, 2]
    # the earliest failing column wins, then the lowest stack index
    cases = [
        ([good[0], later, good[2], earlier], 3),
        ([later, earlier, good[2], also_earlier], 1),
        ([good[0], later, dependent], 2),
    ]
    for mats, index in cases:
        stack = np.stack(mats)
        before = stack.copy()
        with pytest.raises(Singular) as got:
            inverse(stack)
        with pytest.raises(Singular) as own:
            inverse(mats[index])
        with pytest.raises(Singular) as ref:
            _column_loop_inverse(mats[index])
        assert str(own.value) == str(ref.value)
        assert str(got.value) == f"stack index {index}: {own.value}"
        assert np.array_equal(stack.view(np.uint64), before.view(np.uint64))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OutOfRange, match="stack index 1: .* overflows to inf"):
            inverse(np.stack([good[0][:2, :2], 1e200 * np.eye(2)]))
    for shape in ((3,), (0, 2, 2), (2, 2, 3), (1, 2, 2, 2)):
        with pytest.raises(DimensionMismatch):
            inverse(np.ones(shape, dtype=complex))
    with pytest.raises(DimensionMismatch):
        inverse(np.stack([good[0], np.full((6, 6), np.nan)]))


def test_truncation_examples_step_no_more_than_two_rows(monkeypatch):
    # the examples invert their 2 x 2 blocks as a stack; one that went back
    # to the dense 2L x 2L matrix would still be right, but its L = 256
    # inverse would take the 512 x 512 column loop, about 0.5 s a call
    rows = []
    for name in ("_steps", "_stacked_steps"):
        def spy(a, floor, step=getattr(numkernel, name)):
            rows.append(a.shape[-2])
            return step(a, floor)

        monkeypatch.setattr(numkernel, name, spy)
    for level in (24, 181, 256):
        for probe in (growth_probe, cayley_v, norm_growth):
            rows.clear()
            probe(level)
            assert rows and max(rows) <= 2, (probe.__name__, level, rows)


def test_per_stack_norm_is_frobenius_bit_for_bit():
    """_frobenius_rows, herm_eig's gate and live test, equals frobenius for
    every member as uint64.  Both sum the same products in the same order
    through BLAS dot products, so the equality is a property of the
    numpy/BLAS build, which this test exists to catch."""
    rng = np.random.default_rng(1404)
    for n in (*range(1, 33), 48, 64):
        for count in (1, 3, 256):
            z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            for scale in (1e-3, 1.0, 1e5):
                stack = scale * z
                got = _frobenius_rows(stack.reshape(count, -1))
                want = np.array([frobenius(m) for m in stack])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, count, scale)


def test_frobenius_is_numpys_norm_bit_for_bit():
    rng = np.random.default_rng(1403)
    z = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    w = z.copy()
    w[2, 3] = complex(math.inf, 1.0)
    v = z.copy()
    v[4, 1] = complex(0.5, math.nan)
    cases = [z, z.T, z.conj().T, z[::2, 1:], z.real, z.real.T, z[0], z[0, 0]]
    cases += [rng.integers(-9, 9, (4, 6)), rng.integers(-9, 9, (4, 6)).T, [[1, 2], [3, 4]]]
    cases += [w, w.conj().T, v, v.T, np.array([[1.0, -math.inf]]), np.array([math.nan])]
    cases += [np.full((3, 3), 1e200 + 1e200j)]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in cases:
            got = frobenius(m)
            assert type(got) is float
            assert np.array_equal(got, float(np.linalg.norm(m)), equal_nan=True), m


def test_orthonormal_columns_properties():
    rng = np.random.default_rng(17)
    for n, k in ((5, 3), (4, 1)):
        b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        q, r = orthonormal_columns(b)
        assert q.shape == (n, n) and r.shape == (k, k)
        assert frobenius(q.conj().T @ q - np.eye(n)) < 1e-13
        assert frobenius(q[:, :k] @ r - b) < 1e-13
        assert np.array_equal(r, np.triu(r))
        # the trailing columns span the complement of B
        assert np.max(np.abs(q[:, k:].conj().T @ b)) < 1e-13
    q, r = orthonormal_columns(np.eye(3, dtype=complex))
    assert q.shape == (3, 3) and q[:, 3:].shape == (3, 0)
    assert frobenius(q @ r - np.eye(3)) < 1e-13
    with pytest.raises(RankDeficient):
        orthonormal_columns(np.column_stack([b[:, 0], 2.0 * b[:, 0]]))
    with pytest.raises(RankDeficient):
        orthonormal_columns(np.column_stack([b, b]))
    with pytest.raises(RankDeficient):
        orthonormal_columns(np.ones((2, 3), dtype=complex))


def test_orthonormal_columns_leading_frame_is_the_reduced_qr():
    # ranges_defects takes T - i's frame and its complement from one complete
    # QR; that rests on the leading columns and R being the reduced QR's bits
    rng = np.random.default_rng(29)
    for n in range(1, 17):
        for k in range(1, n + 1):
            b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            q, r = orthonormal_columns(b)
            q_red, r_red = np.linalg.qr(b, mode="reduced")
            assert q[:, :k].tobytes() == q_red.tobytes(), (n, k)
            assert r.tobytes() == r_red.tobytes(), (n, k)


def test_singular_extremes_match_numpy_svd():
    rng = np.random.default_rng(8)
    for shape in ((3, 3), (5, 2), (2, 5)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lo, hi = singular_extremes(m)
        svals = np.linalg.svd(m, compute_uv=False)
        assert abs(hi - svals[0]) < 1e-10 * (1.0 + svals[0])
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


def _gated_hermitians(rng, n):
    """Hermitian test matrices around the positivity boundary at size n."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    out = [random_hermitian(rng, n)]
    for sign in (1.0, -1.0):
        for mag in (1.0, 1e-3, 1e-6, 2e-8 * n):
            lam = rng.uniform(0.5, 4.0, n)
            lam[rng.integers(n)] = sign * mag
            out.append((q * lam) @ q.conj().T)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out.append(z.conj().T @ z + 1e-3 * np.eye(n))
    return out


def test_cholesky_gate_agrees_with_smallest_eigenvalue():
    rng = np.random.default_rng(606)
    seen = {True: 0, False: 0}
    for n in range(1, 17):
        for _ in range(3):
            for b in _gated_hermitians(rng, n):
                lam_min = herm_eig(b).eigenvalues[0]
                if abs(lam_min) < 1e-8 * frobenius(b):
                    continue
                accepted = nonpositive_pivot(b) is None
                assert accepted == (lam_min > 0.0), (n, lam_min)
                seen[accepted] += 1
    assert min(seen.values()) > 100


def test_nonpositive_pivot_names_the_failing_column():
    assert nonpositive_pivot(np.diag([1.0, 2.0, -1.0, 3.0]).astype(complex)) == (2, -1.0)
    assert nonpositive_pivot(np.zeros((3, 3), dtype=complex)) == (0, 0.0)
    # leading 1x1 block positive, Schur complement 1 - 4 = -3
    col, pivot = nonpositive_pivot(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
    assert col == 1 and abs(pivot + 3.0) < 1e-15
    assert nonpositive_pivot(np.array([[2.0, 1j], [-1j, 2.0]])) is None
    with pytest.raises(NotHermitian):
        nonpositive_pivot(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_nonpositive_pivot_leaves_the_callers_array_unchanged():
    rng = np.random.default_rng(607)
    for b in _gated_hermitians(rng, 7):
        kept = b.copy()
        nonpositive_pivot(b)
        np.testing.assert_array_equal(b, kept)


def test_one_norm_subspace_gap_matches_the_two_sided_max():
    rng = np.random.default_rng(608)
    for n in range(1, 10):
        for k in range(1, n + 1):
            u, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
            near = u + 1e-6 * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
            far = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            for w in (u * 1j, near, far):
                v, _ = np.linalg.qr(w)
                ru = v - u @ (u.conj().T @ v)
                rv = u - v @ (v.conj().T @ u)
                two_sided = max(singular_extremes(ru)[1], singular_extremes(rv)[1])
                assert abs(subspace_gap(u, v) - two_sided) <= 1e-14

"""Dense complex-matrix kernel: spectral calculus and elimination.

All operators are plain 2-D numpy arrays of complex128 (``herm_eig``,
``inverse`` and ``singular_extremes`` also take 3-D stacks of them).  The
two workhorses are deliberately self-contained so that their numerical
behaviour is pinned by this module rather than by a LAPACK build:

* ``herm_eig`` - round-robin (Brent-Luk) Jacobi eigensolver for Hermitian
  matrices, with a fixed sweep budget and relative off-diagonal convergence.
  It takes one matrix or a (B, n, n) stack.  Each round's disjoint rotations,
  and the gate, live test, sort and clustering, run per stack, while every
  matrix keeps its own scale, skip threshold, target and sweep count, so its
  result is bit-identical to its own call's whatever its stack mates.  Its
  sorted spectrum alone gives ``singular_extremes``, with no SpectralDecomp;
* ``inverse`` - in-place Gauss-Jordan on a working copy, partial pivoting,
  relative pivot floor, with no matrix product: the classic column loop on
  a matrix, and the same steps on all members at once on a stack.

A function of a Hermitian matrix is one product, V diag(f(lambda-bar)) V*,
with f taken once per eigenvalue cluster at its mean (``SpectralDecomp.apply``).

Positive definiteness is a rule, not a spectrum: ``nonpositive_pivot`` runs a
pinned Cholesky pivot scan (n numpy steps on a working copy) and reports the
first pivot that is not positive (<= 0 or NaN), which exists exactly when
the matrix is not positive definite.

numpy's complete QR (``orthonormal_columns``) gives a span's frame and its
complement in one call; that is container infrastructure, not part of the
pinned numerics.  What is pinned is the algorithms, tolerances and sweep
order, with no LAPACK eigensolver; what is not is the last bits of matrix
products (Jacobi rotations, Gram and residual products), which follow the
BLAS kernel numpy dispatches to at run time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NotHermitian,
    OutOfRange,
    RankDeficient,
    Singular,
)

# Pinned tolerances.  Relative ones scale with the Frobenius norm of the input.
JACOBI_SWEEP_LIMIT = 60
JACOBI_REL_TOL = 1e-13
CLUSTER_REL_TOL = 1e-8
PIVOT_REL_TOL = 1e-13
RANK_REL_TOL = 1e-10
HERMITIAN_REL_TOL = 1e-10


def as_matrix(m, name="matrix"):
    """Coerce to a finite complex 2-D array with at least one row and column."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(
            f"{name}: expected a 2-D matrix with positive dimensions, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{name}: entries must be finite")
    return a


def as_square(m, name="matrix"):
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {a.shape}")
    return a


def as_vector(x, dim=None, name="vector"):
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.size < 1 or not np.isfinite(v).all():
        raise DimensionMismatch(f"{name}: expected a finite non-empty vector")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name}: expected length {dim}, got {v.size}")
    return v


def frobenius(m):
    """||M||_F as a float: np.linalg.norm's default path without its argument
    handling, which costs more than the sum at n <= 16.  Bit-identical to
    np.linalg.norm for integer, float64 and complex128 input."""
    x = np.asarray(m)
    if not issubclass(x.dtype.type, (np.inexact, np.object_)):
        x = x.astype(float)
    x = x.ravel(order="K")
    if issubclass(x.dtype.type, np.complexfloating):
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _as_stack(m, square):
    """A matrix as the stack of one, or a 3-D stack of matrices.  Every matrix
    must be finite with positive dimensions, and square when square is set.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or 0 in a.shape or (square and a.shape[1] != a.shape[2]):
        kind = "square matrix" if square else "matrix"
        raise DimensionMismatch(
            f"matrix: expected a {kind} or a non-empty stack of them, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix: entries must be finite")
    return a


def _frobenius_rows(f):
    """The 2-norm of each row of a complex (..., k) array: frobenius's BLAS dot
    products in the same order, so bit-identical to it on this numpy/BLAS build."""
    re, im = f.real, f.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _hermitian_part(a):
    """(M + M*) / 2 and ||M||_F for each M of a (B, n, n) stack.

    Raises OutOfRange when ||M||_F overflows and NotHermitian when ||M - M*||_F
    is not within HERMITIAN_REL_TOL * (1 + ||M||_F); the first failing stack
    index is named, and at that index OutOfRange wins.
    """
    adj = a.conj().swapaxes(1, 2)
    scales, skews = _frobenius_rows(np.concatenate((a, a - adj)).reshape(2, len(a), -1))
    ok = np.isfinite(scales) & (skews <= HERMITIAN_REL_TOL * (1.0 + scales))
    if np.count_nonzero(ok) < len(a):
        i = int(ok.argmin())
        if not math.isfinite(scales[i]):
            raise OutOfRange(f"stack index {i}: ||M||_F overflows to {scales[i]}")
        raise NotHermitian(f"stack index {i}: ||M - M*||_F = {skews[i]:.3e} exceeds tolerance")
    return 0.5 * (a + adj), scales


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix with eigenvalue clustering.

    eigenvalues are real and ascending; vectors holds the matching
    orthonormal eigenvectors as columns; clusters groups indices whose
    eigenvalues are indistinguishable at the relative clustering tolerance.
    It holds no other state: cluster means and functions are computed per call.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: tuple

    def cluster_value(self, c):
        return float(sum(self.eigenvalues[i] for i in self.clusters[c]) / len(self.clusters[c]))

    def cluster_basis(self, c):
        return self.vectors[:, list(self.clusters[c])]

    def singular_values(self):
        """sqrt of the eigenvalues clipped at 0: M's singular values when this is
        M*M's.  The clip keeps a NaN NaN, so a failed decomposition is not 0."""
        return np.sqrt(np.clip(self.eigenvalues, 0.0, None))

    def apply(self, f):
        """(V * f(lambda-bar)) @ V*, with f evaluated once per cluster at its mean.

        Raises DomainError when f fails or gives a non-finite or non-real value.
        """
        vals = [0.0] * len(self.eigenvalues)
        for c, idx in enumerate(self.clusters):
            lam = self.cluster_value(c)
            try:
                val = float(f(lam))
            except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
                raise DomainError(f"f({lam!r}) failed: {exc}") from exc
            if not math.isfinite(val):
                raise DomainError(f"f({lam!r}) = {val!r} is not finite")
            for i in idx:
                vals[i] = val
        return (self.vectors * vals) @ self.vectors.conj().T


@functools.lru_cache(maxsize=256)
def _clusters(joined):
    """Cluster index tuples from a bytes row: byte i - 1 is nonzero when
    eigenvalue i joins the cluster of eigenvalue i - 1."""
    cuts = [0, *(i for i, join in enumerate(joined, 1) if not join), len(joined) + 1]
    return tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))


@functools.lru_cache(maxsize=64)
def _round_robin(n):
    """Brent-Luk round-robin schedule: each unordered pair once per sweep.

    n - 1 rounds of disjoint pairs for even n; odd n is padded with a dummy
    index n whose partner sits the round out, giving n rounds.  Returns one
    (p, q) pair of read-only index arrays with p < q per round.
    """
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        order = [0] + [1 + (i + r) % (m - 1) for i in range(m - 1)]
        pairs = [sorted(pq) for pq in zip(order[: m // 2], order[::-1]) if max(pq) < n]
        idx = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
        idx.setflags(write=False)
        rounds.append(tuple(idx))
    return tuple(rounds)


@functools.lru_cache(maxsize=64)
def _flat_rounds(n, count):
    """_round_robin(n) as flat indices into a C-ordered (count, n, n) stack.

    Returns (rounds, diag, eye): per round one read-only (4, count * pairs)
    array whose rows index a[p, q], a[q, p], a[p, p] and a[q, q] of every
    matrix in stack order; the flat indices of every diagonal; and a
    read-only identity stack.
    """
    base = np.arange(count)[:, None] * (n * n)
    rounds = []
    for p, q in _round_robin(n):
        idx = np.stack([p * n + q, q * n + p, p * (n + 1), q * (n + 1)])
        idx = (idx[:, None, :] + base).reshape(4, -1)
        idx.setflags(write=False)
        rounds.append(idx)
    diag = (base + np.arange(n) * (n + 1)).reshape(-1)
    eye = np.zeros((count, n, n), dtype=complex)
    eye.reshape(-1)[diag] = 1.0
    for arr in (diag, eye):
        arr.setflags(write=False)
    return tuple(rounds), diag, eye


def _sorted_spectrum(m):
    """herm_eig's gate, Jacobi sweeps and one stable sort, without the
    clustering: (vals (B, n) ascending, vecs (B, n, n) matching columns)."""
    # symmetrize once so representational noise cannot bias the rotations
    a, scales = _hermitian_part(_as_stack(m, square=True))
    targets = JACOBI_REL_TOL * scales
    count, n = a.shape[:2]
    rounds, diag, eye = _flat_rounds(n, count)
    # entries already far below target cannot affect convergence this sweep
    skip = (targets / max(1, 2 * n)).repeat(n // 2)
    act = np.arange(count)
    w, wv = a, eye.copy()
    vals, vecs = np.empty((count, n)), np.empty_like(a)
    sweeps = 0
    while True:
        # each matrix meets its own target; a converged one leaves the stack as it is
        off = w.reshape(-1, n * n).copy()
        off[:, :: n + 1] = 0.0
        norms = _frobenius_rows(off)
        live = norms > targets
        alive = np.count_nonzero(live)
        if alive < len(act):
            dead = ~live
            out = act.compress(dead)
            vals[out], vecs[out] = w.diagonal(0, 1, 2).real.compress(dead, 0), wv.compress(dead, 0)
            if not alive:
                break
            act, targets, w, wv = (x.compress(live, 0) for x in (act, targets, w, wv))
            skip = skip.reshape(len(live), -1).compress(live, 0).reshape(-1)
            rounds, diag, eye = _flat_rounds(n, len(act))
        if sweeps >= JACOBI_SWEEP_LIMIT:
            raise NoConvergence(
                f"stack index {act[0]}: Jacobi sweep budget {JACOBI_SWEEP_LIMIT} exhausted; "
                f"off-diagonal norm {norms[live][0]:.3e} > {targets[0]:.3e}"
            )
        for idx in rounds:
            wf = w.reshape(-1)
            apq = wf[idx[0]]
            r = np.abs(apq)
            hot = r > skip
            k = hot.nonzero()[0]
            if not k.size:
                continue
            # a matrix with no pair to rotate takes no product, as in its own call:
            # an identity product would turn its -0.0 entries into +0.0
            cold = None if k.size == r.size else ~np.logical_or.reduce(hot.reshape(len(act), -1), 1)
            idx, apq, r = idx.take(k, axis=1), apq[k], r[k]
            d = wf[idx[2:]].real
            tau = (d[1] - d[0]) / (2.0 * r)
            # sign form: the tie tau = 0 takes t = +1 and no branch divides by zero
            sign = np.where(tau >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = (t * c) * (apq / r)
            # the pairs are disjoint, so one rotation per matrix applies them all
            rot = eye.copy()
            rot.reshape(-1)[idx.reshape(-1)] = np.concatenate((s, -s.conj(), c, c))
            w, w0 = rot.conj().swapaxes(1, 2) @ w @ rot, w
            wf = w.reshape(-1)
            # exact zeros here by construction; keep diagonal real
            wf[idx[:2].reshape(-1)] = 0.0
            wf.imag[diag] = 0.0
            wv, wv0 = wv @ rot, wv
            if cold is not None and np.count_nonzero(cold):
                w[cold], wv[cold] = w0[cold], wv0[cold]
        sweeps += 1
    # one stable sort for the whole stack
    order = vals.argsort(axis=1, kind="stable")
    rows = np.arange(count)[:, None]
    # indices either side of the slice put the gathered axis first: swap it back
    return vals[rows, order], vecs[rows, :, order].swapaxes(1, 2).copy()


def herm_eig(m):
    """Eigendecomposition of Hermitian matrices by round-robin (Brent-Luk) Jacobi.

    Takes one n x n matrix and returns one SpectralDecomp, or a (B, n, n)
    stack and returns a tuple of B; a matrix is the stack of one.  The gate,
    rotations, live test and sort (_sorted_spectrum) and the clustering are
    numpy calls over the whole stack; each matrix keeps its own scale, skip
    threshold, target and sweep count: a skipped pair, or any pair of a
    matrix that has converged and left the stack, gets no rotation, so a
    matrix's result is bit-identical to its own call's whatever its mates.

    Convergence: off-diagonal Frobenius norm <= JACOBI_REL_TOL * ||M||_F
    within JACOBI_SWEEP_LIMIT sweeps; clusters at CLUSTER_REL_TOL.  Raises
    NotHermitian if ||M - M*||_F exceeds HERMITIAN_REL_TOL * (1 + ||M||_F),
    OutOfRange if ||M||_F overflows, and NoConvergence if the sweep budget
    runs out; each names the stack index.
    """
    vals, vecs = _sorted_spectrum(m)
    # one clustering pass for the whole stack
    prev = vals[:, :-1]
    joined = np.abs(vals[:, 1:] - prev) <= CLUSTER_REL_TOL * (1.0 + np.abs(prev))
    groups = [_clusters(row.tobytes()) for row in joined]
    decs = tuple(map(SpectralDecomp, vals, vecs, groups))
    return decs[0] if np.ndim(m) == 2 else decs


def nonpositive_pivot(m):
    """First Cholesky pivot <= 0 or NaN of a Hermitian matrix: (column, pivot).

    Returns None when every pivot is positive, i.e. when M is positive
    definite.  Right-looking Cholesky on a working copy of (M + M*) / 2:
    step k takes the pivot d = A[k, k] and subtracts l l* from the trailing
    block, l = A[k+1:, k] / sqrt(d); the factor itself is not kept.  Raises
    NotHermitian and OutOfRange on herm_eig's rules.
    """
    a = _hermitian_part(as_square(m)[None])[0][0]
    for k in range(a.shape[0]):
        d = float(a[k, k].real)
        if not d > 0.0:  # a NaN pivot is not positive
            return k, d
        col = a[k + 1 :, k] / math.sqrt(d)
        a[k + 1 :, k + 1 :] -= col[:, None] * col.conj()
    return None


def _last_column_null(a):
    """What a working array that failed its last pivot certifies about M.

    Rows :n-1 of the spent columns hold rows :n-1 of the accumulated row
    operations E, whose remaining column is e_{n-1}, so they are a left
    inverse of M's first n - 1 columns: 1/||a[:n-1, :n-1]||_F <= their
    sigma_min <= sigma_{n-1}(M) by interlacing (inf when n = 1).  The last
    column holds y = E M e_{n-1}, so x = [-y[:n-1]; 1]/||.|| is a unit null
    vector candidate, sigma_min(M) <= ||M x||.  Returns (x, the bound)."""
    x = -a[:, -1]
    x[-1] = 1.0
    x /= frobenius(x)
    spent = frobenius(a[:-1, :-1])
    return x, 1.0 / spent if spent else math.inf


def _steps(a, floor):
    """The classic Gauss-Jordan column loop on a, in place.  Returns the row
    labels: column k then holds inverse column rows[k].  Raises Singular for
    the first pivot at or below the floor, with _last_column_null's payload
    when that is the last column."""
    n = a.shape[0]
    rows = list(range(n))
    for k in range(n):
        piv = int(np.argmax(np.abs(a[k:, k]))) + k
        mag = abs(a[piv, k])
        if not mag > floor:
            raise Singular(
                f"pivot {mag:.3e} at column {k} is at or below the floor {floor:.3e}",
                *(_last_column_null(a) if k == n - 1 else ()),
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
    return rows


def _stacked_steps(t, floors):
    """_steps on each matrix b of a C-contiguous (B, n, n) stack against
    floors[b], one set of numpy calls per step; returns the (B, n) row labels.
    Singular names the earliest failing column and the lowest index there."""
    count, n = t.shape[:2]
    m = count * n
    # a pivot row is found by its flat row
    tr = t.reshape(m, n)
    base = np.arange(0, m, n)
    perm = np.arange(m)
    unit = np.eye(n, dtype=complex)
    for j in range(n):
        r = np.abs(t[:, j:, j]).argmax(axis=1)
        rj = base + j
        r += rj
        x = tr[r, j]
        # np.hypot, not np.abs: _steps's floor test, scalar abs(), bit for bit
        mag = np.hypot(x.real, x.imag)
        ok = mag > floors
        if not ok.all():
            b = int(ok.argmin())
            raise Singular(
                f"stack index {b}: pivot {mag[b]:.3e} at column {j} is at or below "
                f"the floor {floors[b]:.3e}"
            )
        if (r != rj).any():
            row = tr[r]
            tr[r] = t[:, j]
            t[:, j] = row
            label = perm[r]
            perm[r] = perm[rj]
            perm[rj] = label
        col = t[:, :, j].copy()
        col[:, j] = 0.0
        t[:, :, j] = unit[j]
        t[:, j] /= x[:, None]
        t -= col[:, :, None] * t[:, j, None]
    return perm.reshape(count, n) - base[:, None]


def inverse(m):
    """Matrix inverse: in-place Gauss-Jordan on a working copy, partial
    pivoting, relative pivot floor, and no matrix product.

    Takes one n x n matrix (the classic column loop, _steps), or a (B, n, n)
    stack and returns the stack of inverses (the same steps on all members
    at once, _stacked_steps, which is slower than _steps on a stack of one).
    Each member keeps its own floor, pivots and arithmetic, so its inverse
    is bit-identical to its own call's.

    Raises OutOfRange when ||M||_F overflows, and Singular unless the best
    available pivot (NaN included) exceeds PIVOT_REL_TOL * ||M||_F; for a
    stack each names the stack index, and Singular the earliest failing
    column, at the lowest index failing there.  Only a single matrix that
    fails at its last column raises Singular with ``kernel`` and
    ``second_sigma_bound`` set (_last_column_null); extension.SINGULAR_FLOOR
    states how extend certifies V - I from them and from the inverse.
    """
    if np.ndim(m) != 2:
        t = _as_stack(m, square=True).copy()
        floors = PIVOT_REL_TOL * _frobenius_rows(t.reshape(len(t), -1))
        ok = np.isfinite(floors)
        if not ok.all():
            raise OutOfRange(f"stack index {int(ok.argmin())}: ||M||_F overflows to inf")
        rows = _stacked_steps(t, floors)
        return np.take_along_axis(t, rows.argsort(axis=1)[:, None], axis=2)
    a = as_square(m).copy()
    floor = PIVOT_REL_TOL * frobenius(a)
    if not math.isfinite(floor):
        raise OutOfRange("||M||_F overflows to inf, so the pivot floor is undefined")
    rows = _steps(a, floor)
    # column k holds inverse column rows[k]; gathering is cheaper than scattering
    cols = [0] * len(rows)
    for k, r in enumerate(rows):
        cols[r] = k
    return a.take(cols, axis=1)


def orthonormal_columns(b, *, name="frame"):
    """Complete QR of an n x k B: (Q, R) with Q unitary, B = Q[:, :k] R, R k x k
    upper triangular, and Q[:, k:] spanning B's complement (none when k = n).

    Raises RankDeficient when k > n or some |R[i, i]| <= RANK_REL_TOL times
    the largest column norm.
    """
    b = as_matrix(b, name)
    n, k = b.shape
    if k > n:
        raise RankDeficient(f"{name}: {k} columns cannot be independent in dimension {n}")
    q, r = np.linalg.qr(b, mode="complete")
    colmax = float(np.max(np.linalg.norm(b, axis=0)))
    diag = np.abs(np.diag(r))
    if (diag <= RANK_REL_TOL * colmax).any():
        j = int(np.argmin(diag))
        raise RankDeficient(
            f"{name}: column {j} is dependent (R diagonal {diag[j]:.3e} "
            f"vs scale {colmax:.3e})"
        )
    return q, r[:k]


def singular_extremes(m):
    """(smallest, largest) singular value via the Hermitian spectrum of M*M.

    Takes a matrix, or a (B, r, c) stack and returns a tuple of B pairs.  Both
    ends of every member are read from the sorted spectrum of one stacked
    _sorted_spectrum call (no SpectralDecomp), with one clip at 0 that keeps
    a NaN NaN, and each pair is bit-identical to the matrix's own call.
    """
    a = _as_stack(m, square=False)
    ends = _sorted_spectrum(a.conj().swapaxes(1, 2) @ a)[0][:, [0, -1]]
    pairs = tuple(map(tuple, np.sqrt(np.clip(ends, 0.0, None)).tolist()))
    return pairs[0] if np.ndim(m) == 2 else pairs


def subspace_gap(u, v):
    """Sine of the largest principal angle between two column spans.

    Inputs must have orthonormal columns.  Returns 0.0 for two empty spans
    and 1.0 when the column counts differ (the spans cannot coincide).  For
    equal column counts ||(I - U U*) V||_2 = ||(I - V V*) U||_2 = sin of the
    largest angle, so one norm is taken: a vector 2-norm for one column, the
    spectral norm otherwise.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 2 or v.ndim != 2 or u.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"subspace_gap: ambient dimensions differ ({u.shape} vs {v.shape})"
        )
    if u.shape[1] != v.shape[1]:
        return 1.0
    if u.shape[1] == 0:
        return 0.0
    r = v - u @ (u.conj().T @ v)
    if r.shape[1] == 1:
        return float(np.linalg.norm(r))
    return singular_extremes(r)[1]

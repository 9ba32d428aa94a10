"""Dense complex-matrix kernel: spectral calculus and elimination.

All operators are plain 2-D numpy arrays of complex128.  The two workhorses
are deliberately self-contained so that their numerical behaviour is pinned
by this module rather than by a LAPACK build:

* ``herm_eig`` - round-robin (Brent-Luk) Jacobi eigensolver for Hermitian
  matrices, with a fixed sweep budget and relative off-diagonal convergence;
* ``inverse`` - in-place Gauss-Jordan on an n x n working copy, partial
  pivoting, relative pivot floor.

Positive definiteness is a rule, not a spectrum: ``nonpositive_pivot`` runs a
pinned Cholesky pivot scan (n numpy steps on a working copy) and reports the
first pivot <= 0, which exists exactly when the matrix is not positive
definite.

numpy's QR is used for orthonormal frames and complements; that is container
infrastructure, not part of the pinned numerics.
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
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name}: entries must be finite")
    return a


def as_square(m, name="matrix"):
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {a.shape}")
    return a


def as_vector(x, dim=None, name="vector"):
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.size < 1 or not np.all(np.isfinite(v)):
        raise DimensionMismatch(f"{name}: expected a finite non-empty vector")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name}: expected length {dim}, got {v.size}")
    return v


def frobenius(m):
    return float(np.linalg.norm(m))


def _hermitian_part(m, hermitian_rel):
    """(M + M*) / 2 and ||M||_F; NotHermitian when ||M - M*||_F exceeds
    hermitian_rel * (1 + ||M||_F)."""
    a0 = as_square(m)
    scale = frobenius(a0)
    skew = frobenius(a0 - a0.conj().T)
    if skew > hermitian_rel * (1.0 + scale):
        raise NotHermitian(f"||M - M*||_F = {skew:.3e} exceeds tolerance")
    return 0.5 * (a0 + a0.conj().T), scale


def _offdiag_norm(a):
    d = np.diag(np.diag(a))
    return frobenius(a - d)


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix with eigenvalue clustering.

    eigenvalues are real and ascending; vectors holds the matching
    orthonormal eigenvectors as columns; clusters groups indices whose
    eigenvalues are indistinguishable at the relative clustering tolerance.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: tuple

    @property
    def dim(self):
        return self.vectors.shape[0]

    def cluster_value(self, c):
        idx = list(self.clusters[c])
        return float(np.mean(self.eigenvalues[idx]))

    def cluster_basis(self, c):
        return self.vectors[:, list(self.clusters[c])]

    def cluster_projector(self, c):
        v = self.cluster_basis(c)
        return v @ v.conj().T

    def apply(self, f):
        """Sum of f(cluster mean) times the cluster projector.

        Raises DomainError when f fails or returns a non-finite or
        non-real value on some cluster.
        """
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c in range(len(self.clusters)):
            lam = self.cluster_value(c)
            try:
                val = float(f(lam))
            except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
                raise DomainError(f"f({lam!r}) failed: {exc}") from exc
            if not math.isfinite(val):
                raise DomainError(f"f({lam!r}) = {val!r} is not finite")
            out += val * self.cluster_projector(c)
        return out


def _cluster_indices(vals, rel_tol):
    groups = [[0]]
    for i in range(1, len(vals)):
        prev = vals[i - 1]
        if abs(vals[i] - prev) <= rel_tol * (1.0 + abs(prev)):
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


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


def herm_eig(
    m,
    *,
    sweep_limit=JACOBI_SWEEP_LIMIT,
    conv_rel=JACOBI_REL_TOL,
    cluster_rel=CLUSTER_REL_TOL,
    hermitian_rel=HERMITIAN_REL_TOL,
):
    """Eigendecomposition of a Hermitian matrix by round-robin (Brent-Luk) Jacobi.

    Convergence: off-diagonal Frobenius norm <= conv_rel * ||M||_F.  Raises
    NotHermitian if ||M - M*||_F exceeds hermitian_rel * (1 + ||M||_F), and
    NoConvergence if the sweep budget runs out.
    """
    # symmetrize once so representational noise cannot bias the rotations
    a, scale = _hermitian_part(m, hermitian_rel)
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


def nonpositive_pivot(m):
    """First Cholesky pivot <= 0 of a Hermitian matrix, as (column, pivot).

    Returns None when every pivot is positive, i.e. when M is positive
    definite.  Right-looking Cholesky on a working copy of (M + M*) / 2:
    step k takes the pivot d = A[k, k] and subtracts l l* from the trailing
    block, l = A[k+1:, k] / sqrt(d); the factor itself is not kept.  Raises
    NotHermitian on herm_eig's default rule.
    """
    a, _ = _hermitian_part(m, HERMITIAN_REL_TOL)
    for k in range(a.shape[0]):
        d = float(a[k, k].real)
        if d <= 0.0:
            return k, d
        col = a[k + 1 :, k] / math.sqrt(d)
        a[k + 1 :, k + 1 :] -= col[:, None] * col.conj()
    return None


def herm_fn(m, f, **kwargs):
    """Apply a real scalar function to a Hermitian matrix spectrally."""
    return herm_eig(m, **kwargs).apply(f)


def inverse(m, *, pivot_rel=PIVOT_REL_TOL):
    """Matrix inverse: in-place Gauss-Jordan on an n x n working copy,
    partial pivoting, relative pivot floor.

    Each spent column of A takes over the inverse column that becomes live
    at that step, so the work is that of [A | I] with half the columns.
    Raises Singular when the best available pivot falls at or below
    pivot_rel * ||M||_F.
    """
    a = as_square(m).copy()
    n = a.shape[0]
    floor = pivot_rel * frobenius(a)
    rows = list(range(n))
    for k in range(n):
        piv = int(np.argmax(np.abs(a[k:, k]))) + k
        mag = abs(a[piv, k])
        if mag <= floor:
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


def resolvent(m, z):
    """(M - z I)^{-1}; raises Singular when z is (numerically) an eigenvalue."""
    a = as_square(m)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DimensionMismatch("resolvent point must be finite")
    return inverse(a - z * np.eye(a.shape[0], dtype=complex))


def orthonormal_columns(b, *, rank_rel=RANK_REL_TOL, name="frame"):
    """QR-orthonormalize independent columns; returns (Q, R) with B = Q R.

    Raises RankDeficient when some R diagonal entry falls at or below
    rank_rel times the largest column norm.
    """
    b = as_matrix(b, name)
    n, k = b.shape
    if k > n:
        raise RankDeficient(f"{name}: {k} columns cannot be independent in dimension {n}")
    q, r = np.linalg.qr(b, mode="reduced")
    colmax = float(np.max(np.linalg.norm(b, axis=0)))
    diag = np.abs(np.diag(r))
    if np.any(diag <= rank_rel * colmax):
        j = int(np.argmin(diag))
        raise RankDeficient(
            f"{name}: column {j} is dependent (R diagonal {diag[j]:.3e} "
            f"vs scale {colmax:.3e})"
        )
    return q, r


def orth_complement(basis, *, rank_rel=RANK_REL_TOL, name="basis"):
    """Orthonormal basis of the orthogonal complement of the column span.

    Accepts an n x k matrix with independent columns, 0 <= k <= n; returns
    an n x (n - k) matrix with orthonormal columns (empty when k = n).
    """
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2-D matrix, got shape {b.shape}")
    n, k = b.shape
    if n < 1:
        raise DimensionMismatch(f"{name}: ambient dimension must be positive")
    if k == 0:
        return np.eye(n, dtype=complex)
    if not np.all(np.isfinite(b)):
        raise DimensionMismatch(f"{name}: entries must be finite")
    if k > n:
        raise RankDeficient(f"{name}: {k} columns cannot be independent in dimension {n}")
    q, r = np.linalg.qr(b, mode="complete")
    colmax = float(np.max(np.linalg.norm(b, axis=0)))
    diag = np.abs(np.diag(r[:k, :]))
    if np.any(diag <= rank_rel * colmax):
        j = int(np.argmin(diag))
        raise RankDeficient(
            f"{name}: column {j} is dependent (R diagonal {diag[j]:.3e} "
            f"vs scale {colmax:.3e})"
        )
    return q[:, k:]


def singular_extremes(m):
    """(smallest, largest) singular value via the Hermitian spectrum of M*M."""
    a = as_matrix(m)
    if a.shape[1] == 0:
        return 0.0, 0.0
    g = a.conj().T @ a
    vals = herm_eig(g).eigenvalues
    lo = math.sqrt(max(0.0, float(vals[0])))
    hi = math.sqrt(max(0.0, float(vals[-1])))
    return lo, hi


def spectral_norm(m):
    return singular_extremes(m)[1]


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
    return spectral_norm(r)

"""Antilinear conjugations on C^n and their fixed-vector geometry.

A conjugation J is an antilinear involutive antiunitary map.  It is stored
through its coefficient matrix C: J x = C conj(x), where C must be symmetric
and unitary; the constructor checks the axioms (``verify``) and raises
NotConjugation, naming each that fails.  The linear map x -> J M J x then
has matrix C conj(M) C* (``sandwich``), and spans with a vanishing
projector residual ||P - J P J||_F (``invariance_residual``) admit
orthonormal bases of J-fixed vectors (``fixed_basis``); both take the span
as orthonormal columns, and ``fixed_basis`` checks them at ORTHO_TOL
(raising BadShape) instead of factoring them.  J's frame of the
whole space (``Conjugation.fixed_frame``) is data where J was drawn from one:
C = Q Q^T gives J Q = Q Q^T conj(Q) = Q, so the unitary Q is a J-fixed frame
(the Takagi factorization; Garcia & Putinar, Trans. Amer. Math. Soc. 358
(2006)).  ``canonical`` keeps I and ``random_conjugation`` its Q; a
conjugation built from a bare coefficient finds its frame with
``fixed_basis`` once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, DimensionMismatch, NotConjugation, NotInvariant, RankLoss
from .numkernel import as_matrix, as_square, as_vector, frobenius
from .report import ResidualReport

AXIOM_TOL = 1e-10
FIXED_DISCARD_TOL = 1e-10
INVARIANCE_TOL = 1e-8
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class Conjugation:
    """Conjugation J x = C conj(x) with C symmetric unitary at AXIOM_TOL.
    J keeps a read-only copy of C, so no later edit of the caller's array
    reaches C or the fixed frame kept with it."""

    dim: int
    coeff: np.ndarray

    def __post_init__(self):
        c = as_square(self.coeff, "conjugation coefficient").copy(order="K")
        c.setflags(write=False)
        if c.shape[0] != self.dim:
            raise DimensionMismatch(
                f"conjugation: dim {self.dim} does not match coefficient shape {c.shape}"
            )
        object.__setattr__(self, "coeff", c)
        # the identity meets the axioms exactly; skipping its products keeps
        # canonical(n) cheap, which the oracle suite builds on every trial
        if not np.array_equal(c, np.eye(self.dim)):
            rep = verify(self)
            bad = [f"{it.name} residual {it.residual:.3e}" for it in rep.items if not it.passed]
            if bad:
                raise NotConjugation("coefficient is not a conjugation: " + ", ".join(bad))

    def __eq__(self, other):
        """Same dim and the same coefficient entries; the frame is not compared."""
        if not isinstance(other, Conjugation):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.coeff, other.coeff))

    def apply(self, x):
        """J x for a vector, or J applied to each column of a matrix."""
        a = np.asarray(x, dtype=complex)
        if a.ndim == 1:
            v = as_vector(a, self.dim, "conjugation argument")
            return self.coeff @ np.conj(v)
        a = as_matrix(a, "conjugation argument")
        if a.shape[0] != self.dim:
            raise DimensionMismatch(
                f"conjugation argument has {a.shape[0]} rows, expected {self.dim}"
            )
        return self.coeff @ np.conj(a)

    def sandwich(self, m):
        """Matrix of the linear map x -> J (M (J x)), i.e. C conj(M) C*."""
        a = as_square(m, "sandwich argument")
        if a.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operator is {a.shape[0]}-dimensional, conjugation is {self.dim}-dimensional"
            )
        return self.coeff @ np.conj(a) @ self.coeff.conj().T

    def fixed_frame(self):
        """J-fixed orthonormal frame Phi of the whole space, C = Phi Phi^T.

        The frame J was drawn from (I for ``canonical``, Q for
        ``random_conjugation``); otherwise fixed_basis(J, I), computed on
        first use.  Kept read-only on the instance; equality ignores it.  A
        conjugation file stores only C, so a reloaded random J searches for its
        frame, and seeded generators drawn on it differ from the original's.
        """
        if "_fixed_frame" not in self.__dict__:
            _keep_frame(self, fixed_basis(self, np.eye(self.dim, dtype=complex)))
        return self._fixed_frame


def _keep_frame(j, frame):
    """Store frame, read-only, as J's fixed frame; returns J."""
    frame.setflags(write=False)
    object.__setattr__(j, "_fixed_frame", frame)
    return j


def canonical(dim):
    """Entrywise conjugation: C = I, with fixed frame I."""
    if dim < 1:
        raise DimensionMismatch(f"conjugation dimension must be positive, got {dim}")
    j = Conjugation(int(dim), np.eye(int(dim), dtype=complex))
    return _keep_frame(j, np.eye(int(dim), dtype=complex))


def verify(j):
    """Residuals for the conjugation axioms of J's coefficient matrix, at AXIOM_TOL."""
    c = j.coeff
    eye = np.eye(j.dim, dtype=complex)
    rep = ResidualReport()
    rep.add("involution", frobenius(c @ np.conj(c) - eye), AXIOM_TOL)
    rep.add("unitarity", frobenius(c.conj().T @ c - eye), AXIOM_TOL)
    rep.add("symmetry", frobenius(c - c.T), AXIOM_TOL)
    return rep


def invariance_residual(j, q):
    """||P - J P J||_F of the projector P = Q Q* onto the span of Q's
    orthonormal columns; zero exactly when J maps that span onto itself."""
    proj = q @ q.conj().T
    return frobenius(proj - j.sandwich(proj))


def as_seed_sequence(seed):
    """Coerce an int seed or existing SeedSequence for child spawning."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def random_unitary(dim, rng):
    """Haar-like unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_conjugation(dim, seed):
    """Seeded conjugation C = Q Q^T, Q Haar-like unitary; J Q = Q, so Q is
    kept as J's fixed frame."""
    if dim < 1:
        raise DimensionMismatch(f"conjugation dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    q = random_unitary(int(dim), rng)
    return _keep_frame(Conjugation(int(dim), q @ q.T), q)


def fixed_basis(j, basis):
    """Orthonormal basis of J-fixed vectors spanning a J-invariant subspace.

    basis is an n x k matrix with orthonormal columns spanning the subspace
    (k = 0 allowed, returning an n x 0 result), so its projector is B B*
    and no QR is run.  Candidates are generated deterministically: v + Jv
    for each input column v in order, then i(v - Jv), orthonormalized with
    real coefficients (which preserves J-fixedness) and discarded when the
    residual norm falls below FIXED_DISCARD_TOL.

    Raises DimensionMismatch on non-finite entries, BadShape when
    ||B* B - I||_F exceeds ORTHO_TOL (a scaled or dependent basis; a tiny
    span's projector residual is tiny whether or not it is invariant),
    NotInvariant when the span is not J-invariant at INVARIANCE_TOL
    (projector residual ||P - J P J||_F; a NaN residual fails), and RankLoss
    if fewer than k fixed vectors survive, which cannot happen for a
    genuinely invariant span.
    """
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != j.dim:
        raise DimensionMismatch(
            f"fixed_basis: expected an {j.dim} x k basis, got shape {b.shape}"
        )
    n, k = b.shape
    if k == 0:
        return np.zeros((n, 0), dtype=complex)
    b = as_matrix(b, "fixed_basis input")
    ortho_res = frobenius(b.conj().T @ b - np.eye(k))
    if not ortho_res <= ORTHO_TOL:
        raise BadShape(f"fixed_basis input columns are not orthonormal (residual {ortho_res:.3e})")
    inv_res = invariance_residual(j, b)
    if not inv_res <= INVARIANCE_TOL:
        raise NotInvariant(
            f"span is not conjugation-invariant: projector residual {inv_res:.3e}"
        )
    cols = [b[:, i] / np.linalg.norm(b[:, i]) for i in range(k)]
    pairs = [(v, j.apply(v)) for v in cols]
    candidates = [v + jv for v, jv in pairs] + [1j * (v - jv) for v, jv in pairs]
    out = []
    for w in candidates:
        for _ in range(2):  # one re-orthogonalization pass for stability
            for g in out:
                w = w - np.real(np.vdot(g, w)) * g
        nrm = np.linalg.norm(w)
        if nrm > FIXED_DISCARD_TOL:
            out.append(w / nrm)
        if len(out) == k:
            break
    if len(out) < k:
        raise RankLoss(
            f"extracted {len(out)} fixed vectors from a {k}-dimensional invariant span"
        )
    return np.column_stack(out)

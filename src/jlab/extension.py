"""Self-adjoint extensions of J-imaginary symmetric partial operators.

A partial operator T is given by an orthonormal domain basis Q (n x d) and
its image A Q (n x d).  When T is symmetric and anticommutes with a
conjugation J on a J-invariant domain, the Cayley transform of T extends to
a J-real unitary V: on the range of T - i it maps (T - i)f to (T + i)f, and
on the defect space N_i it is completed by a pairing W of J-fixed
orthonormal bases of N_i and N_{-i}.  Inverting the Cayley transform,
A~ = iI + 2i (V - I)^{-1}, yields a self-adjoint J-imaginary extension of T.
When V - I is singular the relation is multivalued unless a sign flip on
the J-fixed basis of N_{-i} clears the kernel.  The flips follow a parity
rule.  In a J-fixed frame V is real orthogonal, so with m = dim ker(V - I)
det V = (-1)^n exactly when m is even.  Negating column i of f_- multiplies
V by the reflection I - 2 p_i p_i*, p_i column i of f_+, which changes that
parity; a flip set S can clear the kernel only if |S| >= m and
|S| = m (mod 2).  So the one retry flips the m columns whose f_+ partners
overlap ker(V - I) most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conjugation import ORTHO_TOL, as_seed_sequence, fixed_basis, invariance_residual
from .errors import (
    BadShape,
    DomainNotJInvariant,
    MultivaluedRelation,
    NotJImaginary,
    Singular,
)
from .jclass import DEFAULT_TOL
from .numkernel import (
    as_matrix,
    frobenius,
    herm_eig,
    inverse,
    orthonormal_columns,
)
from .polar import random_j_real_unitary
from .report import ResidualReport

# smallest trusted singular value of V - I; the inverse-Cayley residuals
# degrade like eps/sigma, so anything below 1e-5 would break the 1e-8
# diagnostic budget.  sigma_min >= 1/||(V - I)^-1||_F, so an elimination
# inverse with ||(V - I)^-1||_F * SINGULAR_FLOOR < 1 certifies V - I.  An
# unflipped elimination that fails at its last column certifies a
# one-dimensional kernel, spanned by its null vector x (see Singular), when
# its bound on sigma_{n-1} clears the floor and ||(V - I) x||_F <=
# SINGULAR_FLOOR.  A retry that elimination cannot invert is multivalued
# whatever its kernel.  Only an undecided attempt, or an unflipped one that
# fails earlier, is judged on the Gram matrix (V - I)*(V - I), whose
# eigenvectors below the floor span ker(V - I).
SINGULAR_FLOOR = 1e-5


@dataclass(frozen=True, eq=False)
class PartialSymmetricOperator:
    """Operator defined on a subspace: domain basis Q and image columns A Q.
    T keeps read-only copies of both arrays, so no later edit of the caller's
    arrays reaches it or the DefectData that ``ranges_defects`` keeps on T.
    T compares by identity, and repr leaves out the kept DefectData."""

    ambient: int
    domain_basis: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.domain_basis, "domain_basis").copy(order="K")
        a = as_matrix(self.action, "action").copy(order="K")
        n = int(self.ambient)
        if n < 1:
            raise BadShape(f"ambient dimension must be positive, got {n}")
        if q.shape[0] != n or a.shape[0] != n:
            raise BadShape(
                f"domain_basis {q.shape} / action {a.shape} do not live in dimension {n}"
            )
        if q.shape[1] != a.shape[1]:
            raise BadShape(
                f"domain_basis has {q.shape[1]} columns but action has {a.shape[1]}"
            )
        if not 1 <= q.shape[1] <= n:
            raise BadShape(f"domain dimension {q.shape[1]} must lie in [1, {n}]")
        gram = q.conj().T @ q - np.eye(q.shape[1], dtype=complex)
        if not frobenius(gram) <= ORTHO_TOL:
            raise BadShape(
                f"domain_basis columns are not orthonormal (residual {frobenius(gram):.3e})"
            )
        object.__setattr__(self, "ambient", n)
        for name, arr in (("domain_basis", q), ("action", a)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def domain_dim(self):
        return self.domain_basis.shape[1]


@dataclass(frozen=True, eq=False)
class DefectData:
    """T's Cayley geometry: orthonormal bases of the complements N_+- of
    ran(T -+ i), their dimensions, and the isometry (T - i)f -> (T + i)f,
    zero on N_+."""

    n_plus: np.ndarray
    n_minus: np.ndarray
    defect_numbers: tuple
    isometry: np.ndarray


@dataclass(eq=False)
class ExtensionResult:
    """J-real unitary V, its inverse Cayley transform, and diagnostics."""

    v: np.ndarray
    a_tilde: np.ndarray
    w: np.ndarray
    report: ResidualReport


def verify_symmetric_jimaginary(j, t, tol=DEFAULT_TOL):
    """Residuals for symmetry and J-anticommutation of T on its domain.

    Raises DomainNotJInvariant when J does not map the domain onto itself
    (the anticommutation residual is undefined in that case).
    """
    q = t.domain_basis
    act = t.action
    s = q.conj().T @ act
    rep = ResidualReport(extras={"domain_dim": t.domain_dim})
    rep.add("symmetry", frobenius(s - s.conj().T) / (1.0 + frobenius(s)), tol)
    inv_res = invariance_residual(j, q)
    if not inv_res <= tol:
        raise DomainNotJInvariant(
            f"domain is not conjugation-invariant: projector residual {inv_res:.3e}"
        )
    rep.add("domain_invariance", inv_res, tol)
    coords = q.conj().T @ j.apply(q)
    anti = act @ coords + j.apply(act)
    rep.add("anticommutation", frobenius(anti) / (1.0 + frobenius(act)), tol)
    return rep


def ranges_defects(t):
    """T's DefectData from one complete QR of each of T -+ i, built on the first
    call and kept read-only on T: later calls return it and run no QR.  The
    isometry is (T + i) R^{-1} F*, where T - i = F R and F is the first d
    columns of its complete QR."""
    if "_defect" not in t.__dict__:
        m_minus = t.action + 1j * t.domain_basis
        q_plus, r_plus = orthonormal_columns(t.action - 1j * t.domain_basis, name="range of T - i")
        q_minus, _ = orthonormal_columns(m_minus, name="range of T + i")
        d, k = t.domain_dim, t.ambient - t.domain_dim
        isometry = (m_minus @ inverse(r_plus)) @ q_plus[:, :d].conj().T
        defect = DefectData(q_plus[:, d:], q_minus[:, d:], (k, k), isometry)
        for arr in (defect.n_plus, defect.n_minus, isometry):
            arr.setflags(write=False)
        object.__setattr__(t, "_defect", defect)
    return t._defect


def check_defect_j_invariance(j, defect):
    """Projector residuals ||P - J P J||_F of T's two defect spaces, at DEFAULT_TOL."""
    rep = ResidualReport(extras={"defect_numbers": defect.defect_numbers})
    for name, basis in (("n_plus", defect.n_plus), ("n_minus", defect.n_minus)):
        rep.add(f"{name}_invariance", invariance_residual(j, basis), DEFAULT_TOL)
    return rep


def extend(j, t, tol=DEFAULT_TOL):
    """Self-adjoint J-imaginary extension of T through the Cayley transform.

    Builds V = U + W from T's Cayley isometry U (``ranges_defects``) and a
    J-fixed defect pairing W, then inverts: A~ = iI + 2i (V - I)^{-1}.  Each
    attempt judges V - I singular or not, and finds ker(V - I), by the rule
    stated at SINGULAR_FLOOR.  When the unflipped V - I is singular with
    m = dim ker(V - I), one retry negates m columns of the J-fixed basis f_-
    of N_{-i}: those whose partners in f_+ overlap ker(V - I) most (row
    norms of f_+* K, ties in stable order).  Each flip multiplies the real
    orthogonal V by a reflection, so a flip set S can clear the kernel only
    if |S| >= m and |S| = m (mod 2); the rule takes the smallest such set.  There is no
    further retry, so at most two attempts.  Raises MultivaluedRelation if
    both leave V - I singular, reporting ker(V - I) of the unflipped
    attempt.  The extra min_singular_bound, 1/||(V - I)^{-1}||_F of the
    accepted attempt, is within a factor sqrt(n) below sigma_min.
    """
    rep0 = verify_symmetric_jimaginary(j, t, tol)
    if not rep0.passed:
        bad = ", ".join(it.name for it in rep0.items if not it.passed)
        raise NotJImaginary(f"operator gate failed: {bad}")
    defect = ranges_defects(t)
    f_plus = fixed_basis(j, defect.n_plus)
    f_minus = fixed_basis(j, defect.n_minus)
    n = t.ambient
    eye = np.eye(n, dtype=complex)

    def attempt_v(flips, retry):
        fm = f_minus.copy()
        fm[:, flips] = -fm[:, flips]
        w = fm @ f_plus.conj().T
        v = defect.isometry + w
        vm = v - eye
        try:
            vm_inv = inverse(vm)
        except Singular as exc:
            if retry:
                return w, v, None, None
            x = exc.kernel
            if (
                x is not None
                and exc.second_sigma_bound > SINGULAR_FLOOR
                and frobenius(vm @ x) <= SINGULAR_FLOOR
            ):
                return w, v, x[:, None], None
            vm_inv = None
        if vm_inv is not None and frobenius(vm_inv) * SINGULAR_FLOOR < 1:
            return w, v, eye[:, :0], vm_inv
        dec = herm_eig(vm.conj().T @ vm)
        svals = dec.singular_values()
        if not svals[0] > SINGULAR_FLOOR:
            vm_inv = None
        return w, v, dec.vectors[:, svals <= SINGULAR_FLOOR], vm_inv

    flips = []
    attempts = 1
    w, v, kernel, vm_inv = attempt_v(flips, retry=False)
    base_kernel = kernel.shape[1]
    if vm_inv is None and base_kernel:
        overlap = np.linalg.norm(f_plus.conj().T @ kernel, axis=1)
        flips = sorted(np.argsort(-overlap, kind="stable")[:base_kernel].tolist())
        attempts = 2
        w, v, _, vm_inv = attempt_v(flips, retry=True)
    if vm_inv is None:
        raise MultivaluedRelation(
            f"V - I stayed singular through {attempts} attempt(s); "
            f"kernel dimension {base_kernel} on the unflipped pairing",
            base_kernel,
        )
    a_tilde = 1j * eye + 2j * vm_inv
    q = t.domain_basis
    act = t.action
    nv = frobenius(v)
    na = frobenius(a_tilde)
    rep = ResidualReport(
        extras={
            "defect_numbers": defect.defect_numbers,
            "flipped_columns": flips or None,
            "attempts": attempts,
            "min_singular_bound": 1.0 / frobenius(vm_inv),
        }
    )
    rep.add("v_unitary", frobenius(v.conj().T @ v - eye) / (1.0 + nv), tol)
    rep.add("v_j_real", frobenius(v - j.sandwich(v)) / (1.0 + nv), tol)
    rep.add("atilde_hermitian", frobenius(a_tilde - a_tilde.conj().T) / (1.0 + na), tol)
    rep.add("atilde_j_imaginary", frobenius(a_tilde + j.sandwich(a_tilde)) / (1.0 + na), tol)
    rep.add("extends_action", frobenius(a_tilde @ q - act) / (1.0 + frobenius(act)), tol)
    return ExtensionResult(v=v, a_tilde=a_tilde, w=w, report=rep)


def random_jimaginary_partial(j, d, seed):
    """Seeded J-imaginary symmetric partial operator with domain dimension d.

    In a J-fixed frame Phi the generator takes S = i [R_sym; R_free] with
    R_sym real antisymmetric d x d (compressed operator, Hermitian and
    purely imaginary there) and R_free real (n-d) x d, then rotates the
    whole picture by a random J-real unitary.
    """
    n = j.dim
    if not 1 <= d <= n:
        raise BadShape(f"domain dimension {d} must lie in [1, {n}]")
    s_gen, s_rot = as_seed_sequence(seed).spawn(2)
    rng = np.random.default_rng(s_gen)
    phi = j.fixed_frame()
    r_sym = rng.uniform(-1.0, 1.0, (d, d))
    r_sym = r_sym - r_sym.T
    blocks = [r_sym]
    if n > d:
        blocks.append(rng.uniform(-1.0, 1.0, (n - d, d)))
    s = 1j * np.vstack(blocks).astype(complex)
    rot = random_j_real_unitary(j, s_rot)
    return PartialSymmetricOperator(n, rot @ phi[:, :d], rot @ (phi @ s))

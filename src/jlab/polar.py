"""Refined polar decomposition of J-unitary operators.

A J-unitary A factors as A = U B where U is unitary and J-real (commutes
with J) and B = sqrt(A* A) is Hermitian, positive definite and J-unitary.
The factors inherit structure from A: J maps each eigenspace of G = A* A
onto the eigenspace of the reciprocal eigenvalue, J B J = B^{-1}, and
sqrt(G^{-1}) = (sqrt G)^{-1}.  Routines here compute the factorization,
re-synthesize J-unitaries from structured factors, and verify the
structural claims by independent routes.  ``refined_polar(j, a)`` gates A
with ``jclass.j_unitary_residual`` and decomposes G, A A* and
G^{-1} = A^{-1} A^{-*} in one stacked eigensolve, A^{-1} being the gate's
elimination inverse.  ``check_prop21``, ``check_unitary_equiv`` and
``check_reciprocity`` take the ``PolarParts`` it returns: A, that inverse,
G, the three decompositions, the factors and the factor report, whose
extras carry the gate's condition number.  ``synthesize`` and
``check_prop21`` ask the same J-unitary gate, and the factor conditions
(U unitary, U J-real, B Hermitian) have one formula each, which
``synthesize`` gates on and ``refined_polar`` reports.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .conjugation import Conjugation, as_seed_sequence
from .errors import BadFactor, DimensionMismatch, NotJUnitary, Singular
from .jclass import DEFAULT_TOL, j_unitary_residual
from .numkernel import (
    SpectralDecomp,
    as_square,
    frobenius,
    herm_eig,
    inverse,
    nonpositive_pivot,
    subspace_gap,
)
from .report import ResidualReport, within, worst_of


@dataclass(eq=False)
class PolarParts:
    """Gated analysis of a J-unitary A: the gate's elimination inverse ainv,
    G = A* A, factors A = U B and their residuals (extras: B's smallest
    eigenvalue and the gate's cond), and the decompositions of G (dec),
    A A* (dec_cogram) and G^-1 = A^-1 A^-* (dec_ginv)."""

    j: Conjugation
    a: np.ndarray
    tol: float
    ainv: np.ndarray
    g: np.ndarray
    dec: SpectralDecomp
    dec_cogram: SpectralDecomp
    dec_ginv: SpectralDecomp
    u: np.ndarray
    b: np.ndarray
    report: ResidualReport


def refined_polar(j, a, tol=DEFAULT_TOL):
    """Factor a J-unitary A as U B with U unitary J-real and B = sqrt(A*A).

    Raises NotJUnitary when A fails the J-unitary gate at tol.  Both
    factors come from the spectral decomposition of G = A* A, taken in one
    stacked herm_eig call with those of A A* and G^-1 = A^-1 A^-* that the
    checks read (A^-1 exists once the gate passes); the report records
    reconstruction and structure residuals.
    """
    a = as_square(a, "operator")
    r, ainv, cond = j_unitary_residual(j, a)
    if not within(r, tol):
        detail = "operator is singular" if r is None else f"residual {r:.3e} > {tol:.1e}"
        raise NotJUnitary(f"J-unitary gate failed: {detail}")
    g = a.conj().T @ a
    dec, dec_cogram, dec_ginv = herm_eig(np.stack([g, a @ a.conj().T, ainv @ ainv.conj().T]))
    b = dec.apply(math.sqrt)
    binv = dec.apply(lambda lam: 1.0 / math.sqrt(lam))
    u = a @ binv
    nb = frobenius(b)
    nbinv = frobenius(binv)
    floor = float(dec.singular_values()[0])
    rep = ResidualReport(extras={"b_floor": floor, "cond": cond})
    rep.add("reconstruct", frobenius(a - u @ b) / (1.0 + frobenius(a)), tol)
    for name, _, residual in _factor_conditions(j, u, b):
        rep.add(name, residual, tol)
    rep.add("b_j_unitary", frobenius(j.sandwich(b) - binv) / (1.0 + nb + nbinv), tol)
    rep.add("b_positive", max(0.0, -float(dec.eigenvalues[0])), tol)
    return PolarParts(j, a, tol, ainv, g, dec, dec_cogram, dec_ginv, u, b, rep)


def _factor_conditions(j, u, b):
    """(name, message, residual) of U unitary, U J-real and B Hermitian, in
    that order; each residual is computed only when its item is reached."""
    eye = np.eye(u.shape[0], dtype=complex)
    nu = frobenius(u)
    yield "u_unitary", "U is not unitary", frobenius(u.conj().T @ u - eye) / (1.0 + nu)
    yield "u_j_real", "U is not J-real", frobenius(u - j.sandwich(u)) / (1.0 + nu)
    yield "b_hermitian", "B is not Hermitian", frobenius(b - b.conj().T) / (1.0 + frobenius(b))


def synthesize(j, u, b):
    """Product U B after gating the factor preconditions.

    U must be unitary and J-real, B Hermitian positive definite and
    J-unitary, each residual at most DEFAULT_TOL; violations, NaN residuals
    included, raise BadFactor naming the failed condition.
    Positivity is the Cholesky rule: B is rejected at the first pivot <= 0,
    which the message names with its column (``nonpositive_pivot``).  The
    result is then J-unitary by construction.
    """
    u = as_square(u, "U factor")
    b = as_square(b, "B factor")
    if u.shape != b.shape or u.shape[0] != j.dim:
        raise DimensionMismatch(
            f"factors {u.shape} / {b.shape} do not match conjugation dimension {j.dim}"
        )
    for _, message, r in _factor_conditions(j, u, b):
        if not within(r, DEFAULT_TOL):
            raise BadFactor(f"{message}: residual {r:.3e}")
    bad = nonpositive_pivot(b)
    if bad is not None:
        col, pivot = bad
        raise BadFactor(
            f"B is not positive definite: Cholesky pivot {pivot:.3e} at column {col}"
        )
    rb = j_unitary_residual(j, b)[0]
    if not within(rb, DEFAULT_TOL):
        raise BadFactor(
            "B is not J-unitary: "
            + ("singular" if rb is None else f"residual {rb:.3e}")
        )
    return u @ b


def random_j_real_unitary(j, seed):
    """Seeded unitary commuting with J: a real rotation of a J-fixed frame."""
    rng = np.random.default_rng(seed)
    phi = j.fixed_frame()
    z = rng.standard_normal((j.dim, j.dim))
    q, r = np.linalg.qr(z)
    o = q * np.sign(np.diag(r))
    return phi @ o.astype(complex) @ phi.conj().T


def random_positive_j_unitary(j, seed):
    """Seeded Hermitian positive-definite J-unitary B = exp(i Phi K Phi*).

    K is real antisymmetric with entries drawn uniformly from [-2, 2],
    rescaled when needed so its spectral norm stays at or below 2 (keeps
    cond(B) <= e^4 at every dimension); Phi is J's fixed frame.  One
    eigensolve serves both steps: h = Phi (i K) Phi* is Hermitian with
    ||h||_2 = ||K||_2 = max(-lambda_min, lambda_max), so the rescale comes
    from h's spectrum and B = exp(scale * h) is applied through it.
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(-2.0, 2.0, (j.dim, j.dim))
    k = 0.5 * (k - k.T)
    phi = j.fixed_frame()
    dec = herm_eig(phi @ (1j * k.astype(complex)) @ phi.conj().T)
    top = max(-float(dec.eigenvalues[0]), float(dec.eigenvalues[-1]))
    scale = 2.0 / top if top > 2.0 else 1.0
    return dec.apply(lambda lam: math.exp(scale * lam))


def random_j_unitary(j, seed):
    """Seeded generic J-unitary: product of the two structured draws."""
    s_u, s_b = as_seed_sequence(seed).spawn(2)
    u = random_j_real_unitary(j, s_u)
    b = random_positive_j_unitary(j, s_b)
    return u @ b


def _j_unitary_residual(parts, m, operand):
    r = j_unitary_residual(parts.j, m)[0]
    if r is None:
        raise Singular(f"{operand} is singular; its J-unitary residual is undefined")
    return r


def check_prop21(parts):
    """Closure checks: inverse, adjoint and Gram matrix stay J-unitary.

    Also verifies A maps onto the whole space (A A^{-1} = I both ways),
    with the inverse the gate computed.  Raises Singular, naming the
    operand, when A^{-1}, A* or G is singular to elimination.
    """
    a, ainv, tol = parts.a, parts.ainv, parts.tol
    eye = np.eye(a.shape[0], dtype=complex)
    den = 1.0 + frobenius(a) + frobenius(ainv)
    rep = ResidualReport(extras={"cond": parts.report.extras["cond"]})
    rep.add("inverse_j_unitary", _j_unitary_residual(parts, ainv, "inverse A^-1"), tol)
    rep.add("adjoint_j_unitary", _j_unitary_residual(parts, a.conj().T, "adjoint A*"), tol)
    rep.add("gram_j_unitary", _j_unitary_residual(parts, parts.g, "Gram matrix A*A"), tol)
    rep.add("full_range", frobenius(a @ ainv - eye) / den, tol)
    rep.add("full_domain", frobenius(ainv @ a - eye) / den, tol)
    return rep


def check_unitary_equiv(parts):
    """A A* equals U (A* A) U* with the polar unitary U; spectra must match.

    Both spectra are read from the decompositions in parts.
    """
    a, g, u = parts.a, parts.g, parts.u
    gstar = a @ a.conj().T
    sim = frobenius(gstar - u @ g @ u.conj().T) / (1.0 + frobenius(g))
    lam = parts.dec.eigenvalues
    mu = parts.dec_cogram.eigenvalues
    spectra_dev = worst_of(abs(l - m) / (1.0 + abs(l)) for l, m in zip(lam, mu))
    rep = ResidualReport()
    rep.add("similarity", sim, parts.tol)
    rep.add("spectra_match", spectra_dev, parts.tol)
    return rep


def check_reciprocity(parts):
    """Spectral reciprocity of G = A* A under J, and both sqrt identities.

    For each eigenvalue cluster lambda of G, J must map its eigenspace onto
    the eigenspace of the cluster nearest 1/lambda (compared as the sine of
    the largest principal angle).  Additionally J B J = B^{-1} for
    B = sqrt(G), and sqrt(G^{-1}) must equal the elimination inverse of
    sqrt(G); sqrt(G^{-1}) is taken through the decomposition of
    G^{-1} = A^{-1} A^{-*}, with A^{-1} the gate's elimination inverse.
    """
    j, tol, dec, b = parts.j, parts.tol, parts.dec, parts.b
    val_devs = []
    gaps = []
    values = [dec.cluster_value(c) for c in range(len(dec.clusters))]
    for c, lam in enumerate(values):
        target = 1.0 / lam
        cbest = min(range(len(values)), key=lambda cc: abs(values[cc] - target))
        mu = values[cbest]
        val_devs.append(abs(mu - target) / (1.0 + abs(target)))
        jimage = j.apply(dec.cluster_basis(c))
        gaps.append(subspace_gap(jimage, dec.cluster_basis(cbest)))
    binv_elim = inverse(b)
    nb = frobenius(b)
    nbi = frobenius(binv_elim)
    sqrt_of_ginv = parts.dec_ginv.apply(math.sqrt)
    rep = ResidualReport(extras={"clusters": len(dec.clusters)})
    rep.add("eigenvalue_reciprocity", worst_of(val_devs), tol)
    rep.add("eigenspace_reciprocity", worst_of(gaps), tol)
    rep.add("sqrt_conjugation", frobenius(j.sandwich(b) - binv_elim) / (1.0 + nb + nbi), tol)
    rep.add("sqrt_inverse_commute", frobenius(sqrt_of_ginv - binv_elim) / (1.0 + nbi), tol)
    return rep

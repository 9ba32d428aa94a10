"""Operator classes relative to a conjugation J.

The bilinear form [x, y] = (x, Jy) turns C^n into a space with a symmetric
(not sesquilinear) pairing.  An operator can be symmetric, skew-symmetric or
isometric for that form, self-adjoint / skew-self-adjoint / unitary in the
J-twisted sense (A* replaced by JA*J), or commute / anticommute with J
itself (J-real / J-imaginary).  ``classify`` measures all of these at once,
plus plain self-adjointness; ``definitional_oracle`` recomputes the same
residuals from the definitions, one basis pair at a time, sharing no matrix
algebra with classify.  The oracle applies J once per basis vector and once
per column of A; a form value against a basis vector is read as an entry of
those images, and only [Ae_i, e_k] and [Ae_i, Ae_k] are np.vdot products.
Both return a ``ResidualReport`` with one item per class, in ``CLASS_NAMES``
order at threshold tol, and extras ``invertible`` and ``cond``.  The
J-unitary item of a singular A is undefined (residual None, failing).
Gates that ask only whether A is J-unitary call ``j_unitary_residual``,
whose residual, inverse and cond classify shares bit for bit.

For the canonical conjugation (C = I) the classes reduce to familiar matrix
conditions: J-symmetric means A = A^T, J-unitary means A^T A = I (complex
orthogonal), J-real means real entries, J-imaginary means purely imaginary
entries.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, DimensionMismatch, Singular
from .numkernel import as_square, as_vector, frobenius, inverse
from .report import ResidualReport

CLASS_NAMES = (
    "self-adjoint",
    "J-symmetric",
    "J-skew-symmetric",
    "J-isometric",
    "J-self-adjoint",
    "J-skew-self-adjoint",
    "J-unitary",
    "J-real",
    "J-imaginary",
)

# verdict tolerance: classify's default, and the oracle's fixed threshold
DEFAULT_TOL = 1e-8
ORACLE_DIM_CAP = 8


def default_tol():
    """The verdict tolerance, DEFAULT_TOL."""
    return DEFAULT_TOL


def bilinear_form(j, x, y):
    """[x, y] = (x, Jy); bilinear in both slots, symmetric."""
    xv = as_vector(x, j.dim, "x")
    yv = as_vector(y, j.dim, "y")
    return complex(np.vdot(j.apply(yv), xv))


def _profile_from_residuals(res, ainv, cond, tol):
    prof = ResidualReport(extras={"invertible": ainv is not None, "cond": cond})
    for name in CLASS_NAMES:
        prof.add(name, res[name], tol)
    return prof


def _j_unitary(a, sastar, na):
    """(residual, A^-1, cond) from J A* J and ||A||_F; all None if A is singular."""
    try:
        ainv = inverse(a)
    except Singular:
        return None, None, None
    ninv = frobenius(ainv)
    return frobenius(ainv - sastar) / (1.0 + na + ninv), ainv, na * ninv


def j_unitary_residual(j, a):
    """The J-unitary residual ||A^-1 - J A* J||_F / (1 + ||A||_F + ||A^-1||_F).

    Returns (residual, A^-1, cond) with A^-1 the elimination inverse and
    cond = ||A||_F ||A^-1||_F, or (None, None, None) when A is singular.
    The same numbers as classify's J-unitary item and extras, bit for bit.
    """
    a = as_square(a, "operator")
    return _j_unitary(a, j.sandwich(a.conj().T), frobenius(a))


def classify(j, a, tol=DEFAULT_TOL):
    """Residuals and verdicts for all nine classes of A relative to J.

    Returns a ResidualReport with one item per class at threshold tol.
    Residuals are Frobenius norms scaled by 1 + ||A||_F (J-unitary adds
    ||A^{-1}||_F to the denominator).  When A is singular the J-unitary
    item is undefined: residual None and verdict False.
    """
    a = as_square(a, "operator")
    eye = np.eye(j.dim, dtype=complex)
    astar = a.conj().T
    sa = j.sandwich(a)
    sastar = j.sandwich(astar)
    na = frobenius(a)
    den = 1.0 + na
    res = {
        "self-adjoint": frobenius(a - astar) / den,
        "J-symmetric": frobenius(sa - astar) / den,
        "J-skew-symmetric": frobenius(sa + astar) / den,
        "J-isometric": frobenius(sa.conj().T @ a - eye) / den,
        "J-self-adjoint": frobenius(a - sastar) / den,
        "J-skew-self-adjoint": frobenius(a + sastar) / den,
        "J-real": frobenius(a - sa) / den,
        "J-imaginary": frobenius(a + sa) / den,
    }
    res["J-unitary"], ainv, cond = _j_unitary(a, sastar, na)
    return _profile_from_residuals(res, ainv, cond, tol)


def _rss(values):
    # scalar hypot and pow in order: numpy's array abs and square round differently
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    return math.sqrt(sum(abs(v) ** 2 for v in values))


def definitional_oracle(j, a):
    """Recompute the classify report straight from the definitions.

    Evaluates each class condition on all standard-basis pairs using the
    bilinear form, J applications and matrix-vector products, aggregating
    deviations in root-sum-square form with the same denominators as
    classify.  J is applied once per basis vector e_k and once per column
    A e_k; each pair's form values [x, y] = (x, Jy) are read against those
    images.  A value against a basis vector is read as an entry, exact up to
    a zero's sign: (e_k, Ae_i) = A[k, i], [e_i, Ae_k] = conj((JAe_k)[i]) and
    [e_i, e_k] = conj((Je_k)[i]).  The inverse route uses numpy's solver, not
    the elimination code.  Verdicts are at DEFAULT_TOL.  Quadratic in basis
    pairs, so capped: raises CapExceeded above dimension ORACLE_DIM_CAP.
    """
    a = as_square(a, "operator")
    n = a.shape[0]
    if a.shape[0] != j.dim:
        raise DimensionMismatch(
            f"operator is {n}-dimensional, conjugation is {j.dim}-dimensional"
        )
    if n > ORACLE_DIM_CAP:
        raise CapExceeded(
            f"definitional oracle is capped at dimension {ORACLE_DIM_CAP}, got {n}"
        )
    eye = np.eye(n, dtype=complex)
    basis = [eye[:, i] for i in range(n)]
    acols = [a @ e for e in basis]
    astar = a.conj().T
    na = _rss(a)
    den = 1.0 + na

    try:
        ainv = np.linalg.solve(a, eye)
        if not np.isfinite(ainv).all():
            ainv = None
    except np.linalg.LinAlgError:
        ainv = None

    jbasis = [j.apply(e) for e in basis]
    jacols = [j.apply(c) for c in acols]
    # the same images as Python scalars, for the values that are entries
    a_ent, ja_ent, j_ent = ([v.tolist() for v in vs] for vs in (acols, jacols, jbasis))

    dev = {name: [] for name in CLASS_NAMES}
    for i in range(n):
        ei = basis[i]
        aei = acols[i]
        jei = jbasis[i]
        jaei = jacols[i]
        ajei = a @ jei
        jastar_jei = j.apply(astar @ jei)
        # per-column deviations (vector-valued conditions)
        dev["J-self-adjoint"].extend((aei - jastar_jei).tolist())
        dev["J-skew-self-adjoint"].extend((aei + jastar_jei).tolist())
        dev["J-real"].extend((ajei - jaei).tolist())
        dev["J-imaginary"].extend((ajei + jaei).tolist())
        if ainv is not None:
            dev["J-unitary"].extend((ainv @ ei - jastar_jei).tolist())
        # per-pair deviations (scalar conditions through the forms)
        for k in range(n):
            # (e_k, Ae_i) - (Ae_k, e_i)
            dev["self-adjoint"].append(a_ent[i][k] - a_ent[k][i].conjugate())
            fwd = complex(np.vdot(jbasis[k], aei))  # [Ae_i, e_k]
            bwd = ja_ent[k][i].conjugate()  # [e_i, Ae_k]
            dev["J-symmetric"].append(fwd - bwd)
            dev["J-skew-symmetric"].append(fwd + bwd)
            # [Ae_i, Ae_k] - [e_i, e_k]
            dev["J-isometric"].append(complex(np.vdot(jacols[k], aei)) - j_ent[k][i].conjugate())

    res = {name: _rss(dev[name]) / den for name in CLASS_NAMES if name != "J-unitary"}
    if ainv is None:
        res["J-unitary"] = None
        cond = None
    else:
        ninv = _rss(ainv)
        res["J-unitary"] = _rss(dev["J-unitary"]) / (den + ninv)
        cond = na * ninv
    return _profile_from_residuals(res, ainv, cond, DEFAULT_TOL)

"""Frame covariance: the lab's answers do not depend on the frame.

For a unitary W, the conjugation J' with C' = W C W^T is W J W*, since
J' W y = W C W^T conj(W) conj(y) = W J y.  So for A' = W A W* every
classify residual is the Frobenius norm of the same covariant expression,
and refined_polar's factors of A' are W U W* and W B W*.  The check holds
whatever frame J carries, so it backs the frames that generated
conjugations keep against an independent route.  J' itself is built from a
bare coefficient and finds its frame by search.

Bounds are fixed constants times eps, scaled by cond = ||A||_F ||A^-1||_F
as the J-unitary gate reports it.  classify residuals move by at most
RESIDUAL_C * eps * cond * (1 + ||A||_F): the J-unitary residual reads the
inverse, and the J-isometric one is quadratic in A, so its rounding grows
with ||A||_F even at cond = 1.  The polar factors move by at most
FACTOR_C * eps * cond^2 relative to their norms.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jlab.conjugation import Conjugation, canonical, random_conjugation, random_unitary
from jlab.errors import MultivaluedRelation
from jlab.extension import PartialSymmetricOperator, extend, random_jimaginary_partial
from jlab.jclass import DEFAULT_TOL, classify
from jlab.numkernel import frobenius
from jlab.polar import random_j_unitary, random_positive_j_unitary, refined_polar

EPS = np.finfo(float).eps
RESIDUAL_C = 16.0
FACTOR_C = 64.0


def _battery(max_examples):
    return settings(
        derandomize=True, database=None, max_examples=max_examples, deadline=None
    )


seeds = st.integers(0, 2**32 - 1)


def _frames(n, seed, canon):
    """(J, W, J') for J canonical or random, W unitary, C' = W C W^T."""
    s_j, s_w, s_a = np.random.SeedSequence(seed).spawn(3)
    j = canonical(n) if canon else random_conjugation(n, s_j)
    w = random_unitary(n, np.random.default_rng(s_w))
    return j, w, Conjugation(n, w @ j.coeff @ w.T), s_a


def _moved(w, m):
    return w @ m @ w.conj().T


@_battery(60)
@given(
    n=st.integers(1, 12),
    seed=seeds,
    canon=st.booleans(),
    kind=st.sampled_from(["gaussian", "j_unitary", "positive_j_unitary"]),
)
def test_classify_is_frame_covariant(n, seed, canon, kind):
    j, w, jw, s_a = _frames(n, seed, canon)
    if kind == "gaussian":
        rng = np.random.default_rng(s_a)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif kind == "j_unitary":
        a = random_j_unitary(j, s_a)
    else:
        a = random_positive_j_unitary(j, s_a)
    prof, moved = classify(j, a), classify(jw, _moved(w, a))
    bound = RESIDUAL_C * EPS * prof.extras["cond"] * (1.0 + frobenius(a))
    for it, it2 in zip(prof.items, moved.items):
        assert it.name == it2.name
        assert it.passed == it2.passed, (it.name, it.residual, it2.residual)
        assert abs(it.residual - it2.residual) <= bound, (it.name, it.residual, it2.residual)
    if kind != "gaussian":
        assert prof.item("J-unitary").passed


@_battery(40)
@given(n=st.integers(1, 12), seed=seeds, canon=st.booleans())
def test_refined_polar_factors_are_frame_covariant(n, seed, canon):
    j, w, jw, s_a = _frames(n, seed, canon)
    a = random_j_unitary(j, s_a)
    parts, moved = refined_polar(j, a), refined_polar(jw, _moved(w, a))
    cond = parts.report.extras["cond"]
    bound = FACTOR_C * EPS * cond * cond
    assert frobenius(moved.u - _moved(w, parts.u)) <= bound * frobenius(parts.u)
    assert frobenius(moved.b - _moved(w, parts.b)) <= bound * frobenius(parts.b)
    assert [it.passed for it in moved.report.items] == [it.passed for it in parts.report.items]


def _extend_or_kernel(j, t):
    try:
        return extend(j, t)
    except MultivaluedRelation as exc:
        return exc.kernel_dim


def _extension_residuals(j, t, v, a_tilde):
    """The five extension checks of extend, recomputed for given V and A~."""
    eye = np.eye(j.dim, dtype=complex)
    nv, na = frobenius(v), frobenius(a_tilde)
    act = t.action
    return {
        "v_unitary": frobenius(v.conj().T @ v - eye) / (1.0 + nv),
        "v_j_real": frobenius(v - j.sandwich(v)) / (1.0 + nv),
        "atilde_hermitian": frobenius(a_tilde - a_tilde.conj().T) / (1.0 + na),
        "atilde_j_imaginary": frobenius(a_tilde + j.sandwich(a_tilde)) / (1.0 + na),
        "extends_action": frobenius(a_tilde @ t.domain_basis - act) / (1.0 + frobenius(act)),
    }


@_battery(40)
@given(n=st.integers(2, 12), d_frac=st.floats(0.0, 1.0), seed=seeds, canon=st.booleans())
def test_extension_verdicts_are_frame_covariant(n, d_frac, seed, canon):
    j, w, jw, s_t = _frames(n, seed, canon)
    d = 1 + min(n - 1, math.floor(d_frac * n))
    t = random_jimaginary_partial(j, d, s_t)
    tw = PartialSymmetricOperator(n, w @ t.domain_basis, w @ t.action)
    res, moved = _extend_or_kernel(j, t), _extend_or_kernel(jw, tw)
    # A~ is not unique, so compare outcomes, not the two extensions
    assert type(res) is type(moved)
    if isinstance(res, int):
        assert res == moved
        return
    assert moved.report.extras["defect_numbers"] == res.report.extras["defect_numbers"]
    assert [it.passed for it in moved.report.items] == [it.passed for it in res.report.items]
    # W A~ W* is an extension of T' under J'
    checks = _extension_residuals(jw, tw, _moved(w, res.v), _moved(w, res.a_tilde))
    assert list(checks) == [it.name for it in res.report.items]
    for name, r in checks.items():
        assert r <= DEFAULT_TOL, (name, r)

"""Classification residuals, the definitional oracle (and its pairwise
reference), and the canonical bridge."""

import inspect
import json
import math

import numpy as np
import pytest

import jlab.jclass
from jlab import examples, extension, polar
from jlab.conjugation import Conjugation, canonical, random_conjugation
from jlab.errors import CapExceeded, DimensionMismatch
from jlab.jclass import (
    CLASS_NAMES,
    DEFAULT_TOL,
    ORACLE_DIM_CAP,
    _profile_from_residuals,
    _rss,
    bilinear_form,
    classify,
    default_tol,
    definitional_oracle,
    j_unitary_residual,
)
from jlab.numkernel import as_square, inverse
from jlab.suites import _ORACLE_KINDS, _oracle_matrix


def test_default_tol_ignores_the_environment(monkeypatch):
    assert DEFAULT_TOL == 1e-8
    for raw in ("1e-2", "abc", "-1e-8"):
        monkeypatch.setenv("JLAB_TOL", raw)
        assert default_tol() == DEFAULT_TOL
        prof = classify(canonical(2), np.eye(2, dtype=complex))
        assert {item.threshold for item in prof.items} == {DEFAULT_TOL}


def test_tol_keywords_default_to_the_constant():
    tuned = (
        classify,
        polar.refined_polar,
        extension.extend,
        extension.verify_symmetric_jimaginary,
    )
    for fn in tuned:
        assert inspect.signature(fn).parameters["tol"].default == DEFAULT_TOL, fn.__name__
    fixed = (
        definitional_oracle,
        polar.synthesize,
        extension.check_defect_j_invariance,
        examples.resolvent_check,
    )
    for fn in fixed:
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    # the parity rule fixes the Cayley attempts at two
    assert "retry_budget" not in inspect.signature(extension.extend).parameters


def test_bilinear_form_canonical_values():
    j = canonical(2)
    x = np.array([1.0, 2.0j])
    y = np.array([3.0j, 4.0])
    # for the canonical conjugation [x, y] = sum x_k y_k
    assert abs(bilinear_form(j, x, y) - 11.0j) < 1e-14
    assert abs(bilinear_form(j, y, x) - bilinear_form(j, x, y)) < 1e-14
    lam = 0.5 - 2.0j
    assert (
        abs(bilinear_form(j, lam * x, y) - lam * bilinear_form(j, x, y)) < 1e-13
    )


def test_bilinear_form_rejects_bad_vectors():
    j = canonical(3)
    good = np.array([1.0, 2.0, 3.0j])
    for bad in (np.ones(2), np.array([1.0, np.nan, 0.0]), np.array([np.inf, 0.0, 0.0])):
        with pytest.raises(DimensionMismatch):
            bilinear_form(j, bad, good)
        with pytest.raises(DimensionMismatch):
            bilinear_form(j, good, bad)


def _passing(prof):
    return {item.name for item in prof.items if item.passed}


def test_classify_identity_canonical():
    prof = classify(canonical(2), np.eye(2, dtype=complex))
    expected = {
        "self-adjoint",
        "J-symmetric",
        "J-isometric",
        "J-self-adjoint",
        "J-unitary",
        "J-real",
    }
    assert _passing(prof) == expected
    assert [item.name for item in prof.items] == list(CLASS_NAMES)
    assert prof.extras["invertible"]
    assert abs(prof.extras["cond"] - 2.0) < 1e-12  # Frobenius-based, so n for the identity


def test_classify_rotation_canonical():
    r = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    prof = classify(canonical(2), r)
    expected = {
        "J-skew-symmetric",
        "J-isometric",
        "J-unitary",
        "J-real",
        "J-skew-self-adjoint",
    }
    assert _passing(prof) == expected


def test_classify_imaginary_hermitian_block():
    a = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
    prof = classify(canonical(2), a)
    expected = {
        "self-adjoint",
        "J-skew-symmetric",
        "J-skew-self-adjoint",
        "J-imaginary",
    }
    assert _passing(prof) == expected


def test_classify_singular_operator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    prof = classify(canonical(2), a)
    assert not prof.extras["invertible"]
    assert prof.extras["cond"] is None
    assert j_unitary_residual(canonical(2), a) == (None, None, None)
    assert prof.item("J-unitary").residual is None
    assert not prof.item("J-unitary").passed
    # the other residuals are still measured
    assert prof.item("self-adjoint").residual > 0.1
    assert all(it.residual is not None for it in prof.items if it.name != "J-unitary")


def test_classify_dimension_mismatch():
    message = "operator is 2-dimensional, conjugation is 3-dimensional"
    for gate in (classify, j_unitary_residual):
        with pytest.raises(DimensionMismatch, match=message):
            gate(canonical(3), np.eye(2, dtype=complex))


def test_j_unitary_gate_matches_classify_bit_for_bit():
    for n in range(1, ORACLE_DIM_CAP + 1):
        for t, kind in enumerate(_ORACLE_KINDS):
            rng = np.random.default_rng(9500 + 10 * n + t)
            for j in (canonical(n), random_conjugation(n, 800 + 10 * n + t)):
                a = _oracle_matrix(kind, j, n, rng)
                for m in (a, np.where(np.arange(n) == t % n, 0.0, a)):  # then a zero column
                    prof = classify(j, m)
                    r, ainv, cond = j_unitary_residual(j, m)
                    assert r == prof.item("J-unitary").residual, (n, kind)
                    assert cond == prof.extras["cond"], (n, kind)
                    assert (ainv is not None) == prof.extras["invertible"], (n, kind)
                    if ainv is not None:
                        assert np.array_equal(ainv, inverse(m)), (n, kind)
                assert r is None and ainv is None and cond is None, (n, kind)


def test_canonical_bridge_matrix_conditions():
    j = canonical(2)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert classify(j, 0.5 * (z + z.T)).item("J-symmetric").passed
    assert classify(j, z.real.astype(complex)).item("J-real").passed
    assert classify(j, (1j * z.real).astype(complex)).item("J-imaginary").passed
    # complex orthogonal: rotation by a complex angle
    w = 0.3 + 0.2j
    q = np.array([[np.cos(w), np.sin(w)], [-np.sin(w), np.cos(w)]])
    prof = classify(j, q)
    assert _passing(prof) >= {"J-isometric", "J-unitary"}
    assert not prof.item("self-adjoint").passed


def test_oracle_matches_classify_on_random_matrices():
    for seed in range(12):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 7))
        j = canonical(n) if seed % 2 == 0 else random_conjugation(n, seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if seed % 3 == 1:
            z = 0.5 * (z + z.conj().T)
        prof = classify(j, z)
        orac = definitional_oracle(j, z)
        for c, o in zip(prof.items, orac.items, strict=True):
            assert c.name == o.name
            assert c.passed == o.passed, c.name
            assert (c.residual is None) == (o.residual is None), c.name
            if c.residual is not None:
                assert abs(c.residual - o.residual) < 1e-12, f"{c.name}: {c.residual} vs {o.residual}"
        assert prof.extras["invertible"] == orac.extras["invertible"]


def test_oracle_handles_singular_and_caps_dimension():
    j = canonical(2)
    orac = definitional_oracle(j, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert orac.item("J-unitary").residual is None
    assert not orac.item("J-unitary").passed
    assert not orac.extras["invertible"]
    assert ORACLE_DIM_CAP == 8
    with pytest.raises(CapExceeded):
        definitional_oracle(canonical(9), np.eye(9, dtype=complex))


def test_profile_to_dict_round_trip():
    prof = classify(canonical(2), np.eye(2, dtype=complex), tol=1e-9)
    doc = json.loads(json.dumps(prof.to_dict(), allow_nan=False))
    assert doc["extras"] == {"invertible": True, "cond": prof.extras["cond"]}
    checks = {c["name"]: c for c in doc["checks"]}
    assert list(checks) == list(CLASS_NAMES)
    assert checks["J-real"]["passed"] is True
    assert checks["J-imaginary"]["passed"] is False
    assert {c["threshold"] for c in doc["checks"]} == {1e-9}
    assert "inverse" not in doc
    singular = classify(canonical(2), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    doc = json.loads(json.dumps(singular.to_dict(), allow_nan=False))
    unitary = next(c for c in doc["checks"] if c["name"] == "J-unitary")
    assert unitary["residual"] is None and unitary["passed"] is False
    assert doc["extras"] == {"invertible": False, "cond": None}


def _pairwise_oracle(j, a, cap=ORACLE_DIM_CAP):
    """Reference: the oracle that calls the public bilinear_form on every
    basis pair, re-applying J inside each call."""
    a = as_square(a, "operator")
    n = a.shape[0]
    if a.shape[0] != j.dim:
        raise DimensionMismatch(
            f"operator is {n}-dimensional, conjugation is {j.dim}-dimensional"
        )
    if n > cap:
        raise CapExceeded(f"definitional oracle is capped at dimension {cap}, got {n}")
    basis = [np.eye(n, dtype=complex)[:, i] for i in range(n)]
    acols = [a @ e for e in basis]
    astar = a.conj().T
    na = _rss(abs(a[i, k]) for i in range(n) for k in range(n))
    den = 1.0 + na

    try:
        ainv = np.linalg.solve(a, np.eye(n, dtype=complex))
        if not np.all(np.isfinite(ainv)):
            ainv = None
    except np.linalg.LinAlgError:
        ainv = None

    dev = {name: [] for name in CLASS_NAMES}
    for i in range(n):
        ei = basis[i]
        aei = acols[i]
        jei = j.apply(ei)
        jaei = j.apply(aei)
        ajei = a @ jei
        jastar_jei = j.apply(astar @ jei)
        # per-column deviations (vector-valued conditions)
        dev["J-self-adjoint"].extend(aei - jastar_jei)
        dev["J-skew-self-adjoint"].extend(aei + jastar_jei)
        dev["J-real"].extend(ajei - jaei)
        dev["J-imaginary"].extend(ajei + jaei)
        if ainv is not None:
            dev["J-unitary"].extend(ainv @ ei - jastar_jei)
        # per-pair deviations (scalar conditions through the forms)
        for k in range(n):
            ek = basis[k]
            aek = acols[k]
            dev["self-adjoint"].append(np.vdot(ek, aei) - np.vdot(aek, ei))
            fwd = bilinear_form(j, aei, ek)
            bwd = bilinear_form(j, ei, aek)
            dev["J-symmetric"].append(fwd - bwd)
            dev["J-skew-symmetric"].append(fwd + bwd)
            dev["J-isometric"].append(
                bilinear_form(j, aei, aek) - bilinear_form(j, ei, ek)
            )

    res = {name: _rss(dev[name]) / den for name in CLASS_NAMES if name != "J-unitary"}
    if ainv is None:
        res["J-unitary"] = None
        cond = None
    else:
        ninv = _rss(abs(ainv[i, k]) for i in range(n) for k in range(n))
        res["J-unitary"] = _rss(dev["J-unitary"]) / (den + ninv)
        cond = na * ninv
    return _profile_from_residuals(res, ainv, cond, DEFAULT_TOL)


def _assert_profiles_identical(got, ref, where):
    for name in CLASS_NAMES:
        assert got.item(name).residual == ref.item(name).residual, (where, name)
        assert got.item(name).passed == ref.item(name).passed, (where, name)
    assert got.extras == ref.extras, where


def test_oracle_matches_pairwise_reference():
    for n in range(1, ORACLE_DIM_CAP + 1):
        for t, kind in enumerate(_ORACLE_KINDS):
            rng = np.random.default_rng(9000 + 10 * n + t)
            for j in (canonical(n), random_conjugation(n, 700 + 10 * n + t)):
                a = _oracle_matrix(kind, j, n, rng)
                got = definitional_oracle(j, a)
                _assert_profiles_identical(got, _pairwise_oracle(j, a), (n, kind))
                assert got.extras["invertible"], (n, kind)
                # a zero column makes A singular: no J-unitary residual
                a[:, t % n] = 0.0
                got = definitional_oracle(j, a)
                _assert_profiles_identical(got, _pairwise_oracle(j, a), (n, kind, 0))
                assert got.item("J-unitary").residual is None, (n, kind)


def test_oracle_applies_j_once_per_vector(monkeypatch):
    applies, forms = [], []
    apply, form = Conjugation.apply, jlab.jclass.bilinear_form

    def counting_apply(self, x):
        applies.append(1)
        return apply(self, x)

    def counting_form(*args):
        forms.append(1)
        return form(*args)

    monkeypatch.setattr(Conjugation, "apply", counting_apply)
    monkeypatch.setattr(jlab.jclass, "bilinear_form", counting_form)
    n = 6
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for j in (canonical(n), random_conjugation(n, 5)):
        applies.clear()
        definitional_oracle(j, a)
        # e_k, A e_k and J A* J e_k: three J images per basis index
        assert 0 < len(applies) <= 3 * n
        assert forms == []


def _per_value_rss(values):
    """The oracle's root-sum-square as it was written per numpy scalar."""
    return math.sqrt(sum(float(abs(v)) ** 2 for v in values))


def test_rss_matches_the_per_value_form_bit_for_bit():
    # _rss squares each scalar hypot with Python's pow.  On 200,000 standard
    # complex normal values (seed 0, numpy 2.4, x86-64), numpy's array np.abs
    # differs from the scalar hypot on 69,988 and np.square (x * x) from x ** 2
    # on 159, so neither array route can stand in for the scalar sum.
    rng = np.random.default_rng(31)
    size = 10_000
    scale = 10.0 ** rng.uniform(-8.0, 8.0, size)
    z = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
    assert _rss(z) == _per_value_rss(z)
    assert _rss(z[:64].reshape(8, 8)) == _per_value_rss(z[:64])
    start = 0
    for count in range(1, 65):  # the oracle's batches: n to n^2 values, n <= 8
        batch = z[start : start + count]
        start += count
        want = _per_value_rss(batch)
        assert _rss(batch) == want, count
        assert _rss(batch.tolist()) == want, count
        assert _rss(v for v in batch) == want, count


def test_oracle_makes_two_vdots_per_basis_pair(monkeypatch):
    # only [Ae_i, e_k] and [Ae_i, Ae_k] are dot products; a form against a
    # basis vector is read as an entry of an image
    calls = []
    vdot = np.vdot

    def counting_vdot(x, y):
        calls.append(1)
        return vdot(x, y)

    monkeypatch.setattr(np, "vdot", counting_vdot)
    for n in range(1, ORACLE_DIM_CAP + 1):
        rng = np.random.default_rng(60 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for j in (canonical(n), random_conjugation(n, 60 + n)):
            for m in (a, np.where(np.arange(n) == 0, 0.0, a)):  # then a singular A
                calls.clear()
                definitional_oracle(j, m)
                assert len(calls) == 2 * n * n, n

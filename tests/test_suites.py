"""Verdict helpers of the property program and the report it returns."""

import dataclasses
import math

import numpy as np
import pytest

from jlab import conjugation, extension, suites
from jlab.conjugation import canonical
from jlab.errors import OutOfRange
from jlab.jclass import DEFAULT_TOL, classify, j_unitary_residual
from jlab.numkernel import frobenius
from jlab.report import worst_of
from jlab.suites import (
    MULTIVALUED_FRACTION_CAP,
    ORACLE_THRESHOLDS,
    POLAR_THRESHOLDS,
    TrialRecord,
    run_verify_program,
    suite_failures,
    worst_residuals,
)


def _records(values, key="reconstruct"):
    return [TrialRecord(i, 10 + i, 2, {key: v}) for i, v in enumerate(values)]


def test_non_finite_residuals_fail_and_are_the_worst():
    nan = float("nan")
    records = _records([1e-12, nan, 2e-12])
    assert math.isnan(worst_residuals(records)["reconstruct"])
    # a NaN, once seen, is never replaced by a later finite value
    assert math.isnan(worst_residuals(records[1:])["reconstruct"])
    assert worst_residuals(_records([1e-12, math.inf, 2e-12]))["reconstruct"] == math.inf
    assert worst_residuals(_records([3e-12, 1e-12]))["reconstruct"] == 3e-12
    bad = suite_failures(records, POLAR_THRESHOLDS)
    assert [(rec.seed, key) for rec, key, _ in bad] == [(11, "reconstruct")]
    assert math.isnan(bad[0][2])
    assert suite_failures(_records([POLAR_THRESHOLDS["reconstruct"]]), POLAR_THRESHOLDS) == []


def test_nan_residual_gap_fails_the_oracle_trial(monkeypatch):
    # fault injection: classify's J-real residual turns NaN with its verdict
    # kept, so the verdicts agree and only residual_gap can report it
    classify = suites.classify

    def faulty(j, a):
        prof = classify(j, a)
        k = [it.name for it in prof.items].index("J-real")
        prof.items[k] = dataclasses.replace(prof.items[k], residual=math.nan)
        return prof

    monkeypatch.setattr(suites, "classify", faulty)
    rec = suites.oracle_trials(1, 6, 0)[0]
    assert rec.residuals["verdict_mismatch"] == 0.0
    assert math.isnan(rec.residuals["residual_gap"])
    bad = suite_failures([rec], ORACLE_THRESHOLDS)
    assert [key for _, key, _ in bad] == ["residual_gap"]


def test_report_worst_is_order_free_with_nan():
    nan = float("nan")
    for values in ((nan, 2.0), (2.0, nan), (1.0, nan, 3.0)):
        assert math.isnan(worst_of(values)), values
    assert worst_of((2.0, 0.5)) == 2.0
    assert worst_of(()) == 0.0


def test_verify_program_report_is_its_verdict(monkeypatch):
    polar = _records([1e-12, float("nan")])
    extension = [
        TrialRecord(i, 100 + i, 3, {"defect_match": 0.0}, {"multivalued": i == 0})
        for i in range(20)
    ]
    monkeypatch.setattr(suites, "polar_trials", lambda *args: polar)
    monkeypatch.setattr(suites, "extension_trials", lambda *args: extension)
    monkeypatch.setattr(suites, "zero_defect_trials", lambda *args: [])
    monkeypatch.setattr(suites, "oracle_trials", lambda *args, **kwargs: [])
    outcome = run_verify_program(4, 3, 0)
    report = outcome["report"]
    assert [it.name for it in report.items] == [
        "polar.reconstruct",
        "extension.defect_match",
        "extension_multivalued_fraction",
    ]
    assert math.isnan(report.item("polar.reconstruct").residual)
    assert not report.item("polar.reconstruct").passed
    # strict JSON has no NaN: the failing residual is written as null
    assert report.to_dict()["checks"][0] == {
        "name": "polar.reconstruct",
        "residual": None,
        "threshold": POLAR_THRESHOLDS["reconstruct"],
        "passed": False,
    }
    assert report.item("extension.defect_match").passed
    # one in twenty sits at the cap, and the cap is strict
    frac = report.item("extension_multivalued_fraction")
    assert frac.residual == MULTIVALUED_FRACTION_CAP and not frac.passed
    assert [(name, seed, key) for name, seed, key, _ in outcome["failures"]] == [
        ("polar", 11, "reconstruct")
    ]
    assert not report.passed
    assert report.extras == {"trials": 4, "seed": 0}


def test_generated_trials_make_no_whole_space_frame_search(monkeypatch):
    # generated conjugations carry their frame; only defect spaces are searched
    real = conjugation.fixed_basis
    widths = []

    def spy(j, basis):
        widths.append(np.shape(basis)[1] == j.dim)
        return real(j, basis)

    monkeypatch.setattr(conjugation, "fixed_basis", spy)
    monkeypatch.setattr(extension, "fixed_basis", spy)
    coeff_built = conjugation.Conjugation(3, conjugation.random_conjugation(3, 0).coeff)
    coeff_built.fixed_frame()
    assert widths == [True]  # the spy sees fixed_frame's search when there is one
    widths.clear()
    suites.polar_trials(4, 6, 0)
    suites.extension_trials(4, 6, 0)
    suites.zero_defect_trials(4, 6, 0)
    suites.oracle_trials(12, 6, 0)  # trials 5 and 11 draw J-unitaries under a random J
    assert widths and not any(widths)


def test_trials_factor_t_minus_and_plus_i_once(monkeypatch):
    # the defect records and extend share T's DefectData: one QR of each of
    # T -+ i per trial, whether the trial extends or ends multivalued
    real = extension.orthonormal_columns
    calls = []

    def spy(b, *, name="frame"):
        calls.append(name)
        return real(b, name=name)

    monkeypatch.setattr(extension, "orthonormal_columns", spy)
    for suite, maxdim in ((suites.extension_trials, 12), (suites.zero_defect_trials, 16)):
        for seed in (0, 100_000, 200_000):
            calls.clear()
            suite(1, maxdim, seed)
            assert calls == ["range of T - i", "range of T + i"], (suite.__name__, seed)


def test_oracle_trials_classify_once_per_trial(monkeypatch):
    # the canonical bridge of an odd trial asks j_unitary_residual, not classify
    real = suites.classify
    calls = []

    def spy(j, a):
        calls.append(j.dim)
        return real(j, a)

    monkeypatch.setattr(suites, "classify", spy)
    records = suites.oracle_trials(12, 6, 0)
    assert len(calls) == len(records) == 12


def _complex_rotation(n, scale=1.0):
    """scale times a complex orthogonal A (A^T A = I), J-unitary under canonical(n)."""
    w = 0.3 + 0.2j
    q = np.eye(n, dtype=complex)
    q[:2, :2] = [[np.cos(w), np.sin(w)], [-np.sin(w), np.cos(w)]]
    return scale * q


def test_bridge_gate_matches_the_classify_route(monkeypatch):
    inputs = {
        "singular": lambda n: np.diag(np.arange(n, dtype=complex)),
        "complex orthogonal": _complex_rotation,
        "just above tol": lambda n: _complex_rotation(n, 1.0 + 1.5e-8),
    }
    gate = {}
    for label, build in inputs.items():
        # trial 1 of seed 0 is odd (a random J) and three-dimensional
        monkeypatch.setattr(suites, "_oracle_matrix", lambda kind, j, n, rng: build(n))
        rec = suites.oracle_trials(2, 6, 0)[1]
        assert rec.dim == 3, label
        a = build(3)
        prof = classify(canonical(3), a)
        r, ainv, _ = j_unitary_residual(canonical(3), a)
        assert r == prof.item("J-unitary").residual, label
        assert (ainv is not None) == prof.extras["invertible"], label
        gate[label] = r is not None and r <= DEFAULT_TOL
        assert gate[label] == prof.item("J-unitary").passed, label
        # the bridge record the classify(canonical(n), a) route gave
        direct = prof.extras["invertible"] and (
            frobenius(a.T @ a - np.eye(3)) / (1.0 + frobenius(a)) <= DEFAULT_TOL
        )
        want = 0.0 if direct == prof.item("J-unitary").passed else 1.0
        assert rec.residuals["bridge_mismatch"] == want, label
    assert j_unitary_residual(canonical(3), inputs["singular"](3)) == (None, None, None)
    r, _, _ = j_unitary_residual(canonical(3), inputs["just above tol"](3))
    assert DEFAULT_TOL < r < 2.0 * DEFAULT_TOL
    assert gate == {"singular": False, "complex orthogonal": True, "just above tol": False}


@pytest.mark.parametrize("index", [8, -1, 100])
def test_polar_corruption_must_name_a_trial(index):
    # an index outside range(trials) would dent nothing and pass the self-test
    with pytest.raises(OutOfRange, match="names none of 8 trials"):
        suites.polar_trials(8, 4, 0, corrupt_index=index)

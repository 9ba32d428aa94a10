"""Acceptance battery: ten numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 4-7 share one 200-trial program, criterion 8 a 100-trial
extension program; the fixtures time their own construction so the wall
clock bounds cover the trial work itself.
"""

import time

import numpy as np
import pytest

from jlab.examples import cayley_v, growth_probe, resolvent_check, truncation_family
from jlab.jclass import classify
from jlab.numkernel import frobenius, herm_eig, inverse, singular_extremes
from jlab.suites import (
    EXTENSION_THRESHOLDS,
    MULTIVALUED_FRACTION_CAP,
    ORACLE_THRESHOLDS,
    POLAR_THRESHOLDS,
    ZERO_DEFECT_THRESHOLDS,
    extension_trials,
    multivalued_fraction,
    oracle_trials,
    polar_trials,
    worst_residuals,
    zero_defect_trials,
)

_SUITE_START = time.perf_counter()
_SUITE_BUDGET = 90.0


def _criterion(number, description, problems):
    if problems:
        line = f"FAIL criterion {number}: {description} ({'; '.join(problems)})"
        print(line)
        pytest.fail(line)
    print(f"PASS criterion {number}: {description}")


def _threshold_problems(records, thresholds, keys):
    worst = worst_residuals(records)
    problems = []
    for key in keys:
        value = worst.get(key)
        if value is None:
            problems.append(f"{key}: never measured")
        elif not value <= thresholds[key]:
            problems.append(f"{key}: worst {value:.3e} > {thresholds[key]:.1e}")
    return problems


@pytest.fixture(scope="module")
def polar_data():
    start = time.perf_counter()
    records = polar_trials(200, 16, 0)
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def extension_data():
    start = time.perf_counter()
    records = extension_trials(100, 12, 100_000)
    return records, time.perf_counter() - start


def test_criterion_1_resolvent_closed_form():
    problems = []
    start = time.perf_counter()
    for beta in (0.0, 0.5, 0.9, 0.99):
        rep = resolvent_check(beta)
        for item in rep.items:
            if item.threshold != 1e-11:
                problems.append(f"beta={beta} {item.name}: threshold {item.threshold}")
            if not item.passed:
                problems.append(f"beta={beta} {item.name}: {item.residual:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _criterion(1, "block resolvents match the closed form at 1e-11", problems)


def test_criterion_2_resolvent_growth():
    problems = []
    start = time.perf_counter()
    rows = growth_probe(64)
    elapsed = time.perf_counter() - start
    for k, computed, formula, rel in rows:
        if rel > 1e-10:
            problems.append(f"k={k}: rel err {rel:.3e}")
    values = [row[1] for row in rows]
    if not all(b > a for a, b in zip(values, values[1:])):
        problems.append("growth values are not strictly increasing")
    if len(rows) != 64:
        problems.append(f"expected 64 rows, got {len(rows)}")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    _criterion(2, "diagonal resolvent values grow as k^2/(2k-1)", problems)


def test_criterion_3_cayley_transform_structure():
    problems = []
    for n in (1, 4, 16, 64):
        fam = truncation_family(n)
        eye = np.eye(2 * n, dtype=complex)
        v = cayley_v(n)
        direct = eye + 2.0 * inverse(fam.operator - eye)
        lo, hi = singular_extremes(fam.operator - eye)
        kappa = hi / lo
        gap = frobenius(v - direct)
        if gap > 1e-9 * kappa:
            problems.append(f"n={n}: route gap {gap:.3e} > 1e-9 * {kappa:.1e}")
        if n == 64:
            prof = classify(fam.conjugation, v)
            for name in ("self-adjoint", "J-unitary"):
                r = prof.item(name).residual
                if r is None or r > 1e-6:
                    problems.append(f"n=64 {name}: residual {r}")
            for k in range(1, 65):
                i = 2 * (k - 1)
                dec = herm_eig(v[i : i + 2, i : i + 2])
                want = np.array([-(2.0 * k - 1.0), -1.0 / (2.0 * k - 1.0)])
                rel = np.max(np.abs(dec.eigenvalues - want) / np.abs(want))
                if rel > 1e-8:
                    problems.append(f"block {k}: eigenvalue rel err {rel:.3e}")
    _criterion(3, "both Cayley routes agree and V is self-adjoint and J-unitary", problems)


def test_criterion_4_polar_factorization(polar_data):
    records, elapsed = polar_data
    problems = _threshold_problems(
        records,
        POLAR_THRESHOLDS,
        (
            "gate",
            "reconstruct",
            "u_unitary",
            "u_j_real",
            "b_hermitian",
            "b_positive",
            "b_j_unitary",
            "factor_u",
            "factor_b",
            "roundtrip",
        ),
    )
    if len(records) < 200:
        problems.append(f"only {len(records)} trials")
    if any(not 1 <= rec.dim <= 16 for rec in records):
        problems.append("trial dimension outside [1, 16]")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.2f}s, budget 30s")
    _criterion(4, "refined polar factors verify over 200 seeded trials", problems)


def test_criterion_5_j_unitary_closure(polar_data):
    records, _ = polar_data
    problems = _threshold_problems(
        records,
        POLAR_THRESHOLDS,
        (
            "inverse_j_unitary",
            "adjoint_j_unitary",
            "gram_j_unitary",
            "full_range",
            "full_domain",
        ),
    )
    _criterion(5, "inverse, adjoint and Gram operator stay J-unitary", problems)


def test_criterion_6_unitary_equivalence(polar_data):
    records, _ = polar_data
    problems = _threshold_problems(
        records, POLAR_THRESHOLDS, ("similarity", "spectra_match")
    )
    _criterion(6, "U intertwines the two Gram operators with matching spectra", problems)


def test_criterion_7_spectral_reciprocity(polar_data):
    records, _ = polar_data
    problems = _threshold_problems(
        records,
        POLAR_THRESHOLDS,
        (
            "eigenvalue_reciprocity",
            "eigenspace_reciprocity",
            "sqrt_conjugation",
            "sqrt_inverse_commute",
        ),
    )
    _criterion(7, "J pairs reciprocal eigenvalues and conjugates the modulus", problems)


def test_criterion_8_cayley_extensions(extension_data):
    records, elapsed = extension_data
    problems = _threshold_problems(
        records, EXTENSION_THRESHOLDS, tuple(EXTENSION_THRESHOLDS)
    )
    if len(records) < 100:
        problems.append(f"only {len(records)} trials")
    for rec in records:
        d = rec.notes["domain_dim"]
        if not (2 <= rec.dim <= 12 and 1 <= d < rec.dim):
            problems.append(f"trial seed {rec.seed}: n={rec.dim} d={d} out of range")
            break
    frac = multivalued_fraction(records)
    if frac >= MULTIVALUED_FRACTION_CAP:
        problems.append(f"multivalued fraction {frac:.3f} >= {MULTIVALUED_FRACTION_CAP}")
    for rec in records:
        if rec.notes.get("multivalued") and "kernel_dim" not in rec.notes:
            problems.append(f"trial seed {rec.seed}: multivalued without kernel log")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.2f}s, budget 30s")
    _criterion(8, "random partial operators extend with logged multivalued rate", problems)


def test_criterion_9_zero_defect_round_trip():
    records = zero_defect_trials(50, 16, 200_000)
    problems = _threshold_problems(
        records, ZERO_DEFECT_THRESHOLDS, tuple(ZERO_DEFECT_THRESHOLDS)
    )
    if len(records) < 50:
        problems.append(f"only {len(records)} trials")
    _criterion(9, "full-domain imaginary Hermitians extend to themselves", problems)


def test_criterion_10_classifier_oracle_agreement():
    records = oracle_trials(200, 6, 300_000)
    problems = _threshold_problems(records, ORACLE_THRESHOLDS, tuple(ORACLE_THRESHOLDS))
    if len(records) < 200:
        problems.append(f"only {len(records)} trials")
    if any(rec.dim > 6 for rec in records):
        problems.append("oracle trial above dimension 6")
    total = time.perf_counter() - _SUITE_START
    if total >= _SUITE_BUDGET:
        problems.append(f"acceptance battery took {total:.1f}s, budget {_SUITE_BUDGET}s")
    _criterion(10, "classify agrees with the definitional oracle and the bridge", problems)

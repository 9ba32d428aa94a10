"""Seeded property-trial suites shared by the CLI and the test battery.

Each driver runs deterministic trials (trial i uses seed base + i) and
returns one record per trial carrying named residuals.  Threshold tables
live next to the drivers so the CLI sweep and the acceptance battery judge
the same numbers the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conjugation import canonical, random_conjugation
from .errors import BadFactor, MultivaluedRelation, NotJUnitary, OutOfRange
from .extension import (
    PartialSymmetricOperator,
    check_defect_j_invariance,
    extend,
    random_jimaginary_partial,
    ranges_defects,
)
from .jclass import DEFAULT_TOL, classify, definitional_oracle, j_unitary_residual
from .numkernel import frobenius
from .polar import (
    check_prop21,
    check_reciprocity,
    check_unitary_equiv,
    random_j_real_unitary,
    random_positive_j_unitary,
    refined_polar,
    synthesize,
)
from .report import CheckItem, ResidualReport, worst_of

POLAR_THRESHOLDS = {
    "gate": 0.5,
    "reconstruct": 1e-8,
    "roundtrip": 1e-8,
    "u_unitary": 1e-9,
    "u_j_real": 1e-9,
    "b_hermitian": 1e-8,
    "b_positive": 1e-8,
    "b_j_unitary": 1e-8,
    "factor_u": 1e-8,
    "factor_b": 1e-8,
    "inverse_j_unitary": 1e-8,
    "adjoint_j_unitary": 1e-8,
    "gram_j_unitary": 1e-8,
    "full_range": 1e-8,
    "full_domain": 1e-8,
    "similarity": 1e-8,
    "spectra_match": 1e-8,
    "eigenvalue_reciprocity": 1e-8,
    "eigenspace_reciprocity": 1e-8,
    "sqrt_conjugation": 1e-8,
    "sqrt_inverse_commute": 1e-8,
}

EXTENSION_THRESHOLDS = {
    "defect_match": 0.5,
    "n_plus_invariance": 1e-8,
    "n_minus_invariance": 1e-8,
    "v_unitary": 1e-8,
    "v_j_real": 1e-8,
    "atilde_hermitian": 1e-8,
    "atilde_j_imaginary": 1e-8,
    "extends_action": 1e-8,
}
MULTIVALUED_FRACTION_CAP = 0.05

ZERO_DEFECT_THRESHOLDS = {
    "defect_zero": 0.5,
    "roundtrip": 1e-9,
}

ORACLE_THRESHOLDS = {
    "verdict_mismatch": 0.5,
    "residual_gap": 1e-10,
    "bridge_mismatch": 0.5,
}


@dataclass
class TrialRecord:
    index: int
    seed: int
    dim: int
    residuals: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def worst_residuals(records):
    """Largest value of each residual key; a NaN, once seen, is the worst."""
    keys = dict.fromkeys(key for rec in records for key in rec.residuals)
    return {
        key: worst_of(rec.residuals[key] for rec in records if key in rec.residuals)
        for key in keys
    }


def suite_failures(records, thresholds):
    """(record, key, value) triples not within their thresholds (NaN included)."""
    bad = []
    for rec in records:
        for key, val in rec.residuals.items():
            if not val <= thresholds.get(key, 0.0):
                bad.append((rec, key, float(val)))
    return bad


def multivalued_fraction(records):
    hits = sum(1 for rec in records if rec.notes.get("multivalued"))
    return hits / len(records) if records else 0.0


def _trials(trials, seed, low, high, children):
    """The drivers' seed rule: trial i uses tseed = seed + i, whose generator
    rng draws the dimension from [low, high] first; yields (i, tseed, rng,
    dim, children spawned from SeedSequence(tseed)) per trial; OutOfRange,
    once iterated, for negative trials or an empty [low, high]."""
    if int(trials) < 0:
        raise OutOfRange(f"trials must be non-negative, got {trials}")
    if int(low) > int(high):
        raise OutOfRange(f"trial dimension range [{low}, {high}] is empty: maxdim < {low}")
    for i in range(int(trials)):
        tseed = int(seed) + i
        rng = np.random.default_rng(tseed)
        dim = int(rng.integers(low, int(high) + 1))
        yield i, tseed, rng, dim, np.random.SeedSequence(tseed).spawn(children)


def polar_trials(trials, maxdim, seed, corrupt_index=None):
    """Synthesis / refined-polar / closure / reciprocity program.

    Each trial draws a conjugation, a J-real unitary U0 and a positive
    J-unitary B0, synthesizes A = U0 B0, and measures every residual of the
    decomposition round trip and the structural checks on A.  With
    corrupt_index set, that trial's A gets a deliberate dent so the gate
    must fail (harness self-test); OutOfRange unless it names a trial.
    """
    if corrupt_index is not None and int(corrupt_index) not in range(int(trials)):
        raise OutOfRange(f"corrupt_index {corrupt_index} names none of {trials} trials")
    records = []
    for i, tseed, _, dim, (s_j, s_u, s_b) in _trials(trials, seed, 1, maxdim, 3):
        j = random_conjugation(dim, s_j)
        u0 = random_j_real_unitary(j, s_u)
        b0 = random_positive_j_unitary(j, s_b)
        a = synthesize(j, u0, b0)
        if corrupt_index is not None and i == int(corrupt_index):
            a = a.copy()
            a[0, 0] += 0.01
        rec = TrialRecord(i, tseed, dim)
        res = rec.residuals
        try:
            parts = refined_polar(j, a)
        except NotJUnitary:
            res["gate"] = 1.0
            records.append(rec)
            continue
        res["gate"] = 0.0
        for item in parts.report.items:
            res[item.name] = item.residual
        res["factor_u"] = frobenius(parts.u - u0) / (1.0 + frobenius(u0))
        res["factor_b"] = frobenius(parts.b - b0) / (1.0 + frobenius(b0))
        try:
            res["roundtrip"] = frobenius(a - synthesize(j, parts.u, parts.b)) / (
                1.0 + frobenius(a)
            )
        except BadFactor:
            res["roundtrip"] = 1.0
        for rep in (check_prop21(parts), check_unitary_equiv(parts), check_reciprocity(parts)):
            for item in rep.items:
                res[item.name] = item.residual
        records.append(rec)
    return records


def extension_trials(trials, maxdim, seed):
    """Defect / Cayley-extension program on random J-imaginary operators.

    Multivalued outcomes are recorded in notes, not treated as residual
    failures; callers compare multivalued_fraction against the cap.
    """
    records = []
    for i, tseed, rng, n, (s_j, s_t) in _trials(trials, seed, 2, maxdim, 2):
        d = int(rng.integers(1, n))
        j = random_conjugation(n, s_j)
        t = random_jimaginary_partial(j, d, s_t)
        rec = TrialRecord(i, tseed, n, notes={"domain_dim": d, "multivalued": False})
        res = rec.residuals
        defect = ranges_defects(t)
        res["defect_match"] = 0.0 if defect.defect_numbers == (n - d, n - d) else 1.0
        for item in check_defect_j_invariance(j, defect).items:
            res[item.name] = item.residual
        try:
            result = extend(j, t)
        except MultivaluedRelation as exc:
            rec.notes["multivalued"] = True
            rec.notes["kernel_dim"] = exc.kernel_dim
            records.append(rec)
            continue
        for item in result.report.items:
            res[item.name] = item.residual
        rec.notes["flipped_columns"] = result.report.extras["flipped_columns"]
        records.append(rec)
    return records


def zero_defect_trials(trials, maxdim, seed):
    """Full-domain purely imaginary Hermitian operators must round-trip."""
    records = []
    for i, tseed, _, n, (s_j, s_m) in _trials(trials, seed, 1, maxdim, 2):
        j = random_conjugation(n, s_j)
        gen = np.random.default_rng(s_m)
        r = gen.uniform(-1.0, 1.0, (n, n))
        r = r - r.T
        phi = j.fixed_frame()
        m = phi @ (1j * r.astype(complex)) @ phi.conj().T
        t = PartialSymmetricOperator(n, np.eye(n, dtype=complex), m)
        rec = TrialRecord(i, tseed, n)
        defect = ranges_defects(t)
        rec.residuals["defect_zero"] = 0.0 if defect.defect_numbers == (0, 0) else 1.0
        result = extend(j, t)
        rec.residuals["roundtrip"] = frobenius(result.a_tilde - m) / (1.0 + frobenius(m))
        records.append(rec)
    return records


_ORACLE_KINDS = ("gaussian", "hermitian", "symmetric", "real", "imaginary", "j_unitary")


def _oracle_matrix(kind, j, n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "gaussian":
        return z
    if kind == "hermitian":
        return 0.5 * (z + z.conj().T)
    if kind == "symmetric":
        return 0.5 * (z + z.T)
    if kind == "real":
        return z.real.astype(complex)
    if kind == "imaginary":
        return (1j * z.real).astype(complex)
    if kind == "j_unitary":
        u = random_j_real_unitary(j, rng.integers(2**32))
        b = random_positive_j_unitary(j, rng.integers(2**32))
        return u @ b
    raise ValueError(kind)


def oracle_trials(trials, maxdim, seed):
    """classify versus the definitional oracle, plus the canonical bridge;
    odd trials take the bridge's verdict from the gate j_unitary_residual."""
    records = []
    for i, tseed, rng, n, (s_j,) in _trials(trials, seed, 1, min(int(maxdim), 6), 1):
        j = canonical(n) if i % 2 == 0 else random_conjugation(n, s_j)
        kind = _ORACLE_KINDS[i % len(_ORACLE_KINDS)]
        a = _oracle_matrix(kind, j, n, rng)
        prof = classify(j, a)
        orac = definitional_oracle(j, a)
        mismatch = 0.0
        gaps = []
        for c, o in zip(prof.items, orac.items):
            if c.passed != o.passed:
                mismatch = 1.0
            rc, ro = c.residual, o.residual
            if (rc is None) != (ro is None):
                mismatch = 1.0
            elif rc is not None:
                gaps.append(abs(rc - ro))
        if prof.extras["invertible"] != orac.extras["invertible"]:
            mismatch = 1.0
        gap = worst_of(gaps)
        # even trials were already classified against canonical(n)
        if i % 2 == 0:
            invertible, unitary = prof.extras["invertible"], prof.item("J-unitary").passed
        else:
            r, ainv, _ = j_unitary_residual(canonical(n), a)
            invertible, unitary = ainv is not None, r is not None and r <= DEFAULT_TOL
        eye = np.eye(n, dtype=complex)
        direct = invertible and frobenius(a.T @ a - eye) / (1.0 + frobenius(a)) <= DEFAULT_TOL
        bridge = 0.0 if direct == unitary else 1.0
        rec = TrialRecord(i, tseed, n, notes={"kind": kind})
        rec.residuals.update(
            {"verdict_mismatch": mismatch, "residual_gap": gap, "bridge_mismatch": bridge}
        )
        records.append(rec)
    return records


def run_verify_program(trials, maxdim, seed, corrupt_index=None):
    """The whole property program; returns per-suite records, the failing
    (suite, seed, key, value) tuples and the program's report.

    The report holds one item "suite.key" per measured residual key, at its
    worst value against the suite threshold, and the extension suite's
    multivalued fraction, which must stay strictly below its cap; the
    report's verdict is the program's.
    """
    trials = int(trials)
    program = {
        "polar": (
            polar_trials(trials, maxdim, seed, corrupt_index),
            POLAR_THRESHOLDS,
        ),
        "extension": (
            extension_trials(trials // 2, min(int(maxdim), 12), int(seed) + 100_000),
            EXTENSION_THRESHOLDS,
        ),
        "zero_defect": (
            zero_defect_trials(trials // 4, int(maxdim), int(seed) + 200_000),
            ZERO_DEFECT_THRESHOLDS,
        ),
        "oracle": (
            oracle_trials(trials, maxdim, seed=int(seed) + 300_000),
            ORACLE_THRESHOLDS,
        ),
    }
    report = ResidualReport(extras={"trials": trials, "seed": int(seed)})
    failures = []
    for name, (records, thresholds) in program.items():
        worst = worst_residuals(records)
        for key, thr in thresholds.items():
            if key in worst:
                report.add(f"{name}.{key}", worst[key], thr)
        for rec, key, val in suite_failures(records, thresholds):
            failures.append((name, rec.seed, key, val))
    frac = multivalued_fraction(program["extension"][0])
    cap = MULTIVALUED_FRACTION_CAP
    report.items.append(CheckItem("extension_multivalued_fraction", frac, cap, frac < cap))
    return {
        "records": {name: recs for name, (recs, _) in program.items()},
        "failures": failures,
        "report": report,
    }

"""tools/ab.py: its cases run on both sides, its output comparison sees
bytes that repr hides, its record diff names what moved, its verdict
follows the pair and quartile rule, and it refuses fewer than ten pairs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from jlab.report import ResidualReport
from jlab.suites import TrialRecord

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALLEST = [
    "herm_eig n=4",
    "herm_eig 40 x n=4",
    "inverse n=4",
    "inverse 40 x n=4",
    "fixed_basis n=4",
    "classify n=4",
    "refined_polar n=4",
    "polar checks n=4",
    "extend n=4",
    "inverse I+A L=24",
]


def test_every_layer_is_swept_at_every_size(ab):
    labels = set(ab.cases())
    for label in SMALLEST[:-1]:
        for n in (4, 8, 16, 32, 64):
            assert label.replace("n=4", f"n={n}") in labels


def test_the_oracle_is_swept_within_its_dimension_cap(ab):
    labels = set(ab.cases())
    assert "oracle_trials(200, 16, 300_000)" in labels
    swept = {label for label in labels if label.startswith("definitional_oracle")}
    assert swept == {"definitional_oracle n=4", "definitional_oracle n=8"}


@pytest.mark.parametrize("label", SMALLEST + ["definitional_oracle n=4", "extend jacobi_imag(8, 7)"])
def test_smallest_cases_report_equal_outputs_on_one_checkout(ab, monkeypatch, label):
    monkeypatch.setattr(ab, "SAMPLE_S", 1e-3)
    side = ab.modules("jlab")
    case = ab.run_case({"parent": side, "change": side}, ab.cases()[label], 2)
    assert case["same_outputs"] and case["first_difference"] is None
    count = case["calls_per_sample"]
    assert count & (count - 1) == 0
    assert len(case["parent_s"]) == len(case["change_s"]) == 2
    assert set(case["minflt_per_call"]) == {"parent", "change"}
    assert case["parent"]["q1"] <= case["parent"]["median"] <= case["parent"]["q3"]
    assert case["verdict"] in {"faster", "slower", "unresolved"}


def _rec(seed, notes=None, **residuals):
    return TrialRecord(seed % 100, seed, 3, residuals, notes or {})


THRESHOLDS = {"polar.gate": 0.5, "extension.v_unitary": 1e-8}
BEFORE = {
    "polar": [_rec(100, gate=0.0), _rec(101, gate=0.0)],
    "extension": [
        _rec(200, {"multivalued": False}, v_unitary=1e-12),
        _rec(201, {"multivalued": False, "flipped_columns": [0]}, v_unitary=2e-9),
        _rec(202, {"multivalued": False}, v_unitary=1e-12),
    ],
}


def test_records_diff_names_crossings_and_changed_notes(ab):
    after = {
        "polar": BEFORE["polar"],
        "extension": [
            _rec(200, {"multivalued": False}, v_unitary=3e-12),
            _rec(201, {"multivalued": False, "flipped_columns": [1]}, v_unitary=3e-8),
            _rec(202, {"multivalued": True, "kernel_dim": 1}),
        ],
    }
    diff = ab.records_diff(BEFORE, after, THRESHOLDS)
    assert diff["keys"]["polar.gate"] == {
        "before": 0.0, "after": 0.0, "max_delta_over_threshold": 0.0
    }
    moved = diff["keys"]["extension.v_unitary"]
    assert (moved["before"], moved["after"]) == (2e-9, 3e-8)
    assert moved["max_delta_over_threshold"] == pytest.approx(2.8)
    # a residual across its threshold, and one no longer measured, change verdicts
    assert diff["verdicts"] == [
        {"suite": "extension", "seed": 201, "key": "v_unitary", "before": 2e-9, "after": 3e-8},
        {"suite": "extension", "seed": 202, "key": "v_unitary", "before": 1e-12, "after": None},
    ]
    assert diff["notes"] == [
        {"suite": "extension", "seed": 201, "note": "flipped_columns",
         "before": [0], "after": [1]},
        {"suite": "extension", "seed": 202, "note": "multivalued", "before": False, "after": True},
        {"suite": "extension", "seed": 202, "note": "kernel_dim", "before": None, "after": 1},
    ]


def test_records_diff_of_equal_records_is_empty(ab):
    diff = ab.records_diff(BEFORE, BEFORE, THRESHOLDS)
    assert diff["verdicts"] == diff["notes"] == []
    assert [key["max_delta_over_threshold"] for key in diff["keys"].values()] == [0.0, 0.0]


def test_the_verify_program_case_carries_its_record_diff(ab, monkeypatch):
    monkeypatch.setattr(ab, "SAMPLE_S", 1e-3)
    side = ab.modules("jlab")
    build = ab._suite("run_verify_program", 4, 3, 0)
    records = ab.run_case({"parent": side, "change": side}, build, 2)["records"]
    assert records["verdicts"] == records["notes"] == []
    assert {"polar.reconstruct", "extension.v_unitary"} <= set(records["keys"])
    assert all(key["max_delta_over_threshold"] == 0.0 for key in records["keys"].values())
    json.dumps(records)


PARENT = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, q3 - q1 = 0.045


def test_verdict_faster_needs_nine_in_ten_and_a_gap_beyond_the_parent_spread(ab):
    assert ab.verdict(PARENT, [p - 0.5 for p in PARENT]) == "faster"
    # one pair lost of ten still counts
    assert ab.verdict(PARENT, [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 0.1]) == "faster"


def test_verdict_slower_is_the_mirror(ab):
    assert ab.verdict(PARENT, [p + 0.5 for p in PARENT]) == "slower"


def test_verdict_unresolved_on_two_lost_pairs_or_a_gap_inside_the_spread(ab):
    two_lost = [p - 0.5 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert ab.verdict(PARENT, two_lost) == "unresolved"
    assert ab.verdict(PARENT, [p - 0.04 for p in PARENT]) == "unresolved"
    assert ab.verdict(PARENT, [p + 0.04 for p in PARENT]) == "unresolved"
    # ties count for neither side
    assert ab.verdict(PARENT, list(PARENT)) == "unresolved"


def test_one_ulp_in_a_64_by_64_array_differs_though_repr_hides_it(ab):
    a = np.random.default_rng(0).standard_normal((64, 64))
    b = a.copy()
    b[32, 32] = np.nextafter(b[32, 32], np.inf)
    assert repr(a) == repr(b)
    assert ab.first_difference(a, a.copy()) is None
    assert ab.first_difference(a, b) == "output"
    nested = ({"x": ResidualReport(extras={"m": a})}, {"x": ResidualReport(extras={"m": b})})
    assert ab.first_difference(*nested) == "output['x']['extras']['m']"


def test_negative_zero_and_renamed_keys_differ(ab):
    assert ab.first_difference(np.zeros(3), -np.zeros(3)) == "output"
    assert ab.first_difference({"a": 1.0}, {"b": 1.0}) == "output"
    assert ab.first_difference([1.0, 2.0], [1.0, 2.0]) is None


def test_fewer_than_ten_pairs_is_rejected(ab, tmp_path):
    with pytest.raises(SystemExit) as exc:
        ab.main(["--parent", "HEAD", "--out", str(tmp_path / "ab.json"), "--pairs", "9"])
    assert exc.value.code == 2
    assert not (tmp_path / "ab.json").exists()

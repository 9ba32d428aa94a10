"""Tests of the benchmark itself: trial replay, the verdict gate and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import jlab.numkernel  # noqa: E402
import jlab.polar  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from jlab import suites  # noqa: E402
from workloads import Trial  # noqa: E402


def _same(a, b):
    return (a.seed, a.dim, a.residuals, a.notes) == (b.seed, b.dim, b.residuals, b.notes)


@pytest.mark.parametrize(
    "suite, run_suite, maxdim, base",
    [
        ("polar", suites.polar_trials, workloads.POLAR_MAXDIM, 7),
        ("polar", suites.polar_trials, workloads.POLAR_MAXDIM, 2_000_000),
        ("extension", suites.extension_trials, workloads.EXTENSION_MAXDIM, 100_000),
        ("extension", suites.extension_trials, workloads.EXTENSION_MAXDIM, 3_100_000),
        ("zero_defect", suites.zero_defect_trials, workloads.ZERO_DEFECT_MAXDIM, 200_000),
        ("zero_defect", suites.zero_defect_trials, workloads.ZERO_DEFECT_MAXDIM, 5_200_000),
    ],
)
def test_per_trial_records_equal_batched(suite, run_suite, maxdim, base):
    batched = run_suite(4, maxdim, base)
    for i, rec in enumerate(batched):
        (single,) = workloads.run_trial(Trial(suite, base + i))
        assert _same(single, rec)


@pytest.mark.parametrize("base", [300_000, 4_300_000])
def test_oracle_batches_equal_batched_run(base):
    batched = suites.oracle_trials(2 * workloads.ORACLE_BLOCK, workloads.ORACLE_MAXDIM, base)
    singles = workloads.run_trial(Trial("oracle", base))
    singles += workloads.run_trial(Trial("oracle", base + workloads.ORACLE_BLOCK))
    assert len(singles) == len(batched)
    assert all(_same(a, b) for a, b in zip(singles, batched))
    assert {rec.notes["kind"] for rec in singles} == set(suites._ORACLE_KINDS)


@pytest.mark.parametrize(
    "suite, low, high, base",
    [
        ("polar", 1, workloads.POLAR_MAXDIM, 0),
        ("extension", 2, workloads.EXTENSION_MAXDIM, 100_000),
        ("zero_defect", 1, workloads.ZERO_DEFECT_MAXDIM, 200_000),
    ],
)
def test_strata_predict_the_suite_dimension(suite, low, high, base):
    strata = workloads.Strata(base, low, high)
    for dim in (low, high, (low + high) // 2):
        (rec,) = workloads.run_trial(Trial(suite, strata.take(dim)))
        assert rec.dim == dim


def test_stratified_blocks_are_balanced():
    polar_block = next(workloads.WORKLOADS["polar"].blocks(5))
    dims = sorted(workloads.first_draw(t.seed, 1, 16) for t in polar_block)
    assert dims == list(range(1, 17))
    units = workloads.WORKLOADS["cayley"].units(5)
    ext = [t for t in units if t.suite == "extension"]
    zero = [t for t in units if t.suite == "zero_defect"]
    assert len(ext) == 2 * len(zero)
    assert len({t.seed for t in units}) == len(units)


def test_unmodified_polar_trials_pass_and_a_dented_one_fails():
    clean = worker.Tally()
    clean.add(workloads.judge_records("polar", suites.polar_trials(3, 6, 11)))
    assert clean.summary()["failed"] == 0
    dented = worker.Tally()
    dented.add(workloads.judge_records("polar", suites.polar_trials(3, 6, 11, corrupt_index=1)))
    summary = dented.summary()
    assert summary["failed"] == 1
    assert summary["failed"] / summary["attempted"] > 0


def test_unbounded_rows_are_judged_against_the_closed_forms():
    outcome = workloads.run_trial(Trial("unbounded", 16))
    assert workloads.judge(Trial("unbounded", 16), outcome).failed == 0
    growth, norms = outcome
    k, computed, formula, _rel = growth[3]
    growth[3] = (k, computed * (1 + 1e-6), formula, 1e-6)
    assert workloads.judge(Trial("unbounded", 16), (growth, norms)).failed == 1


def test_unexpected_errors_fail_the_unit():
    verdict = workloads.run_and_judge(Trial("unbounded", 0))
    assert verdict.failed == verdict.attempted == 1
    assert verdict.error.startswith("OutOfRange")


def test_multivalued_fraction_at_the_cap_fails():
    cap = suites.MULTIVALUED_FRACTION_CAP
    assert workloads.multivalued_failures(int(cap * 100), 100) == int(cap * 100)
    assert workloads.multivalued_failures(int(cap * 100) - 1, 100) == 0


def test_traced_pass_accounts_for_wall_time_and_restores_modules():
    original = jlab.polar.herm_eig
    polar_seed = workloads.Strata(0, 1, workloads.POLAR_MAXDIM).take(8)
    units = [Trial("polar", polar_seed), Trial("extension", 100_003), Trial("unbounded", 16)]
    rec, roots = worker.traced_pass(units, worker.Tally())
    assert jlab.polar.herm_eig is original
    assert jlab.numkernel.herm_eig is original
    metrics = worker.layer_metrics(rec, roots)
    self_sum = sum(v for k, v in metrics.items() if ".self_s" in k)
    assert self_sum == pytest.approx(metrics["trace.pass_s"], rel=1e-9)
    # polar and extension call herm_eig through their own by-name imports
    assert metrics["numkernel.herm_eig.calls.large"] > 0
    assert metrics["polar.herm_eig_per_trial.large"] > 0
    assert metrics["extension.attempts"] >= 1
    assert metrics["examples.growth_probe.self_s"] > 0
    names = set(rec.names)
    assert "polar.refined_polar" in names and "extension.extend" in names


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.LAYER_METRICS
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", **worker.END_TO_END_UNITS}

"""Command-line behaviour: subcommands, exit codes, and artifacts.

Everything runs in-process through main(argv) so coverage and monkeypatching
apply; exit codes are the function's return value.
"""

import json

import numpy as np
import pytest

from jlab import cli, extension, suites
from jlab.cli import main
from jlab.conjugation import random_conjugation
from jlab.examples import block_a0, jacobi_imag
from jlab.extension import PartialSymmetricOperator
from jlab.fileio import (
    read_matrix,
    read_partial_operator,
    write_conjugation,
    write_matrix,
    write_partial_operator,
)
from jlab.jclass import CLASS_NAMES
from jlab.suites import MULTIVALUED_FRACTION_CAP, TrialRecord

B2 = np.array([[1.25, 0.75j], [-0.75j, 1.25]])


@pytest.fixture
def a0_file(tmp_path):
    path = tmp_path / "a0.json"
    write_matrix(path, block_a0(0.5))
    return path


def run(args):
    return main([str(a) for a in args])


def test_classify_canonical(a0_file, capsys):
    assert run(["classify", a0_file, "--canonical"]) == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.splitlines() if line}
    assert lines["self-adjoint"].endswith("pass")
    assert lines["J-skew-self-adjoint"].endswith("pass")
    assert lines["J-real"].endswith("fail")
    assert "invertible: yes" in out


def test_classify_with_conjugation_file(tmp_path, a0_file):
    jpath = tmp_path / "j.json"
    write_conjugation(jpath, random_conjugation(2, 4))
    assert run(["classify", a0_file, "--conjugation", jpath]) == 0


def test_classify_singular_matrix(tmp_path, capsys):
    path = tmp_path / "n.json"
    write_matrix(path, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert run(["classify", path, "--canonical"]) == 0
    out = capsys.readouterr().out
    assert "fail (singular)" in out
    assert "invertible: no" in out


def test_classify_input_failures(tmp_path, a0_file):
    assert run(["classify", tmp_path / "missing.json", "--canonical"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["classify", bad, "--canonical"]) == 2
    rect = tmp_path / "rect.json"
    write_matrix(rect, np.ones((2, 3), dtype=complex))
    assert run(["classify", rect, "--canonical"]) == 2
    # a JSON integer entry too large for a float is a file error, not a crash
    big = tmp_path / "big.json"
    big.write_text('{"rows": 1, "cols": 2, "entries": [[1%s, 0], [0, 0]]}' % ("0" * 400))
    assert run(["classify", big, "--canonical"]) == 2
    # a well-formed file whose matrix fails the conjugation axioms
    fake = tmp_path / "fake.json"
    entries = [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    doc = {"kind": "conjugation", "rows": 2, "cols": 2, "entries": entries}
    fake.write_text(json.dumps(doc))
    assert run(["classify", a0_file, "--conjugation", fake]) == 2
    # an operator whose Frobenius norm overflows: no verdict, exit 2
    huge = tmp_path / "huge.json"
    write_matrix(huge, 1e200 * np.eye(2, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["classify", huge, "--canonical"]) == 2
        assert run(["polar", huge, "--canonical", "--out", tmp_path / "p"]) == 2


def test_conjugation_flags_are_mutually_exclusive(a0_file):
    with pytest.raises(SystemExit) as info:
        run(["classify", a0_file, "--canonical", "--conjugation", "j.json"])
    assert info.value.code == 2


def test_polar_writes_factors_and_report(tmp_path, capsys):
    mpath = tmp_path / "b.json"
    write_matrix(mpath, B2)
    prefix = tmp_path / "out"
    report = tmp_path / "run.json"
    code = run(["polar", mpath, "--canonical", "--out", prefix, "--report", report])
    assert code == 0
    np.testing.assert_allclose(read_matrix(f"{prefix}.U.json"), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(read_matrix(f"{prefix}.B.json"), B2, atol=1e-12)
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert doc["command"].startswith("jlab polar")
    assert all(len(digest) == 16 for digest in doc["inputs"].values())
    assert "reconstruct" in {c["name"] for c in doc["checks"]}


def test_polar_gate_failure_is_exit_three(tmp_path):
    mpath = tmp_path / "d.json"
    write_matrix(mpath, np.diag([2.0, 1.0]).astype(complex))
    assert run(["polar", mpath, "--canonical", "--out", tmp_path / "p"]) == 3


def test_extend_jacobi_round_trip(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    _, t = jacobi_imag(2, 1)
    write_partial_operator(tpath, t)
    prefix = tmp_path / "ext"
    assert run(["extend", tpath, "--canonical", "--out", prefix]) == 0
    a = read_matrix(f"{prefix}.A.json")
    np.testing.assert_allclose(a, np.array([[0.0, 1j], [-1j, 0.0]]), atol=1e-12)
    v = read_matrix(f"{prefix}.V.json")
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) < 1e-12


def test_extend_multivalued_is_exit_four(tmp_path, monkeypatch, capsys):
    tpath = tmp_path / "t.json"
    _, t = jacobi_imag(3, 1)
    write_partial_operator(tpath, t)
    # sigma(V - I) is {2, sqrt 2, sqrt 2} after the flip: below this floor
    monkeypatch.setattr(extension, "SINGULAR_FLOOR", 1.5)
    assert run(["extend", tpath, "--canonical", "--out", tmp_path / "e"]) == 4
    err = capsys.readouterr().err
    assert "through 2 attempt(s); kernel dimension 2 on the unflipped pairing" in err


def test_extend_gate_failure_is_exit_three(tmp_path):
    tpath = tmp_path / "t.json"
    q = np.array([[1.0], [1j]]) / np.sqrt(2.0)
    write_partial_operator(
        tpath, PartialSymmetricOperator(2, q, np.array([[1j], [0.0]]))
    )
    assert run(["extend", tpath, "--canonical", "--out", tmp_path / "e"]) == 3


def test_tolerance_override_tightens_verdicts(tmp_path, monkeypatch):
    tpath = tmp_path / "t.json"
    _, t = jacobi_imag(2, 1)
    write_partial_operator(tpath, t)
    args = ["extend", tpath, "--canonical", "--out", tmp_path / "e"]
    assert run(args) == 0
    # float roundoff cannot meet an absurdly tight tolerance: verdict failure
    assert run(args + ["--tol", "1e-30"]) == 1
    # --tol is the one channel: the environment changes nothing
    for raw in ("1e-30", "not-a-number"):
        monkeypatch.setenv("JLAB_TOL", raw)
        assert run(args) == 0


def test_bad_tolerance_and_retries_exit_two(tmp_path):
    tpath = tmp_path / "t.json"
    _, t = jacobi_imag(2, 1)
    write_partial_operator(tpath, t)
    extend_args = ["extend", tpath, "--canonical", "--out", tmp_path / "e"]
    # --tol inf used to pass every verdict
    for raw in ("abc", "-1", "0", "nan", "inf"):
        for args in (extend_args, ["demo", "unbounded", "--levels", 2]):
            with pytest.raises(SystemExit) as info:
                run(args + [f"--tol={raw}"])
            assert info.value.code == 2
    # the suites judge against their own thresholds: --tol is not theirs to take
    random_args = ["random", "--kind", "conjugation", "--dim", 2, "--seed", 0, "--out", tmp_path / "j"]
    for args in (["verify-suite", "--trials", 1], random_args):
        with pytest.raises(SystemExit) as info:
            run(args + ["--tol", "1e-8"])
        assert info.value.code == 2
    # the parity rule fixes the Cayley attempts: there is no budget to set
    for args in (extend_args, ["demo", "jacobi", "--n", 3, "--d", 1]):
        with pytest.raises(SystemExit) as info:
            run(args + ["--retries", 1])
        assert info.value.code == 2


def test_demo_unbounded_csv(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    assert run(["demo", "unbounded", "--levels", 4, "--csv", csv]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0] == "k,computed,formula,rel_err"
    assert len(out_lines) >= 5
    first = out_lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 1.0) < 1e-12
    assert csv.read_text().splitlines()[:5] == out_lines[:5]
    assert run(["demo", "unbounded", "--levels", 0]) == 2


def test_demo_unbounded_nan_in_a_later_row_fails(tmp_path, monkeypatch):
    def norms(levels):
        rows = [(k, 2.0 * k - 1.0, 2.0 * k - 1.0, 0.0) for k in range(1, levels + 1)]
        rows[1] = (2, float("nan"), 3.0, float("nan"))
        return rows

    monkeypatch.setattr(cli, "norm_growth", norms)
    report = tmp_path / "u.report.json"
    assert run(["demo", "unbounded", "--levels", 3, "--report", report]) == 1
    doc = _strict_json(report)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["norm_match"]["passed"] is False
    assert checks["norm_match"]["residual"] is None
    assert checks["growth_match"]["passed"] is True


def test_demo_jacobi(tmp_path, capsys, monkeypatch):
    prefix = tmp_path / "jac"
    assert run(["demo", "jacobi", "--n", 3, "--d", 1, "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "defect numbers (2, 2)" in out
    a = read_matrix(f"{prefix}.A.json")
    assert a.shape == (3, 3)
    with monkeypatch.context() as patch:
        patch.setattr(extension, "SINGULAR_FLOOR", 1.5)
        assert run(["demo", "jacobi", "--n", 3, "--d", 1]) == 4
    assert run(["demo", "jacobi", "--n", 3, "--d", 1, "--alphas", "1"]) == 2
    assert run(["demo", "jacobi", "--n", 3, "--d", 1, "--alphas", "1,0"]) == 2


def test_demo_jacobi_factors_t_minus_and_plus_i_once(monkeypatch, capsys):
    # the printed defect numbers and extend share T's DefectData
    real = extension.orthonormal_columns
    names = []

    def spy(b, *, name="frame"):
        names.append(name)
        return real(b, name=name)

    monkeypatch.setattr(extension, "orthonormal_columns", spy)
    assert run(["demo", "jacobi", "--n", 3, "--d", 1]) == 0
    assert names == ["range of T - i", "range of T + i"]


def test_random_generators_and_determinism(tmp_path):
    for kind in ("conjugation", "j-real-unitary", "positive-j-unitary", "j-unitary"):
        p1 = tmp_path / f"{kind}-1.json"
        p2 = tmp_path / f"{kind}-2.json"
        base = ["random", "--kind", kind, "--dim", 4, "--seed", 11]
        assert run(base + ["--out", p1]) == 0
        assert run(base + ["--out", p2]) == 0
        assert p1.read_bytes() == p2.read_bytes()
    assert run(["random", "--kind", "j-unitary", "--dim", 0, "--seed", 1, "--out", tmp_path / "x"]) == 2


def test_random_partial_operator_domain_flag(tmp_path):
    default = tmp_path / "t1.json"
    assert run(["random", "--kind", "j-imaginary-partial", "--dim", 5, "--seed", 2, "--out", default]) == 0
    assert read_partial_operator(default).domain_dim == 2
    chosen = tmp_path / "t2.json"
    assert run(
        ["random", "--kind", "j-imaginary-partial", "--dim", 5, "--seed", 2, "--domain", 3, "--out", chosen]
    ) == 0
    assert read_partial_operator(chosen).domain_dim == 3


def test_verify_suite_small_run(capsys):
    assert run(["verify-suite", "--trials", 4, "--maxdim", 5, "--seed", 7]) == 0
    out = capsys.readouterr().out
    assert "polar.reconstruct" in out
    assert "extension_multivalued_fraction" in out
    assert "FAIL" not in out


def test_verify_suite_corruption_hook(capsys):
    code = run(
        ["verify-suite", "--trials", 4, "--maxdim", 5, "--seed", 7, "--corrupt-trial", 1]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL polar trial seed 8: gate" in out


def test_verify_suite_bad_parameters():
    assert run(["verify-suite", "--trials", -1]) == 2
    assert run(["verify-suite", "--trials", 4, "--maxdim", 0]) == 2


def test_verify_suite_corrupt_trial_must_name_a_trial(capsys):
    for index in (8, -1):
        assert run(["verify-suite", "--trials", 8, "--maxdim", 4, "--corrupt-trial", index]) == 2
        assert "names none of 8 trials" in capsys.readouterr().err


def test_verify_suite_multivalued_fraction_at_the_cap_fails(tmp_path, capsys, monkeypatch):
    records = [
        TrialRecord(i, 100 + i, 3, {"defect_match": 0.0}, {"multivalued": i == 0})
        for i in range(20)
    ]
    assert 1 / len(records) == MULTIVALUED_FRACTION_CAP
    monkeypatch.setattr(suites, "extension_trials", lambda *args: records)
    report = tmp_path / "run.json"
    code = run(["verify-suite", "--trials", 4, "--maxdim", 3, "--seed", 7, "--report", report])
    assert code == 1
    line = next(
        ln for ln in capsys.readouterr().out.splitlines()
        if ln.startswith("extension_multivalued_fraction")
    )
    assert line.endswith("FAIL")
    doc = json.loads(report.read_text())
    assert doc["passed"] is False
    (check,) = [c for c in doc["checks"] if c["name"] == "extension_multivalued_fraction"]
    assert check["passed"] is False


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite number {token} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_every_report_is_strict_json(tmp_path, a0_file):
    singular = tmp_path / "n.json"
    write_matrix(singular, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    b2 = tmp_path / "b.json"
    write_matrix(b2, B2)
    partial = tmp_path / "t.json"
    write_partial_operator(partial, jacobi_imag(2, 1)[1])
    commands = {
        "classify": ["classify", a0_file, "--canonical"],
        "classify-singular": ["classify", singular, "--canonical"],
        "polar": ["polar", b2, "--canonical", "--out", tmp_path / "p"],
        "extend": ["extend", partial, "--canonical", "--out", tmp_path / "e"],
        "unbounded": ["demo", "unbounded", "--levels", 3],
        "jacobi": ["demo", "jacobi", "--n", 3, "--d", 1],
        "random": ["random", "--kind", "j-unitary", "--dim", 3, "--seed", 1, "--out", tmp_path / "r.json"],
        "verify-suite": ["verify-suite", "--trials", 4, "--maxdim", 4],
    }
    docs = {}
    for name, args in commands.items():
        report = tmp_path / f"{name}.report.json"
        assert run(args + ["--report", report]) == 0, name
        docs[name] = _strict_json(report)
    assert [c["name"] for c in docs["classify"]["checks"]] == list(CLASS_NAMES)
    checks = {c["name"]: c for c in docs["classify-singular"]["checks"]}
    assert list(checks) == list(CLASS_NAMES)
    assert checks["J-unitary"]["residual"] is None
    assert checks["J-unitary"]["passed"] is False
    assert checks["self-adjoint"]["residual"] > 0.1
    assert docs["classify-singular"]["extras"] == {"invertible": False, "cond": None}

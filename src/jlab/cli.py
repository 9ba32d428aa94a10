"""Command-line front end: classify, factor, extend, demos, random generators,
and the seeded verification sweep.

Exit codes: 0 success; 1 a computed verdict failed; 2 unusable input
(parse, shape, parameter); 3 a structural gate rejected the operator;
4 the Cayley inverse stayed multivalued through both attempts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

from . import suites
from .conjugation import canonical, random_conjugation
from .errors import (
    DomainNotJInvariant,
    JLabError,
    MultivaluedRelation,
    NotInvariant,
    NotJImaginary,
    NotJUnitary,
)
from .examples import growth_probe, jacobi_imag, norm_growth
from .extension import extend as extend_op
from .extension import random_jimaginary_partial, ranges_defects
from .fileio import (
    read_conjugation,
    read_matrix,
    read_partial_operator,
    write_conjugation,
    write_json,
    write_matrix,
    write_partial_operator,
)
from .jclass import DEFAULT_TOL, classify
from .polar import (
    random_j_real_unitary,
    random_j_unitary,
    random_positive_j_unitary,
    refined_polar,
)
from .report import ResidualReport, worst_of

GATE_ERRORS = (NotJUnitary, NotJImaginary, DomainNotJInvariant, NotInvariant)
# seeded generators of `jlab random` that write a matrix, by --kind
RANDOM_MATRICES = {
    "j-real-unitary": random_j_real_unitary,
    "positive-j-unitary": random_positive_j_unitary,
    "j-unitary": random_j_unitary,
}


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _run_report(args, report, inputs, seed=None):
    doc = report.to_dict()
    doc["command"] = " ".join(args._echo)
    doc["inputs"] = {str(p): _digest(p) for p in inputs}
    doc["seed"] = seed
    doc["elapsed_seconds"] = time.perf_counter() - args._start
    if args.report:
        write_json(args.report, doc)
    return doc


def tolerance(text):
    """argparse type of --tol: a float in (0, inf); anything else exits 2."""
    val = float(text)
    if not 0.0 < val < math.inf:
        raise ValueError(text)
    return val


def _load_conjugation(args, dim):
    return canonical(dim) if args.canonical else read_conjugation(args.conjugation)


def _read_operator(args):
    """The square operator in args.matrix and the conjugation it is judged against."""
    a = read_matrix(args.matrix)
    if a.shape[0] != a.shape[1]:
        raise JLabError(f"{args.matrix}: operator must be square, got {a.shape}")
    return _load_conjugation(args, a.shape[0]), a


def _print_report(report):
    for item in report.items:
        verdict = "pass" if item.passed else "FAIL"
        value = "undefined" if item.residual is None else f"{item.residual:.3e}"
        print(f"{item.name:<28} {value:>12}  (<= {item.threshold:.1e})  {verdict}")
    for key, val in report.extras.items():
        print(f"{key}: {val}")


def _finish(args, report, inputs, outputs):
    """Write each (suffix, matrix) output, print and file the report; the exit code."""
    for suffix, m in outputs:
        write_matrix(f"{args.out}.{suffix}.json", m)
    if outputs:
        print("wrote " + ", ".join(f"{args.out}.{suffix}.json" for suffix, _ in outputs))
    _print_report(report)
    _run_report(args, report, inputs)
    return 0 if report.passed else 1


def cmd_classify(args):
    j, a = _read_operator(args)
    prof = classify(j, a, args.tol)
    print(f"dimension {a.shape[0]}, tolerance {args.tol:.1e}")
    for item in prof.items:
        if item.residual is None:
            print(f"{item.name:<22}          n/a  fail (singular)")
        else:
            verdict = "pass" if item.passed else "fail"
            print(f"{item.name:<22} {item.residual:12.3e}  {verdict}")
    cond = prof.extras["cond"]
    cond = "n/a" if cond is None else f"{cond:.3e}"
    print(f"invertible: {'yes' if prof.extras['invertible'] else 'no'} (cond {cond})")
    _run_report(args, prof, [args.matrix])
    return 0


def cmd_polar(args):
    j, a = _read_operator(args)
    parts = refined_polar(j, a, args.tol)
    return _finish(args, parts.report, [args.matrix], [("U", parts.u), ("B", parts.b)])


def cmd_extend(args):
    t = read_partial_operator(args.operator)
    j = _load_conjugation(args, t.ambient)
    result = extend_op(j, t, args.tol)
    outputs = [("A", result.a_tilde), ("V", result.v), ("W", result.w)]
    return _finish(args, result.report, [args.operator], outputs)


def cmd_demo_unbounded(args):
    if args.levels < 1:
        raise JLabError(f"--levels must be at least 1, got {args.levels}")
    rows = growth_probe(args.levels)
    lines = ["k,computed,formula,rel_err"]
    lines += [f"{k},{c!r},{f!r},{e!r}" for k, c, f, e in rows]
    for line in lines:
        print(line)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    rep = ResidualReport(extras={"levels": args.levels})
    rep.add("growth_match", worst_of(e for _, _, _, e in rows), args.tol)
    norms = norm_growth(args.levels)
    rep.add("norm_match", worst_of(e for _, _, _, e in norms), args.tol)
    monotone = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    rep.add("growth_monotone", 0.0 if monotone else 1.0, 0.5)
    _run_report(args, rep, [])
    return 0 if rep.passed else 1


def cmd_demo_jacobi(args):
    alphas = [float(x) for x in args.alphas.split(",")] if args.alphas else None
    j, t = jacobi_imag(args.n, args.d, alphas)
    defect = ranges_defects(t)
    print(f"defect numbers {defect.defect_numbers}")
    result = extend_op(j, t, args.tol)
    return _finish(args, result.report, [], [("A", result.a_tilde)] if args.out else [])


def cmd_random(args):
    if args.dim < 1:
        raise JLabError(f"--dim must be positive, got {args.dim}")
    kind = args.kind
    if kind == "conjugation":
        write_conjugation(args.out, random_conjugation(args.dim, args.seed))
    elif kind == "j-imaginary-partial":
        d = args.domain if args.domain is not None else max(1, args.dim // 2)
        t = random_jimaginary_partial(canonical(args.dim), d, args.seed)
        write_partial_operator(args.out, t)
    else:  # argparse choices leave only the matrix kinds
        write_matrix(args.out, RANDOM_MATRICES[kind](canonical(args.dim), args.seed))
    print(f"wrote {args.out}")
    rep = ResidualReport(extras={"kind": kind, "dim": args.dim})
    _run_report(args, rep, [args.out], seed=args.seed)
    return 0


def cmd_verify_suite(args):
    outcome = suites.run_verify_program(
        args.trials, args.maxdim, args.seed, corrupt_index=args.corrupt_trial
    )
    rep = outcome["report"]
    _print_report(rep)
    for suite_name, seed, key, val in outcome["failures"]:
        val = "undefined" if val is None else f"{val:.3e}"
        print(f"FAIL {suite_name} trial seed {seed}: {key} = {val}")
    _run_report(args, rep, [], seed=args.seed)
    return 0 if rep.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jlab",
        description="Conjugation-structured operator laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, conj=True, tol=True):
        if tol:
            p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL, help="verdict tolerance")
        p.add_argument("--report", default=None, help="write a JSON run report here")
        if conj:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--conjugation", help="conjugation file")
            grp.add_argument(
                "--canonical", action="store_true", help="use entrywise conjugation"
            )

    p = sub.add_parser("classify", help="profile an operator against all classes")
    p.add_argument("matrix")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("polar", help="refined polar decomposition of a J-unitary")
    p.add_argument("matrix")
    p.add_argument("--out", default="polar", help="output file prefix")
    add_common(p)
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("extend", help="self-adjoint J-imaginary extension")
    p.add_argument("operator")
    p.add_argument("--out", default="extension", help="output file prefix")
    add_common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("demo", help="worked examples")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    pu = demo_sub.add_parser("unbounded", help="resolvent growth of the truncation family")
    pu.add_argument("--levels", type=int, required=True)
    pu.add_argument("--csv", default=None, help="also write the CSV here")
    add_common(pu, conj=False)
    pu.set_defaults(func=cmd_demo_unbounded)
    pj = demo_sub.add_parser("jacobi", help="imaginary Jacobi matrix extension")
    pj.add_argument("--n", type=int, required=True)
    pj.add_argument("--d", type=int, required=True)
    pj.add_argument("--alphas", default=None, help="comma-separated couplings")
    pj.add_argument("--out", default=None, help="output file prefix")
    add_common(pj, conj=False)
    pj.set_defaults(func=cmd_demo_jacobi)

    p = sub.add_parser("random", help="seeded generators")
    p.add_argument(
        "--kind",
        required=True,
        choices=["conjugation", *RANDOM_MATRICES, "j-imaginary-partial"],
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--domain", type=int, default=None, help="domain dimension")
    add_common(p, conj=False, tol=False)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify-suite", help="seeded property program")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--maxdim", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-trial", type=int, default=None, help="self-test hook")
    add_common(p, conj=False, tol=False)
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._echo = ["jlab"] + list(argv)
    args._start = time.perf_counter()
    try:
        return args.func(args)
    except (JLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MultivaluedRelation):
            return 4
        return 3 if isinstance(exc, GATE_ERRORS) else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

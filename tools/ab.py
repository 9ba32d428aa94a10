"""One-process A/B timing of a parent revision against this checkout.

    python tools/ab.py --parent REV --out BENCH.json [--pairs 10]

Imports ``src/jlab`` of ``git archive REV`` as ``jlab_parent`` beside this
checkout's ``jlab``, so both run in one process, numpy, BLAS and allocator
state.  Each side builds the inputs of a case (see ``cases``) with its own
generators and seeds, outside the timed calls.  The warm-up doubles the calls
per sample until a sample takes SAMPLE_S on both sides; ``--pairs`` (>= 10)
pairs of samples follow, the parent first in even pairs, each after a
garbage collection.  Per case the JSON holds the calls per sample, the paired
per-call times in seconds, each side's median and quartiles, the median ratio
change / parent, the pairs the change won, the ``verdict`` on the pairs, minor
page faults per call and the path of the first difference between the outputs
(None when equal).  The verify program's case adds ``records``, how its
records moved (``records_diff``).  The ``extend`` cases build a fresh
operator in every call.
"""

import argparse
import dataclasses
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from digest import blas_core  # noqa: E402  (puts this checkout's src on sys.path)
from run import machine_facts  # noqa: E402

from jlab.jclass import ORACLE_DIM_CAP  # noqa: E402
from jlab.report import worst_of  # noqa: E402

SAMPLE_S = 0.02
NOTES = ("multivalued", "kernel_dim", "flipped_columns")
MODULES = ("conjugation", "examples", "extension", "jclass", "numkernel", "polar", "suites")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def modules(package):
    """The jlab modules the cases call, imported from ``package``."""
    return argparse.Namespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})


def load_parent(rev, into):
    """Import ``src/jlab`` of ``git archive rev`` as the package jlab_parent."""
    subprocess.run(["tar", "-x", "-C", into], input=_git("archive", rev, "src/jlab"), check=True)
    (Path(into) / "src" / "jlab").rename(Path(into) / "jlab_parent")
    sys.path.insert(0, into)
    return modules("jlab_parent")


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(z):
    return 0.5 * (z + z.conj().swapaxes(-1, -2))


def _extend(m, j, t):
    """extend on a fresh operator per call, so no DefectData kept on T carries over."""
    ext = m.extension
    return (lambda: ext.extend(j, ext.PartialSymmetricOperator(t.ambient, t.domain_basis, t.action))), ()


def _layers(n):
    """The sweep's cases at dimension n, their inputs seeded by n."""
    rng = np.random.default_rng(n)
    herm, herms = _hermitian(_gaussian(rng, n, n)), _hermitian(_gaussian(rng, 40, n, n))
    mat, mats = _gaussian(rng, n, n), _gaussian(rng, 40, n, n)
    # fixed_basis takes J-fixed columns times a unitary: orthonormal, not J-fixed
    mix, _ = np.linalg.qr(_gaussian(rng, n // 2, n // 2))

    def j_unitary(m):
        j = m.conjugation.random_conjugation(n, n)
        return j, m.polar.random_j_unitary(j, n)

    def fixed_basis(m):
        j = m.conjugation.random_conjugation(n, n)
        return m.conjugation.fixed_basis, (j, j.fixed_frame()[:, : n // 2] @ mix)

    def checks(m):
        fns = (m.polar.check_prop21, m.polar.check_unitary_equiv, m.polar.check_reciprocity)
        return (lambda parts: [f(parts) for f in fns]), (m.polar.refined_polar(*j_unitary(m)),)

    def extend(m):
        j = m.conjugation.random_conjugation(n, n)
        return _extend(m, j, m.extension.random_jimaginary_partial(j, n // 2, n))

    out = {
        f"herm_eig n={n}": lambda m: (m.numkernel.herm_eig, (herm,)),
        f"herm_eig 40 x n={n}": lambda m: (m.numkernel.herm_eig, (herms,)),
        f"inverse n={n}": lambda m: (m.numkernel.inverse, (mat,)),
        f"inverse 40 x n={n}": lambda m: (m.numkernel.inverse, (mats,)),
        f"fixed_basis n={n}": fixed_basis,
        f"classify n={n}": lambda m: (m.jclass.classify, j_unitary(m)),
        f"refined_polar n={n}": lambda m: (m.polar.refined_polar, j_unitary(m)),
        f"polar checks n={n}": checks,
        f"extend n={n}": extend,
    }
    if n <= ORACLE_DIM_CAP:
        out[f"definitional_oracle n={n}"] = lambda m: (m.jclass.definitional_oracle, j_unitary(m))
    return out


def _suite(name, *args):
    return lambda m: (getattr(m.suites, name), args)


def _gram(m):
    blocks = m.examples._cayley_blocks(256)
    return m.numkernel.herm_eig, (blocks.conj().swapaxes(1, 2) @ blocks,)


def cases():
    """Label -> build(m) -> (fn, args): the suites, the per-layer sweep, an
    ``extend`` whose unflipped V - I is singular, and the kernel shapes of
    ``refined_polar``, ``norm_growth`` and ``growth_probe``."""
    out = {
        "run_verify_program(200, 16, 0)": _suite("run_verify_program", 200, 16, 0),
        "extension_trials(100, 12, 100_000)": _suite("extension_trials", 100, 12, 100_000),
        "zero_defect_trials(50, 16, 200_000)": _suite("zero_defect_trials", 50, 16, 200_000),
        "oracle_trials(200, 16, 300_000)": _suite("oracle_trials", 200, 16, 300_000),
    }
    for n in (4, 8, 16, 32, 64):
        out.update(_layers(n))
    # the unflipped V - I is singular with a one-dimensional kernel
    out["extend jacobi_imag(8, 7)"] = lambda m: _extend(m, *m.examples.jacobi_imag(8, 7))
    herms = _hermitian(_gaussian(np.random.default_rng(3), 3, 16, 16))
    out["herm_eig 3 x n=16"] = lambda m: (m.numkernel.herm_eig, (herms,))
    out["herm_eig L=256 Gram"] = _gram
    out["singular_extremes L=256"] = lambda m: (
        m.numkernel.singular_extremes, (m.examples._cayley_blocks(256),)
    )
    for level in (24, 181, 256):
        out[f"inverse I+A L={level}"] = lambda m, level=level: (
            m.numkernel.inverse, (m.examples.truncation_family(level).blocks + np.eye(2),))
    return out


def first_difference(a, b, path="output"):
    """None when a and b are equal, else the path of their first difference.

    Arrays compare by dtype, shape and bytes (numpy's repr elides arrays of
    over 1,000 entries), dataclasses by class name and then field by field
    (each side defines its own classes), dicts, lists and tuples item by
    item, and every other leaf by repr.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        same = type(a) is type(b) and (a.dtype, a.shape) == (b.dtype, b.shape)
        return None if same and a.tobytes() == b.tobytes() else path
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        if type(a).__name__ != type(b).__name__:
            return path
        a, b = ({f.name: getattr(x, f.name) for f in dataclasses.fields(x)} for x in (a, b))
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        keys = list(a)
    elif isinstance(a, (list, tuple)) and type(a) is type(b) and len(a) == len(b):
        keys = range(len(a))
    else:
        return None if repr(a) == repr(b) else path
    return next(filter(None, (first_difference(a[k], b[k], f"{path}[{k!r}]") for k in keys)), None)


def records_diff(before, after, thresholds):
    """What moved between two runs' records of the verify program.

    before and after map each suite to its records, trial i of a suite
    holding the same seed on both sides; thresholds map "suite.key" to the
    key's bound.  "keys" gives each thresholded key its worst value on each
    side and the largest |after - before| / threshold over the trials that
    measure it on both.  "verdicts" lists each (suite, seed, key) whose
    value <= threshold verdict changed, a key measured on one side only
    included; "notes" each changed multivalued, kernel_dim or
    flipped_columns note.  Equal inputs give zero deltas and empty lists.
    """
    out = {"keys": {}, "verdicts": [], "notes": []}
    for name, thr in thresholds.items():
        suite, key = name.split(".", 1)
        pairs = list(zip(before[suite], after[suite]))
        values = [tuple(rec.residuals.get(key) for rec in pair) for pair in pairs]
        out["keys"][name] = {
            "before": worst_of(old for old, _ in values if old is not None),
            "after": worst_of(new for _, new in values if new is not None),
            "max_delta_over_threshold": worst_of(
                abs(new - old) / thr for old, new in values if None not in (old, new)
            ),
        }
        for (rec, _), (old, new) in zip(pairs, values):
            if (old is not None and old <= thr) != (new is not None and new <= thr):
                out["verdicts"].append(
                    {"suite": suite, "seed": rec.seed, "key": key, "before": old, "after": new}
                )
    for suite in before:
        for old, new in zip(before[suite], after[suite]):
            out["notes"] += [
                {"suite": suite, "seed": old.seed, "note": note,
                 "before": old.notes.get(note), "after": new.notes.get(note)}
                for note in NOTES if old.notes.get(note) != new.notes.get(note)
            ]
    return out


def _sample(fn, args, calls):
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    elapsed = time.perf_counter() - start
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent_s, change_s):
    """"faster" when the change won at least 9 in 10 of the paired samples
    and the parent's median exceeds the change's by more than the parent's
    q3 - q1; "slower" for the mirror case; else "unresolved"."""
    base = _summary(parent_s)
    spread = base["q3"] - base["q1"]
    gap = base["median"] - statistics.median(change_s)
    won = sum(c < p for p, c in zip(parent_s, change_s))
    lost = sum(c > p for p, c in zip(parent_s, change_s))
    if 10 * won >= 9 * len(parent_s) and gap > spread:
        return "faster"
    if 10 * lost >= 9 * len(parent_s) and -gap > spread:
        return "slower"
    return "unresolved"


def run_case(sides, build, pairs):
    calls = {side: build(m) for side, m in sides.items()}
    outputs = [fn(*args) for fn, args in calls.values()]
    diff = first_difference(*outputs)
    records = {}
    if isinstance(outputs[0], dict) and "records" in outputs[0]:  # run_verify_program
        parent, change = outputs
        thresholds = {it.name: it.threshold for it in change["report"].items if "." in it.name}
        records["records"] = records_diff(parent["records"], change["records"], thresholds)
    count = 1
    while min(_sample(fn, args, count)[0] for fn, args in calls.values()) < SAMPLE_S:
        count *= 2
    times, faults = {side: [] for side in sides}, dict.fromkeys(sides, 0)
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            elapsed, minflt = _sample(*calls[side], count)
            times[side].append(elapsed / count)
            faults[side] += minflt
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {
        "calls_per_sample": count,
        **{f"{side}_s": samples for side, samples in times.items()},
        **{side: _summary(samples) for side, samples in times.items()},
        "median_ratio": statistics.median(ratios),
        "change_faster_pairs": sum(r < 1.0 for r in ratios),
        "verdict": verdict(times["parent"], times["change"]),
        "minflt_per_call": {side: faults[side] / (pairs * count) for side in sides},
        "same_outputs": diff is None,
        "first_difference": diff,
        **records,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    parent_commit = _git("rev-parse", args.parent).decode().strip()
    dirty = bool(_git("status", "--porcelain", "--", "src").strip())
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="jlab-ab-") as tmp:
        sides = {"parent": load_parent(parent_commit, tmp), "change": modules("jlab")}
        result = {
            "parent": parent_commit,
            "change": _git("rev-parse", "HEAD").decode().strip() + ("+src-edits" if dirty else ""),
            "pairs": args.pairs,
            "machine": {**machine_facts(), "loadavg": os.getloadavg(), "numpy": np.__version__,
                        "blas": blas_core()},
            "cases": {},
        }
        for label, build in cases().items():
            case = result["cases"][label] = run_case(sides, build, args.pairs)
            print(f"{label}: {case['parent']['median']:.4g} -> {case['change']['median']:.4g} s, "
                  f"ratio {case['median_ratio']:.3f}, same {case['same_outputs']}, "
                  f"won {case['change_faster_pairs']}/{args.pairs}, {case['verdict']}", flush=True)
    result["machine"]["loadavg_end"] = os.getloadavg()
    result["wall_s"] = time.perf_counter() - start
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())

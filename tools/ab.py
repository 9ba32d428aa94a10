"""One-process A/B timing of a parent revision against this checkout.

    python tools/ab.py --parent REV --out BENCH.json [--pairs 10]

Extracts ``git archive REV`` into a temporary directory and imports its
``src/jlab`` under the package name ``jlab_parent``, beside this checkout's
``jlab``, so both run in one process on one numpy and BLAS.  Each case runs
once per side as warm-up, then ``--pairs`` (at least 10) pairs of calls, the
parent first in even pairs and the change first in odd ones, with a garbage
collection before each call.  The in-process ratio is the number to compare
across machines, since separate processes on one machine can differ by more
than the change.

The JSON holds the machine facts (BLAS core included), both revisions, and
per case: the paired samples in seconds, each side's median and quartiles,
the median of the per-pair ratios change / parent, how many pairs the change
won, and whether both sides returned repr-identical records.
"""

import argparse
import gc
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from digest import blas_core  # noqa: E402  (puts this checkout's src on sys.path)
from run import machine_facts  # noqa: E402

import jlab.suites  # noqa: E402

CASES = (
    ("run_verify_program(200, 16, 0)", "run_verify_program", (200, 16, 0)),
    ("extension_trials(100, 12, 100_000)", "extension_trials", (100, 12, 100_000)),
    ("zero_defect_trials(50, 16, 200_000)", "zero_defect_trials", (50, 16, 200_000)),
)


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def load_parent(rev, into):
    """Import ``src/jlab`` of ``git archive rev`` as the package jlab_parent."""
    tarfile.open(fileobj=io.BytesIO(_git("archive", rev))).extractall(into)
    pkg = Path(into) / "src" / "jlab"
    spec = importlib.util.spec_from_file_location(
        "jlab_parent", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["jlab_parent"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("jlab_parent.suites")


def _records(out):
    return out["records"] if isinstance(out, dict) else out


def _timed(fn, args):
    gc.collect()
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_case(suites, name, args, pairs):
    sides = {"parent": getattr(suites["parent"], name), "change": getattr(suites["change"], name)}
    outs = {side: fn(*args) for side, fn in sides.items()}
    same = repr(_records(outs["parent"])) == repr(_records(outs["change"]))
    times = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(_timed(sides[side], args))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {
        "parent_s": times["parent"],
        "change_s": times["change"],
        "parent": _summary(times["parent"]),
        "change": _summary(times["change"]),
        "median_ratio": statistics.median(ratios),
        "change_faster_pairs": sum(r < 1.0 for r in ratios),
        "same_records": same,
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
    with tempfile.TemporaryDirectory(prefix="jlab-ab-") as tmp:
        suites = {"parent": load_parent(parent_commit, tmp), "change": jlab.suites}
        result = {
            "parent": parent_commit,
            "change": _git("rev-parse", "HEAD").decode().strip() + ("+src-edits" if dirty else ""),
            "pairs": args.pairs,
            "machine": {
                **machine_facts(),
                "loadavg": os.getloadavg(),
                "numpy": np.__version__,
                "blas": blas_core(),
            },
            "cases": {},
        }
        for label, name, call_args in CASES:
            case = run_case(suites, name, call_args, args.pairs)
            result["cases"][label] = case
            print(
                f"{label}: parent {case['parent']['median']:.4f} s, change "
                f"{case['change']['median']:.4f} s, ratio {case['median_ratio']:.3f}, "
                f"change faster in {case['change_faster_pairs']}/{args.pairs}, "
                f"same records {case['same_records']}",
                flush=True,
            )
    result["machine"]["loadavg_end"] = os.getloadavg()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: import jlab, warm up, then time or trace a workload.

Started by run.py, once per set-up probe and once per measured run, so that
set-up includes interpreter start and imports and peak memory belongs to one
workload.  Prints one JSON object on stdout.

    python3 bench/worker.py --workload polar --seed 0 --seconds 20 --mode timed
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import jlab  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

if Path(jlab.__file__).resolve().parent != ROOT / "src" / "jlab":
    sys.exit(f"jlab was imported from {jlab.__file__}, not from {ROOT / 'src'}")

MIN_PASSES = 2
SMALL_EIG_DIM = 4
# Model of the bytes one Gauss-Jordan inverse moves: each of the n steps
# reads and writes the n x 2n complex128 working array once (2 * 32 n^2).
INVERSE_BYTES_PER_N3 = 64

NAMED_LAYERS = {
    "numkernel.inverse": "numkernel.inverse",
    "numkernel.orthonormal_columns": "numkernel.qr",
    "numkernel.orth_complement": "numkernel.qr",
    "conjugation.fixed_basis": "conjugation.fixed_basis",
    "jclass.classify": "jclass.classify",
    "jclass.definitional_oracle": "jclass.definitional_oracle",
    "polar.refined_polar": "polar.refined_polar",
    "polar.check_prop21": "polar.check_prop21",
    "polar.check_unitary_equiv": "polar.check_unitary_equiv",
    "polar.check_reciprocity": "polar.check_reciprocity",
    "polar.synthesize": "polar.synthesize",
    "polar.random_j_real_unitary": "polar.generators",
    "polar.random_positive_j_unitary": "polar.generators",
    "polar.random_j_unitary": "polar.generators",
    "extension.extend": "extension.extend",
    "extension.ranges_defects": "extension.ranges_defects",
    "examples.growth_probe": "examples.growth_probe",
    "examples.norm_growth": "examples.norm_growth",
}

# End-to-end metrics of the timed run; run.py adds setup_s.
END_TO_END_UNITS = {"trials_per_s": "1/s", "trial_ms.p50": "ms", "trial_ms.tail": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run and their units, in report order.
LAYER_METRICS = {
    "numkernel.herm_eig.calls.large": "count",
    "numkernel.herm_eig.self_s.large": "s",
    "numkernel.herm_eig.calls.small": "count",
    "numkernel.herm_eig.self_s.small": "s",
    "numkernel.herm_eig.n3_sum": "count",
    "numkernel.inverse.calls": "count",
    "numkernel.inverse.self_s": "s",
    "numkernel.inverse.computed_bytes": "B",
    "numkernel.qr.calls": "count",
    "numkernel.qr.self_s": "s",
    "numkernel.other.self_s": "s",
    "conjugation.fixed_basis.calls": "count",
    "conjugation.fixed_basis.self_s": "s",
    "conjugation.other.self_s": "s",
    "jclass.classify.calls": "count",
    "jclass.classify.self_s": "s",
    "jclass.definitional_oracle.self_s": "s",
    "jclass.other.self_s": "s",
    "polar.refined_polar.self_s": "s",
    "polar.check_prop21.self_s": "s",
    "polar.check_unitary_equiv.self_s": "s",
    "polar.check_reciprocity.self_s": "s",
    "polar.synthesize.self_s": "s",
    "polar.generators.self_s": "s",
    "polar.other.self_s": "s",
    "polar.herm_eig_per_trial.large": "count/trial",
    "extension.extend.self_s": "s",
    "extension.attempts": "count",
    "extension.useful_attempt_ratio": "ratio",
    "extension.retried_fraction": "ratio",
    "extension.multivalued": "count",
    "extension.ranges_defects.calls": "count",
    "extension.ranges_defects.self_s": "s",
    "extension.other.self_s": "s",
    "examples.growth_probe.self_s": "s",
    "examples.norm_growth.self_s": "s",
    "examples.other.self_s": "s",
    "suites.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_fraction": "ratio",
    "trace.spans": "count",
}

# MultivaluedRelation carries the kernel dimension but not the attempt
# count; its message states the count.
_ATTEMPTS = re.compile(r"through (\d+) attempt")


def extend_note(result, exc):
    """Cayley attempts of one extend call and whether it ended multivalued."""
    if exc is None:
        return {"attempts": int(result.report.extras["attempts"]), "multivalued": False}
    if isinstance(exc, jlab.MultivaluedRelation):
        found = _ATTEMPTS.search(str(exc))
        return {"attempts": int(found.group(1)) if found else 0, "multivalued": True}
    return {"attempts": 0, "multivalued": False}


class Tally:
    """Running totals of verdicts over the trials of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0
        self.multivalued = 0
        self.extension = 0
        self.errors = []

    def add(self, verdict):
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.worst_ratio = max(self.worst_ratio, verdict.worst_ratio)
        self.multivalued += verdict.multivalued
        self.extension += verdict.extension
        if verdict.error is not None and len(self.errors) < 5:
            self.errors.append(verdict.error)

    def summary(self):
        failed = self.failed + workloads.multivalued_failures(self.multivalued, self.extension)
        return {
            "attempted": self.attempted,
            "failed": failed,
            "worst_residual_ratio": self.worst_ratio,
            "multivalued": self.multivalued,
            "extension_trials": self.extension,
            "errors": self.errors,
        }


def timed_pass(units, best, tally):
    """Run every unit once, lowering best[k] to unit k's time if it beat it."""
    for k, trial in enumerate(units):
        t0 = time.perf_counter()
        verdict = workloads.run_and_judge(trial)
        best[k] = min(best[k], time.perf_counter() - t0)
        tally.add(verdict)


def another_fits(start, last_begin, seconds):
    """Whether one more pass as long as the last one ends within `seconds`."""
    now = time.perf_counter()
    return 2 * now - last_begin - start <= seconds


def timed_run(workload, seed, seconds):
    """Passes over the run's units for `seconds`; best time per unit.

    On a shared host, speed can swing by a factor of two over seconds, and
    interference can only slow a trial down.  Each unit's
    best time over passes spread across the run measures the program rather
    than its neighbours.  Every execution is judged.
    """
    units = workload.units(seed)
    best = [math.inf] * len(units)
    tally = Tally()
    passes = 0
    start = last = time.perf_counter()
    while passes < MIN_PASSES or another_fits(start, last, seconds):
        last = time.perf_counter()
        timed_pass(units, best, tally)
        passes += 1
    wall = time.perf_counter() - start
    times_ms = [t * 1000.0 for t in best]
    p = workload.tail_percentile
    tail_ms, beyond = tail(times_ms, p)
    values = {
        "trials_per_s": len(best) / sum(best),
        "trial_ms.p50": statistics.median(times_ms),
        "trial_ms.tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "summary": (
            f"timed {len(units)} units, best of {passes} passes, over {wall:.3f} s; "
            f"tail is p{p:g} with {beyond} of {len(units)} units beyond it"
        ),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        **tally.summary(),
    }


def tail(times_ms, p):
    """Value at percentile p and the number of samples beyond it."""
    value = statistics.quantiles(times_ms, n=10000, method="inclusive")[round(p * 100) - 1]
    return value, sum(1 for t in times_ms if t > value)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rec, roots):
    """Aggregate spans into the LAYER_METRICS values."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    self_s = rec.self_times()
    root_of = []
    for i, p in enumerate(rec.parent):
        root_of.append(i if p < 0 else root_of[p])
    root_suite = {idx: suite for idx, suite in roots}
    polar_trials = sum(1 for _idx, suite in roots if suite == "polar")
    extension_trials = sum(1 for _idx, suite in roots if suite == "extension")
    polar_large = 0
    retried = 0
    successes = 0
    for i, name in enumerate(rec.names):
        st = float(self_s[i])
        if rec.parent[i] < 0:
            out["suites.self_s"] += st
            continue
        if name == "numkernel.herm_eig":
            n = rec.size[i]
            kind = "large" if n > SMALL_EIG_DIM else "small"
            out[f"numkernel.herm_eig.calls.{kind}"] += 1
            out[f"numkernel.herm_eig.self_s.{kind}"] += st
            out["numkernel.herm_eig.n3_sum"] += n**3
            if kind == "large" and root_suite[root_of[i]] == "polar":
                polar_large += 1
            continue
        layer = NAMED_LAYERS.get(name)
        if layer is None:
            out[name.split(".")[0] + ".other.self_s"] += st
            continue
        out[f"{layer}.self_s"] += st
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
        if name == "numkernel.inverse":
            out["numkernel.inverse.computed_bytes"] += INVERSE_BYTES_PER_N3 * rec.size[i] ** 3
        if name == "extension.extend":
            note = rec.notes[i]
            out["extension.attempts"] += note["attempts"]
            out["extension.multivalued"] += int(note["multivalued"])
            successes += int(not note["multivalued"] and note["attempts"] > 0)
            if note["attempts"] > 1 and root_suite[root_of[i]] == "extension":
                retried += 1
    if out["extension.attempts"]:
        out["extension.useful_attempt_ratio"] = successes / out["extension.attempts"]
    if extension_trials:
        out["extension.retried_fraction"] = retried / extension_trials
    if polar_trials:
        out["polar.herm_eig_per_trial.large"] = polar_large / polar_trials
    out["trace.pass_s"] = sum(rec.end[idx] - rec.start[idx] for idx, _suite in roots)
    out["trace.spans"] = len(rec.names)
    return out


def traced_pass(units, tally):
    """Run every unit once with every layer traced; return the recorder and roots."""
    rec = SpanRecorder(hooks={"extension.extend": extend_note})
    roots = []
    with rec.patch():
        for trial in units:
            with rec.span(f"suites.{trial.suite}") as idx:
                verdict = workloads.run_and_judge(trial)
            roots.append((idx, trial.suite))
            tally.add(verdict)
    return rec, roots


def traced_run(workload, seed, seconds, spans_path):
    """Alternate untraced and traced passes over the run's units.

    Per-layer figures come from the traced pass with the median wall time,
    so they add up to that pass exactly; counts are the same in every pass.
    The overhead compares the best untraced and best traced time per unit.
    """
    units = workload.units(seed)
    best_plain = [math.inf] * len(units)
    best_traced = [math.inf] * len(units)
    tally = Tally()
    passes = []
    start = last = time.perf_counter()
    while len(passes) < MIN_PASSES or another_fits(start, last, seconds):
        last = time.perf_counter()
        timed_pass(units, best_plain, tally)
        rec, roots = traced_pass(units, tally)
        walls = [float(rec.end[idx] - rec.start[idx]) for idx, _suite in roots]
        best_traced = [min(b, w) for b, w in zip(best_traced, walls)]
        passes.append((sum(walls), layer_metrics(rec, roots), rec.compact()))
    passes.sort(key=lambda item: item[0])
    wall, metrics, rec = passes[(len(passes) - 1) // 2]
    plain = sum(best_plain)
    metrics["trace.overhead_fraction"] = (sum(best_traced) - plain) / plain
    rec.write(spans_path)
    layer_sum = sum(v for k, v in metrics.items() if ".self_s" in k)
    return {
        "summary": (
            f"traced {len(units)} units in {len(passes)} traced and untraced pass pairs; "
            f"in the median traced pass, self times of the layers and suites sum to "
            f"{layer_sum:.6f} s of {wall:.6f} s wall time; spans written to "
            f"{spans_path.relative_to(ROOT)}"
        ),
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()},
        **tally.summary(),
    }


def blas_facts():
    """BLAS name, version and thread count of the loaded numpy."""
    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    facts = {"blas": cfg.get("name"), "blas_version": cfg.get("version"), "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workloads.run_and_judge(workload.warmup)
    ready = time.monotonic()
    if args.mode == "setup":
        result = {}
    elif args.mode == "timed":
        result = timed_run(workload, args.seed, args.seconds)
    else:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
        result = traced_run(workload, args.seed, args.seconds, spans_path)
    result["ready_monotonic"] = ready
    result["seed_bases"] = workloads.seed_bases(args.seed)
    result.update(numpy=np.__version__, **blas_facts())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

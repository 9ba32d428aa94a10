"""Benchmark of the jlab verify program: four workloads, each in its own processes.

    python3 bench/run.py --workload polar --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): polar, cayley, classify, unbounded.  With
--trace 0 the run prints every end-to-end metric; with --trace 1 it
alternates untraced and traced passes over the same trials and prints the
per-layer metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

Set-up time is measured from process start to the end of one warm-up trial,
in SETUP_PROBES extra processes and in the measuring process, and the median
is reported.  The exit code is 0 whenever a result is printed; correctness is
carried by the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("polar", "cayley", "classify", "unbounded")
SETUP_PROBES = 4
# Every run must end within 180 s; this leaves room for the probes.
RUN_DEADLINE_S = 170.0


def machine_facts():
    """Cores, CPU model, cache sizes and Python of the machine running the benchmark."""
    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"l{level}_per_instance"] = size
    return facts


def spawn(workload, seed, seconds, mode, deadline):
    """Run one worker process to completion and return its JSON and set-up time."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--mode", mode,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - t0),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_monotonic"] - t0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="jlab verify-program benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "jlab" / "__init__.py").is_file():
        print(f"error: no jlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    facts = machine_facts()
    try:
        probes = [
            spawn(args.workload, args.seed, args.seconds, "setup", deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        mode = "traced" if args.trace else "timed"
        res = spawn(args.workload, args.seed, args.seconds, mode, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = probes + [res["setup_s"]]
    facts.update(
        {k: res[k] for k in ("numpy", "blas", "blas_version", "blas_threads", "seed_bases")},
        workload=args.workload,
        seed=args.seed,
    )
    print("machine: " + json.dumps(facts))

    failed_fraction = res["failed"] / res["attempted"]
    print(
        f"workload {args.workload} seed {args.seed}: {res['attempted']} verdicts, "
        f"{res['failed']} failed (failed_fraction {failed_fraction:.6g}), "
        f"worst_residual_ratio {res['worst_residual_ratio']:.6g}"
    )
    for err in res["errors"]:
        print(f"  error: {err}")
    if res["extension_trials"]:
        frac = res["multivalued"] / res["extension_trials"]
        print(f"  multivalued {res['multivalued']} of {res['extension_trials']} extension trials ({frac:.4g})")

    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(res["summary"] + "; setup samples " + ", ".join(f"{s:.4f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")

    correct = res["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

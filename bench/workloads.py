"""Workloads of the jlab benchmark: trial streams, trial runners and the verdict gate.

A workload turns the benchmark seed into a stream of blocks, each a short,
balanced list of trials; a run times a fixed number of blocks.  Each trial
is replayed through the public suite function that the verify program uses
(``polar_trials(1, maxdim, seed)`` reproduces trial ``seed`` of a batched
run), and every verdict is judged against the suite's own threshold table.

Import this module only with the repository's ``src`` directory on
``sys.path``.
"""

from __future__ import annotations

import math
import itertools
import random
from dataclasses import dataclass

import numpy as np

from jlab import examples, suites
from jlab.jclass import default_tol

POLAR_MAXDIM = 16
EXTENSION_MAXDIM = 12
ZERO_DEFECT_MAXDIM = 16
ORACLE_MAXDIM = 6
# oracle_trials picks the input kind from i % 6 and the conjugation from
# i % 2, so only whole six-trial batches replay a batched run exactly.
ORACLE_BLOCK = 6
# The 2L x 4L Gauss-Jordan array is 128 L^2 bytes: 32 KiB at L = 16, 4 MiB
# at L = 181 and 8 MiB at L = 256, from well inside L2 to beyond it.
UNBOUNDED_LEVELS = (16, 24, 32, 48, 64, 96, 128, 181, 256)

# Per-suite seed bases are SEED_STRIDE * seed + the verify program's offsets,
# so seed 0 draws its trials from the seeds `jlab verify-suite --seed 0` uses.
SEED_STRIDE = 1_000_000
EXTENSION_OFFSET = 100_000
ZERO_DEFECT_OFFSET = 200_000
ORACLE_OFFSET = 300_000

THRESHOLDS = {
    "polar": suites.POLAR_THRESHOLDS,
    "extension": suites.EXTENSION_THRESHOLDS,
    "zero_defect": suites.ZERO_DEFECT_THRESHOLDS,
    "oracle": suites.ORACLE_THRESHOLDS,
}


def seed_bases(seed):
    """First trial seed of each suite for a benchmark seed."""
    base = SEED_STRIDE * int(seed)
    return {
        "polar": base,
        "extension": base + EXTENSION_OFFSET,
        "zero_defect": base + ZERO_DEFECT_OFFSET,
        "oracle": base + ORACLE_OFFSET,
    }


@dataclass(frozen=True)
class Trial:
    """One timed unit: a suite name and the seed (or level) that replays it."""

    suite: str
    seed: int


@dataclass
class Verdict:
    """Judgement of one trial: verdicts attempted and failed, worst headroom."""

    attempted: int
    failed: int
    worst_ratio: float
    multivalued: int = 0
    extension: int = 0
    error: str | None = None


def run_trial(trial):
    """Run one trial through the public suite function or worked example."""
    s = trial.suite
    if s == "polar":
        return suites.polar_trials(1, POLAR_MAXDIM, trial.seed)
    if s == "extension":
        return suites.extension_trials(1, EXTENSION_MAXDIM, trial.seed)
    if s == "zero_defect":
        return suites.zero_defect_trials(1, ZERO_DEFECT_MAXDIM, trial.seed)
    if s == "oracle":
        return suites.oracle_trials(ORACLE_BLOCK, ORACLE_MAXDIM, trial.seed)
    if s == "unbounded":
        level = trial.seed
        return examples.growth_probe(level), examples.norm_growth(level)
    raise ValueError(f"unknown suite {s!r}")


def judge_records(suite, records):
    """Verdict for suite records: suite_failures plus non-finite residuals."""
    thresholds = THRESHOLDS[suite]
    bad = {id(rec) for rec, _key, _val in suites.suite_failures(records, thresholds)}
    worst = 0.0
    for rec in records:
        for key, val in rec.residuals.items():
            if not math.isfinite(val):
                bad.add(id(rec))
            elif key in thresholds:
                worst = max(worst, float(val) / thresholds[key])
    multivalued = sum(1 for rec in records if rec.notes.get("multivalued"))
    extension = len(records) if suite == "extension" else 0
    return Verdict(len(records), len(bad), worst, multivalued, extension)


def judge_unbounded(level, outcome):
    """Rows must match k^2/(2k-1) and 2k-1 at the default tolerance."""
    tol = default_tol()
    failed = 0
    worst = 0.0
    for rows in outcome:
        ok = [row[0] for row in rows] == list(range(1, level + 1))
        for _k, _computed, _formula, rel in rows:
            if not rel <= tol:
                ok = False
            if math.isfinite(rel):
                worst = max(worst, rel / tol)
        failed += 0 if ok else 1
    return Verdict(len(outcome), failed, worst)


def judge(trial, outcome):
    if trial.suite == "unbounded":
        return judge_unbounded(trial.seed, outcome)
    return judge_records(trial.suite, outcome)


def run_and_judge(trial):
    """Run and judge one trial; an unexpected error fails every verdict in it."""
    try:
        outcome = run_trial(trial)
    except Exception as exc:  # the benchmark must keep going and count it
        n = ORACLE_BLOCK if trial.suite == "oracle" else 1
        return Verdict(n, n, 0.0, error=f"{type(exc).__name__}: {exc}")
    return judge(trial, outcome)


def multivalued_failures(multivalued, extension_trials):
    """Multivalued trials count as failed once their fraction reaches the cap."""
    if extension_trials and multivalued / extension_trials >= suites.MULTIVALUED_FRACTION_CAP:
        return multivalued
    return 0


def first_draw(seed, low, high):
    """The dimension a suite function draws first from a trial seed, in [low, high]."""
    return int(np.random.default_rng(seed).integers(low, high + 1))


class Strata:
    """Trial seeds sorted by the dimension their suite function will draw.

    Candidate seeds are taken in order from base; take(dim) returns the
    first unused seed whose trial has that dimension.
    """

    def __init__(self, base, low, high):
        self.low, self.high = low, high
        self.queues = {d: [] for d in range(low, high + 1)}
        self.next = base

    def take(self, dim):
        queue = self.queues[dim]
        while not queue:
            self.queues[first_draw(self.next, self.low, self.high)].append(self.next)
            self.next += 1
        return queue.pop(0)


def polar_blocks(seed):
    """Blocks of sixteen polar trials, one of each dimension 1..16.

    Stratifying keeps the cost of a run's trials, which grows like dim^3,
    the same from seed to seed.
    """
    strata = Strata(seed_bases(seed)["polar"], 1, POLAR_MAXDIM)
    order = random.Random(seed)
    while True:
        block = [Trial("polar", strata.take(d)) for d in range(1, POLAR_MAXDIM + 1)]
        order.shuffle(block)
        yield block


def cayley_blocks(seed):
    """Extension and zero-defect trials in the verify program's 2:1 ratio.

    A block holds two extension trials of each dimension 2..12 and eleven
    zero-defect trials whose dimensions run through 1..16 cyclically, so
    every seed's run has the same mix of sizes.
    """
    bases = seed_bases(seed)
    ext = Strata(bases["extension"], 2, EXTENSION_MAXDIM)
    zero = Strata(bases["zero_defect"], 1, ZERO_DEFECT_MAXDIM)
    zero_dims = itertools.cycle(range(1, ZERO_DEFECT_MAXDIM + 1))
    order = random.Random(seed)
    while True:
        block = []
        for n in range(2, EXTENSION_MAXDIM + 1):
            block += [Trial("extension", ext.take(n)), Trial("extension", ext.take(n))]
        block += [Trial("zero_defect", zero.take(next(zero_dims))) for _ in range(EXTENSION_MAXDIM - 1)]
        order.shuffle(block)
        yield block


def classify_blocks(seed):
    """Consecutive six-trial oracle batches: every input kind, both J choices."""
    base = seed_bases(seed)["oracle"]
    i = 0
    while True:
        yield [Trial("oracle", base + ORACLE_BLOCK * i)]
        i += 1


def unbounded_blocks(seed):
    """Every level once per block, in a seeded order."""
    order = random.Random(seed)
    while True:
        block = [Trial("unbounded", level) for level in UNBOUNDED_LEVELS]
        order.shuffle(block)
        yield block


@dataclass(frozen=True)
class Workload:
    """A named trial stream with its fixed warm-up trial and run settings.

    A run times the units of the first `blocks_per_run` blocks, a fixed set
    for a given seed, so counts repeat exactly and the tail percentile stays
    put.  tail_percentile is the highest of p50, p75 and p90 with at least
    ten of those units beyond it.  In classify a unit is one six-trial oracle
    batch.
    """

    name: str
    blocks: object
    warmup: Trial
    blocks_per_run: int
    tail_percentile: float

    def units(self, seed):
        return [t for block in itertools.islice(self.blocks(seed), self.blocks_per_run) for t in block]


# Warm-up trials use fixed seeds that no timed trial reaches, so set-up does
# the same work for every benchmark seed.  The nine unbounded levels leave no
# percentile with ten units beyond it; p90 there lies between the two
# largest levels.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("polar", polar_blocks, Trial("polar", 999_999), 3, 75.0),
        Workload("cayley", cayley_blocks, Trial("extension", 999_999), 4, 90.0),
        Workload("classify", classify_blocks, Trial("oracle", 999_990), 100, 90.0),
        Workload("unbounded", unbounded_blocks, Trial("unbounded", 16), 1, 90.0),
    )
}

"""Per-call times of the Jacobi and elimination kernels, in microseconds,
and minor page faults per call.

    PYTHONPATH=src python tools/kernel_times.py

Imports jlab from PYTHONPATH, so pointing it at two checkouts in turn
compares their kernels.  After a 2 s warm-up over every case, the cases
run round-robin 41 times, one call each.  Each line gives the median time,
the interquartile range of the 41 times (a change between two checkouts
smaller than both ranges is not resolved by one run each), and the mean
count of minor page faults (getrusage of this process, read outside the
timed call).

* herm_eig on one random Hermitian matrix at n = 2, 5, 8, 12 and 16;
* herm_eig on a stack of three at n = 16;
* herm_eig on the Gram stack of the 256 2 x 2 blocks of V = cayley_v(256);
* singular_extremes on V's blocks themselves, as norm_growth(256) calls it;
* inverse on one random matrix at n = 4, 16, 64 and 200, on a stack of
  200 at n = 16, and on the (L, 2, 2) stacks I + A_k, built from
  truncation_family(L).blocks as growth_probe builds them, at L = 24, 181
  and 256.
"""

import resource
import statistics
import time

import numpy as np

from jlab.examples import _cayley_blocks, truncation_family
from jlab.numkernel import herm_eig, inverse, singular_extremes

REPEATS = 41
WARMUP_S = 2.0


def _hermitian(rng, *shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (z + z.conj().swapaxes(-1, -2))


def cases():
    rng = np.random.default_rng(0)
    out = {f"herm_eig n={n}": (herm_eig, _hermitian(rng, n, n)) for n in (2, 5, 8, 12, 16)}
    out["herm_eig 3 x n=16"] = (herm_eig, _hermitian(rng, 3, 16, 16))
    blocks = _cayley_blocks(256)
    out["herm_eig L=256 Gram"] = (herm_eig, blocks.conj().swapaxes(1, 2) @ blocks)
    out["singular_extremes L=256"] = (singular_extremes, blocks)
    for n in (4, 16, 64, 200):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out[f"inverse n={n}"] = (inverse, z)
    z = rng.standard_normal((200, 16, 16)) + 1j * rng.standard_normal((200, 16, 16))
    out["inverse 200 x n=16"] = (inverse, z)
    for level in (24, 181, 256):
        blocks = truncation_family(level).blocks + np.eye(2)
        out[f"inverse I+A L={level}"] = (inverse, blocks)
    return out


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main():
    table = cases()
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        for f, x in table.values():
            f(x)
    times = {name: [] for name in table}
    faults = dict.fromkeys(table, 0)
    for _ in range(REPEATS):
        for name, (f, x) in table.items():
            f0 = _minflt()
            t0 = time.perf_counter()
            f(x)
            times[name].append(time.perf_counter() - t0)
            faults[name] += _minflt() - f0
    for name, ts in times.items():
        q1, q2, q3 = (1e6 * q for q in statistics.quantiles(ts, n=4))
        print(
            f"{name:26s} {q2:10.1f} us  iqr {q3 - q1:8.1f} us "
            f"{faults[name] / REPEATS:8.1f} minflt"
        )


if __name__ == "__main__":
    main()

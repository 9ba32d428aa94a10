"""Per-call times of the Jacobi kernel, in microseconds.

    PYTHONPATH=src python tools/kernel_times.py

Imports jlab from PYTHONPATH, so pointing it at two checkouts in turn
compares their kernels.  After a 2 s warm-up over every case, the cases
run round-robin 41 times, one call each, and each line is the median.

* herm_eig on one random Hermitian matrix at n = 2, 5, 8, 12 and 16;
* herm_eig on a stack of three at n = 16;
* herm_eig on the 256 2 x 2 Gram blocks that norm_growth(256) decomposes;
* singular_extremes on the blocks themselves, as norm_growth(256) calls it.
"""

import statistics
import time

import numpy as np

from jlab.examples import _diagonal_blocks, cayley_v
from jlab.numkernel import herm_eig, singular_extremes

REPEATS = 41
WARMUP_S = 2.0


def _hermitian(rng, *shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (z + z.conj().swapaxes(-1, -2))


def cases():
    rng = np.random.default_rng(0)
    out = {f"herm_eig n={n}": (herm_eig, _hermitian(rng, n, n)) for n in (2, 5, 8, 12, 16)}
    out["herm_eig 3 x n=16"] = (herm_eig, _hermitian(rng, 3, 16, 16))
    blocks = _diagonal_blocks(cayley_v(256))
    out["herm_eig L=256 Gram"] = (herm_eig, blocks.conj().swapaxes(1, 2) @ blocks)
    out["singular_extremes L=256"] = (singular_extremes, blocks)
    return out


def main():
    table = cases()
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        for f, x in table.values():
            f(x)
    times = {name: [] for name in table}
    for _ in range(REPEATS):
        for name, (f, x) in table.items():
            t0 = time.perf_counter()
            f(x)
            times[name].append(time.perf_counter() - t0)
    for name, ts in times.items():
        print(f"{name:26s} {1e6 * statistics.median(ts):10.1f} us")


if __name__ == "__main__":
    main()

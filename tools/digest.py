"""Print the two record digests and the source size that CHANGES.md
entries quote.

    python tools/digest.py

Imports jlab from the ``src`` directory of the checkout this script sits
in, so running it in two checkouts compares their records and sizes.

* verify: sha256 fed, one update each, the repr of the records dict, of the
  failures list, of the report items and of the report extras of
  ``run_verify_program(200, 16, 0)``;
* unbounded: sha256 fed ``repr(growth_probe(L))`` then
  ``repr(norm_growth(L))`` for each L in LEVELS, in order.

Each digest is the first 16 hex digits.  The third line, ``src lines``,
is the total line count of ``src/jlab/*.py``.  The fourth, ``blas``, names
numpy's BLAS library and the core its runtime dispatch picked (``unknown``
when the library has no core-name call): matrix products follow that kernel
in their last bits, so both digests are quoted for one core.  OpenBLAS takes
the core from ``OPENBLAS_CORETYPE`` when it is set.
"""

import ctypes
import hashlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from jlab.examples import growth_probe, norm_growth  # noqa: E402
from jlab.suites import run_verify_program  # noqa: E402

LEVELS = (16, 24, 32, 48, 64, 96, 128, 181, 256)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def verify_digest():
    out = run_verify_program(200, 16, 0)
    rep = out["report"]
    return _digest([out["records"], out["failures"], rep.items, rep.extras])


def unbounded_digest():
    return _digest(f(level) for level in LEVELS for f in (growth_probe, norm_growth))


def blas_core():
    """numpy's BLAS name and version, its shared library file, and its runtime core."""
    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{cfg.get('name')} {cfg.get('version')}"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_corename64_",
            "openblas_get_corename64_",
            "openblas_get_corename",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return f"{name} ({Path(path).name}) core {fn().decode()}"
    return f"{name} core unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (SRC / "jlab").glob("*.py"))


if __name__ == "__main__":
    print(f"verify    {verify_digest()}")
    print(f"unbounded {unbounded_digest()}")
    print(f"src lines {src_lines()}")
    print(f"blas      {blas_core()}")

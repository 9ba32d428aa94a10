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
is the total line count of ``src/jlab/*.py``.
"""

import hashlib
import sys
from pathlib import Path

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


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (SRC / "jlab").glob("*.py"))


if __name__ == "__main__":
    print(f"verify    {verify_digest()}")
    print(f"unbounded {unbounded_digest()}")
    print(f"src lines {src_lines()}")

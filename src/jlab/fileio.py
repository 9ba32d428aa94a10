"""JSON documents for matrices, conjugations and partial operators.

A matrix document is {"rows": r, "cols": c, "entries": [[re, im], ...]} with
entries in row-major order and floats written in shortest round-trip form
(Python's repr).  A conjugation adds "kind": "conjugation"; a partial
operator is {"kind": "partial-operator", "ambient": n, "domain_basis": <matrix>,
"action": <matrix>}.  Non-finite numbers are rejected on read and never
produced on write.  Serialization is deterministic: sorted keys, fixed
indentation, so equal inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .conjugation import Conjugation
from .errors import FileFormatError
from .extension import PartialSymmetricOperator
from .numkernel import as_matrix


def _reject_constant(token):
    raise FileFormatError(f"non-finite number {token} is not allowed")


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past Python's digit limit
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _expect_int(doc, field, where):
    val = doc.get(field)
    if type(val) is not int or val < 1:
        raise FileFormatError(f"{where}: field '{field}' must be a positive integer")
    return val


def matrix_to_doc(m):
    a = as_matrix(m)
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def matrix_from_doc(doc, where="matrix"):
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected an object with rows/cols/entries")
    rows = _expect_int(doc, "rows", where)
    cols = _expect_int(doc, "cols", where)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError(f"{where}: field 'entries' must be a list")
    if len(entries) != rows * cols:
        raise FileFormatError(
            f"{where}: expected {rows * cols} entries, got {len(entries)}"
        )
    flat = np.empty(rows * cols, dtype=complex)
    for idx, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(type(x) not in (int, float) for x in pair)
        ):
            raise FileFormatError(
                f"{where}: entry {idx} must be a [re, im] pair of numbers"
            )
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            # a JSON integer beyond the float range
            raise FileFormatError(f"{where}: entry {idx} is too large for a float") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise FileFormatError(f"{where}: entry {idx} is not finite")
        flat[idx] = complex(re, im)
    return flat.reshape(rows, cols)


def write_matrix(path, m):
    _dump(path, matrix_to_doc(m))


def read_matrix(path):
    return matrix_from_doc(_load(path), where=str(path))


def write_conjugation(path, j):
    doc = matrix_to_doc(j.coeff)
    doc["kind"] = "conjugation"
    _dump(path, doc)


def read_conjugation(path):
    """The conjugation with the stored C.  The file holds no frame, so its fixed
    frame comes from fixed_basis, not from the draw: J and C round-trip, but
    seeded generators drawn on the result differ from the original's."""
    doc = _load(path)
    if not isinstance(doc, dict) or doc.get("kind") != "conjugation":
        raise FileFormatError(f"{path}: field 'kind' must be 'conjugation'")
    c = matrix_from_doc(doc, where=str(path))
    if c.shape[0] != c.shape[1]:
        raise FileFormatError(f"{path}: conjugation matrix must be square")
    return Conjugation(c.shape[0], c)


def write_partial_operator(path, t):
    doc = {
        "kind": "partial-operator",
        "ambient": int(t.ambient),
        "domain_basis": matrix_to_doc(t.domain_basis),
        "action": matrix_to_doc(t.action),
    }
    _dump(path, doc)


def read_partial_operator(path):
    doc = _load(path)
    if not isinstance(doc, dict) or doc.get("kind") != "partial-operator":
        raise FileFormatError(f"{path}: field 'kind' must be 'partial-operator'")
    ambient = _expect_int(doc, "ambient", str(path))
    q = matrix_from_doc(doc.get("domain_basis"), where=f"{path}: domain_basis")
    a = matrix_from_doc(doc.get("action"), where=f"{path}: action")
    if q.shape[0] != ambient or a.shape[0] != ambient:
        raise FileFormatError(
            f"{path}: domain_basis/action rows must equal ambient {ambient}"
        )
    return PartialSymmetricOperator(ambient, q, a)


def write_json(path, obj):
    _dump(path, obj)

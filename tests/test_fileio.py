"""JSON document round trips, determinism, and strict parsing."""

import json

import numpy as np
import pytest

from jlab.conjugation import random_conjugation
from jlab.errors import BadShape, FileFormatError
from jlab.examples import jacobi_imag
from jlab.fileio import (
    read_conjugation,
    read_matrix,
    read_partial_operator,
    write_conjugation,
    write_json,
    write_matrix,
    write_partial_operator,
)


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "m.json"
    write_matrix(path, m)
    np.testing.assert_array_equal(read_matrix(path), m)
    tiny = np.array([[1.0 / 3.0 + 7.0j]])
    write_matrix(path, tiny)
    np.testing.assert_array_equal(read_matrix(path), tiny)


def test_matrix_serialization_is_deterministic(tmp_path):
    m = np.array([[0.1, -2.0j], [3.5 + 1j, 4.0]])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_matrix(p1, m)
    write_matrix(p2, m)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_conjugation_round_trip(tmp_path):
    j = random_conjugation(4, 13)
    path = tmp_path / "j.json"
    write_conjugation(path, j)
    back = read_conjugation(path)
    assert back.dim == 4
    np.testing.assert_array_equal(back.coeff, j.coeff)


def test_kind_fields_are_enforced(tmp_path):
    mpath = tmp_path / "m.json"
    write_matrix(mpath, np.eye(2, dtype=complex))
    with pytest.raises(FileFormatError, match="kind"):
        read_conjugation(mpath)
    with pytest.raises(FileFormatError, match="kind"):
        read_partial_operator(mpath)
    jpath = tmp_path / "j.json"
    write_conjugation(jpath, random_conjugation(2, 0))
    with pytest.raises(FileFormatError, match="kind"):
        read_partial_operator(jpath)


def test_partial_operator_round_trip(tmp_path):
    _, t = jacobi_imag(3, 1)
    path = tmp_path / "t.json"
    write_partial_operator(path, t)
    back = read_partial_operator(path)
    assert back.ambient == 3
    np.testing.assert_array_equal(back.domain_basis, t.domain_basis)
    np.testing.assert_array_equal(back.action, t.action)


def test_read_matrix_error_battery(tmp_path):
    path = tmp_path / "bad.json"

    def reject(text, match=None):
        path.write_text(text)
        with pytest.raises(FileFormatError, match=match):
            read_matrix(path)

    with pytest.raises(FileFormatError, match="cannot read"):
        read_matrix(tmp_path / "missing.json")
    reject("{not json", match="invalid JSON")
    reject("[]")
    reject('{"cols": 1, "entries": [[1.0, 0.0]]}', match="rows")
    reject('{"rows": 0, "cols": 1, "entries": []}', match="rows")
    reject('{"rows": true, "cols": 1, "entries": [[1.0, 0.0]]}', match="rows")
    reject('{"rows": 1, "cols": 1, "entries": 5}', match="entries")
    reject('{"rows": 2, "cols": 1, "entries": [[1.0, 0.0]]}', match="expected 2 entries")
    reject('{"rows": 1, "cols": 1, "entries": [[1.0]]}', match="entry 0")
    reject('{"rows": 1, "cols": 1, "entries": [["1", 0.0]]}', match="entry 0")
    reject('{"rows": 1, "cols": 1, "entries": [[true, 0.0]]}', match="entry 0")
    reject('{"rows": 1, "cols": 1, "entries": [[Infinity, 0.0]]}', match="non-finite")
    reject('{"rows": 1, "cols": 1, "entries": [[NaN, 0.0]]}', match="non-finite")
    # an integer past the float range, and one past Python's digit limit
    # (json raises ValueError there unless that limit was lifted)
    big = "1" + "0" * 400
    reject('{"rows": 1, "cols": 1, "entries": [[%s, 0]]}' % big, match="entry 0 is too large")
    reject('{"rows": 1, "cols": 2, "entries": [[1, 0], [0, -%s]]}' % big, match="entry 1 ")
    huge = '{"rows": 1, "cols": 1, "entries": [[%s, 0]]}' % ("1" * 5000)
    reject(huge, match="invalid JSON|entry 0 is too large")


def test_read_partial_operator_validation(tmp_path):
    path = tmp_path / "t.json"
    _, t = jacobi_imag(3, 1)
    write_partial_operator(path, t)
    doc = json.loads(path.read_text())
    doc["ambient"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="ambient"):
        read_partial_operator(path)
    # structural validation comes from the operator constructor
    doc["ambient"] = 3
    doc["domain_basis"]["entries"] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(BadShape, match="orthonormal"):
        read_partial_operator(path)


def test_write_json_is_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [1, 2], "b": 1}

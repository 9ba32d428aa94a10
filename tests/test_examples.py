"""Worked-example family: truncation blocks, resolvent growth, Jacobi restriction."""

import numpy as np
import pytest

from jlab.errors import BadShape, OutOfRange
from jlab.examples import (
    TruncationFamily,
    block_a0,
    cayley_v,
    growth_probe,
    jacobi_imag,
    norm_growth,
    resolvent_check,
    truncation_family,
)
from jlab.extension import ranges_defects
from jlab.jclass import default_tol
from jlab.numkernel import frobenius, herm_eig, inverse, singular_extremes
from jlab.report import worst_of


def test_block_a0_frozen_entries_and_range():
    np.testing.assert_allclose(
        block_a0(0.5), np.array([[0.0, 0.5j], [-0.5j, 0.0]]), atol=0
    )
    np.testing.assert_allclose(block_a0(0.0), np.zeros((2, 2)), atol=0)
    for bad in (1.0, -1.0, 2.0, float("nan")):
        with pytest.raises(OutOfRange):
            block_a0(bad)


def test_truncation_family_layout():
    fam = truncation_family(3)
    assert fam.level == 3
    assert fam.conjugation.dim == 6
    for k in (1, 2, 3):
        np.testing.assert_allclose(fam.block(k), block_a0(1.0 - 1.0 / k), atol=0)
    # off-diagonal coupling between blocks is exactly zero
    assert np.max(np.abs(fam.operator[:2, 2:])) == 0.0
    for bad in (0, 4):
        with pytest.raises(OutOfRange):
            fam.block(bad)
    with pytest.raises(OutOfRange):
        truncation_family(0)


def test_truncation_family_equals_the_per_block_build():
    for n in (1, 2, 5, 16, 256):
        ref = np.zeros((2 * n, 2 * n), dtype=complex)
        for k in range(1, n + 1):
            i = 2 * (k - 1)
            ref[i : i + 2, i : i + 2] = block_a0(1.0 - 1.0 / k)
        op = truncation_family(n).operator
        assert np.array_equal(op, ref), n
        # -0.0 == 0.0, so the zero signs are compared on their own
        for part in ("real", "imag"):
            got, want = getattr(op, part), getattr(ref, part)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (n, part)


def test_truncation_family_blocks_are_block_a0():
    for n in (1, 2, 5, 16, 256):
        got = truncation_family(n).blocks
        want = np.stack([block_a0(1.0 - 1.0 / k) for k in range(1, n + 1)])
        assert got.shape == (n, 2, 2), n
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n
        for part in ("real", "imag"):
            got_part, want_part = getattr(got, part), getattr(want, part)
            assert np.array_equal(np.signbit(got_part), np.signbit(want_part)), (n, part)


def test_probes_never_read_the_dense_operator(monkeypatch):
    # the probes work on the (L, 2, 2) blocks; reading operator would build
    # the 2L x 2L matrix, 4 MiB at L = 256, only to gather its blocks back
    def dense(fam):
        raise AssertionError(f"operator read at level {fam.level}")

    monkeypatch.setattr(TruncationFamily, "operator", property(dense))
    with pytest.raises(AssertionError, match="level 3"):
        truncation_family(3).operator
    for level in (24, 181, 256):
        assert len(growth_probe(level)) == level
        assert len(norm_growth(level)) == level


def test_resolvent_check_against_closed_form():
    for beta in (0.0, 0.5, 0.9, 0.99):
        rep = resolvent_check(beta)
        assert rep.passed, f"beta={beta}: worst {worst_of(it.residual for it in rep.items):.3e}"
        assert [item.threshold for item in rep.items] == [1e-11, 1e-11]
        assert rep.extras["beta"] == beta


def test_resolvent_frozen_half():
    # (A0(1/2) + I)^{-1} in closed form
    got = inverse(block_a0(0.5) + np.eye(2, dtype=complex))
    expected = (4.0 / 3.0) * np.array([[1.0, -0.5j], [0.5j, 1.0]])
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_growth_probe_frozen_rows():
    rows = growth_probe(4)
    expected = [1.0, 4.0 / 3.0, 9.0 / 5.0, 16.0 / 7.0]
    for (k, computed, formula, rel), want in zip(rows, expected):
        assert formula == want
        assert abs(computed - want) <= 1e-12 * want
        assert rel <= 1e-12
    values = [row[1] for row in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_cayley_v_level_one_is_minus_identity():
    np.testing.assert_allclose(cayley_v(1), -np.eye(2), atol=1e-13)


def test_cayley_v_block_eigenvalues():
    v = cayley_v(2)
    dec = herm_eig(v[2:, 2:])  # second block, beta = 1/2
    np.testing.assert_allclose(dec.eigenvalues, [-3.0, -1.0 / 3.0], atol=1e-12)


def test_cayley_v_two_expressions_agree():
    fam = truncation_family(4)
    eye = np.eye(8, dtype=complex)
    direct = eye + 2.0 * inverse(fam.operator - eye)
    assert frobenius(cayley_v(4) - direct) < 1e-12
    # V's blocks are a stacked product of the factors' 2 x 2 blocks; the
    # dense product adds only exact zeros to them
    for level in (1, 4, 24, 181):
        fam = truncation_family(level)
        eye = np.eye(2 * level, dtype=complex)
        dense = (fam.operator + eye) @ inverse(fam.operator - eye)
        assert np.array_equal(cayley_v(level), dense), level


def test_norm_growth_frozen():
    rows = norm_growth(3)
    assert [row[2] for row in rows] == [1.0, 3.0, 5.0]
    assert max(row[3] for row in rows) < 1e-11


def test_growth_and_norms_at_level_128():
    # 128 2 x 2 blocks, each inverse a member of one stack
    tol = default_tol()
    for rows in (growth_probe(128), norm_growth(128)):
        assert [row[0] for row in rows] == list(range(1, 129))
        assert all(row[3] <= tol for row in rows)


def test_growth_and_norms_at_level_512_match_the_closed_forms():
    # 512 2 x 2 blocks inverted as one stack: the largest worked example
    # the tests run
    tol = default_tol()
    ks = np.arange(1, 513)
    growth, norms = np.array(growth_probe(512)), np.array(norm_growth(512))
    for rows, closed in ((growth, ks * ks / (2.0 * ks - 1.0)), (norms, 2.0 * ks - 1.0)):
        assert np.array_equal(rows[:, 0], ks)
        assert np.array_equal(rows[:, 2], closed)
        assert np.all(np.abs(rows[:, 1] - closed) <= tol * closed)


def test_norm_growth_stack_matches_one_norm_per_block():
    for level in (1, 5, 16):
        v = cayley_v(level)
        for k, computed, _, _ in norm_growth(level):
            i = 2 * (k - 1)
            assert computed == singular_extremes(v[i : i + 2, i : i + 2])[1], (level, k)


def test_jacobi_imag_frozen_entries():
    j, t = jacobi_imag(3, 2, alphas=(2.0, 3.0))
    assert j.dim == 3
    assert t.domain_dim == 2
    np.testing.assert_allclose(
        t.action,
        np.array([[0.0, 2.0j], [-2.0j, 0.0], [0.0, -3.0j]], dtype=complex),
        atol=0,
    )
    assert ranges_defects(t).defect_numbers == (1, 1)


def test_jacobi_imag_validation():
    with pytest.raises(BadShape):
        jacobi_imag(1, 1)
    with pytest.raises(BadShape):
        jacobi_imag(3, 0)
    with pytest.raises(BadShape):
        jacobi_imag(3, 3)
    with pytest.raises(BadShape):
        jacobi_imag(3, 1, alphas=(1.0,))
    with pytest.raises(OutOfRange):
        jacobi_imag(3, 1, alphas=(1.0, 0.0))
    with pytest.raises(OutOfRange):
        jacobi_imag(3, 1, alphas=(1.0, -2.0))

"""Conjugation axioms, seeded generators, and J-fixed basis extraction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlab import conjugation
from jlab.conjugation import (
    INVARIANCE_TOL,
    Conjugation,
    as_seed_sequence,
    canonical,
    fixed_basis,
    invariance_residual,
    random_conjugation,
    random_unitary,
    verify,
)
from jlab.errors import BadShape, DimensionMismatch, NotConjugation, NotInvariant, RankLoss
from jlab.fileio import read_conjugation, write_conjugation
from jlab.numkernel import frobenius, subspace_gap
from jlab.polar import random_j_real_unitary
from jlab.report import worst_of


def test_canonical_is_entrywise_conjugation():
    j = canonical(3)
    x = np.array([1.0 + 2.0j, -3.0j, 4.0])
    np.testing.assert_allclose(j.apply(x), np.conj(x), atol=0)
    assert verify(j).passed


def test_apply_is_columnwise_on_matrices_and_involutive():
    j = random_conjugation(4, 11)
    m = np.arange(8.0).reshape(4, 2) + 1j
    cols = np.column_stack([j.apply(m[:, k]) for k in range(2)])
    np.testing.assert_allclose(j.apply(m), cols, atol=0)
    x = np.array([1.0, 2.0j, -1.0, 0.5 + 0.5j])
    assert np.linalg.norm(j.apply(j.apply(x)) - x) < 1e-13


def test_conjugation_is_antiunitary():
    j = random_conjugation(5, 7)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    # (Jx, Jy) = (y, x): the pairing reverses under J
    assert abs(np.vdot(j.apply(y), j.apply(x)) - np.vdot(x, y)) < 1e-13


def test_sandwich_is_the_matrix_of_j_m_j():
    j = random_conjugation(3, 5)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    direct = j.apply(m @ j.apply(x))
    assert np.linalg.norm(j.sandwich(m) @ x - direct) < 1e-13
    with pytest.raises(DimensionMismatch):
        j.sandwich(np.eye(2))


def test_verify_flags_broken_axioms():
    # the constructor checks the axioms and names each one that fails
    with pytest.raises(NotConjugation) as info:
        Conjugation(2, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    for name in ("involution residual", "unitarity residual", "symmetry residual"):
        assert name in str(info.value)
    # C^T C = I holds for the rotation, so unitarity is not named
    with pytest.raises(NotConjugation) as info:
        Conjugation(2, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
    message = str(info.value)
    assert "involution residual 2.828e+00" in message
    assert "symmetry residual 2.828e+00" in message
    assert "unitarity" not in message
    # an overflowing coefficient gives NaN residuals, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotConjugation, match="residual nan"):
            Conjugation(2, np.array([[1e200, 1e200], [1e200, -1e200]]))


def test_random_conjugation_axioms_and_determinism():
    for dim in range(1, 9):
        j = random_conjugation(dim, 100 + dim)
        rep = verify(j)
        worst = worst_of(it.residual for it in rep.items)
        assert rep.passed, f"dim {dim}: worst axiom residual {worst:.3e}"
    a = random_conjugation(5, 42)
    b = random_conjugation(5, 42)
    c = random_conjugation(5, 43)
    np.testing.assert_array_equal(a.coeff, b.coeff)
    assert frobenius(a.coeff - c.coeff) > 1e-3
    with pytest.raises(DimensionMismatch):
        random_conjugation(0, 1)


def test_random_unitary_is_unitary_and_seeded():
    u = random_unitary(6, np.random.default_rng(3))
    assert frobenius(u.conj().T @ u - np.eye(6)) < 1e-12
    again = random_unitary(6, np.random.default_rng(3))
    np.testing.assert_array_equal(u, again)


def test_as_seed_sequence_coercion():
    ss = np.random.SeedSequence(9)
    assert as_seed_sequence(ss) is ss
    assert as_seed_sequence(9).entropy == 9


def test_fixed_basis_full_space_canonical():
    j = canonical(2)
    phi = fixed_basis(j, np.eye(2, dtype=complex))
    assert phi.shape == (2, 2)
    assert frobenius(phi.conj().T @ phi - np.eye(2)) < 1e-12
    # J-fixed vectors of the canonical conjugation are the real ones
    assert np.max(np.abs(phi.imag)) < 1e-12
    assert frobenius(phi - j.apply(phi)) < 1e-12


def test_fixed_basis_one_dimensional_phase_line():
    j = canonical(2)
    # span{(i, 0)} is J-invariant even though its generator is not J-fixed
    phi = fixed_basis(j, np.array([[1j], [0.0]]))
    assert phi.shape == (2, 1)
    assert abs(abs(phi[0, 0]) - 1.0) < 1e-12
    assert abs(phi[1, 0]) < 1e-12
    assert np.linalg.norm(phi[:, 0] - j.apply(phi[:, 0])) < 1e-12


def test_fixed_basis_preserves_invariant_spans():
    rng = np.random.default_rng(77)
    for dim, k, seed in ((3, 2, 0), (5, 3, 1), (6, 1, 2), (4, 4, 3)):
        j = random_conjugation(dim, seed)
        frame = fixed_basis(j, np.eye(dim, dtype=complex))[:, :k]
        # scramble the frame with a complex unitary: the columns stay
        # orthonormal and the span J-invariant, but they are no longer J-fixed
        mix, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        basis = frame @ mix
        out = fixed_basis(j, basis)
        assert out.shape == (dim, k)
        assert frobenius(out.conj().T @ out - np.eye(k)) < 1e-10
        assert frobenius(out - j.apply(out)) < 1e-10
        assert subspace_gap(out, frame) < 1e-10


def test_fixed_basis_rejects_non_invariant_span():
    j = canonical(2)
    with pytest.raises(NotInvariant):
        fixed_basis(j, np.array([[1.0], [1j]]) / np.sqrt(2.0))
    # C C* overflows to inf - inf = NaN, which `residual > bound` let through;
    # the constructor rejects the overflowing coefficient, so build past it
    coeff = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotConjugation):
        Conjugation(2, coeff)
    huge = object.__new__(Conjugation)
    object.__setattr__(huge, "dim", 2)
    object.__setattr__(huge, "coeff", coeff)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotInvariant, match="residual nan"):
            fixed_basis(huge, np.eye(2, dtype=complex))


def test_fixed_basis_takes_only_orthonormal_frames():
    j = random_conjugation(4, 0)
    frame = j.fixed_frame()[:, :2]
    assert fixed_basis(j, frame).shape == (4, 2)
    with pytest.raises(BadShape, match="not orthonormal"):
        fixed_basis(j, 2.0 * frame)
    with pytest.raises(BadShape, match="not orthonormal"):
        fixed_basis(j, frame[:, [0, 0]])
    # a tiny span has a tiny projector residual whether or not it is
    # invariant: this one passes INVARIANCE_TOL, so only the frame check stops it
    tiny = 1e-6 * np.array([[1.0], [1j]]) / np.sqrt(2.0)
    assert invariance_residual(canonical(2), tiny) <= INVARIANCE_TOL
    with pytest.raises(BadShape, match="not orthonormal"):
        fixed_basis(canonical(2), tiny)
    with pytest.raises(DimensionMismatch, match="finite"):
        fixed_basis(j, np.where(np.eye(4, 2) == 1.0, np.nan, frame))


def test_fixed_basis_and_a_coefficient_frame_run_no_qr(monkeypatch):
    dims = (1, 2, 5, 9)
    drawn = [random_conjugation(dim, seed) for seed, dim in enumerate(dims)]
    calls = []
    qr = np.linalg.qr

    def spy(b, *args, **kwargs):
        calls.append(b.shape)
        return qr(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    for j in drawn:
        fixed_basis(j, j.fixed_frame()[:, ::-1])
        Conjugation(j.dim, j.coeff.copy()).fixed_frame()
    assert calls == []


def test_fixed_basis_applies_j_once(monkeypatch):
    calls = []
    apply = Conjugation.apply

    def spy(self, x):
        calls.append(np.shape(x))
        return apply(self, x)

    monkeypatch.setattr(Conjugation, "apply", spy)
    for dim, k in ((2, 2), (5, 3), (9, 9)):
        j = random_conjugation(dim, k)
        frame = j.fixed_frame()[:, :k]
        calls.clear()
        fixed_basis(j, 1j * frame)
        assert calls == [(dim, k)]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(("fixed", "imaginary", "mixed")), min_size=1, max_size=16),
)
def test_fixed_basis_on_mixed_invariant_frames(n, seed, kinds):
    # J-fixed columns phi, columns i phi with J(i phi) = -i phi, whose v + Jv
    # candidates vanish, and the rest mixed by a complex unitary
    kinds = kinds[:n]
    k = len(kinds)
    j = random_conjugation(n, seed)
    span = j.fixed_frame()[:, :k]
    basis = span.copy()
    basis[:, [c == "imaginary" for c in kinds]] *= 1j
    mixed = [c == "mixed" for c in kinds]
    basis[:, mixed] = basis[:, mixed] @ random_unitary(sum(mixed), np.random.default_rng(seed))
    out = fixed_basis(j, basis)
    assert out.shape == (n, k)
    assert frobenius(out.conj().T @ out - np.eye(k)) <= 1e-12
    assert frobenius(j.apply(out) - out) <= 1e-12
    assert subspace_gap(out, span) <= 1e-12


def test_fixed_basis_raises_rank_loss_when_every_candidate_is_discarded(monkeypatch):
    monkeypatch.setattr(conjugation, "FIXED_DISCARD_TOL", np.inf)
    j = random_conjugation(3, 0)
    with pytest.raises(RankLoss, match="extracted 0 fixed vectors from a 2-dimensional"):
        fixed_basis(j, j.fixed_frame()[:, :2])


def test_fixed_basis_empty_input():
    out = fixed_basis(canonical(3), np.zeros((3, 0), dtype=complex))
    assert out.shape == (3, 0)


def _assert_cached_read_only(j, frame):
    assert j.fixed_frame() is frame
    assert not frame.flags.writeable
    with pytest.raises(ValueError):
        frame[0, 0] = 0.0


def test_fixed_frame_is_the_full_space_fixed_basis():
    # canonical keeps I, which is also what the search finds; a conjugation
    # built from a bare coefficient has no drawn frame and searches once
    for dim, seed in ((1, 0), (2, 1), (5, 2), (9, 3)):
        coeff_built = Conjugation(dim, random_conjugation(dim, seed).coeff.copy())
        for j in (canonical(dim), coeff_built):
            frame = j.fixed_frame()
            assert np.array_equal(frame, fixed_basis(j, np.eye(dim, dtype=complex)))
            _assert_cached_read_only(j, frame)
        assert np.array_equal(canonical(dim).fixed_frame(), np.eye(dim))


def test_random_conjugation_keeps_its_drawn_frame():
    # C = Q Q^T gives J Q = Q Q^T conj(Q) = Q: the drawn Q is a J-fixed frame
    for dim, seed in ((1, 0), (2, 1), (5, 2), (9, 3), (16, 4)):
        j = random_conjugation(dim, seed)
        frame = j.fixed_frame()
        assert np.array_equal(frame, random_unitary(dim, np.random.default_rng(seed)))
        assert frobenius(j.apply(frame) - frame) <= 1e-13
        assert frobenius(frame.conj().T @ frame - np.eye(dim)) <= 1e-13
        _assert_cached_read_only(j, frame)


def test_fixed_frame_leaves_equality_unchanged(tmp_path):
    assert [f.name for f in dataclasses.fields(Conjugation)] == ["dim", "coeff"]
    a, b = canonical(1), canonical(1)
    flipped = Conjugation(1, -np.eye(1, dtype=complex))
    j = random_conjugation(4, 5)
    before = (a == b, a == flipped, j == j, repr(j))
    assert before[:3] == (True, False, True)
    for c in (a, flipped, j):
        c.fixed_frame()
    assert (a == b, a == flipped, j == j, repr(j)) == before
    # n > 1: distinct conjugations compare unequal instead of raising
    k = random_conjugation(4, 9)
    write_conjugation(tmp_path / "k.json", k)
    back = read_conjugation(tmp_path / "k.json")
    pairs = [(j, k), (k, canonical(4)), (canonical(4), canonical(3)), (k, "k")]
    assert all(x != y and y != x and not x == y for x, y in pairs)
    assert canonical(4) == Conjugation(4, np.eye(4, dtype=complex))
    # reloaded: the same coefficient, a searched frame; the frame is not compared
    assert k == back and back == k
    assert not np.array_equal(k.fixed_frame(), back.fixed_frame())
    assert k == back


def test_reloaded_conjugation_keeps_c_and_j_and_searches_its_frame(tmp_path):
    rng = np.random.default_rng(31)
    for dim, seed in ((1, 0), (2, 1), (4, 9), (9, 3), (16, 4)):
        j = random_conjugation(dim, seed)
        path = tmp_path / f"j{dim}.json"
        write_conjugation(path, j)
        back = read_conjugation(path)
        # the file stores C, and C round-trips bit for bit
        assert np.array_equal(back.coeff, j.coeff)
        x = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        assert np.array_equal(back.apply(x), j.apply(x))
        # no frame is stored: the reloaded J finds a J-fixed orthonormal one
        frame = back.fixed_frame()
        assert frobenius(back.apply(frame) - frame) <= 1e-13
        assert frobenius(frame.conj().T @ frame - np.eye(dim)) <= 1e-13
        assert np.array_equal(frame, fixed_basis(back, np.eye(dim, dtype=complex)))


def test_conjugation_keeps_a_read_only_copy_of_its_coefficient():
    # J's kept frame was found from C; an edit of the caller's array after
    # that must reach neither C nor the J-real generators drawn on the frame
    want = random_conjugation(4, 3).coeff
    c = want.copy()
    j = Conjugation(4, c)
    assert j.coeff is not c and not j.coeff.flags.writeable
    j.fixed_frame()
    c[:] = random_conjugation(4, 9).coeff
    assert j.coeff.tobytes() == want.tobytes()
    assert verify(j).passed
    u = random_j_real_unitary(j, 5)
    assert frobenius(u - j.sandwich(u)) / (1.0 + frobenius(u)) < 1e-12

"""Worked examples: a truncation family with unbounded inverse Cayley data,
and a purely imaginary Jacobi matrix restricted to a partial domain.

The truncation family stacks 2 x 2 blocks

    A0(beta) = [[0, beta*i], [-beta*i, 0]],   beta_k = 1 - 1/k,

under the canonical conjugation.  Each block is self-adjoint and
J-skew-self-adjoint with spectrum {-beta, beta}; as k grows the resolvent
at -1 blows up like k^2 / (2k - 1) and the Cayley transform
V = (A + I)(A - I)^{-1} has block norms 2k - 1.  This is the
finite-dimensional shadow of an unbounded multivalued limit.  The family
holds its (n, 2, 2) blocks and forms the dense ``operator`` only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugation import canonical
from .errors import BadShape, OutOfRange
from .extension import PartialSymmetricOperator
from .numkernel import inverse, singular_ends
from .report import ResidualReport

RESOLVENT_TOL = 1e-11


def block_a0(beta):
    """2 x 2 block [[0, beta*i], [-beta*i, 0]]; requires -1 < beta < 1."""
    beta = float(beta)
    if not (math.isfinite(beta) and -1.0 < beta < 1.0):
        raise OutOfRange(f"beta must lie strictly inside (-1, 1), got {beta}")
    return np.array([[0.0, beta * 1j], [-beta * 1j, 0.0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class TruncationFamily:
    """Level-n truncation: n 2 x 2 blocks under the canonical conjugation."""

    level: int
    blocks: np.ndarray

    @property
    def operator(self):
        """The dense 2n x 2n operator, scattered from the blocks when read."""
        return _block_diagonal(self.blocks)

    @property
    def conjugation(self):
        """canonical(2 * level), built when asked for; the probes never read it."""
        return canonical(2 * self.level)

    def block(self, k):
        """The k-th 2 x 2 block (1-based, beta = 1 - 1/k)."""
        if not 1 <= k <= self.level:
            raise OutOfRange(f"block index {k} outside [1, {self.level}]")
        return self.blocks[k - 1]


def truncation_family(n):
    """Blocks A0(1 - 1/k) for k = 1..n under the canonical conjugation."""
    n = int(n)
    if n < 1:
        raise OutOfRange(f"level must be at least 1, got {n}")
    blocks = np.zeros((n, 2, 2), dtype=complex)
    # block_a0's own products, so the zero signs match too
    beta = 1.0 - 1.0 / np.arange(1, n + 1)
    blocks[:, 0, 1] = beta * 1j
    blocks[:, 1, 0] = -beta * 1j
    return TruncationFamily(n, blocks)


def _block_diagonal(blocks):
    """The 2n x 2n matrix with the (n, 2, 2) blocks on its diagonal, zeros off it."""
    k = np.arange(len(blocks))
    m = np.zeros((len(k), 2, len(k), 2), dtype=complex)
    m[k, :, k] = blocks
    return m.reshape(2 * len(k), 2 * len(k))


def resolvent_check(beta):
    """Compare elimination inverses of A0(beta) -+ I, entry by entry at
    RESOLVENT_TOL, with the closed form

    (A0(beta) +- I)^{-1} = 1/(1 - beta^2) * [[+-1, -beta*i], [beta*i, +-1]].
    """
    a = block_a0(beta)
    beta = float(beta)
    eye = np.eye(2, dtype=complex)
    factor = 1.0 / (1.0 - beta * beta)
    rep = ResidualReport(extras={"beta": beta})
    for sign, name in ((1.0, "plus"), (-1.0, "minus")):
        closed = factor * np.array(
            [[sign, -beta * 1j], [beta * 1j, sign]], dtype=complex
        )
        got = inverse(a + sign * eye)
        rep.add(f"resolvent_{name}", float(np.max(np.abs(got - closed))), RESOLVENT_TOL)
    return rep


def _rows(computed, formula):
    """Rows (k, computed, formula, rel_err) for k = 1.., as Python ints and
    floats: each float operation is the per-k scalar one, so bit for bit."""
    rel = np.abs(computed - formula) / formula
    return list(zip(range(1, len(rel) + 1), computed.tolist(), formula.tolist(), rel.tolist()))


def growth_probe(n):
    """Rows (k, computed, formula, rel_err) for the resolvent growth values.

    computed is ((I + A)^{-1} e_{k,1}, e_{k,1}) at level n; formula is
    k^2 / (2k - 1).  I + A is block-diagonal, so its inverse is the stack of
    its 2 x 2 blocks' inverses, entry for entry: the whole-matrix column loop
    pivots inside each block and off the blocks only subtracts zeros.
    """
    inv = inverse(truncation_family(n).blocks + np.eye(2))
    k = np.arange(1, len(inv) + 1)
    return _rows(inv[:, 0, 0].real, k * k / (2.0 * k - 1.0))


def _cayley_blocks(n):
    """V's n diagonal blocks (A_k + I)(A_k - I)^{-1}, one (n, 2, 2) product."""
    blocks = truncation_family(n).blocks
    return (blocks + np.eye(2)) @ inverse(blocks - np.eye(2))


def cayley_v(n):
    """V = (A + I)(A - I)^{-1} for the level-n truncation operator.

    Both factors are block-diagonal with 2 x 2 blocks, and so is V; block k
    of (A - I)^{-1} is the inverse of A0(beta_k) - I, entry for entry (see
    growth_probe), so V's blocks are one stacked product of 2 x 2 blocks.
    """
    return _block_diagonal(_cayley_blocks(n))


def norm_growth(n):
    """Rows (k, computed, formula, rel_err) for per-block norms of V.

    The k-th block of V has spectral norm 2k - 1; the n block norms are the
    top ends of one stacked singular_ends call on the blocks cayley_v places.
    """
    norms = singular_ends(_cayley_blocks(n))[:, 1]
    return _rows(norms, 2.0 * np.arange(1, len(norms) + 1) - 1.0)


def jacobi_imag(n, d, alphas=None):
    """Purely imaginary Jacobi matrix restricted to the first d basis vectors.

    The full matrix has entries M[k, k+1] = i*alpha_k, M[k+1, k] = -i*alpha_k
    (alphas defaults to all ones, length n - 1); the restriction to
    span{e_0, .., e_{d-1}} is symmetric and J-imaginary for the canonical
    conjugation, with defect numbers (n - d, n - d).
    """
    n = int(n)
    d = int(d)
    if n < 2:
        raise BadShape(f"ambient dimension must be at least 2, got {n}")
    if not 1 <= d < n:
        raise BadShape(f"domain dimension {d} must lie in [1, {n - 1}]")
    if alphas is None:
        alphas = [1.0] * (n - 1)
    alphas = [float(a) for a in alphas]
    if len(alphas) != n - 1:
        raise BadShape(f"expected {n - 1} couplings, got {len(alphas)}")
    for a in alphas:
        if not (math.isfinite(a) and a > 0.0):
            raise OutOfRange(f"couplings must be positive reals, got {a}")
    m = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        m[k, k + 1] = 1j * alphas[k]
        m[k + 1, k] = -1j * alphas[k]
    q = np.eye(n, dtype=complex)[:, :d]
    return canonical(n), PartialSymmetricOperator(n, q, m[:, :d])

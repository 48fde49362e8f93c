"""Exact linear algebra: the one elimination of the package.

`_eliminate` is fraction-free Gauss-Jordan elimination (Bareiss 1968) on
lists of int rows, over Z or on residues mod a prime, so no entry is ever a
fraction.  `rank` counts its pivots over Q or F_p.

A change of basis is given by its columns, each a sparse integer expansion
over row labels, grouped into square blocks by a key that rows and columns
both conserve.  `BlockedBasis` checks a block by its determinant alone,
from eliminating M; the first solve that meets the block eliminates
[M | I], which leaves its integer adjugate, and a sparse vector is expanded
in the columns as adj . v divided exactly by det.
"""
from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .rings import CoefficientRing


def _eliminate(mat: list[list[int]], width: int, p: int | None = None) -> tuple[int, int]:
    """Integer-preserving Gauss-Jordan elimination of `mat` in place,
    pivoting in its first `width` columns; over Z, or mod p on residues
    when p is given.

    Each pivot is the first nonzero entry at or below the current row; every
    other row becomes pivot * row - f * pivot row.  Over Z that is divided
    by the previous pivot, which is exact (Sylvester's identity) and keeps
    every entry a minor of `mat`; row k < rank then ends with the last
    pivot in its k-th pivot column and 0 in the others.  Mod p the division
    is left out: residues do not grow, and scaling a row by a unit keeps
    the rank.  Returns the rank and the sign of the row swaps."""
    nrows = len(mat)
    k, prev, sign = 0, 1, 1
    for col in range(width):
        piv = next((r for r in range(k, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        a = top[col]
        for r in range(nrows):
            if r != k:
                f = mat[r][col]
                if p is None:
                    mat[r] = [(a * x - f * y) // prev for x, y in zip(mat[r], top)]
                else:
                    mat[r] = [(a * x - f * y) % p for x, y in zip(mat[r], top)]
        prev = a
        k += 1
    return k, sign


def rank(mat: Sequence[Sequence[int]], ring: CoefficientRing) -> int:
    """Rank of an integer matrix over Q, or over F_p when `ring.p` is set."""
    p = ring.p
    rows = [[v % p for v in row] if p else list(row) for row in mat]
    return _eliminate(rows, len(rows[0]) if rows else 0, p)[0]


class _Block:
    """One square block M, its integer matrix built once.  `det` is its
    determinant (0 when singular), from eliminating M alone; `invert` sets
    `adj`, its adjugate, so M^-1 = adj / det, and `det` from one elimination
    of [M | I].  Row k of `adj` belongs to column k, its entries to the
    rows in `ridx` order."""

    def __init__(self, rows: Sequence, cols: Sequence, expansions: Iterable[Mapping]):
        n = len(rows)
        self.cols = list(cols)
        self.ridx = {r: k for k, r in enumerate(rows)}
        self.mat = [[0] * n for _ in range(n)]
        for j, v in enumerate(expansions):
            for r, c in v.items():
                self.mat[self.ridx[r]][j] = c

    def _last_pivot(self, mat: list[list[int]]) -> tuple[int, int]:
        """Eliminate `mat` (M, possibly widened) in its first n columns:
        the determinant of M and the sign of the row swaps."""
        n = len(self.mat)
        full, sign = _eliminate(mat, n)
        return (sign * mat[-1][n - 1] if full == n else 0), sign

    @cached_property
    def det(self) -> int:
        return self._last_pivot([row[:] for row in self.mat])[0]

    def invert(self) -> None:
        if "adj" in vars(self):
            return
        n = len(self.mat)
        mat = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.mat)]
        # [M | I] -> [D I | R] with R M = D I, D the last pivot = sign * det
        self.det, sign = self._last_pivot(mat)
        self.adj = [[sign * c for c in row[n:]] for row in mat]


class BlockedBasis:
    """Exact change of basis to the columns of a blocked square matrix.

    `blocks` maps each block key to its (rows, cols); `key_of(row)` is the
    key of a row and `expansion(col)` a column as a sparse integer vector
    over its block's rows.  `name` prefixes the key in error messages.  A
    block's matrix is built on first use; the unimodularity check takes
    its determinant alone, and the first solve that meets it inverts it.
    A block that is not square or is singular raises AssertionError.
    """

    def __init__(self, name: str, blocks: Mapping[Hashable, tuple[Sequence, Sequence]],
                 key_of: Callable[[Hashable], Hashable],
                 expansion: Callable[[Hashable], Mapping]):
        self.name = name
        self.blocks = blocks
        self.key_of = key_of
        self.expansion = expansion
        self._factored: dict = {}

    def factor(self, key, invert: bool = False) -> _Block:
        """The block of `key`, its matrix built on first use, with its
        determinant; with `invert`, with its adjugate too."""
        if key not in self._factored:
            rows, cols = self.blocks[key]
            if len(rows) != len(cols):
                raise AssertionError(
                    f"{self.name} {key} is not square: {len(cols)} columns vs {len(rows)} rows"
                )
            self._factored[key] = _Block(rows, cols, map(self.expansion, cols))
        blk = self._factored[key]
        if invert:
            blk.invert()
        if not blk.det:
            raise AssertionError(f"{self.name} {key} singular")
        return blk

    def non_unimodular_block(self) -> tuple | None:
        """The first block key whose determinant is not +-1, with that
        determinant; None when there is none.  Factors the blocks up to it."""
        dets = ((key, self.factor(key).det) for key in self.blocks)
        return next(((key, det) for key, det in dets if abs(det) != 1), None)

    def unimodular(self) -> bool:
        """Whether every block has determinant +-1; factors all of them."""
        return self.non_unimodular_block() is None

    def solve_integral(self, v: Mapping) -> dict:
        """Expand a sparse integer vector in the columns over Z; a
        non-integral coefficient raises ArithmeticError naming its column
        and block."""
        parts: dict = {}
        for r, c in v.items():
            parts.setdefault(self.key_of(r), {})[r] = c
        out: dict = {}
        for key, part in parts.items():
            blk = self.factor(key, invert=True)
            for col, row in zip(blk.cols, blk.adj):
                num = sum(row[blk.ridx[r]] * c for r, c in part.items())
                coeff, rem = divmod(num, blk.det)
                if rem:
                    g = gcd(num, blk.det) * (1 if blk.det > 0 else -1)
                    raise ArithmeticError(
                        f"non-integral coefficient {num // g}/{blk.det // g} "
                        f"of column {col} in {self.name} {key}"
                    )
                if coeff:
                    out[col] = coeff
        return out

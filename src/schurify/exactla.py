"""Exact linear algebra: the one Gaussian elimination of the package.

A change of basis is given by its columns, each a sparse integer expansion
over row labels, grouped into square blocks by a key that rows and columns
both conserve.  `BlockedBasis` factors each block on first use by LU with
first-nonzero row pivoting over Q, reports its determinant, and expands
sparse vectors in the columns.  `rank` runs the same elimination over Q or
F_p.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .rings import QQ, CoefficientRing


def _eliminate(mat: list[list], ring: CoefficientRing) -> tuple[list[int], list[int], int]:
    """Forward Gaussian elimination of `mat` in place over a field.

    Row k < rank ends up holding U from its pivot column on; the entries
    below each pivot are overwritten by the multipliers of L.  Returns the
    row permutation, the pivot column of each of the first rank rows, and
    the sign of the permutation."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    perm = list(range(nrows))
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, nrows) if not ring.is_zero(mat[r][col])), None)
        if piv is None:
            continue
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            sign = -sign
        for r in range(k + 1, nrows):
            if not ring.is_zero(mat[r][col]):
                f = ring.div(mat[r][col], mat[k][col])
                mat[r][col] = f
                for c in range(col + 1, ncols):
                    mat[r][c] = ring.sub(mat[r][c], ring.mul(f, mat[k][c]))
        pivots.append(col)
    return perm, pivots, sign


def rank(mat: Sequence[Sequence[int]], ring: CoefficientRing) -> int:
    """Rank of an integer matrix over the field `ring` (Q or F_p)."""
    return len(_eliminate([[ring.of(v) for v in row] for row in mat], ring)[1])


class _Block:
    """One square block, LU-factored over Q; `det` is 0 when singular."""

    def __init__(self, rows: Sequence, cols: Sequence, expansions: Iterable[Mapping]):
        n = len(rows)
        self.cols = list(cols)
        self.ridx = {r: k for k, r in enumerate(rows)}
        self.lu = [[Fraction(0)] * n for _ in range(n)]
        for j, v in enumerate(expansions):
            for r, c in v.items():
                self.lu[self.ridx[r]][j] = Fraction(c)
        self.perm, pivots, sign = _eliminate(self.lu, QQ)
        self.det = sign * prod(self.lu[k][k] for k in range(n)) if len(pivots) == n else 0

    def solve(self, v: Mapping) -> dict:
        lu, n = self.lu, len(self.cols)
        rhs = [Fraction(0)] * n
        for r, c in v.items():
            rhs[self.ridx[r]] = Fraction(c)
        x = [rhs[p] for p in self.perm]
        for k in range(n):
            for j in range(k):
                x[k] -= lu[k][j] * x[j]
        for k in range(n - 1, -1, -1):
            for j in range(k + 1, n):
                x[k] -= lu[k][j] * x[j]
            x[k] /= lu[k][k]
        return {col: c for col, c in zip(self.cols, x) if c}


class BlockedBasis:
    """Exact change of basis to the columns of a blocked square matrix.

    `blocks` maps each block key to its (rows, cols); `key_of(row)` is the
    key of a row and `expansion(col)` a column as a sparse integer vector
    over its block's rows.  `name` prefixes the key in error messages.  A
    block is factored on first use; a block that is not square or is
    singular raises AssertionError.
    """

    def __init__(self, name: str, blocks: Mapping[Hashable, tuple[Sequence, Sequence]],
                 key_of: Callable[[Hashable], Hashable],
                 expansion: Callable[[Hashable], Mapping]):
        self.name = name
        self.blocks = blocks
        self.key_of = key_of
        self.expansion = expansion
        self._factored: dict = {}

    def factor(self, key) -> _Block:
        if key not in self._factored:
            rows, cols = self.blocks[key]
            if len(rows) != len(cols):
                raise AssertionError(
                    f"{self.name} {key} is not square: {len(cols)} columns vs {len(rows)} rows"
                )
            blk = _Block(rows, cols, map(self.expansion, cols))
            if not blk.det:
                raise AssertionError(f"{self.name} {key} singular")
            self._factored[key] = blk
        return self._factored[key]

    def unimodular(self) -> bool:
        """Whether every block has determinant +-1; factors all of them."""
        return all(abs(self.factor(key).det) == 1 for key in self.blocks)

    def _by_block(self, v: Mapping):
        parts: dict = {}
        for r, c in v.items():
            parts.setdefault(self.key_of(r), {})[r] = c
        return ((key, self.factor(key).solve(part)) for key, part in parts.items())

    def solve(self, v: Mapping) -> dict:
        """Expand a sparse integer vector in the columns, exactly over Q."""
        out: dict = {}
        for _key, coeffs in self._by_block(v):
            out.update(coeffs)
        return out

    def solve_integral(self, v: Mapping) -> dict:
        """Expand a sparse integer vector in the columns over Z; a
        non-integral coefficient raises ArithmeticError naming its block."""
        out: dict = {}
        for key, coeffs in self._by_block(v):
            for col, c in coeffs.items():
                if c.denominator != 1:
                    raise ArithmeticError(f"non-integral coefficient {c} in {self.name} {key}")
                out[col] = int(c)
        return out

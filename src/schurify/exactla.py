"""Exact linear algebra: the one elimination of the package.

`_eliminate` is forward-only fraction-free elimination (Bareiss 1968) on
sparse rows, dicts column -> nonzero int, over Z or on residues mod a prime,
so no entry is ever a fraction.  It pivots anywhere: a +-1 entry in the
sparsest row first, otherwise the entry of least |value|.  Its last pivot is
the determinant up to the sign it tracks, and its pivots count the rank;
`rank` gives that rank over Q or F_p, and `unit_determinant` whether a
square matrix given by its sparse columns is unimodular.

A `Block` is one square block of a change of basis, given by its rows
(any hashable labels, such as words of letter indices) and its columns'
sparse integer expansions over them.  It is eliminated once, for its
determinant; given its columns' labels it also keeps a record of the row
operations, and expands a sparse vector in its columns by replaying that
record on it and substituting back, in integers scaled by the last pivot,
and dividing exactly by it.  The same replay on each row's unit vector gives
one column's coefficient as a functional on the rows (`Block.dual_row`), in
numerators over the determinant.
"""
from __future__ import annotations

from math import gcd
from typing import Mapping, Sequence

from .rings import CoefficientRing


def _eliminate(rows: list[dict[int, int]], p: int | None = None,
               steps: list | None = None) -> tuple[list[tuple[int, int]], int, int]:
    """Forward-only fraction-free elimination of the sparse rows `rows`
    (their entries nonzero), over Z, or mod p on residues when p is given.

    Each step pivots on a +-1 entry (mod p: any entry) in the sparsest row
    that has one, otherwise on an entry of least |value|, and retires the
    pivot row; a negative pivot negates its row first, so every pivot a is
    positive.  Each remaining row becomes (a * row - f * pivot row) / prev,
    f its entry in the pivot column and prev the previous pivot (1 at the
    start); a row with f = 0 is only scaled, by a / prev, which is nothing
    while the pivots are units.  Over Z both divisions are exact (Sylvester's
    identity: every entry stays a minor of the row- and column-permuted
    matrix), so the last pivot of a square nonsingular matrix is its
    determinant up to sign.  Mod p the division and the scaling are left
    out: residues do not grow, and scaling a row by a unit keeps the rank.

    Returns the pivots as (row, column) in order, the last pivot and the sign
    of the negations.  With `steps` a list, each step appends its pivot row
    index and column, its pivot row, a, prev, whether it negated the row,
    and the multipliers f by row, for `Block.solve_integral` to replay."""
    active = {r: row for r, row in enumerate(rows) if row}
    pivots: list[tuple[int, int]] = []
    prev, sign = 1, 1
    while active:
        best, size = None, 0
        for r, row in active.items():
            if best is None or len(row) < size:
                for c, x in row.items():
                    if p or x == 1 or x == -1:
                        best, size = (r, c), len(row)
                        break
        if best is None:
            best = min((abs(x), len(row), r, c)
                       for r, row in active.items() for c, x in row.items())[2:]
        r0, c0 = best
        top = active.pop(r0)
        a = top[c0]
        negated = a < 0
        if negated:
            top = {c: -x for c, x in top.items()}
            a, sign = -a, -sign
        mults = {}
        for r, row in active.items():
            f = row.get(c0)
            if f:
                mults[r] = f
                if a == prev == 1 and p is None:  # unit pivots: row - f * pivot row
                    new = row.copy()
                    for c, y in top.items():
                        v = new.get(c, 0) - f * y
                        if v:
                            new[c] = v
                        else:
                            del new[c]
                    active[r] = new
                    continue
                new = {c: a * x for c, x in row.items()}
                for c, y in top.items():
                    new[c] = new.get(c, 0) - f * y
                if p is not None:
                    active[r] = {c: v % p for c, v in new.items() if v % p}
                else:
                    active[r] = {c: v // prev for c, v in new.items() if v}
            elif a != prev and p is None:
                active[r] = {c: x * a // prev for c, x in row.items()}
        for r in [r for r in mults if not active[r]]:
            del active[r]
        pivots.append((r0, c0))
        if steps is not None:
            steps.append((r0, c0, top, a, prev, negated, mults))
        prev = a
    return pivots, prev, sign


def _parity(perm: Mapping[int, int]) -> int:
    """The sign of a permutation given as a mapping k -> perm[k]."""
    sign, seen = 1, set()
    for k in perm:
        while k not in seen:
            seen.add(k)
            k = perm[k]
            if k not in seen:
                sign = -sign
    return sign


def rank(mat: Sequence[Sequence[int]], ring: CoefficientRing) -> int:
    """Rank of an integer matrix over Q, or over F_p when `ring.p` is set."""
    p = ring.p
    rows = [{c: v % p if p else v for c, v in enumerate(row) if (v % p if p else v)}
            for row in mat]
    return len(_eliminate(rows, p)[0])


def unit_determinant(columns: Sequence[Mapping]) -> bool:
    """Whether the square matrix with the sparse columns `columns` (their
    entries nonzero) over as many rows has determinant +-1, by eliminating
    its transpose, whose rows the columns are (det M = det M^T)."""
    pivots, last, _sign = _eliminate(columns)
    return len(pivots) == len(columns) and last == 1


class Block:
    """One square block M of a change of basis, eliminated once: its rows are
    labels (any hashable, such as words of letter indices) and its columns
    sparse integer expansions over them.  `det` is its determinant and `size`
    its order.  Given its columns' labels `cols`, it keeps them, the place of
    each row and the record of the elimination, from which `solve_integral`
    expands a vector in its columns and `dual_row` reads one column's
    coefficient as a functional on the rows.  `name` and `key` name the
    block in its errors: one that is not square or is singular raises
    AssertionError."""

    __slots__ = ("det", "size", "cols", "ridx", "steps", "where")

    def __init__(self, name: str, key, rows: Sequence, expansions: Sequence[Mapping],
                 cols: Sequence | None = None):
        n = self.size = len(rows)
        if len(expansions) != n:
            raise AssertionError(f"{name} {key} is not square: "
                                 f"{len(expansions)} columns vs {n} rows")
        ridx = {r: k for k, r in enumerate(rows)}
        mat: list[dict[int, int]] = [{} for _ in rows]
        for j, v in enumerate(expansions):
            for r, c in v.items():
                if c:
                    mat[ridx[r]][j] = c
        steps = None if cols is None else []
        pivots, last, sign = _eliminate(mat, None, steps)
        if len(pivots) < n:
            raise AssertionError(f"{name} {key} singular")
        # the pivots' rows and columns, in order, permute M: r_k -> c_k has
        # the sign of the two permutations together
        self.det = sign * last * _parity(dict(pivots))
        if cols is not None:
            self.cols, self.ridx, self.steps, self.where = cols, ridx, steps, (name, key)

    def solve_integral(self, v: Mapping) -> dict:
        """Expand a sparse integer vector over the rows in the columns over Z,
        as column label -> nonzero coefficient.  A non-integral coefficient
        raises ArithmeticError naming its column and the block."""
        y, scale = self._replay(v)
        det, out = self.det, {}
        for j, col in enumerate(self.cols):
            num = scale * y[j]
            if num:
                coeff, rem = divmod(num, det)
                if rem:
                    raise self._non_integral(num, col)
                out[col] = coeff
        return out

    def dual_row(self, col) -> dict:
        """The coefficient at column `col` as a functional on the rows, in
        numerators over `det`: row label -> integer, zeros included, so that
        a vector v over the rows has the coefficient sum(v[r] * row[r]) / det
        (`quotient`).  Row r's numerator is that of the solve of its unit
        vector; kept over `det`, the row needs no unimodular block."""
        j = self.cols.index(col)
        out = {}
        for r in self.ridx:
            y, scale = self._replay({r: 1})
            out[r] = scale * y[j]
        return out

    def quotient(self, num: int, col) -> int:
        """num / det, exactly: a remainder raises ArithmeticError naming the
        reduced fraction, the column `col` and the block."""
        coeff, rem = divmod(num, self.det)
        if rem:
            raise self._non_integral(num, col)
        return coeff

    def _non_integral(self, num: int, col) -> ArithmeticError:
        det = self.det
        g = gcd(num, det) * (1 if det > 0 else -1)
        name, key = self.where
        return ArithmeticError(f"non-integral coefficient {num // g}/{det // g} "
                               f"of column {col} in {name} {key}")

    def _replay(self, v: Mapping) -> tuple[dict[int, int], int]:
        """(y, s) with s * y = det times the expansion of v in the columns,
        y by column index and s = +-1.

        The right-hand side goes through the recorded row operations, then
        back substitution finds y = D x in integers, D the last pivot; each
        division by a pivot is exact because y = +-adj(M) v is integral."""
        b = {self.ridx[r]: c for r, c in v.items()}
        rhs = []
        for r0, _c0, _top, a, prev, negated, mults in self.steps:
            bp = b.pop(r0, 0)
            if negated:
                bp = -bp
            rhs.append(bp)
            if a != prev:
                b = {r: x if r in mults else x * a // prev for r, x in b.items()}
            if bp or a != prev:
                for r, f in mults.items():
                    b[r] = (a * b.get(r, 0) - f * bp) // prev
        last = self.steps[-1][3] if self.steps else 1
        y: dict[int, int] = {}
        for (_r0, c0, top, a, _prev, _neg, _mults), bp in zip(reversed(self.steps), reversed(rhs)):
            s = last * bp - sum(x * y[c] for c, x in top.items() if c != c0)
            y[c0] = s // a
        return y, 1 if self.det == last else -1  # det = +-last

"""Exact linear algebra: the one elimination of the package.

`_eliminate` is forward-only fraction-free elimination (Bareiss 1968) on
sparse rows, dicts column -> nonzero int, over Z or on residues mod a prime,
so no entry is ever a fraction.  It pivots anywhere: a +-1 entry in the
sparsest row first, otherwise the entry of least |value|.  Its last pivot is
the determinant up to the sign it tracks, and its pivots count the rank;
`rank` gives that rank over Q or F_p.

A change of basis is given by its columns, each a sparse integer expansion
over row labels (any hashable, such as words of letter indices), grouped
into square blocks by a key that rows and columns both conserve.
`BlockedBasis` checks a block by its determinant alone and keeps nothing
else of it; the first solve that meets the block eliminates it again and
keeps a record of the row operations.  A sparse vector is then
expanded in the columns by replaying that record on it and substituting
back, in integers scaled by the last pivot, and dividing exactly by it.
"""
from __future__ import annotations

from math import gcd
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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
    and the multipliers f by row, for `_Block.solve` to replay."""
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


class _Block:
    """One square block M, eliminated once from its columns' expansions, each
    a sparse vector over `rows`.  `det` is its determinant (0 when singular)
    and `size` its order; with `solver`, it keeps its columns, the place of
    each row and the record of the elimination, from which `solve` expands a
    vector in its columns."""

    __slots__ = ("det", "size", "cols", "ridx", "steps")

    def __init__(self, rows: Sequence, cols: Sequence, expansions: Iterable[Mapping],
                 solver: bool = False):
        ridx = {r: k for k, r in enumerate(rows)}
        mat: list[dict[int, int]] = [{} for _ in rows]
        for j, v in enumerate(expansions):
            for r, c in v.items():
                if c:
                    mat[ridx[r]][j] = c
        steps = [] if solver else None
        pivots, last, sign = _eliminate(mat, None, steps)
        n = self.size = len(rows)
        self.det = 0
        if len(pivots) == n:
            # the pivots' rows and columns, in order, permute M: r_k -> c_k
            # has the sign of the two permutations together
            self.det = sign * last * _parity(dict(pivots))
        if solver:
            self.cols, self.ridx, self.steps = list(cols), ridx, steps

    def solve(self, v: Mapping) -> list[int]:
        """det * M^-1 v for a nonsingular block: one integer per column.

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
        scale = 1 if self.det == last else -1  # det = +-last
        return [scale * y[j] for j in range(self.size)]


class BlockedBasis:
    """Exact change of basis to the columns of a blocked square matrix.

    `blocks` maps each block key to its (rows, cols); `key_of(row)` is the
    key of a row and `expansion(col)` a column as a sparse integer vector
    over its block's rows.  `name` prefixes the key in error messages.  The
    unimodularity check keeps only each block's determinant and order; the
    first solve that meets a block builds it again and keeps what a solve
    needs.  A block that is not square or is singular raises AssertionError.
    `columns` gives a block's rows, columns and expansions over the rows; a
    subclass may derive the rows from the expansions, and name a row in its
    messages by `row_label`.
    """

    def __init__(self, name: str, blocks: Mapping[Hashable, tuple[Sequence, Sequence]],
                 key_of: Callable[[Hashable], Hashable],
                 expansion: Callable[[Hashable], Mapping]):
        self.name = name
        self.blocks = blocks
        self.key_of = key_of
        self.expansion = expansion
        self._factored: dict = {}

    def columns(self, key, solver: bool = False) -> tuple[Sequence, Sequence, Iterable[Mapping]]:
        """The rows and columns of a block, and the columns' expansions as
        sparse vectors over the rows.  The columns are the labels a solve
        returns when `solver` is set; otherwise only their number is read."""
        rows, cols = self.blocks[key]
        return rows, cols, (self.expansion(col) for col in cols)

    def row_label(self, row):
        """A row as error messages name it."""
        return row

    def factor(self, key, solver: bool = False) -> _Block:
        """The block of `key` with its determinant, built on first use; with
        `solver`, with what a solve needs too."""
        blk = self._factored.get(key)
        if blk is None or solver and not hasattr(blk, "steps"):
            rows, cols, expansions = self.columns(key, solver)
            if len(rows) != len(cols):
                raise AssertionError(
                    f"{self.name} {key} is not square: {len(cols)} columns vs {len(rows)} rows"
                )
            blk = self._factored[key] = _Block(rows, cols, expansions, solver)
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

    def dimension(self) -> int:
        """The number of rows over all blocks; factors all of them."""
        return sum(self.factor(key).size for key in self.blocks)

    def solve_integral(self, v: Mapping) -> dict:
        """Expand a sparse integer vector in the columns over Z; a
        non-integral coefficient raises ArithmeticError naming its column
        and block, a label that is no row of its block AssertionError."""
        parts: dict = {}
        for r, c in v.items():
            parts.setdefault(self.key_of(r), {})[r] = c
        out: dict = {}
        for key, part in parts.items():
            blk = self.factor(key, solver=True)
            for r in part:
                if r not in blk.ridx:
                    raise AssertionError(f"{self.row_label(r)} is not a row of {self.name} {key}")
            for col, num in zip(blk.cols, blk.solve(part)):
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

"""Colored alphabets and colored tableaux over a heredity-equipped algebra.

A colored letter is a pair (l, x) with l in [1, n] and x a basis label from
X(i) (or Y(i)).  The total order on each alphabet: primary key the fixed
listing of X(i) (e_i first, then the remaining elements by (absorbing color
ascending, even before odd)), secondary key the letter.

A tableau of a multipartition is stored as a tuple of components, each a tuple
of rows, each row a tuple of colored letters.  A tableau is standard when
the keys weakly increase along each row, strictly after an odd letter, and
increase strictly down each column, weakly below an odd letter
(`Alphabet.breaks_row`, `Alphabet.breaks_column`).  `enumerate_tableaux`
lists the standard tableaux of a shape, and `side_word` turns a tableau
into the word of an orbit; the program reads both from the context's table
(`triples.TriContext.standard_tableaux`), which holds each tableau with its
index word, its sign and its share of the block keys.
"""
from __future__ import annotations

from functools import cached_property
from itertools import product

from .base_algebra import BasedSuperalgebra, HeredityData, Side, absorbing_colors
from .partitions import Multipartition, row_word

Letter = tuple[int, str]                      # (l, color label)
Tableau = tuple[tuple[tuple[Letter, ...], ...], ...]


class Alphabet:
    """Ordered colored alphabet for one side (X or Y) of heredity data."""

    def __init__(self, alg: BasedSuperalgebra, data: HeredityData, n: int, side: Side):
        self.alg = alg
        self.data = data
        self.n = n
        self.side = side

    @cached_property
    def absorbers(self) -> dict[str, int]:
        """Basis element -> the j with e_j z = z (X side) or z e_j = z (Y side)."""
        return absorbing_colors(self.alg, self.data, self.side)

    def _absorbing_color(self, z: str) -> int:
        j = self.absorbers.get(z)
        if j is None:
            raise ValueError(f"no absorbing idempotent for {z!r}")
        return j

    @cached_property
    def listings(self) -> dict[int, tuple[str, ...]]:
        side_sets = self.side.pick(self.data.X, self.data.Y)
        out = {}
        for i in self.data.labels:
            ei = self.data.e[i]
            rest = sorted(
                (z for z in side_sets[i] if z != ei),
                key=lambda z: (self._absorbing_color(z), self.alg.parity[z]),
            )
            out[i] = (ei, *rest)
        return out

    @cached_property
    def _pos(self) -> dict[str, tuple[int, int]]:
        return {
            z: (i, k)
            for i in self.data.labels
            for k, z in enumerate(self.listings[i])
        }

    def key(self, letter: Letter):
        l, z = letter
        return (self._pos[z][1], l)

    def letters(self, i: int) -> list[Letter]:
        return sorted(
            ((l, z) for z in self.listings[i] for l in range(1, self.n + 1)),
            key=self.key,
        )

    def is_odd(self, letter: Letter) -> bool:
        return self.alg.parity[letter[1]] == 1

    def breaks_row(self, left: Letter, right: Letter) -> bool:
        """Whether `right` may not sit right after `left` in a row of a
        standard tableau: keys increase along a row, strictly when `left` is
        odd."""
        kl, kr = self.key(left), self.key(right)
        return kl > kr or (kl == kr and self.is_odd(left))

    def breaks_column(self, above: Letter, below: Letter) -> bool:
        """Whether `below` may not sit right under `above` in a standard
        tableau: keys increase down a column, strictly unless `above` is odd."""
        ka, kb = self.key(above), self.key(below)
        return ka > kb or (ka == kb and not self.is_odd(above))


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

def word(T: Tableau) -> tuple[Letter, ...]:
    return tuple(entry for comp in T for row in comp for entry in row)


def side_word(T: Tableau, rows, side: Side) -> tuple:
    """The reading word of `T` against a row word of the same length, as a
    word of `triples` letters: an X letter (l, x) against row m gives
    (x, l, m), a Y letter (y, m, l).  The one place the program turns a
    tableau into the word of an orbit."""
    ls, zs = [], []
    for comp in T:
        for row in comp:
            for l, z in row:
                ls.append(l)
                zs.append(z)
    assert len(ls) == len(rows)
    return tuple(zip(zs, *side.orient(ls, rows)))


def own_word(T: Tableau, side: Side) -> tuple:
    """The word of X_S or Y_T: a tableau against its own rows."""
    return side_word(T, row_word([len(row) for row in comp] for comp in T), side)


def column_violation(comp, alphabet: Alphabet) -> tuple[int, int] | None:
    """The first column violation in one component of a tableau: the 1-based
    (row, column) of the upper of two cells that break their column, first in
    row-major order, or None."""
    for r in range(1, len(comp)):
        for c in range(len(comp[r])):
            if alphabet.breaks_column(comp[r - 1][c], comp[r][c]):
                return r, c + 1
    return None


def is_standard(T: Tableau, alphabet: Alphabet) -> bool:
    """Whether no two neighbours in a row (`Alphabet.breaks_row`) or in a
    column (`column_violation`) break the order of the alphabet."""
    return not any(alphabet.breaks_row(a, b) for comp in T for row in comp
                   for a, b in zip(row, row[1:])) \
        and not any(column_violation(comp, alphabet) for comp in T)


def row_standardize(T: Tableau, alphabet: Alphabet) -> Tableau:
    """The unique row-equivalent row-standard tableau (sort each row)."""
    return tuple(
        tuple(tuple(sorted(row, key=alphabet.key)) for row in comp) for comp in T
    )


def enumerate_tableaux(bold: Multipartition, alphabet: Alphabet) -> list[Tableau]:
    """All standard tableaux of the given shape: each component filled by
    backtracking over its letters row by row, and the tableaux the product
    of the components' fills.  A row refuses a repeated odd letter as it is
    placed (`Alphabet.breaks_row`): `Alphabet.key` is injective within a
    component, so equal letters in a row stand side by side.  The program
    reads the tableaux through `TriContext.standard_tableaux`, which calls
    this once per side and shape."""
    comps: list[list[tuple[tuple[Letter, ...], ...]]] = []
    for i, comp_shape in enumerate(bold):
        letters = alphabet.letters(i)
        fills: list[tuple[tuple[Letter, ...], ...]] = []

        def backtrack(rows_done: list[tuple[Letter, ...]], cur_row: list[Letter], r: int):
            if r == len(comp_shape):
                fills.append(tuple(rows_done))
                return
            c = len(cur_row)
            if c == comp_shape[r]:
                backtrack(rows_done + [tuple(cur_row)], [], r + 1)
                return
            for cand in letters:
                if cur_row and alphabet.breaks_row(cur_row[-1], cand):
                    continue
                if (r > 0 and c < len(rows_done[r - 1])
                        and alphabet.breaks_column(rows_done[r - 1][c], cand)):
                    continue
                cur_row.append(cand)
                backtrack(rows_done, cur_row, r)
                cur_row.pop()

        backtrack([], [], 0)
        comps.append(fills)
    return list(product(*comps))


def to_json(T: Tableau) -> list:
    return [[[{"l": l, "c": z} for (l, z) in row] for row in comp] for comp in T]

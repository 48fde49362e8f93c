"""Codeterminant basis of T^A_a(n, d): the standard codeterminants and
their blocked change of basis from the orbit basis, its unimodularity walk
and its solve.

A codeterminant B^bold_{S,T} = X_S * Y_T is the product of the orbit element
read off an X-tableau against the row word of its shape and the mirror-image
Y-tableau element.  Standard codeterminants (dominant shape, both tableaux
standard) form a Z-basis when n >= d.  `CodetBasis.solve` expresses an
element in that basis by an exact blocked linear solve against the
codeterminant expansion matrix, blocked by the conserved (left profile,
right profile, degree, parity); the recursive rewrite that checks it is
`straighten.Straightener`, and the heredity axioms on this basis are
checked by `heredity.heredity_of_T`.  A truncation (`T.is_truncation`) is
only cellular, and its cellular basis lies in the ambient algebra, so the
basis refuses it, as it refuses n < d.  Each function built on this basis
for one caller lives beside that caller: `orbit_to_codet` in `straighten`
and the Gram matrices of the standard modules (`gram_blocks`) in
`decomposition`.  Those modules import this one and are loaded only by
the commands that run them (see the README's module map).
A block is built from its columns alone: the standard codeterminants whose
tableau shares add up to its key, expanded on letter indices by the product
kernel, and as rows the orbits those expansions reach, labelled by their
words of letter indices, each checked by one sum over a per-letter table to
be an orbit of T carrying the key.
The unimodularity check walks the blocks in one pass, in sorted key order:
for each X weight, one pass over its X tableau shares and their shapes' Y
shares files every column under its key (`CodetBasis._filed`, which
yields each key once).  A block is taken as its column expansions,
its rows checked as a built block's are (`CodetBasis._checked_rows`), and
eliminated as its transpose (`exactla.unit_determinant`); only a block that
fails is built, as the solves build it (`CodetBasis.factor`), for its
failure text or signed determinant.  The first solve that meets a block
builds it with what a solve needs and keeps it.  Neither the check nor a
solve lists orbits.

A tableau enters the walk, the heredity check and the Gram matrices as the
index word of X_S or Y_T and its sign, read straight off the tableau
(`CodetBasis.index_word`) once per tableau; the heredity check reads them
off the walk's shares (`CodetBasis.tableau_shares`), and the basis keeps no
Element per tableau.  The standard tableaux and their shares of the block
keys, (weight, degree, parity), come from one table on the algebra's context
(`TriContext.standard_tableaux`), each tableau's share read in one pass over
its letters; the blocks, the heredity check, the Gram matrices and the
tableau characters all read that table.
The walk's tableau shares take their kernel factors from the algebra's
tables (`SchurAlgebra.lefts`, `.rights`), kept for its life;
`heredity_of_T` keeps the factors it makes beyond those for its own call,
and `decomposition.gram_blocks` for one call or one row (see `schur` and
`gram_blocks` for why).  A codeterminant key is made only for a solve's
result or a failure message, and a `TriWord` only at the boundary: an
Element given to `CodetBasis.solve` and an orbit that a witness or an error
names.

All expansions are integral; any non-integral coefficient aborts loudly.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .base_algebra import SIDES, X_SIDE, Y_SIDE, Side
from .exactla import Block, unit_determinant
from .partitions import gen_multipartitions
from .schur import Element, SchurAlgebra
from .tableaux import Tableau
from .triples import OnLookup, TriWord, run_key

CodetKey = tuple[tuple[tuple[int, ...], ...], Tableau, Tableau]  # (shape, S, T)


# ---------------------------------------------------------------------------
# tableau <-> orbit words
# ---------------------------------------------------------------------------

def _word(tab: Tableau, rows, side: Side) -> TriWord:
    """The row-major content of `tab` paired with a row word of the same
    length: an X letter (l, x) against row m gives (x, l, m), a Y letter
    (y, m, l)."""
    content = [entry for comp in tab for row in comp for entry in row]
    assert len(content) == len(rows)
    r, s = side.orient([l for (l, _z) in content], rows)
    return tuple(zip([z for (_l, z) in content], r, s))


def _own_word(tab: Tableau, side: Side) -> TriWord:
    """The word of X_S or Y_T: a tableau against its own rows."""
    return _word(tab, [m for comp in tab for m, row in enumerate(comp, start=1) for _ in row], side)


def side_element(T: SchurAlgebra, tab: Tableau, side: Side) -> Element:
    """X_S or Y_T: the orbit element of a tableau against its own rows."""
    return T.eta(_own_word(tab, side))


def codet_element(T: SchurAlgebra, S: Tableau, Tb: Tableau) -> Element:
    return T.mul(side_element(T, S, X_SIDE), side_element(T, Tb, Y_SIDE))


# ---------------------------------------------------------------------------
# the standard codeterminant basis
# ---------------------------------------------------------------------------

class _Share(NamedTuple):
    """A standard tableau as a factor of the codeterminant walk: its shape,
    and its orbit element as a factor of the product kernel with its sign,
    X_S as a left factor and Y_T as a right one."""

    tab: Tableau
    bold: tuple
    factor: tuple
    sign: int


class CodetBasis:
    """Standard codeterminants of T, their expansions, and the blocked change
    of basis from the orbit basis."""

    def __init__(self, T: SchurAlgebra):
        # below n = d the standard codeterminants stop spanning, and a
        # truncation is only cellular; only the plain algebra operations
        # remain available
        if T.n < T.d:
            raise ValueError("standard codeterminant basis requires n >= d")
        if T.is_truncation:
            raise ValueError("standard codeterminant basis requires a quasi-hereditary "
                             "algebra, not a truncation")
        self.T = T
        self._factored: dict = {}

    @cached_property
    def shapes(self) -> list:
        ell = len(self.T.data.labels) - 1
        return list(gen_multipartitions(self.T.n, self.T.d, ell))

    @cached_property
    def std_x(self) -> dict:
        return {bold: [S for S, _share in xs] for bold, (xs, _ys) in self._tableau_blocks.items()}

    @cached_property
    def std_y(self) -> dict:
        return {bold: [Tb for Tb, _share in ys] for bold, (_xs, ys) in self._tableau_blocks.items()}

    @cached_property
    def keys(self) -> list[CodetKey]:
        return [
            (bold, S, Tb)
            for bold in self.shapes
            for S in self.std_x[bold]
            for Tb in self.std_y[bold]
        ]

    def initial_tableau_pair(self, bold) -> tuple[Tableau, Tableau]:
        e = self.T.data.e
        S = tuple(
            tuple(tuple((m, e[self.T.data.labels[k]]) for _ in range(w))
                  for m, w in enumerate(comp, start=1))
            for k, comp in enumerate(bold)
        )
        return S, S

    def index_word(self, tab: Tableau, side: Side) -> tuple[tuple[int, ...], int]:
        """X_S or Y_T as the index word of its one orbit, and its sign, read
        straight off the tableau: its word (`_own_word`), that word's letter
        indices, sorted with its sign by `TriContext.sort_signed`.  With the
        checks of `SchurAlgebra.eta`, a word that is not d letters of T
        raises ValueError, and so does one that repeats an odd letter."""
        word = _own_word(tab, side)
        rep, sign = self.T.ctx.sort_signed(self.T.indices(word))
        if rep is None:
            raise ValueError(f"repeated odd letter in {word}")
        return rep, sign

    def kernel_factor(self, tab: Tableau, side: Side, make: Callable) -> tuple:
        """X_S or Y_T as a factor of the product kernel, `make` of its index
        word (a factor's maker or a table's lookup), and its sign."""
        word, sign = self.index_word(tab, side)
        return make(word), sign

    def _expand(self, x: _Share, y: _Share) -> dict[tuple[int, ...], int]:
        """X_S * Y_T keyed by words of letter indices, from the shares of S
        and T; an expansion is used once, to build its column."""
        return self.T.product_terms(x.factor, y.factor, x.sign * y.sign)

    def pairing(self, y: tuple, x: tuple) -> dict[tuple[int, ...], int]:
        """Y_T * X_S keyed by words of letter indices, from Y_T as a left
        factor and X_S as a right one (`kernel_factor`); a Gram matrix reads
        each such product once."""
        (left, sy), (right, sx) = y, x
        return self.T.product_terms(left, right, sy * sx)

    # -- blocked change of basis ------------------------------------------
    @cached_property
    def _tableau_blocks(self) -> dict:
        """shape -> ([(S, its share)], [(T, its share)]) of the block keys,
        (weight, degree, parity mod 2), in the order of the standard
        tableaux: the context's table (`TriContext.standard_tableaux`)."""
        table = self.T.ctx.standard_tableaux
        return {bold: tuple(table[side, bold] for side in SIDES) for bold in self.shapes}

    @cached_property
    def _shares(self) -> tuple[dict, dict]:
        """The standard tableaux indexed by their share of the block keys,
        each with its factor from `T.lefts` or `T.rights` (`_Share`), on the
        first lookup of its weight: weight -> [(shape index, degree, parity
        mod 2, share of S)] on the X side, in the order of `keys`, and weight
        -> (shape index, degree, parity mod 2) -> [share of T] on the Y side."""
        entries: tuple[dict, dict] = ({}, {})
        for k, (bold, shares) in enumerate(self._tableau_blocks.items()):
            for by_weight, tabs in zip(entries, shares):
                for tab, (weight, deg, par) in tabs:
                    by_weight.setdefault(weight, []).append((k, deg, par, tab, bold))
        left, right = self.T.lefts.__getitem__, self.T.rights.__getitem__

        def xs(weight) -> list:
            return [(k, deg, par, _Share(tab, bold, *self.kernel_factor(tab, X_SIDE, left)))
                    for k, deg, par, tab, bold in entries[0].get(weight, ())]

        def ys(weight) -> dict:
            out: dict = {}
            for k, deg, par, tab, bold in entries[1].get(weight, ()):
                share = _Share(tab, bold, *self.kernel_factor(tab, Y_SIDE, right))
                out.setdefault((k, deg, par), []).append(share)
            return out

        return OnLookup(xs), OnLookup(ys)

    def _columns(self, key) -> list[tuple[_Share, _Share]]:
        """The standard codeterminants whose tableau shares add up to the
        block key (alpha, beta, degree, parity), as pairs of shares, in the
        order of `keys`: the columns of a block that `_block` builds."""
        alpha, beta, deg, par = key
        xs_of, ys_of = self._shares
        ys = ys_of[beta]
        cols: list = []
        if ys:
            for k, dx, px, x in xs_of[alpha]:
                right = ys.get((k, deg - dx, (par - px) % 2))
                if right:
                    cols += [(x, y) for y in right]
        return cols

    @cached_property
    def _weights(self) -> tuple[list, list]:
        """Per side, the sorted weights of the standard tableaux."""
        return tuple(sorted({share[0] for tabs in self._tableau_blocks.values()
                             for _tab, share in tabs[side]}) for side in (0, 1))

    def _filed(self, weights: Iterable | None = None) -> Iterator[tuple[tuple, list]]:
        """Each block key with codeterminant columns whose X weight is in
        `weights` (by default every X weight, `_weights[0]`), once and in
        sorted order when the weights are, with its columns as [(share of
        S, [shares of T])], in the order of `keys`.  Each shape's Y shares
        are grouped by their share of the block keys, and one pass per X
        weight alpha, taken from `weights` only when the last one's keys are
        done, over its X shares and each one's shape's groups, files every
        column under its key (alpha, beta, degree, parity); nothing is kept
        past the weight (at most 990 keys of 249 944 at zigzag:1 n=d=4)."""
        xs_of, ys_of = self._shares
        groups = [[(share, ys_of[share[0]][k, share[1], share[2]])
                   for share in dict.fromkeys(s for _tab, s in y_tabs)]
                  for k, (_x_tabs, y_tabs) in enumerate(self._tableau_blocks.values())]
        for alpha in self._weights[0] if weights is None else weights:
            cols: dict = {}
            for k, dx, px, x in xs_of[alpha]:
                for (beta, dy, py), ys in groups[k]:
                    cols.setdefault((alpha, beta, dx + dy, (px + py) % 2), []).append((x, ys))
            for key in sorted(cols):
                yield key, cols[key]

    def tableau_shares(self) -> tuple[dict, dict]:
        """Per side, X then Y, each standard tableau -> its share (`_Share`),
        every share made: the heredity check reads each tableau's index
        word and sign here."""
        xs_of, ys_of = self._shares
        return ({x.tab: x for weight in self._weights[0] for *_, x in xs_of[weight]},
                {y.tab: y for weight in self._weights[1]
                 for ys in ys_of[weight].values() for y in ys})

    @cached_property
    def _digits(self) -> tuple[int, ...]:
        """B^k for B = d + 1 and k = 0, ..., 2m + 1, m the profile slots a
        side: the digits of `_letter_codes`."""
        m = len(self.T.data.labels) * self.T.n
        return tuple((self.T.d + 1) ** k for k in range(2 * m + 2))

    @cached_property
    def _letter_codes(self) -> tuple[int, ...]:
        """Per letter index, its share of a row's block key packed into one
        int, in digits of base B = d + 1 for m profile slots a side: B^l for
        its left slot l, B^(m + r) for its right slot r, B^(2m) when it is
        odd, and its degree times B^(2m + 1).  A word of d letters counts at
        most d in each digit, so the sum of its codes spells exactly its two
        profiles, how many of its letters are odd, and its degree."""
        digits, ctx = self._digits, self.T.ctx
        m = len(digits) // 2 - 1
        left, right = ctx.slots
        return tuple(digits[left[i]] + digits[m + right[i]] + ctx.odd[i] * digits[2 * m]
                     + ctx.degree[i] * digits[2 * m + 1] for i in range(len(ctx.letters)))

    def _row_codes(self, key) -> tuple[int, frozenset[int]]:
        """The sums of `_letter_codes` over the orbits of T with block key
        `key`, as a part and the set of what may be added to it: its
        profiles and degree, and any number of odd letters up to d of its
        parity."""
        alpha, beta, deg, par = key
        digits, codes = self._digits, self._profile_codes
        fixed = codes[alpha] + codes[beta] * digits[len(digits) // 2 - 1] + deg * digits[-1]
        return fixed, self._odd_codes[par]

    @cached_property
    def _profile_codes(self) -> dict:
        """profile -> its digits in the base of `_letter_codes`, made on first
        lookup."""
        digits = self._digits
        return OnLookup(lambda profile: sum(map(mul, [c for comp in profile for c in comp], digits)))

    @cached_property
    def _odd_codes(self) -> tuple[frozenset[int], frozenset[int]]:
        """Per parity, the codes of the numbers of odd letters up to d of
        that parity."""
        odd = self._digits[-2]
        return tuple(frozenset(k * odd for k in range(par, self.T.d + 1, 2)) for par in (0, 1))

    def _block(self, key) -> tuple[list, list, list]:
        """A block's rows, its columns and their expansions over the rows,
        from the columns alone.  The columns are pairs of tableau shares
        (`_columns`), expanded on index words by `_expand`; the rows are
        those of `_checked_rows`, sorted by `run_key`, the order of
        `T.orbits`."""
        cols = self._columns(key)
        expansions = [self._expand(x, y) for x, y in cols]
        return sorted(self._checked_rows(key, cols, expansions), key=run_key), cols, expansions

    def _checked_rows(self, key, cols, expansions) -> set:
        """The index words that the expansions of the columns `cols` reach,
        each checked to carry block key `key` by one sum over the per-letter
        table `_letter_codes`.  When they are fewer than the columns, an
        orbit under `key` that no column reaches is named; only then are the
        block's orbits listed."""
        T = self.T
        reached: set = set().union(*expansions)
        code, (fixed, odd) = self._letter_codes.__getitem__, self._row_codes(key)
        stray = {w for w in reached if sum(map(code, w)) - fixed not in odd}
        if stray:
            self._name_stray(key, cols, expansions, stray)
        if len(reached) < len(cols):
            index, block_key = T.ctx.index, T.ctx.block_key
            for orbit in T.orbits_with_profile(0, key[0]):
                w = tuple([index[lt] for lt in orbit])
                if w not in reached and block_key(w) == key:
                    raise AssertionError(f"codeterminant block {key}: "
                                         f"no column reaches its orbit {orbit}")
        return reached

    def _name_stray(self, key, cols, expansions, stray) -> None:
        """Raise for the first row of `stray` in the order the columns reach
        their rows, naming the first column that reaches it."""
        ctx = self.T.ctx
        for (x, y), v in zip(cols, expansions):
            for w in v:
                if w in stray:
                    col = (x.bold, x.tab, y.tab)
                    raise AssertionError(f"codeterminant block {key}: column {col} "
                                         f"reaches {ctx.word(w)} of block {ctx.block_key(w)}")

    def factor(self, key) -> Block:
        """The block of `key`, built by `_block` on its first request and
        kept in `_factored` for later solves, with its columns as
        codeterminant keys and what a solve needs.  A key with no columns
        gets an empty block.  The walk (`_walk`) keeps only a block that is
        not unimodular, built here."""
        blk = self._factored.get(key)
        if blk is None:
            rows, cols, expansions = self._block(key)
            labels = [(x.bold, x.tab, y.tab) for x, y in cols]
            blk = self._factored[key] = Block("codeterminant block", key, rows, expansions, labels)
        return blk

    def _walk(self, weights: Iterable | None = None):
        """(key, determinant, order) of each block with columns whose X
        weight is in `weights` (by default all of them), in the sorted order
        of their keys: one pass (`_filed`) that keeps no key and no
        unimodular block.  The heredity check walks the X weights on two
        processes (`heredity.Started`), each pass over the runs of weights
        its process pulls from one pipe, a byte a run; the child's exit
        status is its verdict, and `verify`'s process walks the least
        failing run again.  `verify`'s peak RSS is the larger of the two
        processes' peaks; a platform without `os.fork` walks in one.  A
        block is taken as its column expansions (`_expand`), whose rows
        `_checked_rows` checks, raising a stray or missing row.  A square
        block is eliminated as the rows of its transpose
        (`exactla.unit_determinant`) and, when unimodular, yielded with
        determinant 1, its sign not computed; any other is built by
        `factor`, which raises when it is not square or singular, or gives
        its signed determinant."""
        expand = self._expand
        for key, filed in self._filed(weights):
            cols = [(x, y) for x, ys in filed for y in ys]
            expansions = [expand(x, y) for x, y in cols]
            reached = self._checked_rows(key, cols, expansions)
            if len(reached) == len(cols) and unit_determinant(expansions):
                yield key, 1, len(cols)
            else:
                blk = self.factor(key)
                yield key, blk.det, blk.size

    def non_unimodular_block(self, weights: Iterable | None = None) -> tuple | None:
        """The least block key whose X weight is in `weights` (by default
        any) and whose determinant is not +-1, with that determinant; None
        when there is none.  Axiom (a) of `heredity_of_T` reads it; `_walk`
        takes the blocks in sorted order up to that one."""
        return next(((key, det) for key, det, _size in self._walk(weights) if abs(det) != 1), None)

    def unimodular(self) -> bool:
        """Whether every block with columns has determinant +-1 and those
        blocks hold every orbit, so that none lies in a block of no columns.
        One `_walk` gives both the determinants and the orders, keeping no
        unimodular block and no key; the tests and the layer benchmark read
        it."""
        total = 0
        for _key, det, size in self._walk():
            if abs(det) != 1:
                return False
            total += size
        return total == self.T.rank

    def solve_terms(self, terms: Mapping[tuple[int, ...], int]) -> dict[CodetKey, int]:
        """Expand an integral combination of orbits, keyed by words of letter
        indices, in the standard codeterminant basis, one block at a time.
        A word that is no row of its block raises AssertionError."""
        ctx = self.T.ctx
        parts: dict = {}
        for w, c in terms.items():
            parts.setdefault(ctx.block_key(w), {})[w] = c
        out: dict = {}
        for key, part in parts.items():
            blk = self.factor(key)
            for w in part:
                if w not in blk.ridx:
                    raise AssertionError(f"{ctx.word(w)} is not a row of codeterminant block {key}")
            out.update(blk.solve_integral(part))
        return out

    def solve(self, x: Element) -> dict[CodetKey, int]:
        """Expand an integral element in the standard codeterminant basis."""
        index = self.T.ctx.index
        return self.solve_terms({tuple([index[lt] for lt in orbit]): c for orbit, c in x.items()})


# ---------------------------------------------------------------------------
# the layers that moved out, by their old names
# ---------------------------------------------------------------------------

_MOVED = {"Straightener": "straighten", "heredity_of_T": "heredity"}


def __getattr__(name: str):
    """`Straightener` and `heredity_of_T` read here load their own modules,
    `straighten` and `heredity` (PEP 562), for the layer benchmark
    (`perfbench/layers.py`), which still names them on this module.
    Nothing under `src/` or `tests/` reads them here.  This goes with
    ROADMAP item 12, once the benchmark reads the two modules."""
    if name in _MOVED:
        from importlib import import_module

        return getattr(import_module(f".{_MOVED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

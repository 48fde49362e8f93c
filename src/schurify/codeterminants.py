"""Codeterminant basis of T^A_a(n, d), straightening, and the induced
quasi-hereditary structure.

A codeterminant B^bold_{S,T} = X_S * Y_T is the product of the orbit element
read off an X-tableau against the row word of its shape and the mirror-image
Y-tableau element.  Standard codeterminants (dominant shape, both tableaux
standard) form a Z-basis when n >= d; two independent straightening backends
express arbitrary elements in that basis:

  * a recursive rewrite that locates the minimal column violation, builds the
    auxiliary shape from the E/F row partitions, multiplies through the
    connecting idempotent element and recurses along the triangular order
    (shape lex up, then leading words down);
  * an exact blocked linear solve against the codeterminant expansion matrix,
    blocked by the conserved (left profile, right profile, degree, parity).
    A block is built from its columns alone: the standard codeterminants
    whose tableau shares add up to its key, expanded on letter indices by
    the product kernel, and as rows the orbits those expansions reach,
    labelled by their words of letter indices, each checked by one sum over
    a per-letter table to be an orbit of T carrying the key.
    The unimodularity check walks the blocks in one pass, in sorted key
    order: for each X weight, one pass over its X tableau shares and their
    shapes' Y shares files every column under its key (`CodetBasis._filed`,
    whose keys are `CodetBasis.block_keys`).  A block is taken as its column
    expansions, its rows checked as a built block's are
    (`CodetBasis._checked_rows`), and eliminated as its transpose
    (`exactla.unit_determinant`); only a block that fails is built as an
    `exactla.Block`, for its failure text or signed determinant.  The first
    solve that meets a block builds it with what a solve needs and keeps
    it.  Neither the check nor a solve lists orbits.

A tableau enters the walk, the heredity check and the Gram matrices as the
index word of X_S or Y_T and its sign, read straight off the tableau
(`CodetBasis.index_word`) once per tableau; the heredity check reads them
off the walk's shares (`CodetBasis.tableau_shares`), and the basis keeps no
Element per tableau.  The standard tableaux and their shares of the block
keys, (weight, degree, parity), come from one table on the algebra's context
(`TriContext.standard_tableaux`), each tableau's share read in one pass over
its letters; the blocks, the heredity check, the Gram matrices and the
tableau characters all read that table, and a truncation keeps the
tableaux whose letters survive it (`CodetBasis._tableau_blocks`).
The walk's tableau shares take their kernel factors from the algebra's
tables (`SchurAlgebra.lefts`, `.rights`), kept for its life;
`heredity_of_T` keeps the factors it makes beyond those for its own call,
and `gram_blocks` for one call or one row (see `schur` and `gram_blocks`
for why).  The heredity check's products go through the product kernel and
its solves take index words.  A Gram matrix multiplies only the pairs of
degree 0, the only ones that can reach the unit codeterminant's block, and
reads each entry through one dual row of that block (`Block.dual_row`),
with no solve per product.  A codeterminant key is made only for a solve's
result or a failure message, and a `TriWord` only at the boundary: an
Element given to `CodetBasis.solve` and an orbit that a witness or an error
names.

All expansions are integral; any non-integral coefficient aborts loudly.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice
from operator import mul
from typing import NamedTuple

from .base_algebra import SIDES, X_SIDE, Y_SIDE, Side
from .exactla import Block, unit_determinant
from .partitions import comp_row_word, gen_multipartitions, pad, trim
from .schur import Element, SchurAlgebra
from .tableaux import (
    Tableau,
    column_violation,
    is_standard,
    row_standardize,
    word as tableau_word,
)
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


def x_element(T: SchurAlgebra, S: Tableau) -> Element:
    return side_element(T, S, X_SIDE)


def y_element(T: SchurAlgebra, Tb: Tableau) -> Element:
    return side_element(T, Tb, Y_SIDE)


def codet_element(T: SchurAlgebra, S: Tableau, Tb: Tableau) -> Element:
    return T.mul(x_element(T, S), y_element(T, Tb))


def _leading_word(T: SchurAlgebra, tab: Tableau, side: Side):
    """Row-major sequence of alphabet keys; the triangular order compares
    these lexicographically."""
    alphabet = T.ctx.alphabet(side)
    return tuple(alphabet.key(entry) for entry in tableau_word(tab))


def _decompose_one_sided(T: SchurAlgebra, bold, elt: Element, side: Side) -> dict[Tableau, int]:
    """Write an element supported on X-type (or Y-type) orbits with shape word
    `bold` as a combination of row-standard tableau elements."""
    ctx = T.ctx
    pos_of = {i: k for k, i in enumerate(T.data.labels)}
    out: dict[Tableau, int] = {}
    for orbit, c in elt.items():
        comps: list[list[list]] = [[[] for _ in comp] for comp in bold]
        for (b, r, s) in orbit:
            i, *xy = ctx.pair_of[b]
            own, other = side.orient(*xy)
            if other != T.data.e.get(i):
                raise AssertionError(f"orbit {orbit} is not {side.name}-type at {b}")
            l, m = side.orient(r, s)
            comps[pos_of[i]][m - 1].append((l, own))
        if any(len(row) != bold[k][m] for k, comp in enumerate(comps)
               for m, row in enumerate(comp)):
            raise AssertionError(f"orbit {orbit} does not fill shape {bold}")
        tab = row_standardize(
            tuple(tuple(tuple(row) for row in comp) for comp in comps), ctx.alphabet(side)
        )
        single = side_element(T, tab, side)
        if single != {orbit: 1} and single != {orbit: -1}:
            raise AssertionError("one-sided decomposition lost an orbit")
        out[tab] = out.get(tab, 0) + c * single[orbit]
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# eta -> single codeterminant (constructive)
# ---------------------------------------------------------------------------

def orbit_to_codet(T: SchurAlgebra, orbit: TriWord) -> tuple[CodetKey, int]:
    """Any basis orbit is +-1 times a dominant codeterminant with row-standard
    tableaux; returns ((shape, S, T), sign).  Needs n >= d."""
    if T.n < T.d:
        raise ValueError("requires n >= d")
    ctx = T.ctx
    pos_of = {i: k for k, i in enumerate(T.data.labels)}
    groups: dict[int, dict[tuple, int]] = {pos_of[i]: {} for i in T.data.labels}
    for (b, r, s) in orbit:
        i, x, y = ctx.pair_of[b]
        key = (x, y, r, s)
        groups[pos_of[i]][key] = groups[pos_of[i]].get(key, 0) + 1
    shape, S_rows, T_rows = [], [], []
    for pos in range(len(T.data.labels)):
        rows: list[tuple[int, tuple, tuple]] = []  # (width, S row fill, T row fill)
        for (x, y, r, s), m in sorted(groups[pos].items()):
            even = T.alg.parity[x] == 0 and T.alg.parity[y] == 0
            widths = [m] if even else [1] * m
            for w in widths:
                rows.append((w, tuple((r, x) for _ in range(w)),
                             tuple((s, y) for _ in range(w))))
        rows.sort(key=lambda t: -t[0])  # dominant shape
        shape.append(tuple(w for (w, _a, _b) in rows))
        S_rows.append(tuple(a for (_w, a, _b) in rows))
        T_rows.append(tuple(b for (_w, _a, b) in rows))
    bold = tuple(shape)
    S = tuple(S_rows)
    Tb = tuple(T_rows)
    prod = codet_element(T, S, Tb)
    if prod not in ({orbit: 1}, {orbit: -1}):
        raise AssertionError(f"constructed codeterminant is not +-{orbit}: {prod}")
    return (bold, S, Tb), prod[orbit]


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


@dataclass
class CodetBasis:
    """Standard codeterminants of T, their expansions, and the blocked change
    of basis from the orbit basis."""

    T: SchurAlgebra
    _factored: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # below n = d the standard codeterminants stop spanning; only the
        # plain algebra operations remain available
        if self.T.n < self.T.d:
            raise ValueError("standard codeterminant basis requires n >= d")

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

    def std(self, side: Side) -> dict:
        return side.pick(self.std_x, self.std_y)

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

    def index_expansion(self, key: CodetKey) -> dict[tuple[int, ...], int]:
        """X_S * Y_T keyed by words of letter indices, from the factors in
        the algebra's tables, which the walk's shares hold too."""
        bold, S, Tb = key
        T = self.T
        return self._expand(_Share(S, bold, *self.kernel_factor(S, X_SIDE, T.lefts.__getitem__)),
                            _Share(Tb, bold, *self.kernel_factor(Tb, Y_SIDE, T.rights.__getitem__)))

    def expansion(self, key: CodetKey) -> Element:
        """X_S * Y_T as an Element."""
        return self.T.element(self.index_expansion(key))

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
        tableaux: the context's table (`TriContext.standard_tableaux`), kept
        to the tableaux whose letters all survive a truncation."""
        table, keep = self.T.ctx.standard_tableaux, self.T.keep_basis

        def kept(tabs: tuple) -> tuple:
            if keep is None:
                return tabs
            return tuple([(tab, share) for tab, share in tabs
                          if all(z in keep for (_l, z) in tableau_word(tab))])

        return {bold: tuple(kept(table[side, bold]) for side in SIDES) for bold in self.shapes}

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

    def _filed(self) -> Iterator[tuple[tuple, list]]:
        """Each block key with codeterminant columns, once and in sorted
        order, with its columns as [(share of S, [shares of T])], in the
        order of `keys`.  Each shape's Y shares are grouped by their share
        of the block keys, and one pass per X weight alpha, over its X
        shares and each one's shape's groups, files every column under its
        key (alpha, beta, degree, parity); nothing is kept past the weight
        (at most 990 keys of 249 944 at zigzag:1 n=d=4)."""
        xs_of, ys_of = self._shares
        groups = [[(share, ys_of[share[0]][k, share[1], share[2]])
                   for share in dict.fromkeys(s for _tab, s in y_tabs)]
                  for k, (_x_tabs, y_tabs) in enumerate(self._tableau_blocks.values())]
        for alpha in self._weights[0]:
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
        """B^k for B = d + 1 and k = 0, ..., 2m + 2, m the profile slots a
        side: the digits of `_letter_codes`."""
        m = len(self.T.data.labels) * self.T.n
        return tuple((self.T.d + 1) ** k for k in range(2 * m + 3))

    @cached_property
    def _letter_codes(self) -> tuple[int, ...]:
        """Per letter index, its share of a row's block key packed into one
        int, in digits of base B = d + 1 for m profile slots a side: B^l for
        its left slot l, B^(m + r) for its right slot r, B^(2m) when it is
        no letter of T, B^(2m + 1) when it is odd, and its degree times
        B^(2m + 2).  A word of d letters counts at most d in each digit, so
        the sum of its codes spells exactly its two profiles, how many of
        its letters are outside T, how many are odd, and its degree."""
        T, digits = self.T, self._digits
        ctx, m = T.ctx, len(digits) // 2 - 1
        left, right = ctx.slots
        return tuple(digits[left[i]] + digits[m + right[i]] + (not T._has_index[i]) * digits[2 * m]
                     + ctx.odd[i] * digits[2 * m + 1] + ctx.degree[i] * digits[2 * m + 2]
                     for i in range(len(ctx.letters)))

    def _row_codes(self, key) -> tuple[int, frozenset[int]]:
        """The sums of `_letter_codes` over the orbits of T with block key
        `key`, as a part and the set of what may be added to it: its
        profiles and degree, no letter outside T, and any number of odd
        letters up to d of its parity."""
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
        each checked to be an orbit of T (`SchurAlgebra._has_index`) with
        block key `key` by one sum over the per-letter table
        `_letter_codes`.  When they are fewer than the columns, an orbit
        under `key` that no column reaches is named; only then are the
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
                    if not all(map(self.T._has_index.__getitem__, w)):
                        raise AssertionError(f"codeterminant block {key}: column {col} reaches "
                                             f"{ctx.word(w)}, which is not an orbit of T")
                    raise AssertionError(f"codeterminant block {key}: column {col} "
                                         f"reaches {ctx.word(w)} of block {ctx.block_key(w)}")

    @property
    def block_keys(self) -> Iterator[tuple]:
        """The keys of the blocks with codeterminant columns, each once, in
        sorted order: those of the walk's pass (`_filed`), kept nowhere."""
        return (key for key, _cols in self._filed())

    def factor(self, key, solver: bool = False) -> Block:
        """The block of `key`, built by `_block`.  With `solver`, it has its
        columns as codeterminant keys and what a solve needs, and it is kept
        for later solves: `_factored` holds only such blocks.  Without, a
        kept block is reused, and a block built afresh is not kept.  A key
        with no columns gets an empty block."""
        blk = self._factored.get(key)
        if blk is None:
            rows, cols, expansions = self._block(key)
            labels = [(x.bold, x.tab, y.tab) for x, y in cols] if solver else None
            blk = Block("codeterminant block", key, rows, expansions, labels)
            if solver:
                self._factored[key] = blk
        return blk

    def _walk(self):
        """(key, determinant, order) of each block with columns, in the
        sorted order of `block_keys`: one pass (`_filed`) that keeps no key
        and no block.  A block is taken as its column expansions (`_expand`),
        whose rows `_checked_rows` checks, raising a stray or missing row.
        A square block is eliminated as the rows of its transpose
        (`exactla.unit_determinant`) and, when unimodular, yielded with
        determinant 1, its sign not computed; any other is built as the
        `exactla.Block` of `factor`, with the same rows and columns, which
        raises when it is not square or singular, or gives its signed
        determinant."""
        expand = self._expand
        for key, filed in self._filed():
            cols = [(x, y) for x, ys in filed for y in ys]
            expansions = [expand(x, y) for x, y in cols]
            reached = self._checked_rows(key, cols, expansions)
            if len(reached) == len(cols) and unit_determinant(expansions):
                yield key, 1, len(cols)
            else:
                blk = Block("codeterminant block", key, sorted(reached, key=run_key), expansions)
                yield key, blk.det, blk.size

    def non_unimodular_block(self) -> tuple | None:
        """The least block key whose determinant is not +-1, with that
        determinant; None when there is none.  Axiom (a) of `heredity_of_T`
        reads it; `_walk` takes the blocks in sorted order up to that one."""
        return next(((key, det) for key, det, _size in self._walk() if abs(det) != 1), None)

    def unimodular(self) -> bool:
        """Whether every block with columns has determinant +-1 and those
        blocks hold every orbit, so that none lies in a block of no columns.
        One `_walk` gives both the determinants and the orders, keeping no
        block and no key; the tests and the layer benchmark read it."""
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
            blk = self.factor(key, solver=True)
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
# recursive straightening
# ---------------------------------------------------------------------------

class Straightener:
    """Rewrites codeterminants into the standard basis constructively."""

    def __init__(self, T: SchurAlgebra):
        if T.n < T.d:
            raise ValueError("requires n >= d")
        self.T = T
        self._memo: dict[CodetKey, dict[CodetKey, int]] = {}
        self._in_progress: set[CodetKey] = set()

    # -- public ------------------------------------------------------------
    def straighten_element(self, x: Element) -> dict[CodetKey, int]:
        out: dict[CodetKey, int] = {}
        for orbit, c in x.items():
            key, sign = orbit_to_codet(self.T, orbit)
            for ck, v in self.straighten_codet(key).items():
                out[ck] = out.get(ck, 0) + c * sign * v
        return {k: v for k, v in out.items() if v}

    def straighten_codet(self, key: CodetKey) -> dict[CodetKey, int]:
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            raise RuntimeError(f"straightening cycle at {key}")
        self._in_progress.add(key)
        try:
            result = self._straighten(key)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    # -- internals ---------------------------------------------------------
    def _straighten(self, key: CodetKey) -> dict[CodetKey, int]:
        T = self.T
        bold, S, Tb = key
        key2, sign = self._dominantize(key)
        if key2 != key:
            return {ck: sign * v for ck, v in self.straighten_codet(key2).items()}
        for side in SIDES:
            if not is_standard(side.pick(S, Tb), T.ctx.alphabet(side)):
                return self._one_step(key, side)
        return {key: 1}

    def _dominantize(self, key: CodetKey) -> tuple[CodetKey, int]:
        """Sort each shape component into a partition, permuting tableau rows
        along; the sign is pinned by evaluating both products."""
        bold, S, Tb = key
        new_bold, new_S, new_T = [], [], []
        changed = False
        for comp, Sc, Tc in zip(bold, S, Tb):
            order = sorted(range(len(comp)), key=lambda m: -comp[m])
            if order != list(range(len(comp))):
                changed = True
            new_bold.append(tuple(comp[m] for m in order))
            new_S.append(tuple(Sc[m] for m in order))
            new_T.append(tuple(Tc[m] for m in order))
        if not changed:
            return key, 1
        key2 = (tuple(new_bold), tuple(new_S), tuple(new_T))
        e1 = codet_element(self.T, S, Tb)
        e2 = codet_element(self.T, *key2[1:])
        sign = self._proportionality_sign(e1, e2)
        return key2, sign

    @staticmethod
    def _proportionality_sign(e1: Element, e2: Element) -> int:
        if set(e1) != set(e2) or not e1:
            raise AssertionError("elements not proportional")
        o = next(iter(e1))
        sign = 1 if e1[o] == e2[o] else -1
        if any(c != sign * e2[k] for k, c in e1.items()):
            raise AssertionError("elements not related by a global sign")
        return sign

    def _one_step(self, key: CodetKey, side: Side) -> dict[CodetKey, int]:
        """Apply the column-violation rewrite to the tableau on the given side
        and recurse; the tableau on the other side rides along."""
        T = self.T
        bold = key[0]
        tab, other_tab = side.orient(*key[1:])
        alphabet = T.ctx.alphabet(side)
        pos, viol = next((k, v) for k, comp in enumerate(tab)
                         if (v := column_violation(comp, alphabet)))
        lam = self._aux_shape(bold[pos], tab[pos], alphabet, viol)
        lam_bold = tuple(lam if k == pos else c for k, c in enumerate(bold))
        mid = self._mid_element(bold, lam_bold, side)

        aux = T.eta(_word(tab, [m for comp in lam_bold for m in comp_row_word(comp)], side))
        if not aux:
            raise AssertionError(f"auxiliary {side.name} element vanished")
        lead = _decompose_one_sided(T, bold, T.mul(*side.orient(aux, mid)), side)
        s = lead.pop(tab, 0)
        if s not in (1, -1):
            raise AssertionError("leading straightening coefficient not a sign")
        leading = _leading_word(T, tab, side)
        out: dict[CodetKey, int] = {}
        Z = T.mul(*side.orient(mid, side_element(T, other_tab, side.other)))
        for other2, c in _decompose_one_sided(T, lam_bold, Z, side.other).items():
            for tab2, c2 in _decompose_one_sided(T, lam_bold, aux, side).items():
                sub = self.straighten_codet((lam_bold, *side.orient(tab2, other2)))
                for ck, v in sub.items():
                    out[ck] = out.get(ck, 0) + s * c * c2 * v
        for tab2, c in lead.items():
            if not _leading_word(T, tab2, side) < leading:
                raise AssertionError("straightening not triangular on leading words")
            sub = self.straighten_codet((bold, *side.orient(tab2, other_tab)))
            for ck, v in sub.items():
                out[ck] = out.get(ck, 0) - s * c * v
        return {k: v for k, v in out.items() if v}

    def _aux_shape(self, mu, comp, alphabet, viol):
        """The auxiliary composition from the minimal column violation `viol`
        (1-based row and column) of one component, via the E/F row
        partitions."""
        n = self.T.n
        a, b = viol
        mu_full = list(mu) + [0] * (n - len(mu))
        E: dict[int, list[int]] = {}
        F: dict[int, list[int]] = {}
        for t in range(1, n + 1):
            cells = list(range(1, mu_full[t - 1] + 1))
            if t < a:
                E[t], F[t] = cells, []
            elif t == a:
                E[t] = [s for s in cells if s < b]
                F[t] = [s for s in cells if s >= b]
            else:
                E[t] = [
                    s for s in cells
                    if all(alphabet.breaks_column(comp[t - 2][u - 1], comp[t - 1][s - 1])
                           for u in F[t - 1])
                ]
                F[t] = [s for s in cells if s not in E[t]]
        e = {t: len(E[t]) for t in range(1, n + 1)}
        f = {t: len(F[t]) for t in range(1, n + 1)}
        e[n + 1] = 0
        f[0] = 0
        lam = []
        for t in range(1, n + 1):
            if t < a:
                lam.append(mu_full[t - 1])
            elif b == 1:
                lam.append(mu_full[a - 1] + e[a + 1] if t == a else e[t + 1] + f[t])
            else:
                lam.append(e[t] + f[t - 1])
        assert sum(lam) == sum(mu)
        assert tuple(sorted(lam, reverse=True)) > tuple(mu_full)
        return trim(tuple(lam)) if lam and lam[-1] == 0 else tuple(lam)

    def _mid_element(self, src_bold, dst_bold, side: Side) -> Element:
        """Connecting element: identity colors positionwise between the two
        shape row words.  For the X side the product runs dst -> src, for the
        Y side src -> dst."""
        T = self.T
        word = []
        for k, i in enumerate(T.data.labels):
            srows = comp_row_word(src_bold[k])
            drows = comp_row_word(dst_bold[k])
            assert len(srows) == len(drows)
            ei = T.data.e[i]
            for u, v in zip(drows, srows):
                word.append((ei, *side.orient(u, v)))
        elt = T.eta(tuple(word))
        assert elt
        return elt


# ---------------------------------------------------------------------------
# quasi-hereditary structure of T
# ---------------------------------------------------------------------------

@dataclass
class SchurHeredityReport:
    ok: bool
    failures: list[str]
    checked: list[str]


def heredity_of_T(T: SchurAlgebra, sample_b: int | None = None) -> SchurHeredityReport:
    """Verify the heredity axioms for the codeterminant structure on T.

    `sample_b` caps, per X/Y element, the number of weight-compatible basis
    orbits multiplied through in the span check: the first ones in the order
    of `T.orbits`, listed one weight at a time.  None checks all of them.
    """
    if T.n < T.d:
        raise ValueError("requires n >= d")
    cb = T.codet_basis
    failures: list[str] = []
    checked: list[str] = []

    # axiom (a): standard codeterminants are a unimodular basis
    count = sum(len(cb.std_x[bold]) * len(cb.std_y[bold]) for bold in cb.shapes)
    if count != T.rank:
        failures.append(f"axiom (a): {count} codeterminants vs rank {T.rank}")
    try:
        bad = cb.non_unimodular_block()
    except AssertionError as exc:
        failures.append(f"axiom (a): {exc}")
        return SchurHeredityReport(False, failures, checked)
    if bad is not None:
        # axiom (b) needs the integral solve, which a non-unimodular block breaks
        failures.append(f"axiom (a): change of basis not unimodular: "
                        f"block {bad[0]} has determinant {bad[1]}")
        return SchurHeredityReport(False, failures, checked)
    checked.append("axiom (a): codeterminant basis unimodular over Z")

    from .partitions import compare

    @cache
    def strictly_greater(mu, lam) -> bool:
        return compare(mu, lam) == "GT"

    # axiom (c): idempotent absorption against X and Y elements
    padded = {bold: tuple(tuple(c) + (0,) * (T.n - len(c)) for c in bold) for bold in cb.shapes}

    def name(side: Side) -> str:
        return f"{side.name}_{side.pick('S', 'T')}"

    # the products run on index words through the product kernel, each
    # factor one orbit as (left factor, right factor, coefficient, profiles
    # of its own word as sorted words of profile slots), 0 without the
    # kernel when the profiles do not meet.  A tableau's index word and sign
    # are read off its share of the walk (`CodetBasis.tableau_shares`).  A
    # word's factors come from the algebra's tables when they hold it, as
    # they hold each share's own, else are made and kept for axioms (c) and
    # (b) both, until it returns
    lefts = OnLookup(lambda w: T.lefts.get(w) or T.left_factor(w))
    rights = OnLookup(lambda w: T.rights.get(w) or T.right_factor(w))
    slots = T.ctx.slots
    shares = cb.tableau_shares()

    def factors(word, c) -> tuple:
        profiles = tuple(tuple(sorted(map(slot.__getitem__, word))) for slot in slots)
        return lefts[word], rights[word], c, profiles

    def times(a, b) -> dict:
        if a[3][1] != b[3][0]:
            return {}
        return T.product_terms(a[0], b[1], a[2] * b[2])

    index = T.ctx.index
    idem = {}
    for bold in cb.shapes:
        (orbit, c), = T.idempotent_bold(bold).items()
        idem[bold] = factors(tuple([index[lt] for lt in orbit]), c)
    ok_c = True
    for bold in cb.shapes:
        for side in SIDES:
            nm = name(side)
            # "X_S e", "e X_S" and "e_mu X_S" on the X side, mirrored on Y
            elt_e, e_elt, emu_elt = (" ".join(side.orient(a, b))
                                     for a, b in ((nm, "e"), ("e", nm), ("e_mu", nm)))
            initial = side.pick(*cb.initial_tableau_pair(bold))
            for tab, (weight, _deg, _par) in side.pick(*cb._tableau_blocks[bold]):
                share = side.pick(*shares)[tab]
                elt, terms = factors(share.factor[0], share.sign), {share.factor[0]: share.sign}
                witness = f"{side.pick('S', 'T')} = {tab}"
                if times(*side.orient(elt, idem[bold])) != terms:
                    ok_c = False
                    failures.append(f"axiom (c): {elt_e} != {nm} at {bold}: {witness}")
                want = terms if tab == initial else {}
                if times(*side.orient(idem[bold], elt)) != want:
                    ok_c = False
                    failures.append(f"axiom (c): {e_elt} wrong at {bold}: {witness}")
                for bold2 in cb.shapes:
                    want = terms if padded[bold2] == weight else {}
                    if times(*side.orient(idem[bold2], elt)) != want:
                        ok_c = False
                        failures.append(f"axiom (c): {emu_elt} not diagonal at {bold}: "
                                        f"{witness}, mu = {bold2}")
    if ok_c:
        checked.append("axiom (c): idempotent absorption")

    # axiom (b): products land in X (resp. Y) span modulo strictly greater shapes.
    # An orbit a meets X_S on its right profile and Y_T on its left profile;
    # a * X_S takes a as a left factor, Y_T * a as a right one.
    def meeting(key) -> list:
        side, weight = key
        factor = side.pick(lefts, rights)
        return [(orbit, factor[tuple([index[lt] for lt in orbit])])
                for orbit in islice(T.orbits_with_profile(side.pick(1, 0), weight), sample_b)]

    candidates = OnLookup(meeting)

    ok_b = True
    for bold in cb.shapes:
        for side in SIDES:
            other_initial = side.orient(*cb.initial_tableau_pair(bold))[1]
            for tab, (weight, _deg, _par) in side.pick(*cb._tableau_blocks[bold]):
                share = side.pick(*shares)[tab]
                factor = side.pick(rights, lefts)[share.factor[0]]
                for orbit, a in candidates[side, weight]:
                    prod = T.product_terms(*side.orient(a, factor), share.sign)
                    if not prod:
                        continue
                    for key in cb.solve_terms(prod):
                        mu, *pair = key
                        if strictly_greater(mu, bold):
                            continue
                        if mu != bold or side.orient(*pair)[1] != other_initial:
                            ok_b = False
                            failures.append(
                                f"axiom (b): {side.spell('a', name(side))} escapes the "
                                f"{side.name} span at {bold}: a = {orbit}, "
                                f"{side.pick('S', 'T')} = {tab}, codeterminant {key}"
                            )
    if ok_b:
        checked.append("axiom (b): X/Y spans modulo higher shape ideals")

    return SchurHeredityReport(not failures, failures, checked)


# ---------------------------------------------------------------------------
# Gram matrices of the standard modules of T
# ---------------------------------------------------------------------------

def gram_blocks(T: SchurAlgebra, bold) -> dict[tuple, list[list[int]]]:
    """The Gram matrix of the standard module of shape `bold`, the
    coefficient of e_bold in Y_T X_S, cut into its homogeneous blocks.

    A row is a standard X tableau S, keyed by its (weight, degree, parity mod
    2); its columns are the standard Y tableaux of that weight, degree minus
    the row's and the same parity, in the order of `std_y`.  Only those
    pairs are multiplied, each once by `CodetBasis.pairing`.  The product is
    graded, so Y_T X_S is homogeneous of degree deg T + deg S and parity
    par T + par S; and its profiles are the padded shape on both sides,
    through T and S of equal weight.  So a pair of another weight, degree or
    parity cannot reach the unit codeterminant's block (padded shape, padded
    shape, 0, 0), and the entries outside the blocks are zero.

    The coefficient at the unit codeterminant (`unit_key`) is read through
    one dual row: the unit block is factored once as a solver block
    (`CodetBasis.factor`), and `Block.dual_row` gives the coefficient as
    integer numerators over its determinant on the block's rows.  Each
    entry is a dot product of a pairing with that row, divided exactly
    (`Block.quotient`).  A word of a pairing outside the unit block raises
    AssertionError naming the pair; so does a word with the block's key that
    is not one of its rows.

    Each Y_T is made a left factor once per call, when a row first meets its
    (weight, degree, parity), and each X_S a right factor for its own row,
    and then dropped: kept in the algebra's tables, they raised the
    tracemalloc peak of `decomp` on zigzag:2 n=d=3 from 6.14 to 7.14 MB."""
    cb, ctx = T.codet_basis, T.ctx
    xs, ys = cb._tableau_blocks[bold]
    unit_key = (bold, *cb.initial_tableau_pair(bold))
    padded = tuple(pad(c, T.n) for c in bold)
    key = (padded, padded, 0, 0)
    blk = cb.factor(key, solver=True)
    dual = blk.dual_row(unit_key)
    of_share: dict = {}
    for Tb, share in ys:
        of_share.setdefault(share, []).append(Tb)
    lefts = OnLookup(lambda share: [(Tb, cb.kernel_factor(Tb, Y_SIDE, T.left_factor))
                                    for Tb in of_share.get(share, ())])
    blocks: dict = {}
    for S, (weight, deg, par) in xs:
        row = []
        columns = lefts[weight, -deg, par]
        x = cb.kernel_factor(S, X_SIDE, T.right_factor) if columns else None
        for Tb, y in columns:
            num = 0
            for w, c in cb.pairing(y, x).items():
                a = dual.get(w)
                if a is None:
                    if ctx.block_key(w) == key:
                        raise AssertionError(f"{ctx.word(w)} is not a row of "
                                             f"codeterminant block {key}")
                    raise AssertionError(f"Gram pairing not homogeneous at {bold}: "
                                         f"S = {S}, T = {Tb}")
                num += a * c
            row.append(blk.quotient(num, unit_key))
        blocks.setdefault((weight, deg, par), []).append(row)
    return blocks


# ---------------------------------------------------------------------------
# cellular basis for involution-stable truncations
# ---------------------------------------------------------------------------

def cellular_basis(T: SchurAlgebra, colors) -> dict[tuple, Element]:
    """C^bold_{S,T} = X_S * tau(X_T) for the truncation by the initial
    idempotents in `colors`, assuming the truncating element is fixed by the
    standard anti-involution.  Keys are (shape, S, T) with S, T standard over
    the one-sided truncated X alphabets; the factors live in the ambient
    algebra but every product lands in the truncation."""
    if T.tau is None:
        raise ValueError("no anti-involution on the base algebra")
    colors = frozenset(colors)
    absorbers = T.ctx.x_alphabet.absorbers

    def left_kept(z: str) -> bool:
        return absorbers.get(z) in colors

    cb = T.codet_basis
    out: dict[tuple, Element] = {}
    for bold in cb.shapes:
        tabs = [
            S for S in cb.std_x[bold]
            if all(left_kept(z) for (_l, z) in tableau_word(S))
        ]
        xs = [side_element(T, S, X_SIDE) for S in tabs]
        ys = [T.involution(x) for x in xs]
        for S, x in zip(tabs, xs):
            for T2, y in zip(tabs, ys):
                out[(bold, S, T2)] = T.mul(x, y)
    return out

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
    the product kernel without the product cache, from the kernel factor
    each tableau's share keeps, and as rows the orbits those expansions
    reach, labelled by their words of letter indices, each checked by one
    sum over a per-letter table to be an orbit of T carrying the key.
    The unimodularity check walks the blocks (each an `exactla.Block`) in one
    pass that keeps only the running block's determinant and order; the
    first solve that meets a block builds it again with what a solve needs
    and keeps it.  Neither the check nor a solve lists orbits.

The heredity check runs on index words too: its products go through the
product kernel and its solves take index words.  A codeterminant key is made
only for a solve's result or a failure message, and a `TriWord` only at the
boundary: an Element given to `CodetBasis.solve` and an orbit that a witness
or an error names.

All expansions are integral; any non-integral coefficient aborts loudly.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice
from operator import mul
from typing import NamedTuple

from .base_algebra import SIDES, X_SIDE, Y_SIDE, Side
from .exactla import Block
from .partitions import comp_row_word, gen_multipartitions, trim
from .schur import Element, SchurAlgebra
from .tableaux import (
    Tableau,
    column_violation,
    enumerate_tableaux,
    is_standard,
    row_standardize,
    tableau_weight,
    word as tableau_word,
)
from .triples import TriWord, run_key

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


def side_element(T: SchurAlgebra, tab: Tableau, side: Side) -> Element:
    """X_S or Y_T: the orbit element of a tableau against its own rows."""
    rows = [m for comp in tab for m, row in enumerate(comp, start=1) for _ in row]
    return T.eta(_word(tab, rows, side))


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


class _OnLookup(dict):
    """A dict that makes the value of a missing key by `make(key)` and
    keeps it."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass
class CodetBasis:
    """Standard codeterminants of T, their expansions, and the blocked change
    of basis from the orbit basis."""

    T: SchurAlgebra
    _side_elements: dict = field(default_factory=dict, init=False, repr=False)
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
        return {bold: self._std(bold, X_SIDE) for bold in self.shapes}

    @cached_property
    def std_y(self) -> dict:
        return {bold: self._std(bold, Y_SIDE) for bold in self.shapes}

    def std(self, side: Side) -> dict:
        return side.pick(self.std_x, self.std_y)

    def _std(self, bold, side: Side) -> list[Tableau]:
        tabs = enumerate_tableaux(bold, self.T.ctx.alphabet(side), "STD")
        if self.T.keep_basis is not None:
            keep = self.T.keep_basis
            tabs = [t for t in tabs if all(z in keep for (_l, z) in tableau_word(t))]
        return tabs

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

    def side_element(self, tab: Tableau, side: Side) -> Element:
        """X_S or Y_T, made once per tableau; callers must not mutate it."""
        key = (side.name, tab)
        if key not in self._side_elements:
            self._side_elements[key] = side_element(self.T, tab, side)
        return self._side_elements[key]

    def index_word(self, tab: Tableau, side: Side) -> tuple[tuple[int, ...], int]:
        """X_S or Y_T as the index word of its one orbit, and its sign."""
        (orbit, sign), = self.side_element(tab, side).items()
        return tuple(map(self.T.ctx.index.__getitem__, orbit)), sign

    def kernel_factor(self, tab: Tableau, side: Side, left: bool) -> tuple:
        """X_S or Y_T made afresh as the left factor of the product kernel
        (`left`) or as the right one, and its sign."""
        word, sign = self.index_word(tab, side)
        return (self.T.left_factor if left else self.T.right_factor)(word), sign

    def _expand(self, x: _Share, y: _Share) -> dict[tuple[int, ...], int]:
        """X_S * Y_T keyed by words of letter indices, from the shares of S
        and T, multiplied without the product cache: an expansion is used
        once, to build its column."""
        return self.T.product_terms(x.factor, y.factor, x.sign * y.sign)

    def index_expansion(self, key: CodetKey) -> dict[tuple[int, ...], int]:
        """X_S * Y_T keyed by words of letter indices, from factors made
        afresh."""
        bold, S, Tb = key
        return self._expand(_Share(S, bold, *self.kernel_factor(S, X_SIDE, True)),
                            _Share(Tb, bold, *self.kernel_factor(Tb, Y_SIDE, False)))

    def expansion(self, key: CodetKey) -> Element:
        """X_S * Y_T as an Element."""
        return self.T.element(self.index_expansion(key))

    def pairing(self, y: tuple, x: tuple) -> dict[tuple[int, ...], int]:
        """Y_T * X_S keyed by words of letter indices, from Y_T as a left
        factor and X_S as a right one (`kernel_factor`), multiplied without
        the product cache: a Gram matrix reads each such product once."""
        (left, sy), (right, sx) = y, x
        return self.T.product_terms(left, right, sy * sx)

    # -- blocked change of basis ------------------------------------------
    def _tableau_block(self, tab: Tableau, side: Side) -> tuple:
        """One tableau's share of a block key: (weight, degree, parity)."""
        zs = [z for (_l, z) in tableau_word(tab)]
        return (tableau_weight(tab, self.T.ctx.alphabet(side)),
                sum(self.T.alg.degree[z] for z in zs), sum(self.T.alg.parity[z] for z in zs))

    @cached_property
    def _tableau_blocks(self) -> dict:
        """shape -> ([(S, its share)], [(T, its share)]) of the block keys, in
        the order of the standard tableaux."""
        return {bold: tuple([(tab, self._tableau_block(tab, side)) for tab in self.std(side)[bold]]
                            for side in SIDES)
                for bold in self.shapes}

    @cached_property
    def _shares(self) -> tuple[dict, dict]:
        """The standard tableaux indexed by their share of the block keys,
        each with its kernel factor (`_Share`), made on the first lookup of
        its weight: weight -> [(shape index, degree, parity mod 2, share of
        S)] on the X side, in the order of `keys`, and weight -> (shape
        index, degree, parity mod 2) -> [share of T] on the Y side."""
        entries: tuple[dict, dict] = ({}, {})
        for k, (bold, shares) in enumerate(self._tableau_blocks.items()):
            for by_weight, tabs in zip(entries, shares):
                for tab, (weight, deg, par) in tabs:
                    by_weight.setdefault(weight, []).append((k, deg, par % 2, tab, bold))

        def xs(weight) -> list:
            return [(k, deg, par, _Share(tab, bold, *self.kernel_factor(tab, X_SIDE, True)))
                    for k, deg, par, tab, bold in entries[0].get(weight, ())]

        def ys(weight) -> dict:
            out: dict = {}
            for k, deg, par, tab, bold in entries[1].get(weight, ()):
                share = _Share(tab, bold, *self.kernel_factor(tab, Y_SIDE, False))
                out.setdefault((k, deg, par), []).append(share)
            return out

        return _OnLookup(xs), _OnLookup(ys)

    def share_factors(self, side: Side) -> dict:
        """index word -> the kernel factor the shares keep of the standard
        tableaux of `side`: each X_S as a left factor, each Y_T as a right
        one.  Looks up every weight of `side` in `_shares`."""
        k = side.pick(0, 1)
        weights = dict.fromkeys(weight for shares in self._tableau_blocks.values()
                                for _tab, (weight, _deg, _par) in shares[k])
        xs_of, ys_of = self._shares
        if k == 0:
            made = [entry[-1] for w in weights for entry in xs_of[w]]
        else:
            made = [share for w in weights for group in ys_of[w].values() for share in group]
        return {share.factor[0]: share.factor for share in made}

    def _columns(self, key) -> list[tuple[_Share, _Share]]:
        """The standard codeterminants whose tableau shares add up to the
        block key (alpha, beta, degree, parity), as pairs of shares, in the
        order of `keys`."""
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
        return _OnLookup(lambda profile: sum(map(mul, [c for comp in profile for c in comp], digits)))

    @cached_property
    def _odd_codes(self) -> tuple[frozenset[int], frozenset[int]]:
        """Per parity, the codes of the numbers of odd letters up to d of
        that parity."""
        odd = self._digits[-2]
        return tuple(frozenset(k * odd for k in range(par, self.T.d + 1, 2)) for par in (0, 1))

    def _block(self, key) -> tuple[list, list, list]:
        """A block's rows, its columns and their expansions over the rows,
        from the columns alone.  The columns are pairs of tableau shares
        (`_columns`), expanded on index words by `_expand`.  The rows are the
        index words those expansions reach, each checked to be an orbit of T
        (`SchurAlgebra._has_index`) with block key `key` by one sum over the
        per-letter table `_letter_codes`, and sorted by `run_key`, the order
        of `T.orbits`.  When they are fewer than the columns, an orbit
        under `key` that no column reaches is named; only then are the
        block's orbits listed."""
        T = self.T
        cols = self._columns(key)
        expand = self._expand
        expansions = [expand(x, y) for x, y in cols]
        reached: set = set()
        for v in expansions:
            reached.update(v)
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
        return sorted(reached, key=run_key), cols, expansions

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

    @cached_property
    def block_keys(self) -> dict:
        """The keys of the blocks with codeterminant columns, in the order in
        which `keys` first meets them, listed from the tableau shares alone."""
        keys: dict = {}
        for xs, ys in self._tableau_blocks.values():
            y_shares = dict.fromkeys(share for _Tb, share in ys)
            for (alpha, dx, px) in dict.fromkeys(share for _S, share in xs):
                for (beta, dy, py) in y_shares:
                    keys[(alpha, beta, dx + dy, (px + py) % 2)] = None
        return keys

    def factor(self, key, solver: bool = False) -> Block:
        """The block of `key`, built by `_block`.  With `solver`, it has its
        columns as codeterminant keys and what a solve needs, and it is kept
        for later solves: `_factored` holds only such blocks.  Without, a
        kept block is reused, and a block built afresh is not kept.  A key
        outside `block_keys` gets an empty block."""
        blk = self._factored.get(key)
        if blk is None:
            rows, cols, expansions = self._block(key)
            labels = [(x.bold, x.tab, y.tab) for x, y in cols] if solver else None
            blk = Block("codeterminant block", key, rows, expansions, labels)
            if solver:
                self._factored[key] = blk
        return blk

    def _walk(self):
        """(key, determinant, order) of each block with columns, in the order
        of `block_keys`: one pass that keeps nothing per block, each built
        by `factor` and dropped, or a kept solver block reused."""
        for key in self.block_keys:
            blk = self.factor(key)
            yield key, blk.det, blk.size

    def non_unimodular_block(self) -> tuple | None:
        """The first block key whose determinant is not +-1, with that
        determinant; None when there is none.  Axiom (a) of `heredity_of_T`
        reads it; it walks the blocks up to that one (`_walk`)."""
        return next(((key, det) for key, det, _size in self._walk() if abs(det) != 1), None)

    def unimodular(self) -> bool:
        """Whether every block with columns has determinant +-1 and those
        blocks hold every orbit, so that none lies in a block of no columns.
        One `_walk` gives both the determinants and the orders; the tests
        and the layer benchmark read it."""
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
    # factor one orbit as (left factor, right factor, coefficient); a word's
    # factors are made on first use and kept for axioms (c) and (b) both,
    # starting from those the walk's tableau shares already hold
    lefts, rights = _OnLookup(T.left_factor), _OnLookup(T.right_factor)
    lefts.update(cb.share_factors(X_SIDE))
    rights.update(cb.share_factors(Y_SIDE))

    def factors(word, c) -> tuple:
        return lefts[word], rights[word], c

    def times(a, b) -> dict:
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
            for tab in cb.std(side)[bold]:
                word, sign = cb.index_word(tab, side)
                elt, terms = factors(word, sign), {word: sign}
                witness = f"{side.pick('S', 'T')} = {tab}"
                if times(*side.orient(elt, idem[bold])) != terms:
                    ok_c = False
                    failures.append(f"axiom (c): {elt_e} != {nm} at {bold}: {witness}")
                want = terms if tab == initial else {}
                if times(*side.orient(idem[bold], elt)) != want:
                    ok_c = False
                    failures.append(f"axiom (c): {e_elt} wrong at {bold}: {witness}")
                weight = tableau_weight(tab, T.ctx.alphabet(side))
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
    meeting: dict = {}

    def candidates(side: Side, weight) -> list:
        if (side, weight) not in meeting:
            orbits = T.orbits_with_profile(side.pick(1, 0), weight)
            factor = side.pick(lefts, rights)
            meeting[side, weight] = [(orbit, factor[tuple([index[lt] for lt in orbit])])
                                     for orbit in islice(orbits, sample_b)]
        return meeting[side, weight]

    ok_b = True
    for bold in cb.shapes:
        for side in SIDES:
            other_initial = side.orient(*cb.initial_tableau_pair(bold))[1]
            for tab in cb.std(side)[bold]:
                word, sign = cb.index_word(tab, side)
                own = side.pick(rights, lefts)[word]
                for orbit, a in candidates(side, tableau_weight(tab, T.ctx.alphabet(side))):
                    prod = T.product_terms(*side.orient(a, own), sign)
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
    the row's and the same parity, in the order of `std_y`.  Only pairs of
    equal weight are multiplied, each once by `CodetBasis.pairing`, without
    the product cache: the profiles of the others do not meet.  Among those,
    a nonzero entry outside the block is an error.  Each X_S is made a right
    factor for its own row and dropped after it."""
    cb = T.codet_basis
    xs, ys = cb._tableau_blocks[bold]
    unit_key = (bold, *cb.initial_tableau_pair(bold))
    ys_of: dict = {}
    for Tb, (weight, deg, par) in ys:
        ys_of.setdefault(weight, []).append((Tb, cb.kernel_factor(Tb, Y_SIDE, True), deg, par % 2))
    blocks: dict = {}
    for S, (weight, deg, par) in xs:
        row = []
        same_weight = ys_of.get(weight, ())
        x = cb.kernel_factor(S, X_SIDE, False) if same_weight else None
        for Tb, y, dy, py in same_weight:
            prod = cb.pairing(y, x)
            c = cb.solve_terms(prod).get(unit_key, 0) if prod else 0
            if dy == -deg and py == par % 2:
                row.append(c)
            elif c:
                raise AssertionError(f"Gram pairing not homogeneous at {bold}: "
                                     f"S = {S}, T = {Tb}")
        blocks.setdefault((weight, deg, par % 2), []).append(row)
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
        xs = [cb.side_element(S, X_SIDE) for S in tabs]
        ys = [T.involution(x) for x in xs]
        for S, x in zip(tabs, xs):
            for T2, y in zip(tabs, ys):
                out[(bold, S, T2)] = T.mul(x, y)
    return out

"""Triples (b, r, s), their S_d-orbits, signs and multiplicity factorials.

A letter is a triple (b, r, s) with b a basis label and r, s in [1, n].  Words
are tuples of letters; the symmetric group permutes places.  An orbit is
admissible when repeated letters occur only at even b (otherwise the
corresponding element vanishes).  The canonical representative of an orbit is
the word sorted under the fixed total order:

    (color of b under the REVERSED order on I, then s, then the position of
     the y-part of b in the Y(i) listing, then r, then the x-part position).

A letter's index is its place in that order (`TriContext.letters`).  Signs,
canonical words and multiplicity factorials are computed one way, on words
of indices: the sign of a word is the parity of the inversions among its odd
letters (`odd_sign`, which `sort_signed` and the product kernel read), and a
factorial is read off the runs of a sorted word (`run_factorial`).  The
per-index tables (profile slot on each side, degree, parity) give a word of
indices its block key (`block_key`), and a sorted word's runs give its place
among the orbits (`run_key`).  These
tables, the pair map both ways (`pair_of`, `label_of`), the letter products
(the kernel's flat `product_table`, each made by `letter_product`) and the
table of standard tableaux by side and shape (`standard_tableaux`) belong to
the context, which an algebra and its truncations share.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from .base_algebra import X_SIDE, Y_SIDE, BasedSuperalgebra, HeredityData, Side, strict_pairs
from .tableaux import Alphabet, Tableau, enumerate_tableaux, flat_share

TriLetter = tuple[str, int, int]
TriWord = tuple[TriLetter, ...]


class TriContext:
    """Per-algebra machinery for triple words over [1, n]."""

    def __init__(self, alg: BasedSuperalgebra, data: HeredityData, n: int):
        self.alg = alg
        self.data = data
        self.n = n

    @cached_property
    def _pairs(self) -> tuple[dict[str, tuple[int, str, str]], dict[tuple[int, str, str], str]]:
        return strict_pairs(self.alg, self.data)

    @cached_property
    def pair_of(self) -> dict[str, tuple[int, str, str]]:
        """Basis label b -> (i, x, y) with b = x * y (`strict_pairs`)."""
        return self._pairs[0]

    @cached_property
    def label_of(self) -> dict[tuple[int, str, str], str]:
        """(i, x, y) -> the basis label of x * y: `pair_of` inverted."""
        return self._pairs[1]

    @cached_property
    def x_alphabet(self) -> Alphabet:
        return Alphabet(self.alg, self.data, self.n, X_SIDE)

    @cached_property
    def y_alphabet(self) -> Alphabet:
        return Alphabet(self.alg, self.data, self.n, Y_SIDE)

    def alphabet(self, side: Side) -> Alphabet:
        return side.pick(self.x_alphabet, self.y_alphabet)

    @cached_property
    def strata(self) -> tuple[set[str], set[str], set[str]]:
        """(B_a, B_c, B_odd)."""
        Ba, Bc, B1 = set(), set(), set()
        for b, (_i, x, y) in self.pair_of.items():
            px, py = self.alg.parity[x], self.alg.parity[y]
            (Ba if (px, py) == (0, 0) else Bc if (px, py) == (1, 1) else B1).add(b)
        return Ba, Bc, B1

    @cached_property
    def _color_pos(self) -> dict[int, int]:
        return {i: k for k, i in enumerate(self.data.labels)}

    @cached_property
    def letter_key(self) -> dict[TriLetter, tuple]:
        out = {}
        for b, (i, x, y) in self.pair_of.items():
            xi = self.x_alphabet.listings[i].index(x)
            yi = self.y_alphabet.listings[i].index(y)
            for r in range(1, self.n + 1):
                for s in range(1, self.n + 1):
                    out[(b, r, s)] = (-self._color_pos[i], s, yi, r, xi)
        return out

    def is_odd(self, letter: TriLetter) -> bool:
        return self.alg.parity[letter[0]] == 1

    # -- letters as indices ------------------------------------------------
    @cached_property
    def letters(self) -> tuple[TriLetter, ...]:
        """Every letter in canonical order; a letter's index is its place
        here, so sorting indices sorts a word into its canonical order."""
        return tuple(sorted(self.letter_key, key=self.letter_key.get))

    @cached_property
    def index(self) -> dict[TriLetter, int]:
        return {lt: k for k, lt in enumerate(self.letters)}

    @cached_property
    def odd(self) -> tuple[bool, ...]:
        """Per letter index: whether the letter is odd."""
        return tuple(map(self.is_odd, self.letters))

    @cached_property
    def in_stratum(self) -> dict[str, tuple[bool, ...]]:
        """Per stratum 'a' or 'c': whether each letter index lies in it."""
        Ba, Bc, _ = self.strata
        return {"a": tuple(b in Ba for (b, _r, _s) in self.letters),
                "c": tuple(b in Bc for (b, _r, _s) in self.letters)}

    def letter_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """The product of letters i and j, made afresh:
        (b, r, s)(b', s, t) = sum_c coeff (c, r, t) over the basis product
        b b' = sum_c coeff c, as terms (index of (c, r, t), coeff); no terms
        when the letters do not meet or the basis product is 0.  It is kept
        only in `product_table`."""
        b, r, s = self.letters[i]
        b2, r2, t = self.letters[j]
        if s != r2:
            return ()
        index = self.index
        terms = tuple([(index[c, r, t], coeff) for c, coeff in self.alg.mul_basis(b, b2).items()])
        # the kernel pairs letters by profile slot, so a nonzero product must
        # join the right slot of its first letter to the left slot of its second
        ends, starts = self.slots[1][i], self.slots[0][j]
        if terms and ends != starts:
            raise ValueError(f"nonzero letter product {(b, r, s)} * {(b2, r2, t)} joins "
                             f"right profile slot {ends} to left profile slot {starts}")
        return terms

    @cached_property
    def product_table(self) -> list:
        """The one table of letter products: a flat list with the product of
        letters i and j at i * L + j for L letters, each made by
        `letter_product` on its first use by the product kernel
        (`fill_product`): None until then, () for 0, (k, c) for one term c
        times letter k, and (-1, terms) for several."""
        return [None] * len(self.letters) ** 2

    @cached_property
    def product_rows(self) -> tuple[int, ...]:
        """Per letter index i, i * L: where its row of `product_table`
        starts, one int shared by every left factor that reads the row."""
        size = len(self.letters)
        return tuple(range(0, size * size, size))

    def fill_product(self, at: int) -> tuple:
        """Fill place `at` of `product_table` by `letter_product`, which
        refuses a product across profile slots, and return its entry."""
        terms = self.letter_product(*divmod(at, len(self.letters)))
        entry = terms[0] if len(terms) == 1 else (-1, terms) if terms else ()
        self.product_table[at] = entry
        return entry

    def sort_signed(self, word) -> tuple[tuple[int, ...] | None, int]:
        """A word of letter indices sorted into canonical order, and the sign
        of the sort (`odd_sign`).  (None, 0) when an odd letter repeats (the
        word is inadmissible)."""
        sign = odd_sign(word, self.odd)
        return (tuple(sorted(word)), sign) if sign else (None, 0)

    def run_factorial(self, word: tuple[int, ...], stratum: str) -> int:
        """[word]! over a stratum, for a word of indices in canonical order:
        the product of the factorials of its runs of equal letters."""
        keep = self.in_stratum[stratum]
        out, run = 1, 0
        for k, i in enumerate(word):
            run = run + 1 if k and word[k - 1] == i else 1
            if run > 1 and keep[i]:
                out *= run
        return out

    def word(self, indices) -> TriWord:
        """The `TriWord` of a word of letter indices."""
        letters = self.letters
        return tuple([letters[i] for i in indices])

    # -- orbits ------------------------------------------------------------
    def is_admissible(self, word: TriWord) -> bool:
        index = self.index
        return self.sort_signed([index[w] for w in word])[0] is not None

    def canonicalize(self, word: TriWord) -> tuple[TriWord, int]:
        """Sort into the canonical representative; returns (rep, sign).  An
        inadmissible word, which repeats an odd letter, raises ValueError."""
        index = self.index
        rep, sign = self.sort_signed([index[w] for w in word])
        if rep is None:
            raise ValueError(f"repeated odd letter in {word}")
        return self.word(rep), sign

    # -- weight profiles and block keys -----------------------------------
    @cached_property
    def slots(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per side, left (0) and right (1): the profile slot of each letter
        index (`profile_slot`)."""
        return tuple(tuple(self.profile_slot(lt, side) for lt in self.letters) for side in (0, 1))

    @cached_property
    def degree(self) -> tuple[int, ...]:
        """Per letter index: the degree of its basis element."""
        return tuple(self.alg.degree[b] for (b, _r, _s) in self.letters)

    def block_key(self, word) -> tuple:
        """(alpha, beta, degree, parity mod 2) of a word of letter indices:
        its left and right idempotent weight profiles, each cut into one
        block of n per color, and the sums of its letters' degrees and
        parities, read off the per-index tables."""
        size = len(self.data.labels) * self.n
        alpha, beta = [0] * size, [0] * size
        left, right = self.slots
        degree, odd = self.degree, self.odd
        deg = par = 0
        for i in word:
            alpha[left[i]] += 1
            beta[right[i]] += 1
            deg += degree[i]
            par += odd[i]
        nested = self.nested
        return nested[tuple(alpha)], nested[tuple(beta)], deg, par % 2

    def weight_profiles(self, word: TriWord):
        """(alpha(b, r), beta(b, s)): left/right idempotent weight profiles."""
        index = self.index
        return self.block_key([index[lt] for lt in word])[:2]

    @cached_property
    def nested(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """A flattened profile -> it cut into one block of n per color, made
        on first lookup: block keys and tableau shares
        (`standard_tableaux`) are cut through it, so equal weights are one
        tuple."""
        n = self.n
        return OnLookup(lambda flat: tuple(flat[k:k + n] for k in range(0, len(flat), n)))

    @cached_property
    def standard_tableaux(self) -> dict[tuple[Side, tuple], tuple[tuple[Tableau, tuple], ...]]:
        """(side, shape with one component per color) -> the shape's standard
        tableaux over the side's alphabet, in the order of
        `enumerate_tableaux`, each with its share of the block keys (weight,
        degree, parity mod 2), made on first lookup: one pass over its
        letters (`flat_share`), the weight cut through `nested`, and equal
        shares one tuple.  The codeterminant blocks, the heredity check, the
        Gram matrices and the tableau characters all read the tableaux here,
        so an algebra and its truncations list each side and shape once."""
        nested, shared = self.nested, {}

        def make(key) -> tuple:
            alphabet = self.alphabet(key[0])
            out = []
            for tab in enumerate_tableaux(key[1], alphabet):
                flat, deg, par = flat_share(tab, alphabet)
                share = (nested[flat], deg, par)
                out.append((tab, shared.setdefault(share, share)))
            return tuple(out)

        return OnLookup(make)

    def profile_slot(self, letter: TriLetter, side: int) -> int:
        """Where a letter counts in the flattened left (side 0) or right
        (side 1) weight profile: its absorbing color's block of n, at r
        (left) or s (right)."""
        b = letter[0]
        absorber = (self.x_alphabet.absorbers, self.y_alphabet.absorbers)[side][b]
        return self._color_pos[absorber] * self.n + letter[1 + side] - 1

    # -- serialization -----------------------------------------------------
    @staticmethod
    def to_json(word: TriWord) -> list:
        return [{"b": b, "r": r, "s": s} for (b, r, s) in word]

    @staticmethod
    def from_json(obj: list) -> TriWord:
        return tuple((str(e["b"]), int(e["r"]), int(e["s"])) for e in obj)


def odd_sign(word, odd) -> int:
    """The sign of sorting a word of letter indices into canonical order:
    the parity of the inversions among its odd letters (`odd` by index), as
    +-1; 0 when an odd letter repeats.  The one sign rule of the package:
    `TriContext.sort_signed` and the product kernel both read it."""
    odds = [i for i in word if odd[i]]
    if len(odds) < 2:
        return 1
    if len(set(odds)) < len(odds):
        return 0
    inv = 0
    for k, i in enumerate(odds):
        for j in odds[k + 1:]:
            inv += i > j
    return -1 if inv & 1 else 1


def run_key(word) -> tuple:
    """A sorted word as its runs of equal entries, each an entry and its
    multiplicity, flattened: sorting canonical orbits by it, on letter
    indices or on positions in an algebra's letter list, gives the order in
    which they are enumerated."""
    out: list[int] = []
    prev = None
    for x in word:
        if x == prev:
            out[-1] += 1
        else:
            out += (x, 1)
            prev = x
    return tuple(out)


class OnLookup(dict):
    """A dict that makes the value of a missing key by `make(key)` on its
    first lookup and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value

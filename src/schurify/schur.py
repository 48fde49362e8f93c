"""The generalized Schur algebra T^A_a(n, d) on the eta-orbit basis.

Elements are sparse integer combinations of canonical triple orbits.  A
product eta_{o1} * eta_{o2} is read off one arrangement of the left factor,
its canonical word c1 (Green, Polynomial Representations of GL_n, LNM 830,
section 2.3): the symmetric group acts on the tensor power by algebra
automorphisms and fixes xi_{o2}, so xi_{o1} xi_{o2} is the symmetrization of
e_{c1} xi_{o2} divided by [o1]!.  A letter (b, r, s) has a profile slot on
each side, (absorbing color, r) on the left and (absorbing color, s) on the
right, and two letters multiply to nonzero only where the right slot of the
first is the left slot of the second.  So only the arrangements of o2 whose
word of left slots is c1's word of right slots are multiplied, position-wise
through the base-algebra structure constants with the super sign rule, up to
the first zero factor, and each product word is canonicalized.  The d-fold
tensor power of M_n(A) is never materialized.

The kernel, `product_terms`, works on letter indices (places in
`TriContext.letters`) end to end: words are tuples of ints, letters
multiply through the context's letter-product table, a word is sorted with
its sign by `TriContext.sort_signed`, and the terms it returns are keyed by
index words.  `orbit_product` and `mult_orbits` turn them into `TriWord`s,
the keys of Elements; the codeterminant walk, the heredity check and the
Gram matrices keep them on indices, from factors made by `left_factor` and
`right_factor` without the caches.

All structure constants are integral on the eta lattice; a non-integral
coefficient aborts loudly (it would signal an implementation bug).
"""
from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate, permutations, product
from math import comb
from typing import Iterator

from .base_algebra import AntiInvolution, BasedSuperalgebra, DecompInput, HeredityData
from .partitions import compositions
from .triples import TriContext, TriLetter, TriWord, run_key

Element = dict[TriWord, int]


class SchurAlgebra:
    """T^A_a(n, d): canonical orbit index plus cached multiplication."""

    def __init__(
        self,
        alg: BasedSuperalgebra,
        data: HeredityData,
        n: int,
        d: int,
        tau: AntiInvolution | None = None,
        keep_basis: frozenset[str] | None = None,
        parent: "SchurAlgebra | None" = None,
    ):
        if n < 1 or d < 0:
            raise ValueError("need n >= 1, d >= 0")
        self.alg = alg
        self.data = data
        self.n = n
        self.d = d
        self.tau = tau
        self.keep_basis = keep_basis
        self.parent = parent
        self.ctx = parent.ctx if parent is not None else TriContext(alg, data, n)
        letters = list(self.ctx.letters)
        if keep_basis is not None:
            letters = [lt for lt in letters if lt[0] in keep_basis]
        self._letters = letters
        self._left_cache: dict[TriWord, tuple] = {}
        self._right_cache: dict[TriWord, tuple] = {}
        self._prod_cache: dict[tuple[TriWord, TriWord], Element] = {}
        self._profile_cache: dict[TriWord, tuple] = {}
        self._family: dict[int, SchurAlgebra] = {d: self}

    # -- family of degrees (for star products and coproducts) -------------
    def family(self, d: int) -> "SchurAlgebra":
        """The algebra of degree d over the same base and truncation.  The
        members of a family share one cache; a truncation starts its own."""
        if d not in self._family:
            member = SchurAlgebra(self.alg, self.data, self.n, d, self.tau, self.keep_basis,
                                  parent=self)
            member._family = self._family
            self._family[d] = member
        return self._family[d]

    @cached_property
    def orbits(self) -> list[TriWord]:
        """The canonical orbits, enumerated on first use and kept.  Only the
        tests and the layer benchmark read the list; `verify` draws its
        samples through `orbit`, which lists nothing."""
        return list(_multisets(self._letters, self.d, self.ctx))

    @cached_property
    def _counts(self) -> list[list[int]]:
        """counts[k][m]: the admissible multisets of size m over the letters
        k, k+1, ... of this algebra, each odd letter used at most once; one
        row per letter and a last row for none."""
        d = self.d
        counts = [[1] + [0] * d]
        for lt in reversed(self._letters):
            after = counts[-1]
            if self.ctx.is_odd(lt):
                counts.append([after[0]] + [after[m] + after[m - 1] for m in range(1, d + 1)])
            else:
                counts.append(list(accumulate(after)))
        return counts[::-1]

    def orbit(self, i: int) -> TriWord:
        """The i-th canonical orbit in the order of `orbits`, for 0 <= i <
        `rank`, unranked through `_counts` without listing the others.
        `verify` draws its samples by it; IndexError outside that range."""
        i = operator.index(i)
        if not 0 <= i < self.rank:
            raise IndexError(f"orbit index {i} out of range [0, {self.rank})")
        counts, letters = self._counts, self._letters
        word: list[TriLetter] = []
        left, k = self.d, 0
        while left:
            # in the order of `_multisets`, the multisets that take letter k
            # come first, by its multiplicity m, each followed by every
            # multiset of size left - m over the letters after it
            after = counts[k + 1]
            taking = counts[k][left] - after[left]
            if i < taking:
                m = 1
                while i >= after[left - m]:
                    i -= after[left - m]
                    m += 1
                word += [letters[k]] * m
                left -= m
            else:
                i -= taking
            k += 1
        return tuple(word)

    def orbits_with_profile(self, side: int, profile) -> Iterator[TriWord]:
        """The canonical orbits whose left (side 0) or right (side 1) weight
        profile is `profile`, generated lazily in the order of `orbits`."""
        slots = [self.ctx.profile_slot(lt, side) for lt in self._letters]
        counts = [c for comp in profile for c in comp]
        return _multisets(self._letters, self.d, self.ctx, (slots, counts))

    @cached_property
    def _letter_pos(self) -> dict[TriLetter, int]:
        return {lt: k for k, lt in enumerate(self._letters)}

    @cached_property
    def _has_index(self) -> tuple[bool, ...]:
        """Per letter index of the context: whether the letter is one of this
        algebra's."""
        pos = self._letter_pos
        return tuple(lt in pos for lt in self.ctx.letters)

    def orbit_key(self, orbit: TriWord) -> tuple:
        """The place of a canonical orbit in the order of `orbits`, read off
        the word: `run_key` on the positions of its letters in this algebra's
        letter list.  Positions increase with letter indices, so `run_key` on
        the orbit's index word orders orbits alike."""
        pos = self._letter_pos
        return run_key([pos[lt] for lt in orbit])

    @cached_property
    def rank(self) -> int:
        """The number of canonical orbits, counted without listing them: k
        distinct odd letters beside a multiset of d - k even ones."""
        odd = sum(map(self.ctx.is_odd, self._letters))
        even = len(self._letters) - odd
        return sum(comb(odd, k) * (comb(even + self.d - k - 1, self.d - k) if k < self.d else 1)
                   for k in range(min(odd, self.d) + 1))

    @cached_property
    def base_decomp(self) -> DecompInput:
        """The base algebra's graded decomposition data, read by both
        character routes and the decomposition formula; raises ValueError
        when the base is not basic."""
        return DecompInput.from_base(self.alg, self.data)

    @cached_property
    def codet_basis(self):
        """The standard codeterminant basis, built once per algebra."""
        from .codeterminants import CodetBasis  # codeterminants imports this module

        return CodetBasis(self)

    # -- helpers -----------------------------------------------------------
    def profiles(self, orbit: TriWord):
        """(alpha, beta) idempotent weight profiles of an orbit."""
        if orbit not in self._profile_cache:
            self._profile_cache[orbit] = self.ctx.weight_profiles(orbit)
        return self._profile_cache[orbit]

    def _left(self, orbit: TriWord) -> tuple:
        """`left_factor` of an orbit, cached."""
        if orbit not in self._left_cache:
            self._left_cache[orbit] = self.left_factor(tuple(map(self.ctx.index.__getitem__, orbit)))
        return self._left_cache[orbit]

    def _right(self, orbit: TriWord) -> tuple:
        """`right_factor` of an orbit, cached."""
        if orbit not in self._right_cache:
            self._right_cache[orbit] = self.right_factor(tuple(map(self.ctx.index.__getitem__, orbit)))
        return self._right_cache[orbit]

    def left_factor(self, word: tuple[int, ...]) -> tuple:
        """A left factor of `product_terms`, made afresh from its canonical
        index word: the word, a mask of the places before each of its odd
        letters, its word of right profile slots and [o1]_a."""
        ctx = self.ctx
        odd = ctx.odd
        return (word, tuple([(1 << k) - 1 for k, i in enumerate(word) if odd[i]]),
                tuple(map(ctx.slots[1].__getitem__, word)), ctx.run_factorial(word, "a"))

    def right_factor(self, word: tuple[int, ...]) -> tuple:
        """A right factor of `product_terms`, made afresh from its canonical
        index word: the word, its arrangements grouped by their word of left
        profile slots, each as (index word, sign, bitmask of its odd places),
        and [o2]_c."""
        ctx = self.ctx
        sort_signed = ctx.sort_signed
        slot, odd, slot_words = ctx.slots[0], ctx.odd, ctx.slot_words
        by: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]] = {}
        for w in set(permutations(word)):
            mask = 0
            for k, i in enumerate(w):
                if odd[i]:
                    mask |= 1 << k
            # a word with fewer than two odd letters has no odd inversion
            sign = sort_signed(w)[1] if mask & (mask - 1) else 1
            key = tuple(map(slot.__getitem__, w))
            by.setdefault(slot_words.setdefault(key, key), []).append((w, sign, mask))
        return word, {k: tuple(v) for k, v in by.items()}, ctx.run_factorial(word, "c")

    # -- multiplication ----------------------------------------------------
    def mult_orbits(self, o1: TriWord, o2: TriWord) -> Element:
        """eta_{o1} * eta_{o2} by `orbit_product`, cached.  Factors whose
        weight profiles do not meet multiply to 0, which is not cached."""
        if self.profiles(o1)[1] != self.profiles(o2)[0]:
            return {}
        key = (o1, o2)
        if key not in self._prod_cache:
            self._prod_cache[key] = self.orbit_product(o1, o2)
        return self._prod_cache[key]

    def orbit_product(self, o1: TriWord, o2: TriWord) -> Element:
        """Structure constants: eta_{o1} * eta_{o2} as an integer Element,
        computed afresh by `product_terms`."""
        return self.element(self.product_terms(self._left(o1), self._right(o2)))

    def element(self, terms: dict[tuple[int, ...], int]) -> Element:
        """Terms keyed by words of letter indices, keyed by `TriWord`s."""
        word = self.ctx.word
        return {word(w): c for w, c in terms.items()}

    def product_terms(self, left: tuple, right: tuple, sign: int = 1) -> dict[tuple[int, ...], int]:
        """The product kernel: sign * eta_{o1} * eta_{o2}, for o1 read by
        `left_factor` and o2 by `right_factor`, keyed by canonical words of
        letter indices.

        o1 must be canonical: it is the one arrangement c1 of the left factor
        used.  With c_w the coefficient of the pure tensor e_w in
        e_{c1} xi_{o2}, the coefficient of eta_rep is

            sum_w c_w sign(w) * [o1]_c [o2]_c [rep]! / ([o1]! [rep]_c),

        the sum running over the words w whose canonical representative is
        rep; [.]! is the product of the multiplicity factorials and [.]_c,
        [.]_a the same over the c and a strata.  A word repeating an odd
        letter contributes 0, and on the others [.]! = [.]_a [.]_c, so the
        weight is [o2]_c [rep]_a / [o1]_a.

        Letter i times letter j is nonzero only when the right profile slot
        of i is the left profile slot of j (`TriContext.letter_products`
        checks it), so only the arrangements of o2 whose word of left slots
        is c1's word of right slots are multiplied, place by place off the
        letter-product table, stopping at the first zero factor; each
        product word is sorted with its sign by `TriContext.sort_signed`."""
        ctx = self.ctx
        word1, before_odd, mid, den = left
        word2, by_slot, m2 = right
        table = ctx.letter_products
        sort_signed = ctx.sort_signed
        res: dict[tuple[int, ...], int] = {}
        for w2, sgn, mask in by_slot.get(mid, ()):
            factors = []
            for pair in zip(word1, w2):
                terms = table[pair]
                if not terms:
                    break
                factors.append(terms)
            else:
                # the super sign of the interleaving: each odd letter of c1
                # passes the odd letters of w2 in the places before it
                if mask and sum((mask & low).bit_count() for low in before_odd) & 1:
                    sgn = -sgn
                for combo in product(*factors):
                    rep, sort_sign = sort_signed([i for i, _c in combo])
                    if rep is None:
                        continue
                    coeff = sgn * sort_sign
                    for _i, c in combo:
                        coeff *= c
                    res[rep] = res.get(rep, 0) + coeff
        out: dict[tuple[int, ...], int] = {}
        for rep, f in res.items():
            if not f:
                continue
            num = f * m2 * ctx.run_factorial(rep, "a")
            if num % den:
                o1, o2, word = map(ctx.word, (word1, word2, rep))
                raise ArithmeticError(
                    f"non-integral eta structure constant {num}/{den} at {o1} * {o2} -> {word}"
                )
            out[rep] = sign * (num // den)
        return out

    def mul(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for o1, c1 in x.items():
            for o2, c2 in y.items():
                for rep, f in self.mult_orbits(o1, o2).items():
                    out[rep] = out.get(rep, 0) + c1 * c2 * f
        return {k: v for k, v in out.items() if v}

    # -- linear structure --------------------------------------------------
    @staticmethod
    def add(x: Element, y: Element, c: int = 1) -> Element:
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, 0) + c * v
            if not out[k]:
                del out[k]
        return out

    def eta(self, word: TriWord) -> Element:
        """The eta basis element of an arbitrary admissible word, with sign;
        ValueError for a word that is not d letters of this algebra."""
        if len(word) != self.d or any(lt not in self._letter_pos for lt in word):
            raise ValueError(f"orbit {word} not in this algebra")
        rep, sign = self.ctx.canonicalize(word)
        if rep is None:
            return {}
        return {rep: sign}

    # -- distinguished elements -------------------------------------------
    def idempotent_bold(self, bold) -> Element:
        """e_lambda for a tuple of compositions (one per color)."""
        word = []
        for pos, comp in enumerate(bold):
            i = self.data.labels[pos]
            for r, width in enumerate(comp, start=1):
                word += [(self.data.e[i], r, r)] * width
        rep, sign = self.ctx.canonicalize(tuple(word), strict=True)
        assert sign == 1
        return {rep: 1}

    def idempotent_comp(self, lam: tuple[int, ...]) -> Element:
        """xi(lambda): the sum of e_mu over color refinements of the weight lambda."""
        ell = len(self.data.labels) - 1
        if len(lam) != self.n or sum(lam) != self.d:
            raise ValueError("lambda must be a weight in Lambda(n, d)")
        out: Element = {}
        splits_per_letter = [list(compositions(lr, ell + 1)) for lr in lam]
        for choice in product(*splits_per_letter):
            # choice[r-1][i] = number of color-i entries with letter r
            bold = tuple(
                tuple(choice[r][i] for r in range(self.n)) for i in range(ell + 1)
            )
            out = self.add(out, self.idempotent_bold(bold))
        return out

    def unit(self) -> Element:
        out: Element = {}
        for lam in compositions(self.d, self.n):
            out = self.add(out, self.idempotent_comp(lam))
        return out

    # -- star product ------------------------------------------------------
    def star(self, x: Element, y: Element, other: "SchurAlgebra") -> Element:
        """eta_x (degree self.d) star eta_y (degree other.d) in degree d1+d2."""
        target = self.family(self.d + other.d)
        ctx = target.ctx
        out: Element = {}
        for o1, c1 in x.items():
            for o2, c2 in y.items():
                cat = o1 + o2
                rep, sign = ctx.canonicalize(cat)
                if rep is None:
                    continue
                num = ctx.factorial(rep, "a")
                den = ctx.factorial(o1, "a") * ctx.factorial(o2, "a")
                assert num % den == 0
                out[rep] = out.get(rep, 0) + c1 * c2 * sign * (num // den)
        return {k: v for k, v in out.items() if v}

    # -- coproduct ---------------------------------------------------------
    def coproduct(self, x: Element, d1: int) -> dict[tuple[TriWord, TriWord], int]:
        """The (d1, d - d1) component of the coproduct, as a sparse tensor."""
        if not 0 <= d1 <= self.d:
            raise ValueError("invalid split degree")
        ctx = self.ctx
        out: dict[tuple[TriWord, TriWord], int] = {}
        for orbit, c in x.items():
            mults = list(ctx.multiplicities(orbit).items())
            fac_t = ctx.factorial(orbit, "c")
            for take in _sub_multisets(mults, d1):
                w1 = tuple(lt for lt, m in zip((lt for lt, _m in mults), take) for _ in range(m))
                rest = [m - t for (_lt, m), t in zip(mults, take)]
                w2 = tuple(lt for (lt, _m), m in zip(mults, rest) for _ in range(m))
                w = w1 + w2
                sign = ctx.canonicalize(w)[1]
                ratio = fac_t // (ctx.factorial(w1, "c") * ctx.factorial(w2, "c"))
                key = (w1, w2)
                out[key] = out.get(key, 0) + c * sign * ratio
        return {k: v for k, v in out.items() if v}

    # -- anti-involution ---------------------------------------------------
    def involution(self, x: Element) -> Element:
        if self.tau is None:
            raise ValueError("no anti-involution on the base algebra")
        if not self.tau.is_standard(self.data) and self.keep_basis is None:
            raise ValueError("anti-involution is not standard")
        out: Element = {}
        for orbit, c in x.items():
            word = tuple((self.tau.image[b], s, r) for (b, r, s) in orbit)
            rep, sign = self.ctx.canonicalize(word, strict=True)
            out[rep] = out.get(rep, 0) + c * sign
        return {k: v for k, v in out.items() if v}

    # -- truncation --------------------------------------------------------
    def truncate(self, colors) -> "SchurAlgebra":
        """xi^e T xi^e for e the sum of the initial idempotents in `colors`:
        the span of orbits all of whose basis letters survive the base
        truncation."""
        colors = frozenset(colors)
        left = self.ctx.x_alphabet.absorbers
        right = self.ctx.y_alphabet.absorbers
        keep = frozenset(
            b for b in self.alg.basis if left.get(b) in colors and right.get(b) in colors
        )
        return SchurAlgebra(self.alg, self.data, self.n, self.d, self.tau,
                            keep_basis=keep, parent=self)

    def truncation_idempotent(self, colors) -> Element:
        colors = frozenset(colors)
        out: Element = {}
        for lam in compositions(self.d, self.n):
            ell = len(self.data.labels) - 1
            splits = [list(compositions(lr, ell + 1)) for lr in lam]
            for choice in product(*splits):
                bold = tuple(tuple(choice[r][i] for r in range(self.n)) for i in range(ell + 1))
                if all(sum(comp) == 0 for pos, comp in enumerate(bold)
                       if self.data.labels[pos] not in colors):
                    out = self.add(out, self.idempotent_bold(bold))
        return out

    # -- serialization -----------------------------------------------------
    def element_to_json(self, x: Element) -> list:
        return [
            {"orbit": TriContext.to_json(o), "coeff": str(c)}
            for o, c in sorted(x.items(), key=lambda kv: self.orbit_key(kv[0]))
        ]

    def element_from_json(self, obj: list) -> Element:
        return {TriContext.from_json(e["orbit"]): int(e["coeff"]) for e in obj}


def _multisets(letters: list[TriLetter], d: int, ctx: TriContext, budget=None):
    """Admissible sorted multisets of size d over the (sorted) letter list.

    A `budget` (slots, counts) keeps the multisets in which letter k occurs
    counts[slots[k]] times in total over the letters of its slot, for every
    slot, in the same order; with none, all letters share one slot of d."""
    slots, counts = budget or ([0] * len(letters), [d])
    if sum(counts) != d:
        return
    counts = list(counts)
    # bit s of reach[k] is set when a letter at or after k uses slot s
    reach = [0] * (len(letters) + 1)
    for k in range(len(letters) - 1, -1, -1):
        reach[k] = reach[k + 1] | 1 << slots[k]
    odd = [ctx.is_odd(lt) for lt in letters]

    def rec(start: int, left: int, acc: list[TriLetter], need: int):
        # bit s of need is set while slot s has room
        if left == 0:
            yield tuple(acc)
            return
        if need & ~reach[start]:
            return
        for k in range(start, len(letters)):
            s = slots[k]
            room = counts[s]
            if not room:
                continue
            lt = letters[k]
            for m in range(1, (1 if odd[k] else room) + 1):
                counts[s] = room - m
                yield from rec(k + 1, left - m, acc + [lt] * m,
                               need if m < room else need & ~(1 << s))
            counts[s] = room

    yield from rec(0, d, [], sum(1 << s for s, c in enumerate(counts) if c))


def _sub_multisets(mults: list[tuple[TriLetter, int]], size: int):
    """All ways of taking `size` elements from a multiset, as count vectors."""

    def rec(k: int, left: int, acc: list[int]):
        if k == len(mults):
            if left == 0:
                yield tuple(acc)
            return
        m = mults[k][1]
        for t in range(min(m, left), -1, -1):
            yield from rec(k + 1, left - t, acc + [t])

    yield from rec(0, size, [])


def build_schur(alg, data, n: int, d: int, tau=None) -> SchurAlgebra:
    return SchurAlgebra(alg, data, n, d, tau)

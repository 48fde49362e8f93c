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
multiply through the context's flat letter-product table
(`TriContext.product_table`), a word is signed by the package's one sign
rule (`triples.odd_sign`) and sorted, and the terms it returns are keyed by
index words.  A right factor (`right_factor`) makes the arrangements the
kernel reads one slot group at a time, on the first request for the group's
slot word, by placing each slot's letters in every distinct order at that
slot's places; a group no product asks for is never made.  `orbit_product`
and `mult_orbits` turn the terms into `TriWord`s, the keys of Elements; the
codeterminant walk, the heredity check and the Gram matrices keep them on
indices.

The kernel factors have two lifetimes.  `lefts` and `rights` map an index
word to its factor, made on first lookup and kept for the life of the
algebra, so a word that `orbit_product` and the codeterminant walk both use
is made once.  `heredity_of_T` reads them and keeps what it makes beyond
them for its own call only: kept here, they raised the tracemalloc peak of
`verify` on zigzag:1 n=d=3 from 7.00 to 7.25 MB.  No product is kept
(`mult_orbits` says why).  The rank is the count `orbit` unranks through,
and the unit is a sum over `partitions.gen_multicompositions`.

All structure constants are integral on the eta lattice; a non-integral
coefficient aborts loudly (it would signal an implementation bug).
"""
from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate, permutations, product
from typing import Iterator

from .base_algebra import AntiInvolution, BasedSuperalgebra, DecompInput, HeredityData
from .partitions import gen_multicompositions
from .triples import OnLookup, TriContext, TriLetter, TriWord, odd_sign, run_key

Element = dict[TriWord, int]


class SchurAlgebra:
    """T^A_a(n, d): canonical orbit index and multiplication."""

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
        # a new word's factor is made by whatever `self.left_factor` or
        # `self.right_factor` is when the word is first looked up
        self.lefts: dict[tuple[int, ...], tuple] = OnLookup(lambda w: self.left_factor(w))
        self.rights: dict[tuple[int, ...], tuple] = OnLookup(lambda w: self.right_factor(w))
        self._profiles: dict[TriWord, tuple] = OnLookup(self.ctx.weight_profiles)

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

    @property
    def is_truncation(self) -> bool:
        """Whether this is a truncation xi^e T xi^e (`truncate`): only
        cellular, with no codeterminant basis and no highest-weight theory."""
        return self.keep_basis is not None

    @cached_property
    def _has_index(self) -> tuple[bool, ...]:
        """Per letter index of the context: whether the letter is one of this
        algebra's, that is, its basis element is kept."""
        keep = self.keep_basis
        return tuple(keep is None or lt[0] in keep for lt in self.ctx.letters)

    def orbit_key(self, orbit: TriWord) -> tuple:
        """The place of a canonical orbit in the order of `orbits`, read off
        the word: `run_key` on its letter indices.  This algebra's letters
        are the context's in index order, so index order is position order."""
        return run_key(self.indices(orbit))

    @property
    def rank(self) -> int:
        """The number of canonical orbits, read off `_counts` without
        listing them."""
        return self._counts[0][self.d]

    @cached_property
    def base_decomp(self) -> DecompInput:
        """The base algebra's graded decomposition data, read by both
        character routes and the decomposition formula; raises ValueError,
        naming the first failure, when A's heredity axioms do not hold."""
        return DecompInput.from_base(self.alg, self.data)

    @cached_property
    def codet_basis(self):
        """The standard codeterminant basis, built once per algebra."""
        from .codeterminants import CodetBasis  # codeterminants imports this module

        return CodetBasis(self)

    # -- helpers -----------------------------------------------------------
    def profiles(self, orbit: TriWord):
        """(alpha, beta) idempotent weight profiles of an orbit, kept."""
        return self._profiles[orbit]

    def left_factor(self, word: tuple[int, ...]) -> tuple:
        """A left factor of `product_terms`, made afresh from its canonical
        index word: the word, where the row of each of its letters starts in
        the letter product table (`TriContext.product_rows`), the mask of the
        places with an odd number of its odd letters after them, the mask of
        its odd places, its word of right profile slots and [o1]_a."""
        ctx = self.ctx
        odd = ctx.odd
        cross = odd_places = after = 0
        for k in range(len(word) - 1, -1, -1):
            if after & 1:
                cross |= 1 << k
            if odd[word[k]]:
                odd_places |= 1 << k
                after += 1
        return (word, tuple(map(ctx.product_rows.__getitem__, word)), cross, odd_places,
                tuple(map(ctx.slots[1].__getitem__, word)), ctx.run_factorial(word, "a"))

    def right_factor(self, word: tuple[int, ...]) -> tuple:
        """A right factor of `product_terms`, made afresh from its canonical
        index word: the word, its arrangements grouped by their word of left
        profile slots, each group made on its first request (`_SlotGroups`),
        and [o2]_c."""
        return word, _SlotGroups(self.ctx, word), self.ctx.run_factorial(word, "c")

    # -- multiplication ----------------------------------------------------
    def mult_orbits(self, o1: TriWord, o2: TriWord) -> Element:
        """eta_{o1} * eta_{o2}: 0 when the factors' weight profiles do not
        meet, else `orbit_product`.  No product is kept: on `verify` for
        zigzag:1 n=d=3 (seeds 1-3), about 2 400 calls stop at the profile
        check and 268-283 compute a product, of which only 24-32 (about one
        in ten) repeat an earlier pair."""
        if self.profiles(o1)[1] != self.profiles(o2)[0]:
            return {}
        return self.orbit_product(o1, o2)

    def orbit_product(self, o1: TriWord, o2: TriWord) -> Element:
        """Structure constants: eta_{o1} * eta_{o2} as an integer Element, by
        `product_terms` on the factors of the orbits' index words in `lefts`
        and `rights`."""
        index = self.ctx.index
        return self.element(self.product_terms(self.lefts[tuple([index[lt] for lt in o1])],
                                               self.rights[tuple([index[lt] for lt in o2])]))

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
        weight is [o2]_c [rep]_a / [o1]_a; [rep]_a is read only when rep
        repeats a letter.

        Letter i times letter j is nonzero only when the right profile slot
        of i is the left profile slot of j (`TriContext.letter_product`
        checks it), so only the arrangements of o2 whose word of left slots
        is c1's word of right slots are multiplied, place by place off the
        flat table `TriContext.product_table`, stopping at the first zero
        factor.  A one-term letter product goes straight into the word and
        its coefficient; a place with several terms is spread over them after
        the pass.  The product's odd places are those where exactly one
        factor is odd, as the base algebra's products keep parity, so a word
        with two or more is signed by `odd_sign`, the rule of
        `TriContext.sort_signed`.  The right factor makes the group of
        arrangements on its first request."""
        ctx = self.ctx
        word1, rows, cross, odd1, mid, den = left
        word2, by_slot, m2 = right
        table, fill, odd = ctx.product_table, ctx.fill_product, ctx.odd
        res: dict[tuple[int, ...], int] = {}
        for w2, sgn, mask in by_slot[mid]:
            # the super sign of the interleaving: each odd letter of c1
            # passes the odd letters of w2 in the places before it
            coeff = -sgn if (mask & cross).bit_count() & 1 else sgn
            ks: list[int] = []
            several = None
            for at in map(operator.add, rows, w2):
                t = table[at]
                if not t:
                    if t is None:
                        t = fill(at)
                    if not t:
                        break
                k, c = t
                if k < 0:  # several terms: a place to spread after the pass
                    several = several or []
                    several.append((len(ks), c))
                    c = 1
                ks.append(k)
                coeff *= c
            else:
                words = ((ks, coeff),)
                if several:
                    words = []
                    for combo in product(*[terms for _place, terms in several]):
                        w, cw = ks[:], coeff
                        for (place, _terms), (k, c) in zip(several, combo):
                            w[place] = k
                            cw *= c
                        words.append((w, cw))
                m = odd1 ^ mask
                signed = m & (m - 1)
                for w, cw in words:
                    if signed:
                        s = odd_sign(w, odd)
                        if not s:
                            continue
                        cw *= s
                    w.sort()
                    rep = tuple(w)
                    res[rep] = res.get(rep, 0) + cw
        out: dict[tuple[int, ...], int] = {}
        d = len(word1)
        for rep, f in res.items():
            if not f:
                continue
            num = f * m2
            if len(set(rep)) < d:
                num *= ctx.run_factorial(rep, "a")
            if den != 1:
                if num % den:
                    o1, o2, word = map(ctx.word, (word1, word2, rep))
                    raise ArithmeticError(
                        f"non-integral eta structure constant {num}/{den} at {o1} * {o2} -> {word}"
                    )
                num //= den
            out[rep] = sign * num
        return out

    def mul(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for o1, c1 in x.items():
            for o2, c2 in y.items():
                for rep, f in self.mult_orbits(o1, o2).items():
                    out[rep] = out.get(rep, 0) + c1 * c2 * f
        return {k: v for k, v in out.items() if v}

    # -- linear structure --------------------------------------------------
    def eta(self, word: TriWord) -> Element:
        """The eta basis element of an arbitrary admissible word, with sign;
        ValueError for a word that is not d letters of this algebra."""
        rep, sign = self.ctx.sort_signed(self.indices(word))
        if rep is None:
            return {}
        return {self.ctx.word(rep): sign}

    def indices(self, word: TriWord) -> list[int]:
        """The letter indices of a word of d letters of this algebra;
        ValueError naming any other word."""
        index, has = self.ctx.index, self._has_index
        out = [index.get(lt) for lt in word]
        if len(out) != self.d or not all(i is not None and has[i] for i in out):
            raise ValueError(f"orbit {word} not in this algebra")
        return out

    # -- distinguished elements -------------------------------------------
    def idempotent_bold(self, bold) -> Element:
        """e_lambda for a tuple of compositions (one per color)."""
        word = []
        for pos, comp in enumerate(bold):
            i = self.data.labels[pos]
            for r, width in enumerate(comp, start=1):
                word += [(self.data.e[i], r, r)] * width
        rep, sign = self.ctx.canonicalize(tuple(word))
        assert sign == 1
        return {rep: 1}

    def unit(self) -> Element:
        """The sum of e_bold over the tuples of compositions `bold` (one per
        color, n parts each, total size d).  Distinct tuples give distinct
        orbits, each with coefficient 1."""
        out: Element = {}
        for bold in gen_multicompositions(self.n, self.d, len(self.data.labels) - 1):
            out.update(self.idempotent_bold(bold))
        return out

    # -- anti-involution ---------------------------------------------------
    def involution(self, x: Element) -> Element:
        if self.tau is None:
            raise ValueError("no anti-involution on the base algebra")
        if not self.tau.is_standard(self.data) and self.keep_basis is None:
            raise ValueError("anti-involution is not standard")
        out: Element = {}
        for orbit, c in x.items():
            word = tuple((self.tau.image[b], s, r) for (b, r, s) in orbit)
            rep, sign = self.ctx.canonicalize(word)
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

    # -- serialization -----------------------------------------------------
    def element_to_json(self, x: Element) -> list:
        return [
            {"orbit": TriContext.to_json(o), "coeff": str(c)}
            for o, c in sorted(x.items(), key=lambda kv: self.orbit_key(kv[0]))
        ]


class _SlotGroups(dict):
    """The arrangements of a right factor's canonical index word, grouped by
    their word of left profile slots, each as (index word, sign, bitmask of
    its odd places).  A group is made on the first lookup of its slot word
    and kept: each slot's letters go, in every distinct order, to the places
    of that slot in the slot word.  A slot word whose slot counts differ from
    the word's gets an empty group, which is not kept."""

    __slots__ = ("ctx", "word")

    def __init__(self, ctx: TriContext, word: tuple[int, ...]):
        self.ctx, self.word = ctx, word

    def __missing__(self, mid: tuple[int, ...]) -> tuple:
        ctx = self.ctx
        slot, odd = ctx.slots[0], ctx.odd
        pools: dict[int, list[int]] = {}
        for i in self.word:
            pools.setdefault(slot[i], []).append(i)
        places: dict[int, list[int]] = {}
        for k, s in enumerate(mid):
            places.setdefault(s, []).append(k)
        if places.keys() != pools.keys():
            return ()
        w = list(mid)
        spread = []  # the slots with more than one place, and their orders
        for s, ks in places.items():
            pool = pools[s]
            if len(pool) != len(ks):
                return ()
            if len(ks) == 1:
                w[ks[0]] = pool[0]
            else:
                spread.append((ks, set(permutations(pool))))
        group = []
        for orders in product(*[orders for _ks, orders in spread]):
            for (ks, _orders), order in zip(spread, orders):
                for k, i in zip(ks, order):
                    w[k] = i
            mask = 0
            for k, i in enumerate(w):
                if odd[i]:
                    mask |= 1 << k
            # a word with fewer than two odd letters has no odd inversion
            group.append((tuple(w), odd_sign(w, odd) if mask & (mask - 1) else 1, mask))
        group = self[mid] = tuple(group)
        return group


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


def build_schur(alg, data, n: int, d: int, tau=None) -> SchurAlgebra:
    return SchurAlgebra(alg, data, n, d, tau)

import random
import re
from itertools import product
from math import comb

import pytest

from helpers import (
    add,
    as_orbits,
    coproduct,
    coproducts_star,
    double_coproduct,
    eager_slot_groups,
    family,
    idempotent_comp,
    star,
    tensor_eta_product,
    truncation_idempotent,
    word_factorial,
)
from schurify.base_algebra import make_algebra
from schurify.partitions import compositions, gen_multicompositions
from schurify.schur import build_schur
from schurify.triples import run_key


def test_rank_constants():
    for spec, n, d, rank in [
        ("trivial", 2, 1, 4),
        ("trivial", 2, 2, 10),
        ("zigzag:1", 2, 1, 20),
        ("zigzag:1", 2, 2, 202),
        ("zigzag:2", 2, 2, 650),
        ("semisimple:2", 2, 2, 36),
    ]:
        alg, data, tau = make_algebra(spec)
        assert build_schur(alg, data, n, d, tau).rank == rank, spec


def _closed_rank(A) -> int:
    """The number of canonical orbits in closed form: k distinct odd
    letters beside a multiset of d - k even ones."""
    odd = sum(map(A.ctx.is_odd, A._letters))
    even, d = len(A._letters) - odd, A.d
    return sum(comb(odd, k) * (comb(even + d - k - 1, d - k) if k < d else 1)
               for k in range(min(odd, d) + 1))


def test_rank_closed_count_matches_the_enumeration():
    """The closed count of canonical orbits equals the rank, the length of
    `orbits` and the total of the count table `orbit` unranks through, and
    `orbit(i)` is `orbits[i]`, on the algebras and on their truncations:
    for every i up to rank 20 000, for every 97th i and the last above."""
    for spec in ("trivial", "zigzag:1", "zigzag:2", "zigzag:3", "semisimple:2"):
        alg, data, tau = make_algebra(spec)
        for n in range(1, 4):
            for d in range(4):
                T = build_schur(alg, data, n, d, tau)
                for A in (T, T.truncate([0])):
                    where = (spec, n, d, A.keep_basis)
                    assert _closed_rank(A) == A.rank == len(A.orbits) == A._counts[0][d], where
                    step = 1 if A.rank <= 20000 else 97
                    for i in [*range(0, A.rank, step), A.rank - 1]:
                        assert A.orbit(i) == A.orbits[i], (where, i)


def test_unranking_refuses_an_index_out_of_range():
    """No wrap-around: -1 and `rank` are refused, and so is a non-integer."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    for i in (-1, T.rank, T.rank + 5, -T.rank):
        with pytest.raises(IndexError):
            T.orbit(i)
    with pytest.raises(TypeError):
        T.orbit(1.0)
    assert "orbits" not in vars(T)
    empty = build_schur(alg, data, 2, 0, tau)
    assert empty.orbit(0) == ()
    with pytest.raises(IndexError):
        empty.orbit(1)


@pytest.mark.parametrize("seed", range(5))
def test_unranked_draws_match_draws_from_the_list(seed):
    """The same seed draws the same orbits by index and unranking as
    `sample` and `choice` on the list `orbits`."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 3, 2, tau)
    by_index, by_list = random.Random(seed), random.Random(seed)
    for k in (1, 20, T.rank):
        assert ([T.orbit(i) for i in by_index.sample(range(T.rank), k)]
                == by_list.sample(T.orbits, k))
        assert ([T.orbit(by_index.randrange(T.rank)) for _ in range(30)]
                == [by_list.choice(T.orbits) for _ in range(30)])


def test_degenerate_degree_zero():
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 0, tau)
    assert T.orbits == [()]
    assert T.mul({(): 1}, {(): 1}) == {(): 1}
    assert T.unit() == {(): 1}


def test_unit_and_idempotents(T122):
    one = T122.unit()
    for o in T122.orbits[::7]:
        x = {o: 1}
        assert T122.mul(one, x) == x
        assert T122.mul(x, one) == x
    # xi(lam) are orthogonal idempotents summing to 1
    xis = {lam: idempotent_comp(T122, lam) for lam in compositions(2, 2)}
    total = {}
    for lam, xi in xis.items():
        total = add(total, xi)
        for mu, xj in xis.items():
            prod = T122.mul(xi, xj)
            assert prod == (xi if lam == mu else {})
    assert total == one


def test_idempotent_sums_match_color_splits():
    """`unit`, `idempotent_comp` (every weight) and `truncation_idempotent`
    (color 0 and all colors) equal sums of e_bold built here from the
    compositions of d and each letter's split among the colors."""
    for spec in ("trivial", "zigzag:1", "zigzag:2", "semisimple:2"):
        alg, data, tau = make_algebra(spec)
        labels = data.labels
        for n in range(1, 4):
            for d in range(4):
                T = build_schur(alg, data, n, d, tau)
                one, xi, trunc = {}, {}, {1: {}, len(labels): {}}
                for lam in compositions(d, n):
                    xi[lam] = {}
                    for choice in product(*(compositions(m, len(labels)) for m in lam)):
                        # choice[r][i]: the entries of color i with letter r + 1
                        bold = tuple(tuple(split[i] for split in choice)
                                     for i in range(len(labels)))
                        e = T.idempotent_bold(bold)
                        one, xi[lam] = add(one, e), add(xi[lam], e)
                        for k in trunc:  # e_bold within the first k colors
                            if not any(map(any, bold[k:])):
                                trunc[k] = add(trunc[k], e)
                where = (spec, n, d)
                assert T.unit() == one, where
                for lam, x in xi.items():
                    assert idempotent_comp(T, lam) == x, (where, lam)
                assert truncation_idempotent(T, [labels[0]]) == trunc[1], where
                assert truncation_idempotent(T, labels) == trunc[len(labels)] == one, where
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 3, tau)
    with pytest.raises(ValueError, match=re.escape("lambda must be a weight in Lambda(n, d)")):
        idempotent_comp(T, (4, -1))  # sums to d, but a part is negative


def test_idempotent_bold_squares(T122):
    for bold in gen_multicompositions(2, 2, 1):
        e = T122.idempotent_bold(bold)
        assert T122.mul(e, e) == e


def test_associativity_exhaustive_trivial(Ttriv22):
    T = Ttriv22
    for a, b, c in product(T.orbits, repeat=3):
        lhs = T.mul(T.mult_orbits(a, b), {c: 1})
        rhs = T.mul({a: 1}, T.mult_orbits(b, c))
        assert lhs == rhs, (a, b, c)


def test_associativity_random_zigzag(T122):
    rng = random.Random(20240817)
    for _ in range(250):
        a, b, c = (rng.choice(T122.orbits) for _ in range(3))
        lhs = T122.mul(T122.mult_orbits(a, b), {c: 1})
        rhs = T122.mul({a: 1}, T122.mult_orbits(b, c))
        assert lhs == rhs, (a, b, c)


def test_mult_against_tensor_oracle(T122):
    rng = random.Random(5)
    for _ in range(120):
        a, b = rng.choice(T122.orbits), rng.choice(T122.orbits)
        assert T122.mult_orbits(a, b) == tensor_eta_product(T122, a, b), (a, b)


@pytest.mark.parametrize("spec, n, d", [
    ("trivial", 3, 3), ("zigzag:1", 3, 3), ("zigzag:1", 2, 3), ("zigzag:2", 2, 2),
    ("zigzag:2", 2, 3), ("trivial", 4, 4),
])
def test_mult_against_tensor_oracle_repeated_letters(spec, n, d):
    """Pairs with matching profiles, every other one with a repeated letter
    in both factors, so that the weight [rep]!/[o1]! is not always 1."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    by_left = {}
    for o in T.orbits:
        by_left.setdefault(T.profiles(o)[0], []).append(o)
    repeats = [o for o in T.orbits if len(set(o)) < d]
    rng = random.Random(29)
    nonzero = weighted = 0
    for k in range(60):
        a = rng.choice(repeats if k % 2 else T.orbits)
        right = by_left[T.profiles(a)[1]]
        if k % 2:
            right = [o for o in right if len(set(o)) < d] or right
        b = rng.choice(right)
        prod = T.mult_orbits(a, b)
        assert prod == tensor_eta_product(T, a, b), (a, b)
        nonzero += bool(prod)
        weighted += any(word_factorial(T, rep) != word_factorial(T, a) for rep in prod)
    assert nonzero >= 20 and weighted, (nonzero, weighted)


@pytest.mark.parametrize("n, d, pairs", [(4, 4, 40), (2, 5, 24)])
def test_mult_against_tensor_oracle_at_production_sizes(n, d, pairs):
    """zigzag:1 at n=d=4, the largest size `verify` runs, and at n=2, d=5,
    on seeded pairs that meet: the left factor unranked by `T.orbit`, the
    right one drawn from the orbits whose left profile is the left factor's
    right profile (`orbits_with_profile`).  Every other pair repeats a
    letter in both factors; some nonzero products have odd letters in their
    factors, and some carry a weight [rep]!/[o1]! other than 1."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, n, d, tau)
    rng = random.Random(53)

    def repeats(orbit) -> bool:
        return len(set(orbit)) < d

    nonzero = weighted = odd = 0
    for k in range(pairs):
        a = T.orbit(rng.randrange(T.rank))
        while k % 2 and not repeats(a):
            a = T.orbit(rng.randrange(T.rank))
        right = list(T.orbits_with_profile(0, T.profiles(a)[1]))
        if k % 2:
            right = [o for o in right if repeats(o)] or right
        b = rng.choice(right)
        prod = T.mult_orbits(a, b)
        assert prod == tensor_eta_product(T, a, b), (a, b)
        nonzero += bool(prod)
        weighted += any(word_factorial(T, rep) != word_factorial(T, a) for rep in prod)
        odd += bool(prod) and any(map(T.ctx.is_odd, a + b))
    assert nonzero >= pairs // 4 and weighted and odd, (nonzero, weighted, odd)


@pytest.mark.parametrize("spec, truncated", [
    ("trivial", False), ("zigzag:1", False), ("zigzag:2", False), ("zigzag:1", True),
])
def test_slot_groups_match_the_eager_grouping(spec, truncated):
    """At n=d=3, the right factor of every orbit, asked for each slot word
    of the eager grouping (`helpers.eager_slot_groups`), makes the same
    arrangements with the same signs and odd masks, order ignored, and
    makes no other group.  A slot word with other slot counts gets an empty
    group, which is not kept."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, 3, 3, tau)
    if truncated:
        T = T.truncate([0])
    index = T.ctx.index
    for orbit in T.orbits:
        groups = T.right_factor(tuple(index[lt] for lt in orbit))[1]
        want = eager_slot_groups(T, orbit)
        for mid, group in want.items():
            assert sorted(groups[mid]) == sorted(group), (orbit, mid)
        assert groups.keys() == want.keys(), orbit
        other = (mid[0] + 1,) + mid[1:]
        assert groups[other] == () and other not in groups, orbit


@pytest.mark.parametrize("spec, truncated", [
    ("zigzag:2", False), ("zigzag:1", True), ("trivial", False), ("semisimple:2", False),
])
def test_letter_products_lift_the_base_product(spec, truncated):
    """The kernel's letter-product table is `mul_basis` lifted to letters:
    (b, r, s)(b', s, t) = sum_c coeff (c, r, t), and 0 when the letters do
    not meet; products of the letters of a truncation stay in it."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, 3, 3, tau)
    if truncated:
        T = T.truncate([0])
    ctx = T.ctx
    for x, y in product(T._letters, repeat=2):
        got = {ctx.letters[k]: c for k, c in ctx.letter_product(ctx.index[x], ctx.index[y])}
        want = ({(c, x[1], y[2]): v for c, v in alg.mul_basis(x[0], y[0]).items()}
                if x[2] == y[1] else {})
        assert got == want, (x, y)
        assert set(got) <= set(T._letters), (x, y)


def test_letter_product_across_profile_slots_is_refused(monkeypatch):
    """The kernel pairs letters by profile slot, so the letter-product table
    refuses a nonzero product of letters whose slots differ, naming both,
    and so does the kernel's table before any product reads the pair."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    ctx = T.ctx
    x, y = ("e0", 1, 1), ("e1", 1, 2)
    assert ctx.profile_slot(x, 1) != ctx.profile_slot(y, 0)
    real = alg.mul_basis
    monkeypatch.setattr(alg, "mul_basis",
                        lambda a, c: {"e0": 1} if (a, c) == ("e0", "e1") else real(a, c))
    text = (f"nonzero letter product {x} * {y} joins right profile slot "
            f"{ctx.profile_slot(x, 1)} to left profile slot {ctx.profile_slot(y, 0)}")
    with pytest.raises(ValueError, match=re.escape(text)):
        ctx.letter_product(ctx.index[x], ctx.index[y])
    at = ctx.index[x] * len(ctx.letters) + ctx.index[y]
    with pytest.raises(ValueError, match=re.escape(text)):
        ctx.fill_product(at)
    assert ctx.product_table[at] is None


@pytest.mark.parametrize("spec, truncated", [("zigzag:2", False), ("zigzag:1", True)])
def test_uncached_product_against_tensor_oracle(spec, truncated):
    """The uncached kernel on 200 seeded pairs, every other one with meeting
    profiles; the others' profiles do not meet, and they multiply to 0."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, 2, 2, tau)
    if truncated:
        T = T.truncate([0])
    by_left = {}
    for o in T.orbits:
        by_left.setdefault(T.profiles(o)[0], []).append(o)
    rng = random.Random(41)
    apart = nonzero = 0
    for k in range(200):
        a = rng.choice(T.orbits)
        b = rng.choice(by_left[T.profiles(a)[1]] if k % 2 else T.orbits)
        prod = as_orbits(T, T.product_terms(T.lefts[T.indices(a)], T.rights[T.indices(b)]))
        assert prod == tensor_eta_product(T, a, b), (a, b)
        if T.profiles(a)[1] != T.profiles(b)[0]:
            apart += 1
            assert prod == {}, (a, b)
        nonzero += bool(prod)
    assert apart >= 50 and nonzero >= 40, (apart, nonzero)


def test_non_integral_structure_constant_names_its_words(monkeypatch):
    """With the a-stratum flag of one letter cleared in the kernel's table,
    e_{xx} * eta_{zz} = eta_{zz} comes out as 1/2, and the error names the
    three words as letter tuples."""
    alg, data, tau = make_algebra("trivial")
    T = build_schur(alg, data, 2, 2, tau)
    x, z = ("1", 1, 1), ("1", 1, 2)
    assert T.mult_orbits((x, x), (z, z)) == {(z, z): 1}
    flags = list(T.ctx.in_stratum["a"])
    flags[T.ctx.index[z]] = False
    monkeypatch.setitem(T.ctx.in_stratum, "a", tuple(flags))
    text = f"non-integral eta structure constant 1/2 at {(x, x)} * {(z, z)} -> {(z, z)}"
    with pytest.raises(ArithmeticError, match=re.escape(text)):
        T.mult_orbits((x, x), (z, z))


def test_profile_orthogonality(T122):
    """Products vanish unless the middle weight profiles match."""
    rng = random.Random(6)
    for _ in range(200):
        a, b = rng.choice(T122.orbits), rng.choice(T122.orbits)
        if T122.profiles(a)[1] != T122.profiles(b)[0]:
            assert T122.mult_orbits(a, b) == {}


def test_first_product_compares_profiles_once(monkeypatch):
    """A first product reads the two weight profiles once each, in
    mult_orbits; a pair whose profiles do not meet is not cached."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    calls = []
    real = T.profiles

    def counted(orbit):
        calls.append(orbit)
        return real(orbit)

    monkeypatch.setattr(T, "profiles", counted)
    a = T.orbits[0]
    b = next(o for o in T.orbits if real(a)[1] == real(o)[0] and T.mult_orbits(a, o))
    c = next(o for o in T.orbits if real(a)[1] != real(o)[0])
    calls.clear()
    assert T.mul({a: 1}, {b: 1})
    assert calls == [a, b]
    calls.clear()
    assert T.mul({a: 1}, {c: 1}) == {}
    assert calls == [a, c]


def test_star_examples(T122):
    T1 = family(T122, 1)
    # even letter in the a-stratum: eta * eta = 2 eta^{bb}
    ea = ("e0", 1, 1)
    out = star(T1, {(ea,): 1}, {(ea,): 1})
    assert out == {(ea, ea): 2}
    # odd letter: repeated odd triple vanishes
    odd = ("a0_1", 1, 1)
    assert star(T1, {(odd,): 1}, {(odd,): 1}) == {}


def test_star_integrality_and_degree(T122):
    T1 = family(T122, 1)
    rng = random.Random(7)
    for _ in range(80):
        a, b = rng.choice(T1.orbits), rng.choice(T1.orbits)
        out = star(T1, {a: 1}, {b: 1})
        for w, c in out.items():
            assert len(w) == 2
            assert isinstance(c, int) and c != 0


def test_coproduct_d1(T122):
    T1 = family(T122, 1)
    for o in T1.orbits[::5]:
        comp0 = coproduct(T1, {o: 1}, 0)
        comp1 = coproduct(T1, {o: 1}, 1)
        assert comp0 == {((), o): 1}
        assert comp1 == {(o, ()): 1}


def test_coassociativity(T122):
    rng = random.Random(11)
    for d in (2, 3):
        T = family(T122, d)
        sample = rng.sample(T.orbits, 40)
        for o in sample:
            for d1 in range(d + 1):
                for d2 in range(d + 1 - d1):
                    assert double_coproduct(T, {o: 1}, d1, d2, left=True) == \
                        double_coproduct(T, {o: 1}, d1, d2, left=False), (o, d1, d2)


def test_bialgebra_compatibility(T122):
    """nabla(x star y) = nabla(x) star nabla(y) with the super sign rule."""
    rng = random.Random(13)
    for dx, dy in [(1, 1), (1, 2), (2, 1)]:
        Tx, Ty = family(T122, dx), family(T122, dy)
        target = family(T122, dx + dy)
        for _ in range(40):
            a, b = rng.choice(Tx.orbits), rng.choice(Ty.orbits)
            xy = star(Tx, {a: 1}, {b: 1})
            for d1 in range(dx + dy + 1):
                lhs = coproduct(target, xy, d1)
                assert lhs == coproducts_star(Tx, {a: 1}, Ty, {b: 1}, d1), (a, b, d1)


def _signed_involution(T, x):
    """The basis-relabeling involution composed with the tensor-reversal sign
    (-1)^C(j,2), j = number of odd letters; this composite is a plain
    anti-automorphism."""
    out = {}
    for o, c in x.items():
        j = sum(T.alg.parity[b] for (b, _r, _s) in o)
        sgn = -1 if (j * (j - 1) // 2) % 2 else 1
        for k, v in T.involution({o: 1}).items():
            out[k] = out.get(k, 0) + sgn * c * v
    return {k: v for k, v in out.items() if v}


def test_involution(T122):
    rng = random.Random(17)
    # the relabeling map is an involution
    for o in T122.orbits[::3]:
        assert T122.involution(T122.involution({o: 1})) == {o: 1}
    # with the reversal sign it is anti-multiplicative
    for _ in range(300):
        a, b = rng.choice(T122.orbits), rng.choice(T122.orbits)
        lhs = _signed_involution(T122, T122.mult_orbits(a, b))
        rhs = T122.mul(_signed_involution(T122, {b: 1}), _signed_involution(T122, {a: 1}))
        assert lhs == rhs, (a, b)


def test_truncation(T122):
    Tbar = T122.truncate([0])
    assert Tbar.rank == 36
    e = truncation_idempotent(T122, [0])
    assert T122.mul(e, e) == e
    # xi^e T xi^e is spanned by the surviving orbits
    rng = random.Random(19)
    for _ in range(60):
        o = rng.choice(T122.orbits)
        cut = T122.mul(T122.mul(e, {o: 1}), e)
        assert set(cut) <= set(Tbar.orbits)
        if o in Tbar.orbits:
            assert cut == {o: 1}
    # truncation by all colors is the identity
    assert T122.truncate([0, 1]).rank == T122.rank


def test_eta_integrality(T122):
    """Structure constants on the eta lattice are integers (no exception)."""
    rng = random.Random(23)
    for _ in range(200):
        a, b = rng.choice(T122.orbits), rng.choice(T122.orbits)
        for c in T122.mult_orbits(a, b).values():
            assert isinstance(c, int)


def test_n_less_than_d_plain_ops_allowed():
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 1, 2, tau)
    assert T.rank > 0
    a = T.orbits[0]
    T.mult_orbits(a, a)  # multiplication works in the cellular-only regime


def test_family_cache_per_truncation():
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    Tb = T.truncate([0])
    assert family(Tb, 2) is Tb and Tb.rank == 36
    assert family(Tb, 1).rank == 8
    assert family(T, 1).rank == 20
    assert family(family(Tb, 1), 2) is Tb


def test_orbit_key_gives_the_enumeration_order():
    for spec, n, d in [("trivial", 3, 3), ("zigzag:1", 2, 2), ("zigzag:1", 3, 2),
                       ("zigzag:2", 2, 2), ("semisimple:2", 2, 3)]:
        alg, data, tau = make_algebra(spec)
        T = build_schur(alg, data, n, d, tau)
        for A in (T, T.truncate(data.labels[:1])):
            assert sorted(A.orbits, key=A.orbit_key) == A.orbits, spec


@pytest.mark.parametrize("spec, n, d, truncated", [
    ("trivial", 3, 3, False), ("zigzag:2", 2, 2, False), ("zigzag:1", 3, 3, True),
])
def test_run_key_on_indices_orders_orbits_as_orbit_key(spec, n, d, truncated):
    """The run-length key of an orbit's index word orders every orbit as
    `orbit_key` does, on positions in the algebra's own letter list."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    if truncated:
        T = T.truncate([0])
        assert len(T._letters) < len(T.ctx.letters)
    orbits = list(T.orbits)
    random.Random(3).shuffle(orbits)
    index = T.ctx.index
    by_index = sorted(orbits, key=lambda o: run_key([index[lt] for lt in o]))
    assert by_index == sorted(orbits, key=T.orbit_key) == T.orbits


def test_eta_checks_membership_from_the_word(T122):
    word = (("e0", 1, 1), ("e1", 1, 2))
    assert T122.eta(word) == {(word[1], word[0]): 1}  # colors sort in reverse
    with pytest.raises(ValueError):
        T122.eta(word[:1])
    with pytest.raises(ValueError):
        T122.eta(word + word[:1])
    Tb = T122.truncate([0])
    assert Tb.eta((("e0", 1, 1), ("e0", 1, 2))) == {(("e0", 1, 1), ("e0", 1, 2)): 1}
    with pytest.raises(ValueError):
        Tb.eta(word)  # e1 is not in the truncation


@pytest.mark.parametrize("spec, kept, terms", [("zigzag:1", 1, 3), ("zigzag:2", 2, 10)])
def test_the_unit_of_a_truncation_is_its_idempotent(spec, kept, terms):
    """zigzag-bar at n=d=2 keeps the idempotents of all colors but the
    last: its unit is xi^e, one e_bold per multicomposition over the kept
    colors (3 on zigzag-bar:1, where T has 10), each a word of the
    truncation, and it is a two-sided unit on every orbit."""
    alg, data, tau = make_algebra(spec)
    Tb = build_schur(alg, data, 2, 2, tau).truncate(data.labels[:-1])
    one = Tb.unit()
    for orbit in one:
        Tb.indices(orbit)
    assert len(one) == terms == len(list(gen_multicompositions(2, 2, kept - 1)))
    for orbit in Tb.orbits:
        x = {orbit: 1}
        assert Tb.mul(one, x) == x == Tb.mul(x, one), orbit


@pytest.mark.parametrize("call", [
    lambda T, o: T.mult_orbits(T.orbits[0], o),
    lambda T, o: T.profiles(o),
    lambda T, o: T.involution({o: 1}),
    lambda T, o: T.idempotent_bold(((), (2,))),
], ids=["mult_orbits", "profiles", "involution", "idempotent_bold"])
def test_a_truncation_refuses_an_orbit_with_a_dropped_idempotent(T122, call):
    """zigzag-bar:1 at n=d=2 drops e1: an orbit that holds it is refused,
    not multiplied, profiled or mapped, and so is the e_bold it fills."""
    Tb = T122.truncate([0])
    orbit = next(o for o in T122.orbits if ("e1", 1, 1) in o)
    with pytest.raises(ValueError, match=r"^orbit .* not in this algebra$"):
        call(Tb, orbit)


def test_a_word_that_is_not_canonical_is_refused():
    """On zigzag:1 at n=2, d=3, the kernel would read an unsorted
    arrangement o1 of an orbit as its canonical word and give its product
    with o2 the wrong sign (-1 where the sorted o1 gives +1).  `mult_orbits`,
    with o1 on either side, and `profiles` refuse o1, and a sorted word that
    repeats an odd letter, while the sorted o1 keeps its product."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 3, tau)
    o1 = (("e1", 2, 2), ("a0_1", 1, 2), ("a0_1", 1, 1))
    o2 = (("e1", 1, 1), ("e1", 2, 1), ("a1_0", 2, 1))
    canonical = (("a0_1", 1, 1), ("a0_1", 1, 2), ("e1", 2, 2))
    assert T.ctx.word(sorted(T.indices(o1))) == canonical
    assert T.mult_orbits(canonical, o2) == {(("a0_1", 1, 1), ("e1", 2, 1), ("c0", 1, 1)): 1}
    repeated = (("a0_1", 1, 1), ("a0_1", 1, 1), ("e1", 2, 2))
    for word, call in [(o1, lambda: T.mult_orbits(o1, o2)), (o1, lambda: T.mult_orbits(o2, o1)),
                       (o1, lambda: T.profiles(o1)), (repeated, lambda: T.profiles(repeated)),
                       (repeated, lambda: T.mult_orbits(repeated, o2))]:
        with pytest.raises(ValueError, match=re.escape(f"orbit {word} is not canonical")):
            call()
    assert T.mult_orbits(canonical, o2) == {(("a0_1", 1, 1), ("e1", 2, 1), ("c0", 1, 1)): 1}


def test_the_letters_are_bounded_before_one_is_listed(monkeypatch):
    """dim(A) n^2 letters up to `MAX_LETTERS` are listed; past it a
    ValueError names the bound before any is."""
    from schurify import schur
    from schurify.triples import TriContext

    class Listed(Exception):
        pass

    def listed(self):
        raise Listed

    monkeypatch.setattr(TriContext, "letters", property(listed))
    alg, data, tau = make_algebra("trivial")
    assert schur.MAX_LETTERS == 250_000
    with pytest.raises(Listed):
        build_schur(alg, data, 500, 1, tau)
    with pytest.raises(ValueError, match=r"^dim\(A\) n\^2 = 1 \* 501\^2 = 251001 letters is past "
                                         r"the bound of 250000$"):
        build_schur(alg, data, 501, 1, tau)


def test_the_counts_are_bounded_before_one_is_made():
    """(dim(A) n^2 + 1)(d + 1) counts up to `MAX_COUNTS` are made; past it a
    ValueError names the bound before any is."""
    from schurify import schur

    alg, data, tau = make_algebra("trivial")
    assert schur.MAX_COUNTS == 600_000
    assert build_schur(alg, data, 1, 299_999, tau).rank == 1  # 2 * 300 000 counts
    with pytest.raises(ValueError, match=r"^\(dim\(A\) n\^2 \+ 1\)\(d \+ 1\) = 2 \* 300001 = "
                                         r"600002 counts is past the bound of 600000$"):
        build_schur(alg, data, 1, 300_000, tau)

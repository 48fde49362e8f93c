import ast
import errno
import os
import random
import re
import signal
from collections import Counter

import pytest

from helpers import (
    add,
    assert_reaped,
    block_keys,
    cellular_basis,
    codet_blocks,
    eager_codet_blocks,
    full_gram,
    gram_entries,
    heredity_oracle,
    index_expansion,
    lu_det,
    lu_solve,
    orbit_profiles,
    std,
    tableau_share,
    tableau_weight,
    truncation_idempotent,
)
from schurify import codeterminants as codet, heredity
from schurify.base_algebra import SIDES, X_SIDE, Y_SIDE, make_algebra
from schurify.decomposition import decomp_oracle, gram_blocks
from schurify.exactla import Block, unit_determinant
from schurify.heredity import heredity_of_T
from schurify.partitions import leq
from schurify.schur import SchurAlgebra, build_schur
from schurify.straighten import Straightener, orbit_to_codet


@pytest.fixture(scope="module")
def cb(T122):
    return codet.CodetBasis(T122)


def test_basis_count_and_unimodularity(T122, cb):
    assert len(cb.keys) == T122.rank == 202
    assert cb.unimodular()


def test_initial_codeterminant_is_idempotent(T122, cb):
    for bold in cb.shapes:
        S, Tb = cb.initial_tableau_pair(bold)
        e = T122.idempotent_bold(bold)
        assert codet.codet_element(T122, S, Tb) == e


def test_idempotent_action_on_tableau_elements(T122, cb):
    """e_mu * X_S = delta_{mu, alpha^S} X_S and Y_T * e_mu symmetrically."""
    from schurify.partitions import gen_multicompositions, pad

    mus = gen_multicompositions(2, 2, 1)
    for bold in cb.shapes:
        for S in cb.std_x[bold]:
            xs = codet.side_element(T122, S, X_SIDE)
            w = tuple(pad(c, 2) for c in tableau_weight(S, T122.ctx.x_alphabet))
            for mu in mus:
                e = T122.idempotent_bold(mu)
                prod = T122.mul(e, xs)
                expect = xs if tuple(pad(c, 2) for c in mu) == w else {}
                assert prod == expect, (bold, S, mu)
        for Tb in cb.std_y[bold]:
            ys = codet.side_element(T122, Tb, Y_SIDE)
            w = tuple(pad(c, 2) for c in tableau_weight(Tb, T122.ctx.y_alphabet))
            for mu in mus:
                e = T122.idempotent_bold(mu)
                prod = T122.mul(ys, e)
                expect = ys if tuple(pad(c, 2) for c in mu) == w else {}
                assert prod == expect, (bold, Tb, mu)


def test_straighten_backends_agree(T122, cb):
    st = Straightener(T122)
    rng = random.Random(3)
    for o in rng.sample(T122.orbits, 60):
        assert cb.solve({o: 1}) == st.straighten_element({o: 1}), o


def test_an_element_over_several_blocks_is_solved_block_by_block(T122, cb):
    """An element whose orbits lie in several blocks solves to the sum of
    its orbits' solves, and agrees with the recursive straightening."""
    index, block_key = T122.ctx.index, T122.ctx.block_key
    orbits = random.Random(5).sample(T122.orbits, 6)
    assert len({block_key(tuple(index[lt] for lt in o)) for o in orbits}) >= 2
    x = {o: (-1) ** k * (k + 1) for k, o in enumerate(orbits)}
    got = codet.CodetBasis(T122).solve(x)
    total = {}
    for o, c in x.items():
        for key, v in cb.solve({o: 1}).items():
            total[key] = total.get(key, 0) + c * v
    assert got == {key: v for key, v in total.items() if v}
    assert got == Straightener(T122).straighten_element(x)


def test_straighten_standard_fixed(T122, cb):
    st = Straightener(T122)
    rng = random.Random(4)
    for key in rng.sample(cb.keys, 40):
        assert st.straighten_codet(key) == {key: 1}
        assert cb.solve(T122.element(index_expansion(cb, key))) == {key: 1}


def test_straighten_triangular_and_roundtrip(T122, cb):
    """Each eta is +-1 times a row-standard codeterminant; straightening it
    only produces labels dominating its shape, and expanding the result back
    reproduces eta."""
    rng = random.Random(5)
    for o in rng.sample(T122.orbits, 50):
        (mu, _S0, _T0), _sgn = orbit_to_codet(T122, o)
        exp = cb.solve({o: 1})
        back = {}
        for key, c in exp.items():
            assert leq(mu, key[0]), (o, key)
            back = add(back, T122.element(index_expansion(cb, key)), c)
        assert back == {o: 1}, o


def test_heredity_of_T(T122):
    rep = heredity_of_T(T122, sample_b=8)
    assert rep.ok, rep.failures


def test_heredity_refused_for_small_n():
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 1, 2, tau)
    with pytest.raises(ValueError):
        heredity_of_T(T)
    with pytest.raises(ValueError):
        codet.CodetBasis(T).solve({T.orbits[0]: 1})


def test_a_truncation_is_refused():
    """A truncation is only cellular, its cellular basis lying in the
    ambient algebra: the codeterminant basis, the heredity check and the
    decomposition oracle all refuse it."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau).truncate([0])
    for build in (codet.CodetBasis, heredity_of_T, decomp_oracle):
        with pytest.raises(ValueError, match="not a truncation"):
            build(T)


def test_standard_module_gram(T122, cb):
    for bold in cb.shapes:
        blocks = gram_blocks(T122, bold)
        # normalized at the initial tableau
        S0, T0 = cb.initial_tableau_pair(bold)
        assert gram_entries(T122, bold, blocks)[S0, T0] == 1
        # one row per standard X tableau
        assert sum(len(rows) for rows in blocks.values()) == len(cb.std_x[bold])


GRAM_CASES = [("zigzag:1", 2, 2), ("zigzag:2", 2, 2), ("trivial", 3, 3), ("semisimple:2", 2, 2),
              ("zigzag:1", 3, 3), ("zigzag:2", 3, 3)]


@pytest.mark.parametrize("spec,n,d", GRAM_CASES)
def test_gram_blocks_match_the_full_gram(spec, n, d):
    """Over every pair of standard tableaux, the Gram entry is zero unless
    the two weights are equal, and where they are it is the entry of
    `gram_blocks` (zero outside its blocks)."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    cb = T.codet_basis
    for bold in cb.shapes:
        full = full_gram(T, bold)
        blocks = gram_entries(T, bold, gram_blocks(T, bold))
        assert any(full.values()), bold
        weight = {(tab, side): tableau_share(T, tab, side)[0]
                  for side in SIDES for tab in std(cb, side)[bold]}
        for (S, Tb), c in full.items():
            if weight[S, X_SIDE] != weight[Tb, Y_SIDE]:
                assert c == 0, (bold, S, Tb)
            assert c == blocks.get((S, Tb), 0), (bold, S, Tb)


def test_gram_homogeneity_failure_names_its_pair(monkeypatch):
    """With a Y tableau T1 of degree 1 filed at degree -1, the X tableau S1
    of its weight and degree 1 meets it as a degree-0 pair; their product,
    of degree 2, falls outside the unit block, and the failure names the
    pair."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    assert cb.unimodular()  # builds every codeterminant block with the true shares
    bold = ((1,), (1,))
    S1 = ((((1, "e0"),),), (((1, "a0_1"),),))
    T1 = ((((1, "e0"),),), (((1, "a1_0"),),))
    xs, ys = cb._tableau_blocks[bold]
    assert dict(xs)[S1] == (((2, 0), (0, 0)), 1, 1) == dict(ys)[T1]
    shifted = [(Tb, (w, deg - 2 * (Tb == T1), par)) for Tb, (w, deg, par) in ys]
    monkeypatch.setitem(cb._tableau_blocks, bold, (xs, shifted))
    with pytest.raises(AssertionError) as exc:
        gram_blocks(T, bold)
    assert str(exc.value) == f"Gram pairing not homogeneous at {bold}: S = {S1}, T = {T1}"


def _unit_block(T, bold):
    """The key of the unit codeterminant's block, and e_bold's one orbit."""
    padded = tuple(tuple(c) + (0,) * (T.n - len(c)) for c in bold)
    ((orbit, _c),) = T.idempotent_bold(bold).items()
    return (padded, padded, 0, 0), orbit


def test_gram_blocks_make_one_product_per_entry(monkeypatch):
    """`gram_blocks` multiplies once for each entry of its blocks, and
    factors one block per shape, the unit codeterminant's, which is all
    that `_factored` then holds."""
    alg, data, tau = make_algebra("zigzag:2")
    T = build_schur(alg, data, 3, 3, tau)
    cb = T.codet_basis
    products, factored = [], []
    real_pairing, real_factor = codet.CodetBasis.pairing, codet.CodetBasis.factor

    def counted_pairing(self, y, x):
        products.append(None)
        return real_pairing(self, y, x)

    def counted_factor(self, key):
        factored.append(key)
        return real_factor(self, key)

    monkeypatch.setattr(codet.CodetBasis, "pairing", counted_pairing)
    monkeypatch.setattr(codet.CodetBasis, "factor", counted_factor)
    units = []
    for bold in cb.shapes:
        products.clear()
        factored.clear()
        blocks = gram_blocks(T, bold)
        assert len(products) == sum(len(row) for rows in blocks.values() for row in rows), bold
        units.append(_unit_block(T, bold)[0])
        assert factored == [units[-1]], bold
    assert list(cb._factored) == units


def test_gram_pairing_off_the_unit_rows_is_named(monkeypatch):
    """A degree-0 product whose word has the unit block's key but is not
    one of its rows raises, naming the word and the block."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    bold = ((1,), (1,))
    key, orbit = _unit_block(T, bold)
    word = tuple(T.ctx.index[lt] for lt in orbit)
    real = Block.dual_row
    monkeypatch.setattr(Block, "dual_row",
                        lambda self, col: {r: a for r, a in real(self, col).items() if r != word})
    with pytest.raises(AssertionError) as exc:
        gram_blocks(T, bold)
    assert str(exc.value) == f"{orbit} is not a row of codeterminant block {key}"


def test_gram_non_integral_coefficient_names_the_unit_block(monkeypatch):
    """With the unit codeterminant's column doubled, its block has
    determinant +-2 and e_bold = Y_T0 X_S0 has the coefficient 1/2 there:
    the entry raises ArithmeticError naming the column and the block."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    bold = ((1,), (1,))
    unit_key = (bold, *cb.initial_tableau_pair(bold))
    key, _orbit = _unit_block(T, bold)
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: 2 * c for o, c in out.items()} if (x.bold, x.tab, y.tab) == unit_key else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    assert abs(cb.factor(key).det) == 2
    with pytest.raises(ArithmeticError) as exc:
        gram_blocks(T, bold)
    assert str(exc.value) == (f"non-integral coefficient 1/2 of column {unit_key} "
                              f"in codeterminant block {key}")


def test_cellularity_zigzag_bar(T122):
    cells = cellular_basis(T122, [0])
    assert len(cells) == 36
    # shapes contribute 1 + 9 + 16 + 9 + 1
    from collections import Counter

    by_shape = Counter(bold for (bold, _S, _T) in cells)
    assert sorted(by_shape.values()) == [1, 1, 9, 9, 16]
    e = truncation_idempotent(T122, [0])
    assert T122.involution(e) == e
    for (bold, S, T2), el in cells.items():
        assert T122.involution(el) == cells[(bold, T2, S)]


def test_straighten_trivial_d4():
    """The recursive backend agrees with the linear solve at d = 4, on the
    orbit whose auxiliary shape once split its violating row a cell early
    and on a seeded sample."""
    alg, data, tau = make_algebra("trivial")
    T = build_schur(alg, data, 4, 4, tau)
    st = Straightener(T)
    witness = (("1", 1, 1), ("1", 2, 1), ("1", 3, 1), ("1", 3, 2))
    rng = random.Random(4)
    for o in [witness] + rng.sample(T.orbits, 150):
        assert st.straighten_element({o: 1}) == T.codet_basis.solve({o: 1}), o


def test_heredity_checks_both_sides_alike(T122, monkeypatch):
    """With a wrong initial tableau pair, axiom (c) fails as often on the Y
    side as on the X side."""
    real = codet.CodetBasis.initial_tableau_pair
    bold = ((2,), ())

    def wrong(self, shape):
        if shape == bold:
            return self.std_x[bold][-1], self.std_y[bold][-1]
        return real(self, shape)

    monkeypatch.setattr(codet.CodetBasis, "initial_tableau_pair", wrong)
    rep = heredity_of_T(T122, sample_b=8)
    x = [f for f in rep.failures if f.startswith(f"axiom (c): e X_S wrong at {bold}: S = ")]
    y = [f for f in rep.failures if f.startswith(f"axiom (c): Y_T e wrong at {bold}: T = ")]
    assert len(x) == len(y) > 0, rep.failures
    # the named tableaux are the true initial one and the wrong one
    S0, T0 = real(T122.codet_basis, bold)
    S1, T1 = wrong(T122.codet_basis, bold)
    assert x == [f"axiom (c): e X_S wrong at {bold}: S = {S}" for S in (S0, S1)]
    assert y == [f"axiom (c): Y_T e wrong at {bold}: T = {Tb}" for Tb in (T0, T1)]


def test_axiom_c_failures_name_their_witness(monkeypatch):
    """With e_bold replaced by e_other for one shape, axiom (c) names each
    of that shape's tableaux, and the diagonal check names mu = bold with
    tableaux of weight bold or other only."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    bold, other = ((1, 1), ()), ((2,), ())
    real = SchurAlgebra.idempotent_bold

    def broken(self, shape):
        return real(self, other if shape == bold else shape)

    monkeypatch.setattr(SchurAlgebra, "idempotent_bold", broken)
    rep = heredity_of_T(T, sample_b=4)
    assert not rep.ok
    for S in cb.std_x[bold]:
        assert f"axiom (c): X_S e != X_S at {bold}: S = {S}" in rep.failures
    for Tb in cb.std_y[bold]:
        assert f"axiom (c): e Y_T != Y_T at {bold}: T = {Tb}" in rep.failures
    diagonal = [f for f in rep.failures if " not diagonal at " in f]
    assert diagonal, rep.failures
    weights = {((1, 1), (0, 0)), ((2, 0), (0, 0))}
    named = set()
    for shape in cb.shapes:
        for side in SIDES:
            for tab in std(cb, side)[shape]:
                if tableau_weight(tab, T.ctx.alphabet(side)) in weights:
                    named.add(f"axiom (c): {side.pick('e_mu X_S', 'Y_T e_mu')} not diagonal "
                              f"at {shape}: {side.pick('S', 'T')} = {tab}, mu = {bold}")
    assert set(diagonal) <= named, set(diagonal) - named


def test_axiom_b_failure_names_its_witness(monkeypatch):
    """A solve that adds a codeterminant of the same shape with a non-initial
    Y tableau makes axiom (b) fail, naming the orbit, the tableau and the key."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    bad = {}
    for key in cb.keys:
        mu, _S, Tb = key
        if Tb != cb.initial_tableau_pair(mu)[1]:
            bad.setdefault(mu, key)
    real = codet.CodetBasis.solve_terms

    def broken(self, terms):
        out = dict(real(self, terms))
        for mu in {key[0] for key in out} & bad.keys():
            out[bad[mu]] = 1
        return out

    monkeypatch.setattr(codet.CodetBasis, "solve_terms", broken)
    rep = heredity_of_T(T, sample_b=4)
    assert not rep.ok
    named = [f for f in rep.failures if f.startswith("axiom (b): a*X_S escapes the X span at ")]
    assert named, rep.failures
    witnesses = {
        f"axiom (b): a*X_S escapes the X span at {bold}: a = {o}, S = {S}, codeterminant {key}"
        for bold, key in bad.items() for S in cb.std_x[bold] for o in T.orbits
    }
    assert set(named) <= witnesses, set(named) - witnesses


ORACLE_CASES = [("zigzag:1", 2, 2, None), ("zigzag:1", 2, 2, 4), ("zigzag:2", 2, 2, None),
                ("trivial", 3, 3, None)]


@pytest.mark.parametrize("spec,n,d,sample_b", ORACLE_CASES)
def test_heredity_matches_the_tensor_oracle(spec, n, d, sample_b):
    """The heredity check and its oracle, which multiplies every product
    through the tensor power, agree."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    rep = heredity_of_T(T, sample_b=sample_b)
    assert rep.ok, rep.failures
    assert heredity_oracle(T, sample_b) == (rep.ok, rep.failures)


def test_heredity_failures_match_the_tensor_oracle(monkeypatch):
    """On a wrong initial tableau pair and on a broken idempotent, the
    heredity check and its oracle give the same failures in the same
    order."""
    alg, data, tau = make_algebra("zigzag:1")
    real_pair, real_idem = codet.CodetBasis.initial_tableau_pair, SchurAlgebra.idempotent_bold
    wrong_at, bold, other = ((), (2,)), ((1, 1), ()), ((2,), ())

    def wrong(self, shape):
        if shape == wrong_at:
            return self.std_x[shape][-1], self.std_y[shape][-1]
        return real_pair(self, shape)

    def broken(self, shape):
        return real_idem(self, other if shape == bold else shape)

    kinds = []
    for cls, attr, patch, sample_b in ((codet.CodetBasis, "initial_tableau_pair", wrong, 8),
                                       (SchurAlgebra, "idempotent_bold", broken, 4)):
        with monkeypatch.context() as m:
            m.setattr(cls, attr, patch)
            T = build_schur(alg, data, 2, 2, tau)
            rep = heredity_of_T(T, sample_b=sample_b)
            assert not rep.ok
            assert heredity_oracle(T, sample_b) == (rep.ok, rep.failures), attr
            kinds.append({f[:len("axiom (c)")] for f in rep.failures})
    # the wrong pair breaks axioms (b) and (c), the idempotent axiom (c)
    assert kinds == [{"axiom (b)", "axiom (c)"}, {"axiom (c)"}]


LAZY_CASES = [("trivial", 3, 3, False), ("zigzag:1", 2, 2, False), ("zigzag:1", 3, 3, False),
              ("zigzag:2", 2, 2, False), ("zigzag:1", 3, 3, True)]
# the cases without a truncation, which has no codeterminant basis, under
# their ids in LAZY_CASES, truncation flag included
AMBIENT_CASES = [pytest.param(*case[:3], id="-".join(map(str, case)))
                 for case in LAZY_CASES if not case[3]]


@pytest.mark.parametrize("spec,n,d", AMBIENT_CASES)
def test_lazy_blocks_match_the_eager_walk(spec, n, d):
    """The blocks built one left profile at a time are the eager walk's
    blocks with columns: the same keys, in sorted order and each once, the
    same rows and columns, in the same order, with the same determinants;
    and the walk keeps no table of keys.  The determinants are taken on a
    second basis, whose `factor` keeps the blocks it builds."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    cb, other = T.codet_basis, codet.CodetBasis(T)
    eager = eager_codet_blocks(other)
    with_columns = [key for key, (_rows, cols) in eager.items() if cols]
    streamed = list(block_keys(cb))
    assert len(set(streamed)) == len(streamed)
    lazy = codet_blocks(cb)
    assert list(lazy) == sorted(with_columns) and len(lazy) == len(with_columns)
    for key in with_columns:
        rows, cols = eager[key]
        assert lazy[key] == (rows, cols), key
        mat = [[0] * len(cols) for _ in rows]
        for j, col in enumerate(cols):
            for orbit, c in codet.codet_element(T, *col[1:]).items():
                mat[rows.index(orbit)][j] = c
        assert other.factor(key).det == lu_det(mat), key
    assert sum(len(eager[key][0]) for key in with_columns) == T.rank == len(cb.keys)
    assert cb.unimodular()
    # after the walk, no attribute of the basis holds a block key
    keys = set(with_columns)
    assert not [name for name, value in vars(cb).items()
                if isinstance(value, (dict, list, tuple, set, frozenset))
                and any(isinstance(v, tuple) and v in keys for v in value)]


@pytest.mark.parametrize("spec,n,d,truncated", LAZY_CASES)
def test_one_sided_enumeration_matches_the_grouping(spec, n, d, truncated):
    """The orbits of one left (or right) profile come out in the order of
    `T.orbits`, on both sides and for every profile that occurs."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    if truncated:
        T = T.truncate([0])
    for side in (0, 1):
        groups = {}
        for orbit in T.orbits:
            groups.setdefault(orbit_profiles(T, orbit)[side], []).append(orbit)
        for profile, orbits in groups.items():
            assert list(T.orbits_with_profile(side, profile)) == orbits, (side, profile)
        empty = tuple((0,) * n for _ in data.labels)
        assert list(T.orbits_with_profile(side, empty)) == ([()] if d == 0 else [])


def test_a_solve_builds_only_the_block_it_meets(monkeypatch):
    """A solve builds the one block its orbit lies in, and the decomposition
    oracle lists no orbits."""
    alg, data, tau = make_algebra("zigzag:2")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    key = list(block_keys(cb))[5]
    rows, _cols = codet_blocks(cb)[key]
    built, listed = [], []
    real_block, real_list = codet.CodetBasis._block, T.orbits_with_profile

    def counted(self, k):
        built.append(k)
        return real_block(self, k)

    monkeypatch.setattr(codet.CodetBasis, "_block", counted)
    monkeypatch.setattr(T, "orbits_with_profile", lambda *args: listed.append(args) or real_list(*args))
    assert cb.solve({rows[-1]: 1})
    assert built == [key]
    decomp_oracle(T)
    assert "orbits" not in vars(T) and not listed


def test_unimodularity_lists_no_orbits_and_caches_no_expansion(monkeypatch):
    """The unimodularity walk builds every block from its columns: it lists
    no orbits, and the codeterminant expansions bypass the product cache."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 3, 3, tau)
    listed = []
    real = T.orbits_with_profile
    monkeypatch.setattr(T, "orbits_with_profile", lambda *args: listed.append(args) or real(*args))
    cb = T.codet_basis
    assert cb.unimodular()
    assert "orbits" not in vars(T) and not listed
    pairs = {(x, y) for _bold, S, Tb in cb.keys
             for x in codet.side_element(T, S, X_SIDE) for y in codet.side_element(T, Tb, Y_SIDE)}
    assert len(pairs) == len(cb.keys)


def test_tableau_elements_made_once(monkeypatch):
    """The unimodularity check makes no X_S or Y_T Element, and makes the
    index word of each tableau once."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    elements, made = [], []
    real_element, real_word = codet.side_element, codet.CodetBasis.index_word

    def counted_element(T_, tab, side):
        elements.append((side.name, tab))
        return real_element(T_, tab, side)

    def counted_word(self, tab, side):
        made.append((side.name, tab))
        return real_word(self, tab, side)

    monkeypatch.setattr(codet, "side_element", counted_element)
    monkeypatch.setattr(codet.CodetBasis, "index_word", counted_word)
    assert cb.unimodular()
    assert not elements
    assert len(made) == len(set(made)) == sum(
        len(cb.std_x[bold]) + len(cb.std_y[bold]) for bold in cb.shapes)


@pytest.mark.parametrize("n", [2, 3])
def test_walk_and_heredity_make_each_tableau_factor_once(monkeypatch, n):
    """From a fresh algebra, the unimodularity walk and `heredity_of_T`
    together make the left and the right kernel factor of each tableau word
    at most once each: the heredity check starts from the factors the walk's
    tableau shares hold."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, n, n, tau)
    made = {"left": [], "right": []}
    for side in made:
        real = getattr(SchurAlgebra, f"{side}_factor")
        monkeypatch.setattr(SchurAlgebra, f"{side}_factor",
                            lambda self, w, real=real, seen=made[side]: seen.append(w) or real(self, w))
    assert heredity_of_T(T, sample_b=10).ok
    cb = T.codet_basis
    words = {cb.index_word(tab, side)[0]
             for side in SIDES for bold in cb.shapes for tab in std(cb, side)[bold]}
    for side, seen in made.items():
        on_tableaux = [w for w in seen if w in words]
        assert set(on_tableaux) == words, side
        assert len(on_tableaux) == len(words), side


def test_heredity_makes_each_tableau_factor_once(monkeypatch):
    """After the unimodularity walk, one `heredity_of_T` call makes the left
    and the right kernel factor of each tableau word at most once each:
    axiom (b) takes its factors from those axiom (c) made."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    assert cb.unimodular()
    words = {cb.index_word(tab, side)[0]
             for side in SIDES for bold in cb.shapes for tab in std(cb, side)[bold]}
    made = {"left": [], "right": []}
    for side in made:
        real = getattr(SchurAlgebra, f"{side}_factor")
        monkeypatch.setattr(SchurAlgebra, f"{side}_factor",
                            lambda self, w, real=real, seen=made[side]: seen.append(w) or real(self, w))
    assert heredity_of_T(T).ok
    for side, seen in made.items():
        on_tableaux = [w for w in seen if w in words]
        assert on_tableaux and len(on_tableaux) == len(set(on_tableaux)), side


@pytest.mark.parametrize("spec", ["zigzag:1", "zigzag:2"])
def test_heredity_and_oracle_keep_nothing_in_the_algebra_tables(spec):
    """After the unimodularity walk, neither `heredity_of_T` nor the
    decomposition oracle adds a kernel factor to the algebra's tables: the
    heredity check keeps what it makes for its own call, and the Gram rows
    make and drop theirs."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, 2, 2, tau)
    assert T.codet_basis.unimodular()
    held = (len(T.lefts), len(T.rights))
    assert held[0] and held[1]
    assert heredity_of_T(T).ok
    assert (len(T.lefts), len(T.rights)) == held
    decomp_oracle(T)
    assert (len(T.lefts), len(T.rights)) == held


def test_mult_orbits_and_walk_share_the_tableau_factors(monkeypatch):
    """From a fresh algebra, `mult_orbits` on each X_S word and then the
    unimodularity walk make the left factor of each such word once: both
    read it from `SchurAlgebra.lefts`."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    made = []
    real = SchurAlgebra.left_factor
    monkeypatch.setattr(SchurAlgebra, "left_factor",
                        lambda self, w: made.append(w) or real(self, w))
    cb = T.codet_basis
    words = {cb.index_word(S, X_SIDE)[0] for bold in cb.shapes for S in cb.std_x[bold]}
    for w in words:
        orbit = T.ctx.word(w)
        meets = next(T.orbits_with_profile(0, T.profiles(orbit)[1]))
        T.mult_orbits(orbit, meets)
    assert sorted(made) == sorted(words)
    assert cb.unimodular()
    assert sorted(made) == sorted(words)


def test_index_word_refuses_words_outside_T():
    """`index_word` reads X_S off the tableau with the checks of
    `SchurAlgebra.eta`: a word of the wrong length raises ValueError naming
    it, and so does a word that repeats an odd letter.  A word with a letter
    outside a truncation is refused the same way by the truncation's
    `indices` and `eta`, which guard its products."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb, truncated = T.codet_basis, T.truncate([0])
    outside = next(o for o in T.orbits if any(b not in truncated.keep_basis for b, _r, _s in o))
    for refuse in (truncated.indices, truncated.eta):
        with pytest.raises(ValueError, match=re.escape(f"orbit {outside} not in this algebra")):
            refuse(outside)
    short = build_schur(alg, data, 2, 1, tau).codet_basis.std_x[((1,), ())][0]
    word = codet._own_word(short, X_SIDE)
    with pytest.raises(ValueError, match=re.escape(f"orbit {word} not in this algebra")):
        cb.index_word(short, X_SIDE)
    odd = next(b for b in alg.basis if alg.parity[b])
    repeated = ((((1, odd), (1, odd)),), ())
    word = codet._own_word(repeated, X_SIDE)
    with pytest.raises(ValueError, match=re.escape(f"repeated odd letter in {word}")):
        cb.index_word(repeated, X_SIDE)


def test_axiom_a_failure_names_its_witness(monkeypatch):
    """A doubled codeterminant column makes its block's determinant +-2;
    axiom (a) names the first such block and its determinant."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    doubled = T.codet_basis.keys[7]
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: 2 * c for o, c in out.items()} if (x.bold, x.tab, y.tab) == doubled else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    rep = heredity_of_T(T, sample_b=4)
    block = next(key for key, (_rows, cols) in codet_blocks(T.codet_basis).items() if doubled in cols)
    det = T.codet_basis.factor(block).det
    assert abs(det) == 2
    assert rep.failures == [
        f"axiom (a): change of basis not unimodular: block {block} has determinant {det}"
    ]


def test_axiom_a_names_the_lesser_of_two_failing_blocks(monkeypatch):
    """With one column doubled in each of two blocks, axiom (a) names the
    lesser block key and its signed determinant, though `keys` meets the
    other block's column first."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    block_of = {col: key for key, (_rows, cols) in codet_blocks(cb).items() for col in cols}
    doubled = next((a, b) for i, a in enumerate(cb.keys) for b in cb.keys[i + 1:]
                   if block_of[b] < block_of[a])
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: 2 * c for o, c in out.items()} if (x.bold, x.tab, y.tab) in doubled else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    rep = heredity_of_T(T, sample_b=4)
    greater, lesser = (block_of[col] for col in doubled)
    assert abs(cb.factor(greater).det) == 2
    det = cb.factor(lesser).det
    assert abs(det) == 2
    assert cb.non_unimodular_block() == (lesser, det)
    assert rep.failures == [
        f"axiom (a): change of basis not unimodular: block {lesser} has determinant {det}"
    ]


def test_unimodularity_check_takes_determinants_alone(monkeypatch):
    """`unimodular()` expands each codeterminant once and keeps no block it
    built; a later solve expands its own block's columns alone, once more,
    keeps that block alone, and agrees with the LU oracle."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    key, (rows, cols) = max(codet_blocks(cb).items(), key=lambda kv: len(kv[1][1]))
    assert len(cols) > 1
    expanded = []
    real = codet.CodetBasis._expand

    def counted(self, x, y):
        expanded.append((x.bold, x.tab, y.tab))
        return real(self, x, y)

    monkeypatch.setattr(codet.CodetBasis, "_expand", counted)
    assert cb.unimodular()
    assert len(expanded) == len(set(expanded)) == len(cb.keys) and set(expanded) == set(cb.keys)
    assert not cb._factored  # no walk-built block is kept

    mat = [[T.element(index_expansion(cb, col)).get(orbit, 0) for col in cols] for orbit in rows]
    x = [(-1) ** j * (j + 1) for j in range(len(cols))]
    v = {orbit: c for orbit, row in zip(rows, mat)
         if (c := sum(m * xj for m, xj in zip(row, x)))}
    expanded.clear()
    got = cb.solve(v)
    assert expanded == cols
    assert list(cb._factored) == [key] and hasattr(cb._factored[key], "steps")
    want = lu_solve(mat, [v.get(orbit, 0) for orbit in rows])
    assert got == {col: int(c) for col, c in zip(cols, want) if c} == dict(zip(cols, x))


def test_axiom_a_names_a_column_that_reaches_another_block(monkeypatch):
    """An expansion that gains an orbit of another block fails axiom (a),
    naming the column, its block and the orbit's block."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    blocks = codet_blocks(cb)
    key, (_rows, cols) = list(blocks.items())[3]
    col = cols[0]
    other, (other_rows, _other_cols) = list(blocks.items())[9]
    stray = other_rows[0]
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        if (x.bold, x.tab, y.tab) == col:
            return {**out, tuple(T.ctx.index[lt] for lt in stray): 1}
        return out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    rep = heredity_of_T(T, sample_b=4)
    assert rep.failures == [
        f"axiom (a): codeterminant block {key}: column {col} reaches {stray} of block {other}"
    ]


def test_unit_determinant_against_the_lu_oracle():
    """`unit_determinant` on sparse columns agrees with |det| = 1 by the
    Fraction LU oracle: on signed permutation matrices with entries +-1 and
    +-2, on one-term columns +-1 that share a row, and on seeded sparse
    matrices of small entries, singular ones included."""
    rng = random.Random(26)
    mats = [[[1, 1], [0, 0]], [[1, 0, -1], [0, 1, 0], [0, 0, 0]]]
    for n in range(1, 6):
        for _ in range(6):
            perm = rng.sample(range(n), n)
            mats.append([[rng.choice((1, -1, 1, -1, 2, -2)) if perm[j] == i else 0
                          for j in range(n)] for i in range(n)])
            mats.append([[rng.choice((0, 0, 0, 1, -1, 2)) for _j in range(n)] for _i in range(n)])
    agree = Counter()
    for mat in mats:
        columns = [{(i,): mat[i][j] for i in range(len(mat)) if mat[i][j]} for j in range(len(mat))]
        want = abs(lu_det(mat)) == 1
        assert unit_determinant(columns) == want, mat
        agree[want] += 1
    assert agree[True] > 10 and agree[False] > 10, agree


def _single_term_blocks(cb) -> list:
    """(key, columns) of the blocks whose every column expands to one term
    +-1: the signed permutation matrices among the blocks."""
    return [(key, cols) for key, (_rows, cols) in codet_blocks(cb).items()
            if all(len(v) == 1 and abs(next(iter(v.values()))) == 1
                   for v in (index_expansion(cb, col) for col in cols))]


@pytest.mark.parametrize("size", [1, 2])
def test_axiom_a_names_a_signed_permutation_block_with_a_non_unit_entry(monkeypatch, size):
    """A block of one-term columns in which one term is scaled, to 2 in a
    1x1 block and to -2 times its sign in a larger one, fails axiom (a):
    the walk's elimination finds |det| = 2 and builds the block, and the
    failure names the block and its signed determinant."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    key, cols = next((key, cols) for key, cols in _single_term_blocks(cb)
                     if (len(cols) == 1) == (size == 1))
    scale = 2 if size == 1 else -2
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: scale * c for o, c in out.items()} if (x.bold, x.tab, y.tab) == cols[-1] else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    det = cb.factor(key).det
    assert abs(det) == 2
    assert cb.non_unimodular_block() == (key, det)
    rep = heredity_of_T(T, sample_b=4)
    assert rep.failures == [
        f"axiom (a): change of basis not unimodular: block {key} has determinant {det}"
    ]


def test_axiom_a_names_a_one_term_column_moved_to_another_block(monkeypatch):
    """A one-term column of a signed permutation block whose term moves to a
    row of another block leaves the block square, with one term +-1 in each
    column on distinct rows; the walk's row check still fails it, naming the
    column, its block and the row's block."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    blocks = codet_blocks(cb)
    key, cols = next((key, cols) for key, cols in _single_term_blocks(cb) if len(cols) > 1)
    other = next(k for k in blocks if k != key)
    stray = blocks[other][0][0]
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        if (x.bold, x.tab, y.tab) == cols[0]:
            return {tuple(T.ctx.index[lt] for lt in stray): c for c in out.values()}
        return out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    rep = heredity_of_T(T, sample_b=4)
    assert rep.failures == [
        f"axiom (a): codeterminant block {key}: column {cols[0]} reaches {stray} of block {other}"
    ]


# the ids keep the truncation flag the cases had while a truncation had a
# codeterminant basis
@pytest.mark.parametrize("spec,n,d", [pytest.param("zigzag:2", 2, 2, id="zigzag:2-2-2-False"),
                                     pytest.param("trivial", 3, 3, id="trivial-3-3-False")])
def test_row_codes_read_the_block_key(spec, n, d):
    """The walk's packed check passes a word of letter indices for a block
    key exactly when that key is the word's `block_key`, over every orbit of
    T and every block."""
    alg, data, tau = make_algebra(spec)
    T = build_schur(alg, data, n, d, tau)
    cb = T.codet_basis
    index, code = T.ctx.index, cb._letter_codes
    keys = list(block_keys(cb))
    for orbit in T.orbits:
        w = tuple(index[lt] for lt in orbit)
        own = T.ctx.block_key(w)
        for key in keys:
            fixed, odd = cb._row_codes(key)
            assert (sum(code[i] for i in w) - fixed in odd) == (own == key), (orbit, key)


def test_axiom_a_names_an_orbit_no_column_reaches(monkeypatch):
    """An expansion that loses an orbit no other column of its block
    reaches fails axiom (a), naming the orbit and the block."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    key, col, lost = next(
        (key, col, orbit)
        for key, (_rows, cols) in codet_blocks(cb).items() if len(cols) > 1
        for col in cols for orbit in index_expansion(cb, col)
        if not any(orbit in index_expansion(cb, c) for c in cols if c != col))
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: c for o, c in out.items() if o != lost} if (x.bold, x.tab, y.tab) == col else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    rep = heredity_of_T(T, sample_b=4)
    lost = T.ctx.word(lost)
    assert rep.failures == [f"axiom (a): codeterminant block {key}: no column reaches its orbit {lost}"]


def test_a_solve_outside_every_block_names_its_orbit():
    """A word that is no row of any block, as an orbit's word out of the
    canonical order is, cannot be solved for; the error names it."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    word = next(o for o in T.orbits if o[0] != o[1])[::-1]
    with pytest.raises(AssertionError, match=re.escape(f"{word} is not a row of codeterminant block")):
        T.codet_basis.solve({word: 1})


# ---------------------------------------------------------------------------
# axiom (a)'s walk on two processes
# ---------------------------------------------------------------------------

def _log_the_walks(monkeypatch, tmp_path) -> None:
    """Each process that walks writes the blocks it walks, (key,
    determinant, order), to a file of its own in `tmp_path`, a line each."""
    real = codet.CodetBasis._walk

    def logged(self, weights=None):
        with open(tmp_path / f"walk-{os.getpid()}", "a", buffering=1) as log:
            for block in real(self, weights):
                log.write(f"{block!r}\n")
                yield block

    monkeypatch.setattr(codet.CodetBasis, "_walk", logged)


def _walks(tmp_path) -> list[list]:
    """The blocks each process walked, in its order, the shorter walk first."""
    return sorted(([ast.literal_eval(line) for line in path.read_text().splitlines()]
                   for path in tmp_path.glob("walk-*")), key=len)


def test_the_two_processes_walk_every_block_once(monkeypatch, tmp_path, forks):
    """On zigzag:1 n=d=3 (56 X weights), the walk of `heredity_of_T` is
    shared by at most two processes: together they walk every block once,
    unimodular, and the blocks' orders sum to the rank.  No child is left
    to reap."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 3, 3, tau)
    _log_the_walks(monkeypatch, tmp_path)
    assert heredity_of_T(T, sample_b=4).ok
    assert_reaped(forks)
    walks = _walks(tmp_path)
    assert 1 <= len(walks) <= 2
    blocks = [block for walk in walks for block in walk]
    keys = [key for key, _det, _size in blocks]
    assert len(keys) == len(set(keys)) and set(keys) == set(block_keys(T.codet_basis))
    assert all(abs(det) == 1 for _key, det, _size in blocks)
    assert sum(size for _key, _det, size in blocks) == T.rank


def test_the_shared_walk_names_the_least_of_two_failing_blocks(monkeypatch, tmp_path, forks):
    """With a column doubled in the least block and in the greatest, the
    process that pulls the first X weight fails at the least block and
    stops, and the other walks every later weight and fails at the
    greatest, then walks the least block's run again; the report names the
    least, as a walk in one process does."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 3, 3, tau)
    cb = T.codet_basis
    keys = list(block_keys(cb))
    least, greatest = keys[0], keys[-1]
    doubled = {(x.bold, x.tab, y.tab) for key in (least, greatest) for x, y in cb._columns(key)[-1:]}
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: 2 * c for o, c in out.items()} if (x.bold, x.tab, y.tab) in doubled else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
    _log_the_walks(monkeypatch, tmp_path)
    rep = heredity_of_T(T, sample_b=4)
    assert_reaped(forks)
    det = cb.factor(least).det
    assert abs(det) == 2 and abs(cb.factor(greatest).det) == 2
    assert rep.failures == [
        f"axiom (a): change of basis not unimodular: block {least} has determinant {det}"
    ]
    first, rest = _walks(tmp_path)
    assert first == [(least, det, cb.factor(least).size)]
    assert [key for key, _det, _size in rest] == [key for key in keys if key[0] != least[0]] + [least]
    assert rest[-2][:2] == (greatest, cb.factor(greatest).det) and rest[-1] == first[0]


@pytest.mark.parametrize("kind", ["stray row", "arithmetic"])
@pytest.mark.parametrize("where", ["least", "greatest"])
def test_the_shared_walk_fails_as_one_process_does(monkeypatch, kind, where, forks):
    """A column that reaches a row of another block (AssertionError) and an
    ArithmeticError raised in the walk, at the least block or at the
    greatest, give the failure text, or raise the exception type and text,
    of the walk in this process.  No child is left to reap."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    keys = list(block_keys(cb))
    key = keys[0] if where == "least" else keys[-1]
    col = cb._columns(key)[0]
    if kind == "stray row":
        real = codet.CodetBasis._expand
        stray = next(iter(real(cb, *cb._columns(keys[1])[0])))

        def broken(self, x, y):
            out = real(self, x, y)
            return {**out, stray: 1} if (x, y) == col else out

        monkeypatch.setattr(codet.CodetBasis, "_expand", broken)
        with pytest.raises(AssertionError) as one:
            cb.non_unimodular_block()
        assert heredity_of_T(T).failures == [f"axiom (a): {one.value}"]
    else:
        real = codet.CodetBasis._checked_rows

        def broken(self, at, cols, expansions):
            if at == key:
                raise ArithmeticError(f"planted at {at}")
            return real(self, at, cols, expansions)

        monkeypatch.setattr(codet.CodetBasis, "_checked_rows", broken)
        with pytest.raises(ArithmeticError) as one:
            cb.non_unimodular_block()
        with pytest.raises(ArithmeticError) as shared:
            heredity_of_T(T)
        assert type(shared.value) is ArithmeticError
        assert str(shared.value) == str(one.value) == f"planted at {key}"
    assert_reaped(forks)


def test_an_axiom_a_failure_hides_what_axioms_c_and_b_raise(monkeypatch, forks):
    """Axioms (c) and (b) run while the walk runs, and what they raise is
    raised; but when axiom (a) fails, the report names that failure alone."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    first = next(block_keys(T.codet_basis))

    def planted(self, bold):
        raise RuntimeError("planted in axiom (c)")

    monkeypatch.setattr(SchurAlgebra, "idempotent_bold", planted)
    with pytest.raises(RuntimeError, match=re.escape("planted in axiom (c)")):
        heredity_of_T(T)
    real = codet.CodetBasis._walk

    def skewed(self, weights=None):
        for key, det, size in real(self, weights):
            yield key, 2 if key == first else det, size

    monkeypatch.setattr(codet.CodetBasis, "_walk", skewed)
    assert heredity_of_T(T).failures == [
        f"axiom (a): change of basis not unimodular: block {first} has determinant 2"
    ]
    assert_reaped(forks)


def _double_last_columns(monkeypatch, cb, keys) -> None:
    """Double the last column of each block key in `keys`, so that each
    of those blocks has determinant +-2."""
    doubled = {(x.bold, x.tab, y.tab) for key in keys for x, y in cb._columns(key)[-1:]}
    real = codet.CodetBasis._expand

    def broken(self, x, y):
        out = real(self, x, y)
        return {o: 2 * c for o, c in out.items()} if (x.bold, x.tab, y.tab) in doubled else out

    monkeypatch.setattr(codet.CodetBasis, "_expand", broken)


def _one_process_failures(cb) -> list[str]:
    """The axiom (a) failures of the walk in this process alone."""
    bad = cb.non_unimodular_block()
    return [] if bad is None else [
        f"axiom (a): change of basis not unimodular: block {bad[0]} has determinant {bad[1]}"]


class Planted(Exception):
    """An exception class that is no builtin."""


@pytest.mark.parametrize("where", ["least block", "before any run"])
def test_the_shared_walk_raises_an_exception_of_its_own_class(monkeypatch, forks, where):
    """An exception of a class that is no builtin, raised in the walk at the
    least block, which the child pulls first, or before either process
    pulls a run, is raised by `heredity_of_T` with its class and text, from
    the walk in this process."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    least = next(block_keys(T.codet_basis))
    if where == "least block":
        real = codet.CodetBasis._checked_rows

        def planted(self, at, cols, expansions):
            if at == least:
                raise Planted(f"planted at {at}")
            return real(self, at, cols, expansions)

        monkeypatch.setattr(codet.CodetBasis, "_checked_rows", planted)
        text = f"planted at {least}"
    else:
        def planted(self, weights=None):
            raise Planted("planted before the walk")
            yield

        monkeypatch.setattr(codet.CodetBasis, "_filed", planted)
        text = "planted before the walk"
    with pytest.raises(Planted) as shared:
        heredity_of_T(T)
    assert_reaped(forks)
    assert type(shared.value) is Planted and str(shared.value) == text
    assert shared.traceback[-1].name == "planted"


@pytest.mark.parametrize("end", ["exit 255", "SIGKILL"])
@pytest.mark.parametrize("failing", [False, True])
def test_a_child_with_no_verdict_leaves_every_run_to_this_process(monkeypatch, tmp_path, forks,
                                                                    end, failing):
    """A child that ends with no verdict after its first block, by exit
    status 255 or by SIGKILL, leaves every run to this process, which walks
    them all again: the report is the one of a walk in one process, with
    the least block doubled or without, and the child is reaped."""
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    keys = list(block_keys(cb))
    if failing:
        _double_last_columns(monkeypatch, cb, keys[:1])
    want = _one_process_failures(cb)
    assert bool(want) == failing
    here, real = os.getpid(), codet.CodetBasis._walk

    def ended(self, weights=None):
        for block in real(self, weights):
            if os.getpid() != here:
                if end == "SIGKILL":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(255)
            yield block

    monkeypatch.setattr(codet.CodetBasis, "_walk", ended)
    _log_the_walks(monkeypatch, tmp_path)
    assert heredity_of_T(T, sample_b=4).failures == want
    assert_reaped(forks)
    if not failing:
        assert [key for key, _det, _size in _walks(tmp_path)[-1][-len(keys):]] == keys


@pytest.mark.parametrize("failing", [False, True])
def test_runs_of_many_weights_share_the_walk(monkeypatch, tmp_path, forks, failing):
    """With at most 5 runs, the 56 X weights of zigzag:1 n=d=3 go into runs
    of 12.  Passing, the two processes together walk every block once;
    with the last block of the second run's last weight doubled, and the
    greatest block, the report names the first, as a walk in one process
    does."""
    monkeypatch.setattr(heredity, "RUNS", 5)
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 3, 3, tau)
    cb = T.codet_basis
    keys, weights = list(block_keys(cb)), cb._weights[0]
    late = [key for key in keys if key[0] == weights[23]][-1]
    if failing:
        _double_last_columns(monkeypatch, cb, [late, keys[-1]])
    want = _one_process_failures(cb)
    assert want == ([f"axiom (a): change of basis not unimodular: block {late} has determinant "
                     f"{cb.factor(late).det}"] if failing else [])
    _log_the_walks(monkeypatch, tmp_path)
    started = heredity.Started(T, 4)
    assert started().failures == want
    assert_reaped(forks)
    assert [len(run) for run in started.runs] == [12, 12, 12, 12, 8]
    if not failing:
        walked = [key for walk in _walks(tmp_path) for key, _det, _size in walk]
        assert sorted(walked) == sorted(keys)


@pytest.mark.parametrize("fork", ["working", "raising", "missing"])
@pytest.mark.parametrize("failing", [False, True])
def test_the_check_leaves_the_descriptors_as_it_found_them(monkeypatch, forks, fork, failing):
    """`heredity_of_T` closes every descriptor it opens, whether `os.fork`
    works, raises OSError or does not exist, on passing data and with the
    least block doubled."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    alg, data, tau = make_algebra("zigzag:1")
    T = build_schur(alg, data, 2, 2, tau)
    cb = T.codet_basis
    if failing:
        _double_last_columns(monkeypatch, cb, [next(block_keys(cb))])
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    elif fork == "raising":
        def raising():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", raising)
    before = sorted(os.listdir("/proc/self/fd"))
    rep = heredity_of_T(T, sample_b=4)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert rep.ok != failing
    if fork == "working":
        assert_reaped(forks)

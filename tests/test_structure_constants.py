"""Base algebras with structure constants other than 1: a twisted zigzag
(`twisted_zigzag`), where the product kernel must carry the base algebra's
coefficients into every letter product and the codeterminant layers on top
of it (the walk, the solve, straightening, the heredity check, both
character routes and the decomposition matrix) must see them, and an
algebra whose basis products have two terms (`_two_term_presentation`),
which the kernel spreads over after its pass."""
import random
from collections import Counter

import pytest

from helpers import tensor_eta_product, twisted_zigzag
from schurify import characters as ch
from schurify import decomposition as dec
from schurify.base_algebra import BasedSuperalgebra, HeredityData, make_algebra
from schurify.base_heredity import verify_heredity
from schurify.heredity import heredity_of_T
from schurify.partitions import gen_multipartitions
from schurify.schur import build_schur
from schurify.straighten import Straightener


@pytest.fixture(scope="module")
def twist():
    return twisted_zigzag()


def test_the_twist_is_a_quasi_hereditary_presentation(twist):
    """The twist passes the base algebra's checks, negates one basis product
    of zigzag:2 and keeps the others."""
    alg, data, _tau = twist
    plain, _data, _tau = make_algebra("zigzag:2")
    assert verify_heredity(alg, data).ok
    assert alg.mul_basis("a1_0", "a0_1") == {"c1": -1}
    assert plain.mul_basis("a1_0", "a0_1") == {"c1": 1}
    assert all(alg.mul_basis(a, c) == plain.mul_basis(a, c)
               for a in alg.basis for c in alg.basis if (a, c) != ("a1_0", "a0_1"))


@pytest.mark.parametrize("d", [2, 3])
def test_twisted_products_against_the_tensor_oracle(twist, d):
    """`mult_orbits` equals the tensor oracle, which multiplies the base
    algebra's coefficients pure tensor by pure tensor, on seeded pairs whose
    profiles meet; some products differ from zigzag:2's."""
    alg, data, tau = twist
    T = build_schur(alg, data, 2, d, tau)
    plain_alg, plain_data, _tau = make_algebra("zigzag:2")
    plain = build_schur(plain_alg, plain_data, 2, d)
    rng = random.Random(140 + d)
    differ = 0
    for _ in range(150):
        a = T.orbit(rng.randrange(T.rank))
        b = rng.choice(list(T.orbits_with_profile(0, T.profiles(a)[1])))
        prod = T.mult_orbits(a, b)
        assert prod == tensor_eta_product(T, a, b), (a, b)
        differ += prod != plain.mult_orbits(a, b)
    assert differ, "no sampled product reached the twisted structure constant"


@pytest.mark.parametrize("n", [2, 3])
def test_twisted_codeterminants_match_zigzag(twist, n, lr):
    """At n = d: the twist has zigzag:2's rank and the same blocks with the
    same |determinants|, read off its walk in process, and its heredity
    check passes; and its decomposition matrix by oracle and by formula is
    zigzag:2's."""
    alg, data, tau = twist
    T = build_schur(alg, data, n, n, tau)
    plain_alg, plain_data, plain_tau = make_algebra("zigzag:2")
    plain = build_schur(plain_alg, plain_data, n, n, plain_tau)
    assert T.rank == plain.rank

    def dets(blocks):
        return Counter((key, abs(det)) for key, det, _size in blocks)

    assert dets(T.codet_basis._walk()) == dets(plain.codet_basis._walk())
    rep = heredity_of_T(T, sample_b=4)
    assert rep.ok, rep.failures
    oracle = dec.decomp_oracle(T).entries
    assert oracle == dec.decomp_oracle(plain).entries
    labels = gen_multipartitions(n, n, len(data.labels) - 1)
    formula = {(lam, mu): v for lam in labels
               for mu, v in dec.decomp_formula_row(T.base_decomp, lam, labels, n, None, lr).items() if v}
    assert formula == oracle


def test_twisted_characters_agree_by_both_routes(twist):
    """At n = d = 3, ch Delta by the sum over standard tableaux equals the
    closed formula on every one of the twist's 22 labels."""
    alg, data, tau = twist
    T = build_schur(alg, data, 3, 3, tau)
    labels = gen_multipartitions(3, 3, len(data.labels) - 1)
    cache = ch.LRCache("")
    assert len(labels) == 22
    for lam in labels:
        assert ch.char_standard_tableaux(T, lam) == ch.char_standard_formula(T, lam, cache), lam


def test_twisted_straightening_matches_the_solve(twist):
    """At n = d = 3, the recursive rewrite and the blocked solve expand 30
    seeded orbits, unranked by `T.orbit`, alike; and as zigzag:2's, since a
    codeterminant multiplies only pairs x * y, whose products the twist
    keeps."""
    alg, data, tau = twist
    T = build_schur(alg, data, 3, 3, tau)
    plain_alg, plain_data, plain_tau = make_algebra("zigzag:2")
    plain = build_schur(plain_alg, plain_data, 3, 3, plain_tau)
    st, cb = Straightener(T), T.codet_basis
    rng = random.Random(27)
    for i in rng.sample(range(T.rank), 30):
        o = T.orbit(i)
        got = st.straighten_element({o: 1})
        assert got == cb.solve({o: 1}), o
        assert got == plain.codet_basis.solve({plain.orbit(i): 1}), o


def _two_term_presentation():
    """(alg, data) of A = Z[x]/(x^2 - 2x + 3) (x) Z[t]/(t^2), t odd of degree
    1, on the basis 1, x, t, xt, with one color: e_0 = 1, X(0) = {1} and
    Y(0) the basis.  Its products x * x = 2x - 3 and x * xt = xt * x =
    2xt - 3t have two terms of one degree and parity, even and odd, with
    coefficients other than +-1.  It is no quasi-hereditary presentation,
    and only its products are read."""
    names = {(0, 0): "1", (1, 0): "x", (0, 1): "t", (1, 1): "xt"}

    def mul(a, b):
        (xa, ta), (xb, tb) = a, b
        if ta and tb:
            return {}
        t = ta + tb
        if xa + xb < 2:
            return {names[xa + xb, t]: 1}
        return {names[1, t]: 2, names[0, t]: -3}

    basis = list(names.values())
    kappa = {(names[a], names[b]): mul(a, b) for a in names for b in names}
    degree = {"1": 0, "x": 0, "t": 1, "xt": 1}  # t odd, of degree 1
    alg = BasedSuperalgebra(basis, kappa, degree, parity=degree, unit={"1": 1})
    data = HeredityData(labels=(0,), strictly_less=frozenset(), X={0: ("1",)}, Y={0: tuple(basis)},
                        e={0: "1"})
    return alg, data


@pytest.mark.parametrize("d", [2, 3])
def test_two_term_products_against_the_tensor_oracle(d):
    """`mult_orbits` equals the tensor oracle on seeded pairs whose profiles
    meet, over an algebra whose basis products have two terms: the kernel's
    letter product table holds several-term entries, which it spreads over
    after its pass, coefficient and sign by term."""
    alg, data = _two_term_presentation()
    assert alg.mul_basis("xt", "x") == {"xt": 2, "t": -3}
    T = build_schur(alg, data, 2, d)
    rng = random.Random(260 + d)
    for _ in range(150):
        a = T.orbit(rng.randrange(T.rank))
        b = rng.choice(list(T.orbits_with_profile(0, T.profiles(a)[1])))
        assert T.mult_orbits(a, b) == tensor_eta_product(T, a, b), (a, b)
    assert any(entry and entry[0] < 0 for entry in T.ctx.product_table)

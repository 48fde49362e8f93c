"""Acceptance suite: one test per criterion; the session summary prints one
pass/fail line for each (see conftest.pytest_terminal_summary)."""
import random
from itertools import product

import pytest

from helpers import (
    add,
    cellular_basis,
    check_skew_chars,
    coproduct,
    coproducts_star,
    double_coproduct,
    family,
    index_expansion,
    lr_brute,
    multi_lr_brute,
    ssyt_count,
    star,
    tensor_eta_product,
    truncation_idempotent,
)
from schurify import characters as ch
from schurify import codeterminants as codet
from schurify import decomposition as dec
from schurify.base_algebra import make_algebra
from schurify.base_heredity import verify_heredity
from schurify.heredity import heredity_of_T
from schurify.partitions import (
    compositions,
    gen_multipartitions,
    leq,
    partitions_of,
)
from schurify.rings import GF, GradedSuperScalar
from schurify.rsk import rsk
from schurify.schur import build_schur
from schurify.straighten import Straightener, orbit_to_codet
from schurify.tableaux import enumerate_tableaux


def _T(spec, n, d):
    alg, data, tau = make_algebra(spec)
    return build_schur(alg, data, n, d, tau)


@pytest.fixture(scope="module")
def cb122(T122):
    return codet.CodetBasis(T122)


def test_criterion_01_basis_theorem(T122, cb122):
    """Rank two independent ways, and the change of basis is unimodular."""
    by_orbits = T122.rank
    by_tableaux = 0
    for bold in gen_multipartitions(2, 2, 1):
        nx = len(enumerate_tableaux(bold, T122.ctx.x_alphabet))
        ny = len(enumerate_tableaux(bold, T122.ctx.y_alphabet))
        by_tableaux += nx * ny
    assert by_orbits == by_tableaux == 202
    assert len(cb122.keys) == by_orbits
    assert cb122.unimodular()
    # RSK is a bijection onto standard pairs, the third counting route
    images = {rsk(T122.ctx, o) for o in T122.orbits}
    assert len(images) == by_orbits


def test_criterion_02_quasi_heredity():
    for spec, n, d in [("zigzag:1", 2, 2), ("zigzag:1", 3, 3), ("zigzag:2", 2, 2)]:
        T = _T(spec, n, d)
        rep = verify_heredity(T.alg, T.data)
        assert rep.ok, (spec, rep.failures)
        rep_T = heredity_of_T(T)
        assert rep_T.ok, (spec, n, d, rep_T.failures)


def test_criterion_03_multiplication_soundness(T122, Ttriv22):
    # exact associativity on all basis triples of the classical S(2,2)
    for a, b, c in product(Ttriv22.orbits, repeat=3):
        lhs = Ttriv22.mul(Ttriv22.mult_orbits(a, b), {c: 1})
        rhs = Ttriv22.mul({a: 1}, Ttriv22.mult_orbits(b, c))
        assert lhs == rhs, (a, b, c)
    # >= 1000 seeded random triples on the zigzag Schur algebra
    rng = random.Random(31415)
    for _ in range(1000):
        a, b, c = (rng.choice(T122.orbits) for _ in range(3))
        lhs = T122.mul(T122.mult_orbits(a, b), {c: 1})
        rhs = T122.mul({a: 1}, T122.mult_orbits(b, c))
        assert lhs == rhs, (a, b, c)
    # >= 100 seeded random pairs against the tensor-materialization oracle
    rng = random.Random(27182)
    for _ in range(100):
        a, b = rng.choice(T122.orbits), rng.choice(T122.orbits)
        assert T122.mult_orbits(a, b) == tensor_eta_product(T122, a, b), (a, b)


def test_criterion_04_straightening(T122, cb122):
    st = Straightener(T122)
    for o in T122.orbits:
        solved = cb122.solve({o: 1})
        recursed = st.straighten_element({o: 1})
        assert solved == recursed, o
        (mu, _S0, _T0), _sgn = orbit_to_codet(T122, o)
        back = {}
        for key, c in solved.items():
            assert leq(mu, key[0]), (o, key)  # triangularity of supports
            back = add(back, T122.element(index_expansion(cb122, key)), c)
        assert back == {o: 1}, o  # round-trip is the identity


def test_criterion_05_bialgebra(T122):
    rng = random.Random(16180)
    pairs_done = 0
    for dx, dy in [(1, 1), (1, 2), (2, 1)]:
        Tx, Ty = family(T122, dx), family(T122, dy)
        target = family(T122, dx + dy)
        for _ in range(34):
            a, b = rng.choice(Tx.orbits), rng.choice(Ty.orbits)
            pairs_done += 1
            xy = star(Tx, {a: 1}, {b: 1})
            for d1 in range(dx + dy + 1):
                # compatibility: nabla(x star y) = nabla(x) star nabla(y)
                lhs = coproduct(target, xy, d1)
                assert lhs == coproducts_star(Tx, {a: 1}, Ty, {b: 1}, d1), (a, b, d1)
    assert pairs_done >= 100
    # coassociativity across degrees d <= 3
    rng = random.Random(14142)
    for d in (2, 3):
        T = family(T122, d)
        for o in rng.sample(T.orbits, 34):
            for d1 in range(d + 1):
                for d2 in range(d + 1 - d1):
                    assert double_coproduct(T, {o: 1}, d1, d2, left=True) == \
                        double_coproduct(T, {o: 1}, d1, d2, left=False), (o, d1, d2)


def test_criterion_06_characters(lr):
    T = _T("zigzag:1", 3, 3)
    for lam in gen_multipartitions(3, 3, 1):
        a = ch.char_standard_tableaux(T, lam)
        b = ch.char_standard_formula(T, lam, lr)
        assert a == b, lam
    # trivial base reproduces s_lambda, with Kostka entries cross-checked
    Tt = _T("trivial", 3, 3)
    for lam in partitions_of(3, 3):
        v = ch.char_standard_tableaux(Tt, (lam,))
        assert v == ch.char_standard_formula(Tt, (lam,), lr), lam
        for w in compositions(3, 3):
            expected = ch.kostka(lam, w)
            assert expected == ssyt_count(lam, w)
            got = v[(w,)]
            assert got == (GradedSuperScalar.term(expected) if expected
                           else GradedSuperScalar.zero()), (lam, w)


def test_criterion_07_decomposition_char0(T122, lr):
    for T in (T122, _T("zigzag:2", 2, 2)):
        D = dec.decomp_oracle(T)
        inp = ch.DecompInput.from_base(T.alg, T.data)
        for lam in D.labels:
            for mu in D.labels:
                assert dec.decomp_formula(inp, lam, mu, 2, None, lr) == D.entry(lam, mu), (lam, mu)


def test_criterion_08_decomposition_char_p(T122, lr):
    F2 = GF(2)
    D = dec.decomp_oracle(T122, F2)
    inp = ch.DecompInput.from_base(T122.alg, T122.data)
    classical = dec.ClassicalDecomp(2, F2)  # oracle-computed S(2,*) over F_2
    for lam in D.labels:
        for mu in D.labels:
            assert dec.decomp_formula(inp, lam, mu, 2, classical, lr) == D.entry(lam, mu), \
                (lam, mu)


def test_criterion_09_zigzag_base_case():
    qpi = GradedSuperScalar.term(1, 1, 1)
    one = GradedSuperScalar.one()
    for ell in (1, 2, 3):
        T = _T(f"zigzag:{ell}", 1, 1)
        D = dec.decomp_oracle(T)

        def label(i, L=ell):
            return tuple((1,) if k == i else () for k in range(L + 1))

        for i in range(ell + 1):
            for j in range(ell + 1):
                expected = GradedSuperScalar.zero()
                if i == j:
                    expected = expected + one
                if i - 1 == j:
                    expected = expected + qpi
                assert D.entry(label(i), label(j)) == expected, (ell, i, j)


def test_criterion_10_cellularity(T122):
    e = truncation_idempotent(T122, [0])
    assert T122.involution(e) == e  # tau fixes xi^e
    cells = cellular_basis(T122, [0])
    assert len(cells) == T122.truncate([0]).rank == 36
    for (bold, S, Tb), el in cells.items():
        assert T122.involution(el) == cells[(bold, Tb, S)], (bold, S, Tb)


def test_criterion_11_blocks(T122):
    D = dec.decomp_oracle(T122)
    parts = dec.blocks(D.labels, D.entries)
    assert len(parts) == 1  # T^Z_z(2,2) is a single block
    alg, data, tau = make_algebra("semisimple:2")
    groups = dec.block_decomposition(alg, data, 2, 2)
    assert len(groups) == 3  # |Lambda(2,2)| summands for A = k + k


def test_criterion_12_lr_layer(lr):
    # LRCache.coeff vs brute-force lattice-word enumeration, |lam| <= 6, <= 3 factors
    for total in range(1, 7):
        for lam in partitions_of(total, total):
            for k1 in range(1, total + 1):
                for mu in partitions_of(k1, k1):
                    rest = total - k1
                    for nu in partitions_of(rest, rest):
                        assert lr.coeff(lam, [mu, nu]) == lr_brute(lam, mu, nu), \
                            (lam, mu, nu)
    for total in (4, 5, 6):
        for lam in partitions_of(total, total):
            for k1 in range(1, total - 1):
                for k2 in range(1, total - k1):
                    k3 = total - k1 - k2
                    for m1 in partitions_of(k1, k1):
                        for m2 in partitions_of(k2, k2):
                            for m3 in partitions_of(k3, k3):
                                assert lr.coeff(lam, [m1, m2, m3]) == \
                                    multi_lr_brute(lam, [m1, m2, m3]), (lam, m1, m2, m3)
    # skew characters match their LR expansion for all |lam| <= 5
    check_skew_chars(lr)

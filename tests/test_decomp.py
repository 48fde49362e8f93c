import pytest

from schurify import characters as ch
from schurify.base_algebra import make_algebra
from schurify.partitions import gen_multipartitions, leq
from schurify.rings import GF, QQ, GradedSuperScalar
from schurify.schur import build_schur


def _T(spec, n, d):
    alg, data, tau = make_algebra(spec)
    return build_schur(alg, data, n, d, tau)


def test_oracle_zigzag_base_case():
    """At n = d = 1 the algebra is the base itself: d_{i,j} = delta_{ij} + delta_{i-1,j} q pi."""
    qpi = GradedSuperScalar.term(1, 1, 1)
    one = GradedSuperScalar.one()
    for ell in (1, 2, 3):
        T = _T(f"zigzag:{ell}", 1, 1)
        D = ch.decomp_oracle(T)
        # labels are one-column multipartitions; color i carries the single box
        def label(i):
            return tuple((1,) if k == i else () for k in range(ell + 1))

        for i in range(ell + 1):
            for j in range(ell + 1):
                expected = GradedSuperScalar.zero()
                if i == j:
                    expected = expected + one
                if i - 1 == j:
                    expected = expected + qpi
                assert D.entry(label(i), label(j)) == expected, (ell, i, j)


def test_oracle_structure(T122):
    D = ch.decomp_oracle(T122)
    for lam in D.labels:
        assert D.entry(lam, lam) == GradedSuperScalar.one()
        for mu in D.labels:
            e = D.entry(lam, mu)
            if e:
                assert leq(mu, lam), (lam, mu)
                assert all(c > 0 for c in e.coeffs.values()), (lam, mu)


def _oracle_row(D, lam):
    return {mu: D.entry(lam, mu) for mu in D.labels}


def test_formula_equals_oracle_char0(T122):
    D = ch.decomp_oracle(T122)
    inp = ch.DecompInput.from_base(T122.alg, T122.data)
    for lam in D.labels:
        for mu in D.labels:
            assert ch.decomp_formula(inp, lam, mu, 2) == D.entry(lam, mu), (lam, mu)
        assert ch.decomp_formula_row(inp, lam, D.labels, 2) == _oracle_row(D, lam), lam


def test_formula_equals_oracle_char0_ell2():
    T = _T("zigzag:2", 2, 2)
    D = ch.decomp_oracle(T)
    inp = ch.DecompInput.from_base(T.alg, T.data)
    for lam in D.labels:
        for mu in D.labels:
            assert ch.decomp_formula(inp, lam, mu, 2) == D.entry(lam, mu), (lam, mu)
        assert ch.decomp_formula_row(inp, lam, D.labels, 2) == _oracle_row(D, lam), lam


def test_formula_equals_oracle_f2(T122):
    D = ch.decomp_oracle(T122, GF(2))
    inp = ch.DecompInput.from_base(T122.alg, T122.data)
    classical = ch.ClassicalDecomp(2, GF(2))
    # the self-hosted classical matrix shows the p = 2 phenomenon
    assert classical((2,), (1, 1)) == 1
    for lam in D.labels:
        for mu in D.labels:
            assert ch.decomp_formula(inp, lam, mu, 2, classical) == D.entry(lam, mu), \
                (lam, mu)
        row = ch.decomp_formula_row(inp, lam, D.labels, 2, classical)
        assert row == _oracle_row(D, lam), lam


def test_formula_rows_entries_and_oracle_agree_zigzag2_f3():
    """zigzag:2 with n = d = 3 over GF(3): every row of the formula, every
    entry of the formula computed alone and the oracle agree."""
    T = _T("zigzag:2", 3, 3)
    ring = GF(3)
    D = ch.decomp_oracle(T, ring)
    inp = T.base_decomp
    classical = ch.ClassicalDecomp(3, ring)
    assert len(D.labels) == 22
    for lam in D.labels:
        row = ch.decomp_formula_row(inp, lam, D.labels, 3, classical)
        assert row == _oracle_row(D, lam), lam
        for mu in D.labels:
            assert ch.decomp_formula(inp, lam, mu, 3, classical) == row[mu], (lam, mu)


def test_decomp_identity(T122):
    """ch Delta(lam) = sum_mu d_{lam,mu} ch L(mu), char 0 and p = 2."""
    for ring in (QQ, GF(2)):
        D = ch.decomp_oracle(T122, ring)
        chl = {mu: ch.char_irreducible(T122, mu, ring) for mu in D.labels}
        for lam in D.labels:
            lhs = ch.char_standard_tableaux(T122, lam)
            rhs = ch.CharacterVector()
            for mu in D.labels:
                e = D.entry(lam, mu)
                if e:
                    rhs = rhs + chl[mu].scale(e)
            assert lhs == rhs, (ring, lam)


def test_oracle_requires_field_and_rows(T122):
    with pytest.raises(ValueError):
        ch.decomp_oracle(_T("zigzag:1", 1, 2))


def test_oracle_multiplies_only_equal_weight_pairs(monkeypatch):
    """Once the codeterminant blocks are built, the oracle's Gram matrices
    make at most one product per pair of standard tableaux of equal weight,
    each through the uncached pairing Y_T X_S."""
    from schurify.codeterminants import CodetBasis
    from schurify.tableaux import tableau_weight

    T = _T("zigzag:2", 2, 2)
    cb = T.codet_basis
    assert cb.unimodular()
    pairs = sum(
        tableau_weight(S, T.ctx.x_alphabet) == tableau_weight(Tb, T.ctx.y_alphabet)
        for bold in cb.shapes for S in cb.std_x[bold] for Tb in cb.std_y[bold]
    )
    calls = []
    real = CodetBasis.pairing

    def counted(self, y, x):
        calls.append(None)
        return real(self, y, x)

    monkeypatch.setattr(CodetBasis, "pairing", counted)
    ch.decomp_oracle(T)
    assert 0 < len(calls) <= pairs


def test_blocks_zigzag_single(T122):
    D = ch.decomp_oracle(T122)
    parts = ch.blocks(D.labels, D.entries)
    assert len(parts) == 1
    assert sorted(len(p) for p in parts) == [5]


def test_blocks_semisimple_singletons():
    T = _T("semisimple:2", 2, 2)
    D = ch.decomp_oracle(T)
    parts = ch.blocks(D.labels, D.entries)
    assert all(len(p) == 1 for p in parts)
    assert len(parts) == len(D.labels)


def test_block_decomposition_k_plus_k():
    """A = k + k at n = d = 2 splits into |Lambda(2,2)| = 3 summands."""
    alg, data, tau = make_algebra("semisimple:2")
    groups = ch.block_decomposition(alg, data, 2, 2)
    assert len(groups) == 3
    assert sorted(len(v) for v in groups.values()) == [1, 2, 2]
    total = sum(len(v) for v in groups.values())
    assert total == len(gen_multipartitions(2, 2, 1))


def test_base_blocks_zigzag(zz1):
    from schurify.base_algebra import base_decomp_numbers

    alg, data, tau = zz1
    parts = ch.blocks(data.labels, base_decomp_numbers(alg, data))
    assert len(parts) == 1  # the zigzag base is linked through q pi entries

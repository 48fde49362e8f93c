import pytest
from helpers import BROKEN, broken_presentation, make_zigzag_bar, truncate_base

from schurify.base_algebra import (
    DecompInput,
    base_decomp_numbers,
    make_algebra,
    make_extended_zigzag,
    make_semisimple,
    strict_pairs,
)
from schurify.base_heredity import HeredityReport, verify_heredity
from schurify.rings import GradedSuperScalar


def test_zigzag_dims():
    for ell, dim in [(1, 5), (2, 9), (3, 13)]:
        alg, data, tau = make_extended_zigzag(ell)
        assert alg.dim == dim
        assert data.labels == tuple(range(ell + 1))
        # X(0) a single idempotent; X(i) has the idempotent and one arrow
        assert len(data.X[0]) == 1
        for i in range(1, ell + 1):
            assert len(data.X[i]) == 2


def test_zigzag_relations(zz1):
    alg, data, tau = zz1
    # length-two non-cycle paths vanish; the two cycles at a vertex coincide
    assert alg.mul_basis("a0_1", "a1_0") == {"c0": 1} or alg.mul_basis("a1_0", "a0_1") == {"c0": 1}
    # cycle at the top vertex is zero
    assert alg.mul_basis("a1_0", "a0_1") == {} or alg.mul_basis("a0_1", "a1_0") == {}
    # paths of length three vanish
    for b in alg.basis:
        prod = alg.mul_basis("c0", b)
        assert all(k in ("c0",) or v == 0 for k, v in prod.items()) or prod == {}


@pytest.mark.parametrize("spec", ["zigzag:1", "zigzag:2", "trivial", "semisimple:3"])
def test_heredity_axioms(spec):
    alg, data, tau = make_algebra(spec)
    rep = verify_heredity(alg, data)
    assert rep.ok, rep.failures


def test_anti_involution_standard(zz1):
    alg, data, tau = zz1
    assert tau.is_standard(data)
    for b in alg.basis:
        assert tau.image[tau.image[b]] == b


def test_zigzag_bar_not_strictly_based():
    trunc, tau = make_zigzag_bar(1)
    with pytest.raises(ValueError):
        strict_pairs(trunc.algebra, trunc.data)


def test_truncation_adapted(zz1):
    alg, data, tau = zz1
    trunc = truncate_base(alg, data, [0])
    assert set(trunc.algebra.basis) <= set(alg.basis)


def test_base_decomp_numbers_zigzag():
    qpi = GradedSuperScalar.term(1, 1, 1)
    one = GradedSuperScalar.one()
    for ell in (1, 2, 3):
        alg, data, tau = make_extended_zigzag(ell)
        D = base_decomp_numbers(alg, data)
        for i in data.labels:
            for j in data.labels:
                expected = GradedSuperScalar.zero()
                if i == j:
                    expected = expected + one
                if i - 1 == j:
                    expected = expected + qpi
                assert D.get((i, j), GradedSuperScalar.zero()) == expected, (i, j)


def test_make_semisimple():
    alg, data, tau = make_semisimple(2)
    assert alg.dim == 2
    rep = verify_heredity(alg, data)
    assert rep.ok


def test_make_algebra_rejects_unknown():
    with pytest.raises(ValueError):
        make_algebra("nonsense:3")
    with pytest.raises(ValueError):
        make_algebra("zigzag-bar:1")


def test_make_algebra_bounds_each_parameter(monkeypatch):
    """`zigzag:L` and `semisimple:m` take a parameter up to `MAX_PARAMETER`
    and refuse one past it, naming the bound, before the builder runs.  The
    builders are stubbed: at the bound a real build costs about 1 s."""
    from schurify import base_algebra

    built = []
    for name in ("make_extended_zigzag", "make_semisimple"):
        monkeypatch.setattr(base_algebra, name, lambda k, name=name: built.append((name, k)))
    bounds = base_algebra.MAX_PARAMETER
    assert bounds == {"zigzag": 300, "semisimple": 800}
    for family, bound in bounds.items():
        make_algebra(f"{family}:{bound}")
        for k in (bound + 1, 10**11):
            with pytest.raises(ValueError, match=f"^{family} takes a parameter of at most {bound}, got {k}$"):
                make_algebra(f"{family}:{k}")
    assert built == [("make_extended_zigzag", 300), ("make_semisimple", 800)]


@pytest.mark.parametrize("family", BROKEN)
def test_heredity_check_reports_each_failure_family(family):
    alg, data, _tau = broken_presentation(family)
    rep = verify_heredity(alg, data)
    assert not rep.ok
    assert BROKEN[family][2] in rep.failures, rep.failures


def test_a_heredity_report_holds_only_its_failures():
    """A report is its failures: `ok` reads them, and nothing else is
    kept."""
    rep = HeredityReport()
    assert rep.ok and rep.failures == []
    rep.fail("axiom (c)", "e_0 not in X(0) and Y(0)")
    assert not rep.ok and rep.failures == ["axiom (c): e_0 not in X(0) and Y(0)"]
    rep.failures.clear()
    assert rep.ok and vars(rep) == {"failures": []}


@pytest.mark.parametrize("family", BROKEN)
def test_decomposition_data_exists_only_where_the_axioms_hold(family):
    """The base's decomposition data is refused exactly when the heredity
    axioms fail, naming the check's first failure; conformity is no
    precondition of it."""
    alg, data, _tau = broken_presentation(family)
    if family == "conforming":
        assert DecompInput.from_base(alg, data).labels == data.labels
        return
    with pytest.raises(ValueError, match="verify first") as exc:
        DecompInput.from_base(alg, data)
    assert verify_heredity(alg, data).failures[0] in str(exc.value)

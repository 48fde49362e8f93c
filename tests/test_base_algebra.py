import json

import pytest

from schurify.base_algebra import (
    base_decomp_numbers,
    dump_presentation,
    load_presentation,
    make_algebra,
    make_extended_zigzag,
    make_semisimple,
    make_trivial,
    standard_module_base,
    strict_pairs,
)
from schurify.base_heredity import verify_heredity
from schurify.rings import GradedSuperScalar
from schurify.truncation import make_zigzag_bar, truncate_base


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


def test_standard_module_base_dims(zz1):
    alg, data, tau = zz1
    # Delta(0) is 1-dimensional, Delta(i) is 2-dimensional for i >= 1
    assert len(standard_module_base(alg, data, 0).x_basis) == 1
    assert len(standard_module_base(alg, data, 1).x_basis) == 2


def test_presentation_roundtrip(zz1):
    alg, data, tau = zz1
    alg2, data2 = load_presentation(dump_presentation(alg, data))
    assert alg2.basis == alg.basis
    assert data2.labels == data.labels
    for a in alg.basis:
        for b in alg.basis:
            assert alg2.mul_basis(a, b) == alg.mul_basis(a, b)


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


def _scale_the_zigzag_cycle(obj):
    (entry,) = [k for k in obj["kappa"] if (k["a"], k["c"]) == ("a0_1", "a1_0")]
    entry["out"] = {"c0": 2}


# (spec, twist of its presentation's JSON, a failure the check must report):
# one minimal broken presentation per failure family, each still a graded
# associative superalgebra, so `load_presentation` takes it
BROKEN = {
    # x*y = 2 c0 is no single basis element
    "axiom (a)": ("zigzag:1", _scale_the_zigzag_cycle,
                  "axiom (a): x*y for (1,a0_1,a1_0) is not a single basis label: {'c0': 2}"),
    # 1 < 0: a1_0 * e0 lands in B(1), which is no longer above 0
    "axiom (b)": ("zigzag:1", lambda obj: obj["heredity"].update(order=[[1, 0]]),
                  "axiom (b): a*x for (a1_0,0,e0): component B(1) with 0 not < 1"),
    # the two labels' idempotents swapped
    "axiom (c)": ("zigzag:1", lambda obj: obj["heredity"].update(e={"0": "e1", "1": "e0"}),
                  "axiom (c): e_0 not in X(0) and Y(0)"),
    # 1 and 2 incomparable: y*x = c1 for label 1 lands in B(2)
    "f table": ("zigzag:2", lambda obj: obj["heredity"].update(order=[[0, 1], [0, 2]]),
                "f table: y*x for (1,a0_1,a1_0) has stray pair (2,a1_2,a2_1)"),
    # the arrows between 0 and 1 even: a1_0 * a0_1 = c1, whose pair (a1_2, a2_1) is odd
    "conforming": ("zigzag:2", lambda obj: obj["parity"].update(a0_1=0, a1_0=0),
                   "conforming: even subalgebra not closed at (a1_0,a0_1)"),
}


@pytest.mark.parametrize("family", BROKEN)
def test_heredity_check_reports_each_failure_family(family):
    spec, twist, failure = BROKEN[family]
    alg, data, _tau = make_algebra(spec)
    obj = dump_presentation(alg, data)
    twist(obj)
    rep = verify_heredity(*load_presentation(json.dumps(obj)))
    assert not rep.ok
    assert failure in rep.failures, rep.failures

import pytest
from hypothesis import given, strategies as st

from helpers import scale
from schurify.rings import GF, QQ, GradedSuperScalar


def test_basic_arithmetic():
    one = GradedSuperScalar.one()
    q = GradedSuperScalar.term(1, 1)
    pi = GradedSuperScalar.term(1, 0, 1)
    assert q * GradedSuperScalar.term(1, -1) == one
    # pi squares to 1
    assert pi * pi == one
    assert (q * pi) * (q * pi) == GradedSuperScalar.term(1, 2)
    assert GradedSuperScalar.zero() * q == GradedSuperScalar.zero()
    assert not GradedSuperScalar.zero()


def test_term_accumulation():
    a = GradedSuperScalar.term(2, 1, 0)
    b = GradedSuperScalar.term(3, 1, 0)
    assert (a + b).coeffs == {(1, 0): 5}
    assert (a + scale(a, -1)).coeffs == {}


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_named_constructors_make_the_normal_form(c, m, eps):
    """`term`, `zero` and `one` store the normal form: a zero term stores
    nothing and equals 0, and the parity is taken mod 2."""
    t = GradedSuperScalar.term(c, m, eps)
    assert t.coeffs == ({(m, eps % 2): c} if c else {})
    assert (t == 0) is (c == 0) and bool(t) is (c != 0)
    assert GradedSuperScalar.zero().coeffs == {}
    assert GradedSuperScalar.one().coeffs == {(0, 0): 1}


def test_a_product_that_cancels_stores_nothing():
    """pi^2 = 1, so (1 + pi)(1 - pi) = 1 - pi^2 = 0: the product drops the
    zero coefficients its terms cancel to."""
    one, pi = GradedSuperScalar.one(), GradedSuperScalar.term(1, 0, 1)
    product = (one + pi) * (one + scale(pi, -1))
    assert product.coeffs == {} and not product and product == 0


# scalars in normal form: nonzero coefficients, parities 0 and 1
scalars = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 1)),
    st.integers(-5, 5).filter(bool),
    max_size=4,
).map(GradedSuperScalar)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * GradedSuperScalar.one() == a


def test_coefficient_rings():
    """A coefficient ring is a field: Q, or F_p through `GF`, which refuses
    a p that is not a prime below 2^31.  Its repr is what `verify`'s
    decomposition row prints."""
    F2 = GF(2)
    assert (repr(QQ), repr(F2), repr(GF(2147483647))) == ("Q", "F2", "F2147483647")
    assert (QQ.p, F2.p) == (None, 2)
    assert F2 == GF(2) and hash(F2) == hash(GF(2)) and F2 != QQ != GF(3)
    for p in (-3, 0, 1, 4, 2**31 - 3, 2**31, 2**61 - 1):
        with pytest.raises(ValueError, match=rf"GF needs a prime below 2\^31, got {p}$"):
            GF(p)

from hypothesis import given, strategies as st

from helpers import scale
from schurify.rings import GF, QQ, ZZ, GradedSuperScalar


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
    """`term`, `zero` and `one`, built without the normalizing constructor,
    give what it makes of the same coefficients: a zero term stores nothing
    and equals 0, and the parity is taken mod 2."""
    t = GradedSuperScalar.term(c, m, eps)
    assert t.coeffs == GradedSuperScalar({(m, eps): c}).coeffs
    assert (t == 0) is (c == 0) and bool(t) is (c != 0)
    assert GradedSuperScalar.zero().coeffs == GradedSuperScalar().coeffs == {}
    assert GradedSuperScalar.one().coeffs == GradedSuperScalar({(0, 2): 1}).coeffs == {(0, 0): 1}


scalars = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(0, 1)),
    st.integers(-5, 5),
    max_size=4,
).map(GradedSuperScalar)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * GradedSuperScalar.one() == a


def test_coefficient_rings():
    assert not ZZ.is_field
    assert QQ.is_field
    F2 = GF(2)
    assert F2.is_field


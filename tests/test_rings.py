from hypothesis import given, strategies as st

from schurify.rings import GF, QQ, ZZ, GradedSuperScalar


def test_basic_arithmetic():
    one = GradedSuperScalar.one()
    q = GradedSuperScalar.q_power(1)
    pi = GradedSuperScalar.term(1, 0, 1)
    assert q * GradedSuperScalar.q_power(-1) == one
    # pi squares to 1
    assert pi * pi == one
    assert (q * pi) * (q * pi) == GradedSuperScalar.q_power(2)
    assert GradedSuperScalar.zero() * q == GradedSuperScalar.zero()
    assert not GradedSuperScalar.zero()


def test_term_accumulation():
    a = GradedSuperScalar.term(2, 1, 0)
    b = GradedSuperScalar.term(3, 1, 0)
    assert (a + b).coeffs == {(1, 0): 5}
    assert (a + a.scale(-1)).coeffs == {}


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


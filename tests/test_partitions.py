import itertools
import sys

from hypothesis import given, strategies as st

from schurify import partitions as P


def test_compositions():
    assert list(P.compositions(2, 3)) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
                                          (0, 0, 2)]
    assert len(list(P.compositions(3, 3))) == 10
    assert list(P.compositions(0, 2)) == [(0, 0)]


def test_compositions_do_not_recurse_once_per_part():
    """1 200 parts, past Python's default recursion limit of 1 000 frames."""
    assert sys.getrecursionlimit() <= 1000
    comps = list(P.compositions(1, 1200))
    assert len(comps) == 1200 and comps[0][0] == 1 and comps[-1][-1] == 1


def test_partitions_of():
    assert set(P.partitions_of(4, 4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert P.partitions_of(3, 1) == ((3,),)
    assert P.partitions_of(0, 2) == ((),)


def test_partitions_of_runs_from_the_largest_first_part_down():
    assert P.partitions_of(4, 4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert P.partitions_of(6, 2, 4) == ((4, 2), (3, 3))
    assert P.partitions_of(5, 0) == () and P.partitions_of(5, 2, 2) == ()
    assert P.partitions_of(1200, 1200, 1) == ((1,) * 1200,)  # past the recursion limit


def test_conjugate():
    assert P.conjugate((3, 1)) == (2, 1, 1)
    assert P.conjugate(()) == ()


parts = st.lists(st.integers(1, 5), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(parts)
def test_conjugate_involution(lam):
    assert P.conjugate(P.conjugate(lam)) == lam
    assert P.size(P.conjugate(lam)) == P.size(lam)


def test_gen_multipartitions_counts():
    # one color: plain partitions with at most n rows
    assert len(P.gen_multipartitions(2, 2, 0)) == 2
    assert len(P.gen_multipartitions(3, 3, 0)) == 3
    # two colors, n = d = 2
    labels = P.gen_multipartitions(2, 2, 1)
    assert len(labels) == 5
    assert set(labels) == {
        ((1, 1), ()), ((2,), ()), ((1,), (1,)), ((), (1, 1)), ((), (2,)),
    }


def test_order_properties():
    labels = P.gen_multipartitions(2, 2, 1)
    for lam in labels:
        assert P.leq(lam, lam)
    # antisymmetry on this label set
    for lam in labels:
        for mu in labels:
            if lam != mu:
                assert not (P.leq(lam, mu) and P.leq(mu, lam))
    # linear_key refines the order
    for lam in labels:
        for mu in labels:
            if P.leq(lam, mu) and lam != mu:
                assert P.linear_key(lam) < P.linear_key(mu)


def order_data(lam, d: int):
    """What the order on labels of size d reads: the component sizes, their
    tail sums, and every partial sum of every component, up to d parts."""
    sizes = [sum(c) for c in lam]
    return (sizes, [sum(sizes[i:]) for i in range(len(sizes))],
            [[sum(c[:k]) for k in range(1, d + 1)] for c in lam])


def leq_by_definition(a, b) -> bool:
    """The order, written out on `order_data`: the tail sums bounded, then,
    where the sizes agree, every partial sum bounded."""
    (sizes_a, tails_a, partials_a), (sizes_b, tails_b, partials_b) = a, b
    if sizes_a != sizes_b:
        return all(x <= y for x, y in zip(tails_a, tails_b))
    return all(x <= y for p, q in zip(partials_a, partials_b) for x, y in zip(p, q))


def test_order_is_its_definition_and_linear_key_refines_it():
    """On every label set with 1-3 colors, n <= 4 and d <= 5."""
    for ell, n, d in itertools.product(range(3), range(1, 5), range(6)):
        labels = P.gen_multipartitions(n, d, ell)
        keys = [P.linear_key(lam) for lam in labels]
        assert keys == sorted(keys)
        data = [order_data(lam, d) for lam in labels]
        for lam, key, a in zip(labels, keys, data):
            for mu, other, b in zip(labels, keys, data):
                assert P.leq(lam, mu) == leq_by_definition(a, b), (lam, mu)
                assert not P.leq(lam, mu) or lam == mu or key < other, (lam, mu)


def test_trim_pad():
    assert P.trim((2, 1, 0, 0)) == (2, 1)
    assert P.pad((2, 1), 4) == (2, 1, 0, 0)


def test_json_roundtrip():
    bold = ((2, 1), (), (1,))
    assert P.from_json(P.to_json(bold)) == bold

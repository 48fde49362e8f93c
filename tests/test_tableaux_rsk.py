from itertools import product

import pytest

from helpers import shape_of, tableau_from_json, tableau_weight
from schurify.base_algebra import SIDES, make_algebra
from schurify.partitions import gen_multipartitions
from schurify.rsk import rsk, rsk_inv
from schurify.tableaux import enumerate_tableaux, is_standard, to_json
from schurify.triples import TriContext


def test_rsk_roundtrip_all_orbits(T122):
    for orbit in T122.orbits:
        bold, S, Tb = rsk(T122.ctx, orbit)
        assert shape_of(S) == bold == shape_of(Tb)
        assert is_standard(S, T122.ctx.x_alphabet)
        assert is_standard(Tb, T122.ctx.y_alphabet)
        assert rsk_inv(T122.ctx, S, Tb) == orbit


def test_rsk_counts(T122):
    """rank = sum over shapes of |Std^X| * |Std^Y|."""
    total = 0
    for bold in gen_multipartitions(2, 2, 1):
        nx = len(enumerate_tableaux(bold, T122.ctx.x_alphabet))
        ny = len(enumerate_tableaux(bold, T122.ctx.y_alphabet))
        total += nx * ny
    assert total == T122.rank == 202


def test_rsk_injective(T122):
    seen = set()
    for orbit in T122.orbits:
        key = rsk(T122.ctx, orbit)
        assert key not in seen
        seen.add(key)


def _brute_force_standard(bold, alphabet):
    """Every filling of the shape by its components' letters, cell by cell in
    row-major order, that passes `is_standard`."""
    cells = [alphabet.letters(i) for i, comp in enumerate(bold) for width in comp
             for _ in range(width)]
    out = []
    for fill in product(*cells):
        it = iter(fill)
        tab = tuple(tuple(tuple(next(it) for _ in range(width)) for width in comp)
                    for comp in bold)
        if is_standard(tab, alphabet):
            out.append(tab)
    return out


@pytest.mark.parametrize("spec", ["trivial", "zigzag:1", "zigzag:2"])
def test_enumerate_tableaux_matches_brute_force(spec):
    """On both sides, for n, d <= 3, the standard tableaux of each shape are
    exactly the fillings that pass `is_standard`, in the same order.  The
    enumerator refuses a repeated odd letter only next to its equal, which
    needs `Alphabet.key` injective within each component."""
    alg, data, _tau = make_algebra(spec)
    for n in range(1, 4):
        ctx = TriContext(alg, data, n)
        for side in SIDES:
            alphabet = ctx.alphabet(side)
            for i in range(len(data.labels)):
                letters = alphabet.letters(i)
                assert len(set(map(alphabet.key, letters))) == len(letters), (spec, side.name, i)
            for d in range(4):
                for bold in gen_multipartitions(n, d, len(data.labels) - 1):
                    std = enumerate_tableaux(bold, alphabet)
                    assert std == _brute_force_standard(bold, alphabet), (spec, n, bold, side.name)


def test_tableau_weight(T122):
    bold = ((2,), ())
    for t in enumerate_tableaux(bold, T122.ctx.x_alphabet):
        w = tableau_weight(t, T122.ctx.x_alphabet)
        assert sum(sum(c) for c in w) == 2


def test_tableau_json_roundtrip(T122):
    for bold in (((2,), ()), ((1,), (1,))):
        for t in enumerate_tableaux(bold, T122.ctx.x_alphabet):
            assert tableau_from_json(to_json(t)) == t

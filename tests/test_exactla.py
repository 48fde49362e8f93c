import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import schurify
from helpers import lu_det, lu_rank, lu_solve
from schurify.exactla import Block, rank
from schurify.rings import GF, QQ


def single_block(mat, labelled=True):
    """Block 0 whose column j has the expansion {i: mat[i][j]} over rows i,
    labelled c0, c1, ... for solves unless `labelled` is False."""
    rows = list(range(len(mat)))
    cols = [f"c{j}" for j in range(len(mat[0]))]
    expansions = [{i: mat[i][j] for i in rows if mat[i][j]} for j in range(len(cols))]
    return Block("block", 0, rows, expansions, cols if labelled else None)


def times(mat, x):
    """mat . x as a sparse vector over the rows."""
    out = {i: sum(row[int(c[1:])] * v for c, v in x.items()) for i, row in enumerate(mat)}
    return {i: v for i, v in out.items() if v}


def test_block_that_needs_a_row_swap():
    mat = [[0, 2, 1], [1, 0, 0], [0, 1, 1]]  # column 0 has its pivot in row 1
    B = single_block(mat)
    assert B.det == -1
    assert single_block(mat, labelled=False).det == -1
    v = {0: 3, 1: 1, 2: 2}
    x = B.solve_integral(v)
    assert x == {"c0": 1, "c1": 1, "c2": 1}
    assert times(mat, x) == v


def test_unimodular_against_determinant_two():
    minus_one = single_block([[1, 1], [1, 0]])
    assert minus_one.det == -1
    assert minus_one.solve_integral({0: 1}) == {"c1": 1}

    two = single_block([[2, 0], [0, 1]])
    assert two.det == 2
    assert two.solve_integral({0: 2, 1: 5}) == {"c0": 1, "c1": 5}
    with pytest.raises(ArithmeticError, match="1/2 of column c0 in block 0"):
        two.solve_integral({0: 1})


def test_singular_and_non_square_blocks_raise():
    with pytest.raises(AssertionError, match="singular"):
        single_block([[1, 2], [2, 4]], labelled=False)
    with pytest.raises(AssertionError, match="block 0 singular"):
        single_block([[1, 2], [2, 4]])
    with pytest.raises(AssertionError, match="block 0 is not square: 1 columns vs 2 rows"):
        Block("block", 0, [0, 1], [{0: 1}], ["c0"])


def test_rank_over_q_and_f2():
    assert rank([[2]], QQ) == 1
    assert rank([[2]], GF(2)) == 0
    assert rank([[1, 1], [1, -1]], QQ) == 2
    assert rank([[1, 1], [1, -1]], GF(2)) == 1
    assert rank([[0, 1, 2], [0, 2, 4]], QQ) == 1  # a column with no pivot
    assert rank([], QQ) == 0


def test_non_integral_coefficient_is_reduced_and_named():
    four = single_block([[4, 0], [0, 1]])
    assert four.solve_integral({0: 8}) == {"c0": 2}
    with pytest.raises(ArithmeticError, match="non-integral coefficient 1/2 of column c0 in block 0"):
        four.solve_integral({0: 2})
    minus_three = single_block([[0, 1], [3, 0]])  # a row swap, det -3
    assert minus_three.det == -3
    with pytest.raises(ArithmeticError, match="non-integral coefficient -2/3 of column c0 in block 0"):
        minus_three.solve_integral({1: -2})


@pytest.mark.parametrize("mat", [
    [[1, 1], [-1, 1]],                   # det 2
    [[0, 1], [3, 0]],                    # a row swap, det -3
    [[2, 1, 0], [0, 1, 1], [1, 0, 1]],   # det 3, no unit pivot first
    [[0, 2, 1], [1, 0, 0], [0, 1, 1]],   # a row swap, det -1
])
def test_dual_row_against_fraction_oracle(mat):
    """Each column's dual row, in numerators over det, is that column's row
    of the inverse by the LU oracle, zeros included; a vector read through
    it is divided exactly, or its non-integral coefficient is named."""
    n = len(mat)
    B = single_block(mat)
    assert B.det == lu_det(mat)
    inverse = [lu_solve(mat, [int(i == r) for i in range(n)]) for r in range(n)]
    for j in range(n):
        row = B.dual_row(f"c{j}")
        assert list(row) == list(range(n))
        assert [Fraction(row[r], B.det) for r in range(n)] == [inverse[r][j] for r in range(n)]
        for r in range(n):
            want = inverse[r][j]
            if want.denominator == 1:
                assert B.quotient(row[r], f"c{j}") == want
            else:
                with pytest.raises(ArithmeticError) as exc:
                    B.quotient(row[r], f"c{j}")
                assert str(exc.value) == (f"non-integral coefficient {want.numerator}/"
                                          f"{want.denominator} of column c{j} in block 0")


# Square blocks of size 1-6 and vectors cut to their size; small entries so
# that zero pivots (row swaps), singular blocks and |det| > 1 all come up often.
entries = st.integers(-3, 3)
blocks = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
vectors = st.lists(entries, min_size=6, max_size=6)


@given(blocks, vectors, vectors)
@example([[0, 2, 1], [1, 0, 0], [0, 1, 1]], [3, 1, 2, 0, 0, 0], [1, 1, 1, 0, 0, 0])  # swap, det -1
@example([[0, 3], [2, 1]], [1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0])  # swap, det -6
@example([[2, 1, 0], [0, 2, 1], [1, 0, 2]], [1, 1, 1, 0, 0, 0], [1, -1, 2, 0, 0, 0])  # det 9
def test_block_against_fraction_oracle(mat, v, x):
    """det, integral solves and integrality aborts agree with the LU oracle,
    on an arbitrary right-hand side and on the image of an integral x."""
    n = len(mat)
    det = lu_det(mat)
    if not det:
        with pytest.raises(AssertionError, match="singular"):
            single_block(mat, labelled=False)
        return
    B = single_block(mat)
    assert B.det == det
    assert single_block(mat, labelled=False).det == det
    for rhs in (v[:n], [sum(row[j] * x[j] for j in range(n)) for row in mat]):
        want = lu_solve(mat, rhs)
        sparse = {i: c for i, c in enumerate(rhs) if c}
        if all(c.denominator == 1 for c in want):
            assert B.solve_integral(sparse) == {f"c{j}": int(c) for j, c in enumerate(want) if c}
        else:
            with pytest.raises(ArithmeticError, match="non-integral coefficient"):
                B.solve_integral(sparse)


matrices = st.tuples(st.integers(0, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


@given(matrices)
@example([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
def test_rank_against_fraction_oracle(mat):
    assert rank(mat, QQ) == lu_rank(mat)
    for p in (2, 3):
        assert rank(mat, GF(p)) == lu_rank(mat, p)


# Sparse square blocks of size 1-8: most entries 0, the rest in -2..2, so that
# the elimination runs out of unit pivots, finds them in later rows and
# columns, and meets singular blocks and |det| > 1.
sparse_entries = st.sampled_from([0, 0, 0, 0, 0, 0, -2, -1, 1, 2])
sparse_blocks = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=n, max_size=n))
rhs = st.lists(st.integers(-2, 2), min_size=8, max_size=8)


@given(sparse_blocks, rhs)
@example([[2, 3], [3, 5]], [1, -1, 0, 0, 0, 0, 0, 0])  # det 1, no +-1 entry
@example([[2, 1, 0], [3, 1, 0], [0, 0, 1]], [1, 0, 1, 0, 0, 0, 0, 0])  # first pivot in column 2
@example([[1, 1], [-1, 1]], [1, 0, 0, 0, 0, 0, 0, 0])  # det 2
def test_sparse_blocks_against_fraction_oracle(mat, v):
    """The sparse elimination gives the LU oracle's determinant, solutions
    and integrality aborts, and its ranks over Q, F_2 and F_3."""
    n = len(mat)
    assert rank(mat, QQ) == lu_rank(mat)
    for p in (2, 3):
        assert rank(mat, GF(p)) == lu_rank(mat, p)
    det = lu_det(mat)
    if not det:
        with pytest.raises(AssertionError, match="singular"):
            single_block(mat)
        return
    B = single_block(mat)
    assert B.det == det
    assert single_block(mat, labelled=False).det == det
    want = lu_solve(mat, v[:n])
    sparse = {i: c for i, c in enumerate(v[:n]) if c}
    if all(c.denominator == 1 for c in want):
        assert B.solve_integral(sparse) == {f"c{j}": int(c) for j, c in enumerate(want) if c}
    else:
        with pytest.raises(ArithmeticError, match="non-integral coefficient"):
            B.solve_integral(sparse)


def test_package_imports_no_fractions():
    """The package computes on ints: no module imports `fractions`."""
    for path in sorted(Path(schurify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(nm.split(".")[0] != "fractions" for nm in names), path.name

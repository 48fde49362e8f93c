from fractions import Fraction

import pytest

from schurify.exactla import BlockedBasis, rank
from schurify.rings import GF, QQ


def single_block(mat):
    """One block whose column j has the expansion {i: mat[i][j]} over rows i."""
    rows = list(range(len(mat)))
    cols = [f"c{j}" for j in range(len(mat[0]))]
    expansion = {c: {i: mat[i][j] for i in rows if mat[i][j]} for j, c in enumerate(cols)}
    return BlockedBasis("block", {0: (rows, cols)}, lambda r: 0, expansion.__getitem__)


def times(mat, x):
    """mat . x as a sparse vector over the rows."""
    out = {i: sum(row[int(c[1:])] * v for c, v in x.items()) for i, row in enumerate(mat)}
    return {i: v for i, v in out.items() if v}


def test_block_that_needs_a_row_swap():
    mat = [[0, 2, 1], [1, 0, 0], [0, 1, 1]]  # column 0 has its pivot in row 1
    B = single_block(mat)
    assert B.factor(0).det == -1
    assert B.unimodular()
    v = {0: 3, 1: 1, 2: 2}
    x = B.solve_integral(v)
    assert x == {"c0": 1, "c1": 1, "c2": 1}
    assert times(mat, x) == v


def test_unimodular_against_determinant_two():
    minus_one = single_block([[1, 1], [1, 0]])
    assert minus_one.factor(0).det == -1 and minus_one.unimodular()
    assert minus_one.solve_integral({0: 1}) == {"c1": 1}

    two = single_block([[2, 0], [0, 1]])
    assert two.factor(0).det == 2 and not two.unimodular()
    assert two.solve({0: 1}) == {"c0": Fraction(1, 2)}
    assert two.solve_integral({0: 2, 1: 5}) == {"c0": 1, "c1": 5}
    with pytest.raises(ArithmeticError, match="block 0"):
        two.solve_integral({0: 1})


def test_singular_and_non_square_blocks_raise():
    singular = single_block([[1, 2], [2, 4]])
    with pytest.raises(AssertionError, match="singular"):
        singular.unimodular()
    with pytest.raises(AssertionError, match="singular"):
        singular.solve({0: 1})
    tall = BlockedBasis("block", {0: ([0, 1], ["c0"])}, lambda r: 0, lambda c: {0: 1})
    with pytest.raises(AssertionError, match="not square"):
        tall.solve({0: 1})


def test_rank_over_q_and_f2():
    assert rank([[2]], QQ) == 1
    assert rank([[2]], GF(2)) == 0
    assert rank([[1, 1], [1, -1]], QQ) == 2
    assert rank([[1, 1], [1, -1]], GF(2)) == 1
    assert rank([[0, 1, 2], [0, 2, 4]], QQ) == 1  # a column with no pivot
    assert rank([], QQ) == 0


def test_blocks_are_solved_separately():
    expansion = {"a": {"x": 1}, "b": {"y": 2, "z": 1}, "c": {"y": 1, "z": 1}}
    B = BlockedBasis("block", {1: (["x"], ["a"]), 2: (["y", "z"], ["b", "c"])},
                     lambda r: 1 if r == "x" else 2, expansion.__getitem__)
    assert B.unimodular()
    assert B.solve_integral({"x": 3, "y": 1}) == {"a": 3, "b": 1, "c": -1}

"""Compositions, partitions, multipartitions, and their order.

A composition is a tuple of nonnegative ints; a partition additionally has
weakly decreasing parts and no trailing zeros.  A multipartition is a tuple of
ell+1 partitions; components are indexed by colors 0..ell.  Nodes of a
multipartition are enumerated row-major through the components in color order.

The multipartitions label the standard modules, and a label's components are
trimmed: `gen_multipartitions` and `from_json` give no trailing zeros.  The
labels are ordered first by the color order on their component sizes (tail
sums bounded), then, where the sizes agree, by dominance in each component
(running sums bounded): `leq`.
"""
from __future__ import annotations

from functools import cache
from itertools import accumulate, product
from typing import Iterator

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def trim(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Drop trailing zeros."""
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return tuple(parts[:n])


def pad(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    if len(parts) > n:
        raise ValueError(f"{parts} has more than {n} parts")
    return tuple(parts) + (0,) * (n - len(parts))


def compositions(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of d into exactly n (possibly zero) parts, in
    decreasing lexicographic order: the first part from d down."""
    if d < 0 or n < 1:
        if d == n == 0:
            yield ()
        return
    comp = [d] + [0] * (n - 1)
    while True:
        yield tuple(comp)
        # the next one down: the last nonzero part before the last gives one
        # to the part after it, which takes the last part's all too
        i = next((i for i in range(n - 2, -1, -1) if comp[i]), -1)
        if i < 0:
            return
        comp[i:] = [comp[i] - 1, comp[-1] + 1] + [0] * (n - i - 2)


def _largest(total: int, max_parts: int, max_part: int) -> Partition | None:
    """The lexicographically largest partition of total with at most
    max_parts parts, each at most max_part; None if there is none."""
    if not 0 <= total <= max_parts * max_part:
        return None
    q, r = divmod(total, max_part or 1)
    return (max_part,) * q + (r,) * (r > 0)


@cache
def partitions_of(d: int, max_parts: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of d with at most max_parts parts, parts bounded by
    max_part, in decreasing lexicographic order: the first part from the
    largest down."""
    out, lam = [], _largest(d, max_parts, d if max_part is None else max_part)
    while lam is not None:
        out.append(lam)
        # the next one down: the last part that can drop by one does, and
        # the parts after it are refilled as large as they go
        for i in range(len(lam) - 1, -1, -1):
            if rest := _largest(sum(lam[i + 1:]) + 1, max_parts - i - 1, lam[i] - 1):
                lam = lam[:i] + (lam[i] - 1,) + rest
                break
        else:
            lam = None
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def size(lam: Partition) -> int:
    return sum(lam)


# ---------------------------------------------------------------------------
# the order
# ---------------------------------------------------------------------------

def _running(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The running sums (a_0, a_0 + a_1, ...)."""
    return tuple(accumulate(parts))


def leq(lam: Multipartition, mu: Multipartition) -> bool:
    """lam <= mu in the order on labels, for labels of one size and color
    count.  No caller passes an untrimmed label, since `gen_multipartitions`
    and `from_json` trim: padded with trailing zeros, a label would be <= its
    trimmed form and that form <= it."""
    sizes, other = tuple(map(sum, lam)), tuple(map(sum, mu))
    # the color order reads the sizes' tail sums, dominance the components'
    pairs = [(sizes[::-1], other[::-1])] if sizes != other else zip(lam, mu)
    return all(x <= y for a, b in pairs for x, y in zip(_running(a), _running(b)))


def linear_key(lam: Multipartition):
    """Sort key of a linear extension of `leq`: the tail sums of the
    component sizes, then each component's running sums."""
    return _running(tuple(map(sum, lam))[::-1])[::-1], tuple(map(_running, lam))


def _per_color(d: int, ell: int, parts) -> tuple:
    """Every tuple of ell+1 entries, one per color, of total size d: the
    sizes a composition of d, the entry of size k one of `parts(k)`."""
    return tuple(combo for sizes in compositions(d, ell + 1)
                 for combo in product(*map(parts, sizes)))


@cache
def gen_multipartitions(n: int, d: int, ell: int) -> tuple[Multipartition, ...]:
    """All multipartitions of d with ell+1 components, each with at most n parts,
    sorted by `linear_key` (smallest first)."""
    if n < 1 or d < 0 or ell < 0:
        raise ValueError("need n >= 1, d >= 0, ell >= 0")
    return tuple(sorted(_per_color(d, ell, lambda k: partitions_of(k, n)), key=linear_key))


def gen_multicompositions(n: int, d: int, ell: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All tuples of ell+1 compositions with n parts each, total size d."""
    return _per_color(d, ell, lambda k: tuple(compositions(k, n)))


# ---------------------------------------------------------------------------
# row words
# ---------------------------------------------------------------------------

def comp_row_word(comp: tuple[int, ...]) -> tuple[int, ...]:
    """The row index of each cell of a composition, row-major, 1-based."""
    return tuple(r for r, width in enumerate(comp, start=1) for _ in range(width))


def row_word(bold) -> list[int]:
    """The row index of each cell of a multicomposition, row-major, 1-based."""
    return [m for comp in bold for m in comp_row_word(comp)]


def to_json(bold: Multipartition) -> list:
    return [list(c) for c in bold]


def from_json(obj: list) -> Multipartition:
    return tuple(trim(tuple(int(x) for x in c)) for c in obj)

"""Compositions, partitions, multipartitions, and their orders.

A composition is a tuple of nonnegative ints; a partition additionally has
weakly decreasing parts and no trailing zeros.  A multipartition is a tuple of
ell+1 partitions; components are indexed by colors 0..ell.  Nodes of a
multipartition are enumerated row-major through the components in color order.
"""
from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterator, Literal

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]

Cmp = Literal["LT", "GT", "EQ", "INC"]


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
    """All compositions of d into exactly n (possibly zero) parts."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in compositions(d - first, n - 1):
            yield (first,) + rest


@cache
def partitions_of(d: int, max_parts: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of d with at most max_parts parts, parts bounded by max_part."""
    if max_part is None:
        max_part = d
    if d == 0:
        return ((),)
    if max_parts == 0:
        return ()
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in partitions_of(d - first, max_parts - 1, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def size(lam: Partition) -> int:
    return sum(lam)


def msize(bold: Multipartition) -> int:
    return sum(sum(c) for c in bold)


def mnorm(bold: Multipartition) -> tuple[int, ...]:
    """The tuple of component sizes (the image in Lambda(I, d))."""
    return tuple(sum(c) for c in bold)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def dominance_leq(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam trianglelefteq mu: partial sums of lam bounded by those of mu."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares equal sizes only")
    a = b = 0
    for k in range(max(len(lam), len(mu))):
        a += lam[k] if k < len(lam) else 0
        b += mu[k] if k < len(mu) else 0
        if a > b:
            return False
    return True


def _tail_sums(w: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    t = 0
    for v in reversed(w):
        t += v
        out.append(t)
    return tuple(reversed(out))


def color_order_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """The order on Lambda(I, d): tail sums of a bounded by tail sums of b."""
    if len(a) != len(b) or sum(a) != sum(b):
        raise ValueError("color order compares equal-length, equal-size tuples")
    ta, tb = _tail_sums(a), _tail_sums(b)
    return all(x <= y for x, y in zip(ta, tb))


def compare(lam: Multipartition, mu: Multipartition) -> Cmp:
    """The partial order on multipartitions: color order on norms, then
    componentwise dominance when the norms agree."""
    if len(lam) != len(mu):
        raise ValueError("different numbers of components")
    if msize(lam) != msize(mu):
        raise ValueError("sizes differ")
    if lam == mu:
        return "EQ"
    na, nb = mnorm(lam), mnorm(mu)
    if na != nb:
        le = color_order_leq(na, nb)
        ge = color_order_leq(nb, na)
        if le and not ge:
            return "LT"
        if ge and not le:
            return "GT"
        return "INC"
    le = all(dominance_leq(a, b) for a, b in zip(lam, mu))
    ge = all(dominance_leq(b, a) for a, b in zip(lam, mu))
    if le and not ge:
        return "LT"
    if ge and not le:
        return "GT"
    return "INC"


def leq(lam: Multipartition, mu: Multipartition) -> bool:
    return compare(lam, mu) in ("LT", "EQ")


def linear_key(lam: Multipartition):
    """Sort key giving a deterministic linear extension of the partial order."""
    norm_key = _tail_sums(mnorm(lam))
    comp_key = tuple(_partial_sums_padded(c) for c in lam)
    return (norm_key, comp_key)


def _partial_sums_padded(c: Partition) -> tuple[int, ...]:
    out, t = [], 0
    for v in c:
        t += v
        out.append(t)
    # pad so lexicographic comparison refines dominance on equal sizes
    out += [t] * (sum(c) - len(out) if sum(c) > len(out) else 0)
    return tuple(out)


@cache
def gen_multipartitions(n: int, d: int, ell: int) -> tuple[Multipartition, ...]:
    """All multipartitions of d with ell+1 components, each with at most n parts,
    sorted by a linear extension of the partial order (smallest first)."""
    if n < 1 or d < 0 or ell < 0:
        raise ValueError("need n >= 1, d >= 0, ell >= 0")
    out: list[Multipartition] = []
    for norm in compositions(d, ell + 1):
        for combo in product(*(partitions_of(di, n) for di in norm)):
            out.append(tuple(combo))
    out.sort(key=linear_key)
    return tuple(out)


def gen_multicompositions(n: int, d: int, ell: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All tuples of ell+1 compositions with n parts each, total size d."""
    out = []
    for norm in compositions(d, ell + 1):
        for combo in product(*(tuple(compositions(di, n)) for di in norm)):
            out.append(tuple(combo))
    return tuple(out)


# ---------------------------------------------------------------------------
# row words
# ---------------------------------------------------------------------------

def comp_row_word(comp: tuple[int, ...]) -> tuple[int, ...]:
    """The row index of each cell of a composition, row-major, 1-based."""
    return tuple(r for r, width in enumerate(comp, start=1) for _ in range(width))


def to_json(bold: Multipartition) -> list:
    return [list(c) for c in bold]


def from_json(obj: list) -> Multipartition:
    return tuple(trim(tuple(int(x) for x in c)) for c in obj)

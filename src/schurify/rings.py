"""Coefficient fields and the graded super-scalar ring R = Z[q,q^-1][t]/(t^2-1).

A coefficient ring names the field where the decomposition layer takes its
exact ranks: Q or F_p.  The Schur algebra and its products are integral
whatever the field.  Graded super-scalars are sparse maps (degree m, parity
eps) -> integer; pi^2 = 1.
"""
from __future__ import annotations

from typing import NamedTuple


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class CoefficientRing(NamedTuple):
    """The field where exact ranks are taken: Q when `p` is None, else F_p,
    a record equal and hashed by `p`.  Build one through `QQ` or `GF`, the
    one place that checks the prime.

    The arithmetic itself is done on ints by its users (`exactla` works on
    residues mod `p`)."""

    p: int | None = None

    def __repr__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = CoefficientRing()


def GF(p: int) -> CoefficientRing:
    """F_p for a prime p below 2^31, the bound that keeps the primality
    test's trial division quick."""
    if not (p < 2**31 and _is_prime(p)):
        raise ValueError(f"GF needs a prime below 2^31, got {p!r}")
    return CoefficientRing(p)


class GradedSuperScalar:
    """Element of R = Z[q, q^-1][t]/(t^2 - 1), stored sparsely.

    Keys are (m, eps) with m the q-degree and eps in {0, 1} the pi-exponent;
    zero coefficients are never stored.  The constructor takes a dict already
    in that normal form, with int keys (m, 0 | 1) and no zero int
    coefficient, and keeps it as it is, unchecked: the scalar then owns the
    dict, and its caller never changes it again.  A scalar is never changed
    once built, so characters and matrices share scalars freely.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "GradedSuperScalar":
        return GradedSuperScalar({})

    @staticmethod
    def one() -> "GradedSuperScalar":
        return GradedSuperScalar({(0, 0): 1})

    @staticmethod
    def term(c: int, m: int = 0, eps: int = 0) -> "GradedSuperScalar":
        """c q^m pi^eps, for ints c, m and eps."""
        return GradedSuperScalar({(m, eps % 2): c} if c else {})

    # -- ring structure -----------------------------------------------
    def __add__(self, other: "GradedSuperScalar") -> "GradedSuperScalar":
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            d[k] = d.get(k, 0) + c
            if not d[k]:
                del d[k]
        return GradedSuperScalar(d)

    def __mul__(self, other: "GradedSuperScalar") -> "GradedSuperScalar":
        d: dict[tuple[int, int], int] = {}
        for (m1, e1), c1 in self.coeffs.items():
            for (m2, e2), c2 in other.coeffs.items():
                k = (m1 + m2, (e1 + e2) % 2)
                d[k] = d.get(k, 0) + c1 * c2
        # products cancel: (1 + pi)(1 - pi) = 0
        return GradedSuperScalar({k: c for k, c in d.items() if c})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = GradedSuperScalar.term(other)
        return isinstance(other, GradedSuperScalar) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -------------------------------------------------------
    def __getitem__(self, key: tuple[int, int]) -> int:
        return self.coeffs.get((key[0], key[1] % 2), 0)

    # -- display / serialization --------------------------------------
    def __repr__(self) -> str:
        """The printed form, as in `1+3*q^2*pi`, `1-2*q` or `2*q^-1`: a
        coefficient of 1 or -1 is written only on the constant monomial."""
        if not self.coeffs:
            return "0"
        parts = []
        for (m, eps) in sorted(self.coeffs):
            c = self.coeffs[(m, eps)]
            mon = []
            if m:
                mon.append(f"q^{m}" if m != 1 else "q")
            if eps:
                mon.append("pi")
            if not mon or abs(c) != 1:
                mon.insert(0, str(abs(c)))
            term = "*".join(mon)
            parts.append(("-" if c < 0 else ("+" if parts else "")) + term)
        return "".join(parts)

"""Exact coefficient rings and the graded super-scalar ring R = Z[q,q^-1][t]/(t^2-1).

A coefficient ring names where exact arithmetic happens: Z, Q, or F_p.
Graded super-scalars are sparse maps (degree m, parity eps) -> integer;
pi^2 = 1.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping


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


class CoefficientRing:
    """One of Z, Q, or F_p: a kind and, for F_p, the prime `p`.

    The arithmetic itself is done on ints by its users (`exactla` works on
    residues mod `p`)."""

    INT = "INT"
    RAT = "RAT"
    PRIME_FIELD = "PRIME_FIELD"

    def __init__(self, kind: str, p: int | None = None):
        if kind not in (self.INT, self.RAT, self.PRIME_FIELD):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == self.PRIME_FIELD:
            if p is None or not _is_prime(p):
                raise ValueError(f"PRIME_FIELD requires a prime, got {p!r}")
        elif p is not None:
            raise ValueError("p only makes sense for PRIME_FIELD")
        self.kind = kind
        self.p = p

    def __repr__(self) -> str:
        return f"F{self.p}" if self.kind == self.PRIME_FIELD else ("Z" if self.kind == self.INT else "Q")

    def __eq__(self, other) -> bool:
        return isinstance(other, CoefficientRing) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    @property
    def is_field(self) -> bool:
        return self.kind != self.INT


ZZ = CoefficientRing(CoefficientRing.INT)
QQ = CoefficientRing(CoefficientRing.RAT)


def GF(p: int) -> CoefficientRing:
    """F_p for a prime p below 2^31, the bound that keeps the primality
    test's trial division quick."""
    if p >= 2**31:
        raise ValueError(f"GF needs a prime below 2^31, got {p!r}")
    return CoefficientRing(CoefficientRing.PRIME_FIELD, p)


class GradedSuperScalar:
    """Element of R = Z[q, q^-1][t]/(t^2 - 1), stored sparsely.

    Keys are (m, eps) with m the q-degree and eps in {0, 1} the pi-exponent;
    zero coefficients are never stored.  The constructor brings what it is
    given into that normal form.  `_normal` wraps a dict already in it, with
    int keys (m, 0 | 1) and no zero int coefficient, as it is: the scalar
    then owns the dict, and its caller never changes it again.  A scalar is
    never changed once built, so vectors and matrices share scalars freely.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = ()):
        d: dict[tuple[int, int], int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for (m, eps), c in items:
            if c:
                k = (int(m), int(eps) % 2)
                d[k] = d.get(k, 0) + int(c)
                if not d[k]:
                    del d[k]
        self.coeffs = d

    # -- constructors -------------------------------------------------
    @staticmethod
    def _normal(coeffs: dict[tuple[int, int], int]) -> "GradedSuperScalar":
        """The scalar of `coeffs`, a dict in normal form (see the class),
        which it keeps as it is, unchecked."""
        out = object.__new__(GradedSuperScalar)
        out.coeffs = coeffs
        return out

    @staticmethod
    def zero() -> "GradedSuperScalar":
        return GradedSuperScalar._normal({})

    @staticmethod
    def one() -> "GradedSuperScalar":
        return GradedSuperScalar._normal({(0, 0): 1})

    @staticmethod
    def term(c: int, m: int = 0, eps: int = 0) -> "GradedSuperScalar":
        """c q^m pi^eps, for ints c, m and eps."""
        return GradedSuperScalar._normal({(m, eps % 2): c} if c else {})

    @staticmethod
    def q_power(m: int) -> "GradedSuperScalar":
        return GradedSuperScalar.term(1, m, 0)

    # -- ring structure -----------------------------------------------
    def __add__(self, other: "GradedSuperScalar") -> "GradedSuperScalar":
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            d[k] = d.get(k, 0) + c
            if not d[k]:
                del d[k]
        return GradedSuperScalar._normal(d)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        d: dict[tuple[int, int], int] = {}
        for (m1, e1), c1 in self.coeffs.items():
            for (m2, e2), c2 in other.coeffs.items():
                k = (m1 + m2, (e1 + e2) % 2)
                d[k] = d.get(k, 0) + c1 * c2
        return GradedSuperScalar(d)

    __rmul__ = __mul__

    def scale(self, c: int) -> "GradedSuperScalar":
        return GradedSuperScalar({k: c * v for k, v in self.coeffs.items()})

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

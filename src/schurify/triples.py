"""Triples (b, r, s), their S_d-orbits, sign statistics and multiplicity factorials.

A letter is a triple (b, r, s) with b a basis label and r, s in [1, n].  Words
are tuples of letters; the symmetric group permutes places.  An orbit is
admissible when repeated letters occur only at even b (otherwise the
corresponding element vanishes).  The canonical representative of an orbit is
the word sorted under the fixed total order:

    (color of b under the REVERSED order on I, then s, then the position of
     the y-part of b in the Y(i) listing, then r, then the x-part position).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

from .base_algebra import X_SIDE, Y_SIDE, BasedSuperalgebra, HeredityData, Side, strict_pairs
from .tableaux import Alphabet

TriLetter = tuple[str, int, int]
TriWord = tuple[TriLetter, ...]


@dataclass(frozen=True)
class TriContext:
    """Per-algebra machinery for triple words over [1, n]."""

    alg: BasedSuperalgebra
    data: HeredityData
    n: int

    @cached_property
    def pair_of(self) -> dict[str, tuple[int, str, str]]:
        return strict_pairs(self.alg, self.data)[0]

    @cached_property
    def x_alphabet(self) -> Alphabet:
        return Alphabet(self.alg, self.data, self.n, X_SIDE)

    @cached_property
    def y_alphabet(self) -> Alphabet:
        return Alphabet(self.alg, self.data, self.n, Y_SIDE)

    def alphabet(self, side: Side) -> Alphabet:
        return side.pick(self.x_alphabet, self.y_alphabet)

    @cached_property
    def strata(self) -> tuple[set[str], set[str], set[str]]:
        """(B_a, B_c, B_odd)."""
        Ba, Bc, B1 = set(), set(), set()
        for b, (_i, x, y) in self.pair_of.items():
            px, py = self.alg.parity[x], self.alg.parity[y]
            (Ba if (px, py) == (0, 0) else Bc if (px, py) == (1, 1) else B1).add(b)
        return Ba, Bc, B1

    @cached_property
    def _color_pos(self) -> dict[int, int]:
        return {i: k for k, i in enumerate(self.data.labels)}

    @cached_property
    def letter_key(self) -> dict[TriLetter, tuple]:
        out = {}
        for b, (i, x, y) in self.pair_of.items():
            xi = self.x_alphabet.listings[i].index(x)
            yi = self.y_alphabet.listings[i].index(y)
            for r in range(1, self.n + 1):
                for s in range(1, self.n + 1):
                    out[(b, r, s)] = (-self._color_pos[i], s, yi, r, xi)
        return out

    def key(self, letter: TriLetter):
        return self.letter_key[letter]

    def is_odd(self, letter: TriLetter) -> bool:
        return self.alg.parity[letter[0]] == 1

    def all_letters(self) -> list[TriLetter]:
        return sorted(self.letter_key, key=self.letter_key.get)

    # -- sign statistics ---------------------------------------------------
    def triple_stat(self, word: TriWord) -> int:
        """Number of pairs k < l with both letters odd and letter_k > letter_l, mod 2."""
        key, parity = self.letter_key, self.alg.parity
        odd_keys = [key[w] for w in word if parity[w[0]]]
        inv = sum(
            1
            for k in range(len(odd_keys))
            for l in range(k + 1, len(odd_keys))
            if odd_keys[k] > odd_keys[l]
        )
        return inv % 2

    def pair_stat(self, a_word: tuple[str, ...], c_word: tuple[str, ...]) -> int:
        """Number of pairs k > l with a_k odd and c_l odd, mod 2."""
        par_a = [self.alg.parity[b] for b in a_word]
        par_c = [self.alg.parity[b] for b in c_word]
        total = 0
        odd_c_so_far = 0
        for k in range(len(par_a)):
            if par_a[k]:
                total += odd_c_so_far
            if par_c[k]:
                odd_c_so_far += 1
        return total % 2

    # -- orbits ------------------------------------------------------------
    def is_admissible(self, word: TriWord) -> bool:
        seen = set()
        for w in word:
            if w in seen and self.is_odd(w):
                return False
            seen.add(w)
        return True

    def canonicalize(self, word: TriWord, strict: bool = False) -> tuple[TriWord | None, int]:
        """Sort into the canonical representative; returns (rep, sign).

        Returns (None, 0) for an inadmissible word (the element is zero) unless
        strict, in which case a ValueError is raised.
        """
        if not self.is_admissible(word):
            if strict:
                raise ValueError(f"repeated odd letter in {word}")
            return None, 0
        rep = tuple(sorted(word, key=self.letter_key.__getitem__))
        sign = -1 if self.triple_stat(word) else 1
        return rep, sign

    # -- multiplicities ----------------------------------------------------
    def multiplicities(self, word: TriWord) -> dict[TriLetter, int]:
        out: dict[TriLetter, int] = {}
        for w in word:
            out[w] = out.get(w, 0) + 1
        return out

    def factorial(self, word: TriWord, stratum: str = "all") -> int:
        """[b,r,s]! restricted to a basis stratum: 'all', 'a', or 'c'."""
        Ba, Bc, _ = self.strata
        keep = {"all": None, "a": Ba, "c": Bc}[stratum]
        out = 1
        for (b, _r, _s), m in self.multiplicities(word).items():
            if keep is None or b in keep:
                out *= factorial(m)
        return out

    # -- weight profiles ---------------------------------------------------
    def weight_profiles(self, word: TriWord):
        """(alpha(b, r), beta(b, s)): left/right idempotent weight profiles."""
        size = len(self.data.labels) * self.n
        alpha, beta = [0] * size, [0] * size
        slots = self._profile_slots
        for letter in word:
            left, right = slots[letter]
            alpha[left] += 1
            beta[right] += 1
        return self._nested(tuple(alpha)), self._nested(tuple(beta))

    def _nested(self, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """A flattened profile cut into one block of n per color, made once."""
        if flat not in self._profiles:
            n = self.n
            self._profiles[flat] = tuple(flat[k:k + n] for k in range(0, len(flat), n))
        return self._profiles[flat]

    @cached_property
    def _profiles(self) -> dict:
        return {}

    @cached_property
    def _profile_slots(self) -> dict[TriLetter, tuple[int, int]]:
        return {letter: (self.profile_slot(letter, 0), self.profile_slot(letter, 1))
                for letter in self.letter_key}

    def profile_slot(self, letter: TriLetter, side: int) -> int:
        """Where a letter counts in the flattened left (side 0) or right
        (side 1) weight profile: its absorbing color's block of n, at r
        (left) or s (right)."""
        b = letter[0]
        absorber = (self.x_alphabet.absorbers, self.y_alphabet.absorbers)[side][b]
        return self._color_pos[absorber] * self.n + letter[1 + side] - 1

    # -- serialization -----------------------------------------------------
    @staticmethod
    def to_json(word: TriWord) -> list:
        return [{"b": b, "r": r, "s": s} for (b, r, s) in word]

    @staticmethod
    def from_json(obj: list) -> TriWord:
        return tuple((str(e["b"]), int(e["r"]), int(e["s"])) for e in obj)

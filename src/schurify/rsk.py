"""Super RSK correspondence between triple orbits and pairs of standard
colored tableaux of a common multipartition shape.

Color components are processed independently.  Within a component, an orbit
letter (b, r, s) with b = x*y becomes a biletter with bottom (r, x) in the
X(i)-alphabet and top (s, y) in the Y(i)-alphabet.  Biletters are sorted by
top (ties: bottom ascending below an even top, descending below an odd top)
and bottoms are row-inserted with the parity-aware bumping rule: an even
letter bumps the leftmost strictly larger entry, an odd letter bumps the
leftmost entry that is larger or equal.
"""
from __future__ import annotations

from .partitions import Multipartition
from .tableaux import Alphabet, Letter, Tableau
from .triples import TriContext, TriWord


def _insert(P: list[list[Letter]], alphabet: Alphabet, c: Letter) -> tuple[int, int]:
    """Row-insert c into P; returns the (row, col) of the new cell."""
    r = 0
    while True:
        if r == len(P):
            P.append([c])
            return r, 0
        row = P[r]
        odd = alphabet.is_odd(c)
        kc = alphabet.key(c)
        j = None
        for idx, z in enumerate(row):
            kz = alphabet.key(z)
            if kz > kc or (kz == kc and odd):
                j = idx
                break
        if j is None:
            row.append(c)
            return r, len(row) - 1
        c, row[j] = row[j], c
        r += 1


def _reverse_insert(P: list[list[Letter]], alphabet: Alphabet, row: int) -> Letter:
    """Undo an insertion that ended by creating the corner cell in `row`."""
    z = P[row].pop()
    if not P[row]:
        P.pop()
    for r in range(row - 1, -1, -1):
        cur = P[r]
        kz = alphabet.key(z)
        odd = alphabet.is_odd(z)
        j = None
        for idx in range(len(cur) - 1, -1, -1):
            kw = alphabet.key(cur[idx])
            if kw < kz or (kw == kz and odd):
                j = idx
                break
        if j is None:
            raise AssertionError("reverse insertion stuck; tableau not in RSK image")
        z, cur[j] = cur[j], z
    return z


def rsk(ctx: TriContext, word: TriWord) -> tuple[Multipartition, Tableau, Tableau]:
    """Map an admissible orbit word to (shape, S in Std^X, T in Std^Y)."""
    if not ctx.is_admissible(word):
        raise ValueError("inadmissible word")
    ax, ay = ctx.x_alphabet, ctx.y_alphabet
    comps_P: list[Tableau] = []
    comps_Q: list[Tableau] = []
    shape: list[tuple[int, ...]] = []
    for i in ctx.data.labels:
        biletters = []
        for (b, r, s) in word:
            bi, x, y = ctx.pair_of[b]
            if bi == i:
                biletters.append(((s, y), (r, x)))  # (top, bottom)

        def sort_key(bl):
            top, bottom = bl
            bk = ax.key(bottom)
            if ay.is_odd(top):
                bk = tuple(-v for v in bk)
            return (ay.key(top), bk)

        biletters.sort(key=sort_key)
        P: list[list[Letter]] = []
        Q: list[list[Letter]] = []
        for top, bottom in biletters:
            r, c = _insert(P, ax, bottom)
            while len(Q) <= r:
                Q.append([])
            if len(Q[r]) != c:
                raise AssertionError("recording tableau out of sync")
            Q[r].append(top)
        comps_P.append(tuple(tuple(row) for row in P))
        comps_Q.append(tuple(tuple(row) for row in Q))
        shape.append(tuple(len(row) for row in P))
    bold = tuple(shape)
    return bold, tuple(comps_P), tuple(comps_Q)


def rsk_inv(ctx: TriContext, S: Tableau, T: Tableau) -> TriWord:
    """Inverse of rsk; returns the canonical orbit word."""
    ax, ay = ctx.x_alphabet, ctx.y_alphabet
    to_label = ctx.label_of
    letters: list[tuple[str, int, int]] = []
    for i_pos, i in enumerate(ctx.data.labels):
        P = [list(row) for row in S[i_pos]] if i_pos < len(S) else []
        Q = [list(row) for row in T[i_pos]] if i_pos < len(T) else []
        while any(P):
            # the last-inserted biletter has the maximal top letter
            t = max((z for row in Q for z in row), key=ay.key)
            cells = [(r, c) for r, row in enumerate(Q) for c, z in enumerate(row) if z == t]
            if ay.is_odd(t):
                r, c = max(cells)  # bottommost occurrence
            else:
                r, c = max(cells, key=lambda rc: (rc[1], rc[0]))  # rightmost occurrence
            if c != len(Q[r]) - 1 or (r + 1 < len(Q) and len(Q[r + 1]) > c):
                raise AssertionError("extraction cell is not a removable corner")
            Q[r].pop()
            if not Q[r]:
                Q.pop()
            bottom = _reverse_insert(P, ax, r)
            s, y = t
            rr, x = bottom
            letters.append((to_label[(i, x, y)], rr, s))
    rep, _sign = ctx.canonicalize(tuple(letters))
    return rep

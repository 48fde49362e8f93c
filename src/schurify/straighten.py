"""Straightening: the recursive rewrite of a codeterminant into the standard
codeterminant basis, the constructive backend beside the blocked solve of
`codeterminants.CodetBasis`.

`orbit_to_codet` writes a basis orbit as +-1 times one dominant
codeterminant with row-standard tableaux, where straightening starts.
`Straightener` locates the minimal column violation of a non-standard
tableau, builds the auxiliary shape from the E/F row partitions, multiplies
through the connecting idempotent element and recurses along the triangular
order (shape lex up, then leading words down).  It rewrites Elements through
`SchurAlgebra.mul`, on the tableau and orbit words of `codeterminants`, and
solves nothing; `verify` and the tests compare it with the solve.

Only the commands that straighten load this module: `straighten` and
`verify` (see the README's module map for why the rest do not).
"""
from __future__ import annotations

from .base_algebra import SIDES, Side
from .codeterminants import CodetKey, codet_element, side_element
from .partitions import comp_row_word, row_word, trim
from .schur import Element, SchurAlgebra
from .tableaux import (
    Tableau,
    column_violation,
    is_standard,
    row_standardize,
    side_word,
    word as tableau_word,
)
from .triples import TriWord


# ---------------------------------------------------------------------------
# eta -> single codeterminant (constructive)
# ---------------------------------------------------------------------------

def orbit_to_codet(T: SchurAlgebra, orbit: TriWord) -> tuple[CodetKey, int]:
    """Any basis orbit is +-1 times a dominant codeterminant with row-standard
    tableaux; returns ((shape, S, T), sign).  Needs n >= d."""
    if T.n < T.d:
        raise ValueError("requires n >= d")
    ctx = T.ctx
    pos_of = {i: k for k, i in enumerate(T.data.labels)}
    groups: dict[int, dict[tuple, int]] = {pos_of[i]: {} for i in T.data.labels}
    for (b, r, s) in orbit:
        i, x, y = ctx.pair_of[b]
        key = (x, y, r, s)
        groups[pos_of[i]][key] = groups[pos_of[i]].get(key, 0) + 1
    shape, S_rows, T_rows = [], [], []
    for pos in range(len(T.data.labels)):
        rows: list[tuple[int, tuple, tuple]] = []  # (width, S row fill, T row fill)
        for (x, y, r, s), m in sorted(groups[pos].items()):
            even = T.alg.parity[x] == 0 and T.alg.parity[y] == 0
            widths = [m] if even else [1] * m
            for w in widths:
                rows.append((w, tuple((r, x) for _ in range(w)),
                             tuple((s, y) for _ in range(w))))
        rows.sort(key=lambda t: -t[0])  # dominant shape
        shape.append(tuple(w for (w, _a, _b) in rows))
        S_rows.append(tuple(a for (_w, a, _b) in rows))
        T_rows.append(tuple(b for (_w, _a, b) in rows))
    bold = tuple(shape)
    S = tuple(S_rows)
    Tb = tuple(T_rows)
    prod = codet_element(T, S, Tb)
    if prod not in ({orbit: 1}, {orbit: -1}):
        raise AssertionError(f"constructed codeterminant is not +-{orbit}: {prod}")
    return (bold, S, Tb), prod[orbit]


# ---------------------------------------------------------------------------
# the recursive rewrite
# ---------------------------------------------------------------------------

def _leading_word(T: SchurAlgebra, tab: Tableau, side: Side):
    """Row-major sequence of alphabet keys; the triangular order compares
    these lexicographically."""
    alphabet = T.ctx.alphabet(side)
    return tuple(alphabet.key(entry) for entry in tableau_word(tab))


def _decompose_one_sided(T: SchurAlgebra, bold, elt: Element, side: Side) -> dict[Tableau, int]:
    """Write an element supported on X-type (or Y-type) orbits with shape word
    `bold` as a combination of row-standard tableau elements."""
    ctx = T.ctx
    pos_of = {i: k for k, i in enumerate(T.data.labels)}
    out: dict[Tableau, int] = {}
    for orbit, c in elt.items():
        comps: list[list[list]] = [[[] for _ in comp] for comp in bold]
        for (b, r, s) in orbit:
            i, *xy = ctx.pair_of[b]
            own, other = side.orient(*xy)
            if other != T.data.e.get(i):
                raise AssertionError(f"orbit {orbit} is not {side.name}-type at {b}")
            l, m = side.orient(r, s)
            comps[pos_of[i]][m - 1].append((l, own))
        if any(len(row) != bold[k][m] for k, comp in enumerate(comps)
               for m, row in enumerate(comp)):
            raise AssertionError(f"orbit {orbit} does not fill shape {bold}")
        tab = row_standardize(
            tuple(tuple(tuple(row) for row in comp) for comp in comps), ctx.alphabet(side)
        )
        single = side_element(T, tab, side)
        if single != {orbit: 1} and single != {orbit: -1}:
            raise AssertionError("one-sided decomposition lost an orbit")
        out[tab] = out.get(tab, 0) + c * single[orbit]
    return {k: v for k, v in out.items() if v}


class Straightener:
    """Rewrites codeterminants into the standard basis constructively."""

    def __init__(self, T: SchurAlgebra):
        if T.n < T.d:
            raise ValueError("requires n >= d")
        self.T = T
        self._memo: dict[CodetKey, dict[CodetKey, int]] = {}
        self._in_progress: set[CodetKey] = set()

    # -- public ------------------------------------------------------------
    def straighten_element(self, x: Element) -> dict[CodetKey, int]:
        out: dict[CodetKey, int] = {}
        for orbit, c in x.items():
            key, sign = orbit_to_codet(self.T, orbit)
            for ck, v in self.straighten_codet(key).items():
                out[ck] = out.get(ck, 0) + c * sign * v
        return {k: v for k, v in out.items() if v}

    def straighten_codet(self, key: CodetKey) -> dict[CodetKey, int]:
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            raise RuntimeError(f"straightening cycle at {key}")
        self._in_progress.add(key)
        try:
            result = self._straighten(key)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    # -- internals ---------------------------------------------------------
    def _straighten(self, key: CodetKey) -> dict[CodetKey, int]:
        T = self.T
        bold, S, Tb = key
        key2, sign = self._dominantize(key)
        if key2 != key:
            return {ck: sign * v for ck, v in self.straighten_codet(key2).items()}
        for side in SIDES:
            if not is_standard(side.pick(S, Tb), T.ctx.alphabet(side)):
                return self._one_step(key, side)
        return {key: 1}

    def _dominantize(self, key: CodetKey) -> tuple[CodetKey, int]:
        """Sort each shape component into a partition, permuting tableau rows
        along; the sign is pinned by evaluating both products."""
        bold, S, Tb = key
        new_bold, new_S, new_T = [], [], []
        changed = False
        for comp, Sc, Tc in zip(bold, S, Tb):
            order = sorted(range(len(comp)), key=lambda m: -comp[m])
            if order != list(range(len(comp))):
                changed = True
            new_bold.append(tuple(comp[m] for m in order))
            new_S.append(tuple(Sc[m] for m in order))
            new_T.append(tuple(Tc[m] for m in order))
        if not changed:
            return key, 1
        key2 = (tuple(new_bold), tuple(new_S), tuple(new_T))
        e1 = codet_element(self.T, S, Tb)
        e2 = codet_element(self.T, *key2[1:])
        sign = self._proportionality_sign(e1, e2)
        return key2, sign

    @staticmethod
    def _proportionality_sign(e1: Element, e2: Element) -> int:
        if set(e1) != set(e2) or not e1:
            raise AssertionError("elements not proportional")
        o = next(iter(e1))
        sign = 1 if e1[o] == e2[o] else -1
        if any(c != sign * e2[k] for k, c in e1.items()):
            raise AssertionError("elements not related by a global sign")
        return sign

    def _one_step(self, key: CodetKey, side: Side) -> dict[CodetKey, int]:
        """Apply the column-violation rewrite to the tableau on the given side
        and recurse; the tableau on the other side rides along."""
        T = self.T
        bold = key[0]
        tab, other_tab = side.orient(*key[1:])
        alphabet = T.ctx.alphabet(side)
        pos, viol = next((k, v) for k, comp in enumerate(tab)
                         if (v := column_violation(comp, alphabet)))
        lam = self._aux_shape(bold[pos], tab[pos], alphabet, viol)
        lam_bold = tuple(lam if k == pos else c for k, c in enumerate(bold))
        mid = self._mid_element(bold, lam_bold, side)

        aux = T.eta(side_word(tab, row_word(lam_bold), side))
        if not aux:
            raise AssertionError(f"auxiliary {side.name} element vanished")
        lead = _decompose_one_sided(T, bold, T.mul(*side.orient(aux, mid)), side)
        s = lead.pop(tab, 0)
        if s not in (1, -1):
            raise AssertionError("leading straightening coefficient not a sign")
        leading = _leading_word(T, tab, side)
        out: dict[CodetKey, int] = {}
        Z = T.mul(*side.orient(mid, side_element(T, other_tab, side.other)))
        for other2, c in _decompose_one_sided(T, lam_bold, Z, side.other).items():
            for tab2, c2 in _decompose_one_sided(T, lam_bold, aux, side).items():
                sub = self.straighten_codet((lam_bold, *side.orient(tab2, other2)))
                for ck, v in sub.items():
                    out[ck] = out.get(ck, 0) + s * c * c2 * v
        for tab2, c in lead.items():
            if not _leading_word(T, tab2, side) < leading:
                raise AssertionError("straightening not triangular on leading words")
            sub = self.straighten_codet((bold, *side.orient(tab2, other_tab)))
            for ck, v in sub.items():
                out[ck] = out.get(ck, 0) - s * c * v
        return {k: v for k, v in out.items() if v}

    def _aux_shape(self, mu, comp, alphabet, viol):
        """The auxiliary composition from the minimal column violation `viol`
        (1-based row and column) of one component, via the E/F row
        partitions."""
        n = self.T.n
        a, b = viol
        mu_full = list(mu) + [0] * (n - len(mu))
        E: dict[int, list[int]] = {}
        F: dict[int, list[int]] = {}
        for t in range(1, n + 1):
            cells = list(range(1, mu_full[t - 1] + 1))
            if t < a:
                E[t], F[t] = cells, []
            elif t == a:
                E[t] = [s for s in cells if s < b]
                F[t] = [s for s in cells if s >= b]
            else:
                E[t] = [
                    s for s in cells
                    if all(alphabet.breaks_column(comp[t - 2][u - 1], comp[t - 1][s - 1])
                           for u in F[t - 1])
                ]
                F[t] = [s for s in cells if s not in E[t]]
        e = {t: len(E[t]) for t in range(1, n + 1)}
        f = {t: len(F[t]) for t in range(1, n + 1)}
        e[n + 1] = 0
        f[0] = 0
        lam = []
        for t in range(1, n + 1):
            if t < a:
                lam.append(mu_full[t - 1])
            elif b == 1:
                lam.append(mu_full[a - 1] + e[a + 1] if t == a else e[t + 1] + f[t])
            else:
                lam.append(e[t] + f[t - 1])
        assert sum(lam) == sum(mu)
        assert tuple(sorted(lam, reverse=True)) > tuple(mu_full)
        return trim(tuple(lam)) if lam and lam[-1] == 0 else tuple(lam)

    def _mid_element(self, src_bold, dst_bold, side: Side) -> Element:
        """Connecting element: identity colors positionwise between the two
        shape row words.  For the X side the product runs dst -> src, for the
        Y side src -> dst."""
        T = self.T
        word = []
        for k, i in enumerate(T.data.labels):
            srows = comp_row_word(src_bold[k])
            drows = comp_row_word(dst_bold[k])
            assert len(srows) == len(drows)
            ei = T.data.e[i]
            for u, v in zip(drows, srows):
                word.append((ei, *side.orient(u, v)))
        elt = T.eta(tuple(word))
        assert elt
        return elt

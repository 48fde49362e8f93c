"""Graded decomposition numbers of T^A_a(n, d), by two independent routes,
and the blocks they link.

  * the decomposition formula: d_{lam,mu} as the column sum of
    `characters._column_terms`, driven by the base algebra's graded
    decomposition data, with the classical decomposition matrix folded in
    on the gamma side.  It is computed a row at a time
    (`decomp_formula_row`): one pass over lam's column multipartitions
    serves every mu, each colour LR-expanded once per term;
    `decomp_formula` is the row of one label.  Both take the `LRCache` that
    their caller owns, and keep no cache of their own;
  * the brute-force oracle: ch L is the graded ranks, over a coefficient
    field, of the homogeneous blocks of the standard modules' Gram matrices
    (`gram_blocks`: only the degree-0 pairs are multiplied, and each entry
    is read through one dual row of the unit codeterminant's block),
    followed by a unitriangular solve of ch Delta = D . ch L that reduces
    one residual per lam in place;
  * the linking-graph blocks of a decomposition matrix, and the coarse
    decomposition induced by the base algebra's blocks.

The characters, dicts from weight to `GradedSuperScalar`, and the
Littlewood-Richardson engine that both routes read are `characters`.  The
commands that compute decomposition numbers, `decomp`, `blocks` and
`verify`, load this module; `char` does not (see the README's module map).
"""
from __future__ import annotations

from typing import NamedTuple

from . import exactla
from .base_algebra import (BasedSuperalgebra, DecompInput, HeredityData, base_decomp_numbers,
                           make_trivial)
from .characters import LRCache, _column_terms, _pad_bold, char_standard_tableaux, lr_expand
from .partitions import Partition, gen_multipartitions, leq, pad, size, trim
from .rings import QQ, CoefficientRing, GradedSuperScalar
from .schur import SchurAlgebra, build_schur
from .triples import OnLookup


# ---------------------------------------------------------------------------
# decomposition number formula
# ---------------------------------------------------------------------------

def _identity_classical(gamma: Partition, mu: Partition) -> int:
    return 1 if trim(tuple(gamma)) == trim(tuple(mu)) else 0


def decomp_formula_row(inp: DecompInput, lam, mus, n: int, classical, cache: LRCache) -> dict:
    """The graded decomposition numbers d_{lam,mu} for every mu in `mus`, from
    the base decomposition data: one sum over column multipartitions nu
    indexed by the slots, with multi-LR coefficients on the lam side
    (conjugating odd slots) and the classical decomposition matrix folded in
    on the gamma side.  A term counts only for the mu with its colourwise
    sizes, which the classical matrix preserves; each of its colours is
    LR-expanded at most once, when the first such mu needs it.  `classical`
    None stands for the identity (characteristic 0); the multi-LR
    coefficients are read through the caller's `cache`."""
    classical = classical or _identity_classical
    row = dict.fromkeys(mus, GradedSuperScalar.zero())
    by_sizes: dict = {}
    for mu in row:
        comps = [trim(comp) for comp in _pad_bold(mu, len(inp.labels))]
        by_sizes.setdefault(tuple(map(size, comps)), []).append((mu, comps))
    for coeff, m, eps, into in _column_terms(inp, lam, n, cache):
        targets = by_sizes.get(tuple([sum(map(sum, parts)) for parts in into]))
        if not targets:
            continue
        expanded = [None] * len(into)
        for mu, comps in targets:
            c = 1
            for j, mu_j in enumerate(comps):
                if expanded[j] is None:
                    expanded[j] = lr_expand(into[j], n).items()
                c *= sum(cg * classical(gamma, mu_j) for gamma, cg in expanded[j])
                if not c:
                    break
            else:
                row[mu] = row[mu] + GradedSuperScalar.term(coeff * c, m, eps)
    return row


def decomp_formula(inp: DecompInput, lam, mu, n: int, classical,
                   cache: LRCache) -> GradedSuperScalar:
    """Graded decomposition number d_{lam,mu}: the one-label row."""
    mu = tuple(map(tuple, mu))  # a row is keyed by its labels
    return decomp_formula_row(inp, lam, [mu], n, classical, cache)[mu]


# ---------------------------------------------------------------------------
# Gram matrices of the standard modules of T
# ---------------------------------------------------------------------------

def gram_blocks(T: SchurAlgebra, bold) -> dict[tuple, list[list[int]]]:
    """The Gram matrix of the standard module of shape `bold`, the
    coefficient of e_bold in Y_T X_S, cut into its homogeneous blocks.

    A row is a standard X tableau S, keyed by its (weight, degree, parity mod
    2); its columns are the standard Y tableaux of that weight, degree minus
    the row's and the same parity, in the order of `std_y`.  Only those
    pairs are multiplied, each once by `CodetBasis.pairing`.  The product is
    graded, so Y_T X_S is homogeneous of degree deg T + deg S and parity
    par T + par S; and its profiles are the padded shape on both sides,
    through T and S of equal weight.  So a pair of another weight, degree or
    parity cannot reach the unit codeterminant's block (padded shape, padded
    shape, 0, 0), and the entries outside the blocks are zero.

    The coefficient at the unit codeterminant (`unit_key`) is read through
    one dual row: the unit block is factored once and kept
    (`CodetBasis.factor`), and `Block.dual_row` gives the coefficient as
    integer numerators over its determinant on the block's rows.  Each
    entry is a dot product of a pairing with that row, divided exactly
    (`Block.quotient`).  A word of a pairing outside the unit block raises
    AssertionError naming the pair; so does a word with the block's key that
    is not one of its rows.

    Each Y_T is made a left factor once per call, when a row first meets its
    (weight, degree, parity), and each X_S a right factor for its own row,
    and then dropped: kept in the algebra's tables, they raised the
    tracemalloc peak of `decomp` on zigzag:2 n=d=3 from 6.14 to 7.14 MB."""
    cb, ctx = T.codet_basis, T.ctx
    xs, ys = cb._tableau_blocks[bold]
    unit_key = (bold, *cb.initial_tableau_pair(bold))
    padded = tuple(pad(c, T.n) for c in bold)
    key = (padded, padded, 0, 0)
    blk = cb.factor(key)
    dual = blk.dual_row(unit_key)
    of_share: dict = {}
    for Tb, share, word, sign in ys:
        of_share.setdefault(share, []).append((Tb, word, sign))
    lefts = OnLookup(lambda share: [(Tb, (T.left_factor(word), sign))
                                    for Tb, word, sign in of_share.get(share, ())])
    gram: dict = {}
    for S, (weight, deg, par), word, sign in xs:
        row = []
        columns = lefts[weight, -deg, par]
        x = (T.right_factor(word), sign) if columns else None
        for Tb, y in columns:
            num = 0
            for w, c in cb.pairing(y, x).items():
                a = dual.get(w)
                if a is None:
                    if ctx.block_key(w) == key:
                        raise AssertionError(f"{ctx.word(w)} is not a row of "
                                             f"codeterminant block {key}")
                    raise AssertionError(f"Gram pairing not homogeneous at {bold}: "
                                         f"S = {S}, T = {Tb}")
                num += a * c
            row.append(blk.quotient(num, unit_key))
        gram.setdefault((weight, deg, par), []).append(row)
    return gram


# ---------------------------------------------------------------------------
# decomposition oracle
# ---------------------------------------------------------------------------

class DecompMatrix(NamedTuple):
    labels: tuple
    entries: dict

    def entry(self, lam, mu) -> GradedSuperScalar:
        return self.entries.get((lam, mu), GradedSuperScalar.zero())


def char_irreducible(T: SchurAlgebra, bold, ring: CoefficientRing) -> dict:
    """ch L(bold) over the coefficient field: the graded ranks of the blocks
    of the integral Gram matrix of the standard module."""
    by_weight: dict = {}
    for (weight, deg, par), rows in gram_blocks(T, bold).items():
        if r := exactla.rank(rows, ring):
            by_weight.setdefault(weight, {})[deg, par] = r
    return {w: GradedSuperScalar(terms) for w, terms in by_weight.items()}


def decomp_oracle(T: SchurAlgebra, ring: CoefficientRing | None = None) -> DecompMatrix:
    """Graded decomposition matrix over the field, solved unitriangularly
    from oracle characters: ch Delta = D . ch L."""
    if T.n < T.d:
        raise ValueError("requires n >= d")
    ring = ring or QQ
    labels = gen_multipartitions(T.n, T.d, len(T.data.labels) - 1)
    chd = {lam: char_standard_tableaux(T, lam) for lam in labels}
    chl = {lam: char_irreducible(T, lam, ring) for lam in labels}
    weight_of = {lam: tuple(pad(c, T.n) for c in lam) for lam in labels}
    entries: dict = {}
    order = labels[::-1]  # by `linear_key`, the largest first
    for lam in labels:
        # weight -> scalar, reduced in place by c . ch L(mu)
        residual = dict(chd[lam])
        for mu in order:
            c = residual.get(weight_of[mu])
            if not c:
                continue
            if mu != lam and not leq(mu, lam):
                raise AssertionError(f"support outside the order ideal: {lam} vs {mu}")
            if any(v < 0 for v in c.coeffs.values()):
                raise AssertionError(f"negative decomposition number at {(lam, mu)}")
            entries[(lam, mu)] = c
            minus_c = c * GradedSuperScalar.term(-1)
            for w, v in chl[mu].items():
                if rest := residual.get(w, GradedSuperScalar.zero()) + v * minus_c:
                    residual[w] = rest
                else:
                    residual.pop(w, None)
        if residual:
            raise AssertionError(f"character system inconsistent at {lam}")
        if entries.get((lam, lam)) != GradedSuperScalar.one():
            raise AssertionError(f"diagonal entry at {lam} is not 1")
    return DecompMatrix(labels=tuple(labels), entries=entries)


class ClassicalDecomp:
    """Classical decomposition numbers d^cl over a field, self-hosted from the
    trivial base: one oracle run per total size, cached."""

    def __init__(self, n: int, ring: CoefficientRing):
        self.n = n
        self.ring = ring
        self._by_size: dict[int, DecompMatrix] = OnLookup(self._matrix)

    def _matrix(self, e: int) -> DecompMatrix:
        alg, data, tau = make_trivial()
        return decomp_oracle(build_schur(alg, data, self.n, e, tau), self.ring)

    def __call__(self, gamma: Partition, mu: Partition) -> int:
        gamma, mu = trim(tuple(gamma)), trim(tuple(mu))
        if size(gamma) != size(mu):
            return 0
        g = self._by_size[size(gamma)].entry((gamma,), (mu,))
        if set(g.coeffs) - {(0, 0)}:
            raise AssertionError("classical matrix not concentrated in degree 0")
        return g[(0, 0)]


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def blocks(labels, D) -> tuple[tuple, ...]:
    """Connected components of the linking graph: labels i, j are linked when
    some projective has both L(i) and L(j) as composition factors, detected
    from d_{k,i} d_{k,j} != 0."""
    labels = list(labels)
    parent = {l: l for l in labels}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k in labels:
        linked = [i for i in labels if D.get((k, i))]
        for i in linked[1:]:
            union(linked[0], i)
    comps: dict = {}
    for l in labels:
        comps.setdefault(find(l), []).append(l)
    return tuple(tuple(v) for v in sorted(comps.values(), key=lambda v: min(map(repr, v))))


def block_decomposition(alg: BasedSuperalgebra, data: HeredityData,
                        n: int, d: int) -> dict[tuple, tuple]:
    """Coarse decomposition induced by the base algebra's blocks: labels are
    grouped by the vector of sizes landing in each base block."""
    dd = base_decomp_numbers(alg, data)
    base_blocks = blocks(data.labels, dd)
    pos = {i: k for k, i in enumerate(data.labels)}
    out: dict[tuple, list] = {}
    for lam in gen_multipartitions(n, d, len(data.labels) - 1):
        nu = tuple(
            sum(size(trim(lam[pos[i]])) for i in blk) for blk in base_blocks
        )
        out.setdefault(nu, []).append(lam)
    return {k: tuple(v) for k, v in sorted(out.items())}

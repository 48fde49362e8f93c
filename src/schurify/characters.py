"""Characters, Kostka/Littlewood-Richardson engines, decomposition numbers.

Three layers live here:

  * the classical symmetric-function layer: Kostka numbers, two-factor LR
    expansion by lattice-word skew tableaux, iterated multi-factor
    coefficients with optional conjugate twists, and skew characters;
  * graded characters of standard modules and graded decomposition numbers
    by closed formulas.  Both are one sum over column multipartitions driven
    by the base algebra's graded decomposition data (`_column_terms`): with
    the classical decomposition matrix it gives d_{lam,mu}, with the Schur
    characters s_mu it gives ch Delta(lam).  The characters are also summed
    over standard tableaux, a route independent of the formula;
  * the brute-force decomposition oracle: ch L is the graded ranks, over a
    coefficient field, of the homogeneous blocks of the standard modules'
    Gram matrices (`codeterminants.gram_blocks`, built one weight block at a
    time), followed by a unitriangular solve of ch Delta = D . ch L.

Weights are compositions (classical) or tuples of compositions, one per
color, each padded to length n.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .base_algebra import BasedSuperalgebra, DecompInput, HeredityData, base_decomp_numbers
from . import exactla
from .codeterminants import gram_blocks
from .partitions import (
    Multipartition,
    Partition,
    compositions,
    conjugate,
    gen_multipartitions,
    leq,
    linear_key,
    pad,
    partitions_of,
    size,
    trim,
)
from .rings import QQ, CoefficientRing, GradedSuperScalar
from .schur import SchurAlgebra
from .tableaux import enumerate_tableaux, tableau_degree, tableau_weight


# ---------------------------------------------------------------------------
# character vectors
# ---------------------------------------------------------------------------

def _weight_add(a, b):
    if not a:
        return b
    if not b:
        return a
    if isinstance(a[0], int):
        return tuple(x + y for x, y in zip(a, b))
    return tuple(_weight_add(x, y) for x, y in zip(a, b))


class CharacterVector:
    """Finitely supported map weight -> GradedSuperScalar.

    Addition is pointwise; multiplication adds weights (the monoid-algebra
    product, matching characters of tensor products)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        d: dict = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for w, c in items:
            if not isinstance(c, GradedSuperScalar):
                c = GradedSuperScalar.term(int(c))
            if c:
                acc = d.get(w, GradedSuperScalar.zero()) + c
                if acc:
                    d[w] = acc
                elif w in d:
                    del d[w]
        self.coeffs = d

    def __add__(self, other: "CharacterVector") -> "CharacterVector":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc = out.get(w, GradedSuperScalar.zero()) + c
            if acc:
                out[w] = acc
            elif w in out:
                del out[w]
        v = CharacterVector()
        v.coeffs = out
        return v

    def __sub__(self, other: "CharacterVector") -> "CharacterVector":
        return self + other.scale(GradedSuperScalar.term(-1))

    def scale(self, c) -> "CharacterVector":
        if isinstance(c, int):
            c = GradedSuperScalar.term(c)
        return CharacterVector({w: v * c for w, v in self.coeffs.items()})

    def __mul__(self, other: "CharacterVector") -> "CharacterVector":
        out: dict = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = _weight_add(w1, w2)
                acc = out.get(w, GradedSuperScalar.zero()) + c1 * c2
                if acc:
                    out[w] = acc
                elif w in out:
                    del out[w]
        v = CharacterVector()
        v.coeffs = out
        return v

    def __eq__(self, other) -> bool:
        return isinstance(other, CharacterVector) and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, w) -> GradedSuperScalar:
        return self.coeffs.get(w, GradedSuperScalar.zero())

    def items(self):
        return self.coeffs.items()

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())
        return "CharacterVector(" + ", ".join(f"{w}: {c!r}" for w, c in terms) + ")"

    def to_json(self) -> list:
        return [
            {"weight": list(map(list, w)) if w and not isinstance(w[0], int) else list(w),
             "coeff": c.to_json()}
            for w, c in sorted(self.coeffs.items())
        ]


# ---------------------------------------------------------------------------
# Kostka numbers and Littlewood-Richardson expansion
# ---------------------------------------------------------------------------

def _horizontal_strips(shape: Partition, k: int, max_rows: int):
    """All partitions obtained from `shape` by adding a horizontal strip of k
    cells within max_rows rows, with the added cells per row."""
    rows = len(shape)
    if rows > max_rows:
        return []
    out = []

    def rec(r: int, left: int, acc: list[int]):
        if r == max_rows:
            if left == 0:
                new = tuple(shape[i] + acc[i] if i < rows else acc[i]
                            for i in range(max_rows))
                out.append((trim(new), tuple(acc)))
            return
        base = shape[r] if r < rows else 0
        above_old = shape[r - 1] if 0 < r <= rows else 0
        above_new = above_old + acc[r - 1] if r > 0 else 0
        for a in range(left + 1):
            new_len = base + a
            # horizontal strip: no two added cells share a column
            if r > 0 and new_len > above_old:
                continue
            # stay a partition
            if r > 0 and new_len > above_new:
                continue
            acc.append(a)
            rec(r + 1, left - a, acc)
            acc.pop()

    rec(0, k, [])
    return out


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu) -> int:
    """Count of semistandard lam-tableaux of weight mu."""
    lam = trim(tuple(lam))
    mu = tuple(mu)
    if size(lam) != sum(mu):
        raise ValueError("size mismatch")
    if not mu:
        return 1 if not lam else 0
    total = 0
    # peel the largest entry as a horizontal strip
    for prev, _added in _horizontal_strips_inside(lam, mu[-1]):
        total += kostka(prev, mu[:-1])
    return total


def _horizontal_strips_inside(lam: Partition, k: int):
    """Partitions mu inside lam with lam/mu a horizontal strip of k cells."""
    out = []
    rows = len(lam)

    def rec(r: int, left: int, acc: list[int]):
        if r == rows:
            if left == 0:
                out.append((trim(tuple(acc)), None))
            return
        below = lam[r + 1] if r + 1 < rows else 0
        # removed cells in row r: lam[r] - m, need m >= below (strip condition
        # against the row underneath) and acc stays a partition
        for m in range(below, lam[r] + 1):
            rem = lam[r] - m
            if rem > left:
                continue
            if acc and m > acc[-1]:
                continue
            acc.append(m)
            rec(r + 1, left - rem, acc)
            acc.pop()

    rec(0, k, [])
    return out


_PAIR_MEMO: dict = {}


def _lr_pair(nu: Partition, mu: Partition, max_rows: int) -> dict[Partition, int]:
    """Expansion s_nu * s_mu = sum c^kappa s_kappa within max_rows rows,
    by counting lattice-word skew semistandard tableaux of content mu."""
    nu, mu = trim(tuple(nu)), trim(tuple(mu))
    for key in ((nu, mu, max_rows), (mu, nu, max_rows)):
        if key in _PAIR_MEMO:
            return _PAIR_MEMO[key]
    out: dict[Partition, int] = {}

    def rec(v: int, shape: Partition, cells: list):
        if v == len(mu):
            if _lattice_ok(nu, cells):
                out[shape] = out.get(shape, 0) + 1
            return
        for new, added in _horizontal_strips(shape, mu[v], max_rows):
            rec(v + 1, new, cells + [(shape, added)])

    rec(0, nu, [])
    _PAIR_MEMO[(nu, mu, max_rows)] = out
    return out


def _lattice_ok(nu: Partition, cells: list) -> bool:
    """Reverse reading word (rows top to bottom, right to left) is lattice."""
    if not cells:
        return True
    grid: dict[tuple[int, int], int] = {}
    depth = 0
    for v, (base, added) in enumerate(cells, start=1):
        for r, a in enumerate(added):
            start = base[r] if r < len(base) else 0
            for c in range(start, start + a):
                grid[(r, c)] = v
            depth = max(depth, r + 1)
    counts = [0] * (len(cells) + 1)
    for r in range(depth):
        row = sorted((c for (rr, c) in grid if rr == r), reverse=True)
        for c in row:
            v = grid[(r, c)]
            counts[v] += 1
            if v > 1 and counts[v] > counts[v - 1]:
                return False
    return True


def lr_expand(factors, max_rows: int) -> dict[Partition, int]:
    """Expansion of a product of Schur functions into Schur functions."""
    cur: dict[Partition, int] = {(): 1}
    for f in factors:
        f = trim(tuple(f))
        nxt: dict[Partition, int] = {}
        for nu, c in cur.items():
            for kappa, c2 in _lr_pair(nu, f, max_rows).items():
                nxt[kappa] = nxt.get(kappa, 0) + c * c2
        cur = nxt
    return cur


class LRCache:
    """Memo for multi-factor LR coefficients, kept in memory and, given a
    file, appended to it one JSON object per line, keyed by the target
    partition, the sorted twisted factors, and the row bound.

    With no path the file is `lr_cache.jsonl` under SCHURIFY_CACHE_DIR when
    that is set; otherwise (and for the path "") nothing is written.  Each
    record is one write to a descriptor opened for appending, so concurrent
    writers do not interleave their lines.  Lines that do not parse, such as
    a record cut short, are skipped on load; after a torn last line the next
    record starts on a line of its own.  A file that exists but cannot be
    read, or whose directory is a file, raises its OSError on construction."""

    def __init__(self, path: str | None = None):
        if path is None:
            root = os.environ.get("SCHURIFY_CACHE_DIR")
            path = os.path.join(root, "lr_cache.jsonl") if root else ""
        self.path = path
        self._memo: dict = {}
        self._lead = ""  # "\n" while the file ends in a torn line
        self._load()

    def _load(self) -> None:
        if not self.path:
            return
        try:
            fh = open(self.path)
        except FileNotFoundError:
            return
        with fh:
            for line in fh:
                self._lead = "" if line.endswith("\n") else "\n"
                try:
                    obj = json.loads(line)
                    key = (
                        tuple(obj["lam"]),
                        tuple(tuple(f) for f in obj["factors"]),
                        int(obj["rows"]),
                    )
                    self._memo[key] = int(obj["coeff"])
                except (ValueError, KeyError, TypeError):
                    continue

    def _store(self, key, value: int) -> None:
        self._memo[key] = value
        if not self.path:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        record = self._lead + json.dumps({
            "lam": list(key[0]),
            "factors": [list(f) for f in key[1]],
            "rows": key[2],
            "coeff": str(value),
        }) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, record.encode())
        finally:
            os.close(fd)
        self._lead = ""

    def coeff(self, lam: Partition, factors, twists=None, max_rows: int | None = None) -> int:
        lam = trim(tuple(lam))
        factors = [trim(tuple(f)) for f in factors]
        if twists is None:
            twists = [0] * len(factors)
        if len(twists) != len(factors):
            raise ValueError("one twist per factor")
        twisted = [conjugate(f) if e % 2 else f for f, e in zip(factors, twists)]
        if sum(size(f) for f in twisted) != size(lam):
            raise ValueError("size mismatch")
        if max_rows is None:
            max_rows = max(len(lam), 1)
        if any(len(f) > max_rows for f in twisted):
            return 0
        key = (lam, tuple(sorted(twisted)), max_rows)
        if key not in self._memo:
            self._store(key, lr_expand(twisted, max_rows).get(lam, 0))
        return self._memo[key]


def lr_coeff(lam: Partition, factors, twists=None, max_rows: int | None = None,
             cache: LRCache | None = None) -> int:
    """Multi-factor Littlewood-Richardson coefficient; twisted factors are
    conjugated before composition."""
    return (cache or _default_cache()).coeff(lam, factors, twists, max_rows)


_CACHE_SINGLETON: list = []


def _default_cache() -> LRCache:
    if not _CACHE_SINGLETON:
        _CACHE_SINGLETON.append(LRCache())
    return _CACHE_SINGLETON[0]


# ---------------------------------------------------------------------------
# classical and skew characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def schur_char(lam: Partition, n: int) -> CharacterVector:
    """s_lam as a weight sum over Lambda(n, |lam|) with Kostka coefficients."""
    lam = trim(tuple(lam))
    if len(lam) > n:
        return CharacterVector()
    out = {}
    for w in compositions(size(lam), n):
        k = kostka(lam, w)
        if k:
            out[w] = GradedSuperScalar.term(k)
    return CharacterVector(out)


def schur_char_bold(bold, n: int) -> CharacterVector:
    """Tensor product of the per-color classical characters."""
    out: dict = {(): GradedSuperScalar.one()}
    for comp in bold:
        vec = schur_char(trim(tuple(comp)), n)
        nxt: dict = {}
        for w, c in out.items():
            for u, cu in vec.items():
                nxt[w + (u,)] = c * cu
        out = nxt
        if not out:
            break
    return CharacterVector(out)


def skew_char(lam: Partition, mu: Partition, eps: int, n: int) -> CharacterVector:
    """s^eps_{lam/mu}: weight sum of even (rows weak, columns strict) or odd
    (rows strict, columns weak) standard skew tableaux with entries in [1,n]."""
    lam, mu = trim(tuple(lam)), trim(tuple(mu))
    mu_full = pad(mu, len(lam)) if lam else ()
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu_full, lam)):
        raise ValueError("mu not contained in lam")
    cells = [(r, c) for r in range(len(lam)) for c in range(mu_full[r], lam[r])]
    out: dict = {}

    def rec(k: int, filling: dict):
        if k == len(cells):
            w = [0] * n
            for v in filling.values():
                w[v - 1] += 1
            wt = tuple(w)
            out[wt] = out.get(wt, GradedSuperScalar.zero()) + GradedSuperScalar.one()
            return
        r, c = cells[k]
        lo = 1
        for v in range(lo, n + 1):
            left = filling.get((r, c - 1))
            up = filling.get((r - 1, c))
            if left is not None:
                if eps % 2 == 0 and v < left:
                    continue
                if eps % 2 == 1 and v <= left:
                    continue
            if up is not None:
                if eps % 2 == 0 and v <= up:
                    continue
                if eps % 2 == 1 and v < up:
                    continue
            filling[(r, c)] = v
            rec(k + 1, filling)
            del filling[(r, c)]

    rec(0, {})
    return CharacterVector(out)


# ---------------------------------------------------------------------------
# standard characters (two methods)
# ---------------------------------------------------------------------------

def _pad_bold(bold, n_labels: int) -> Multipartition:
    bold = tuple(tuple(comp) for comp in bold)
    return bold + ((),) * (n_labels - len(bold))


def char_standard_tableaux(T: SchurAlgebra, bold) -> CharacterVector:
    """ch Delta(bold) as the sum of deg(S) . alpha^S over standard X-tableaux."""
    T.base_decomp  # raises for a non-basic base
    bold = _pad_bold(bold, len(T.data.labels))
    ax = T.ctx.x_alphabet
    out: dict = {}
    for S in enumerate_tableaux(bold, ax, "STD"):
        w = tableau_weight(S, ax)
        out[w] = out.get(w, GradedSuperScalar.zero()) + tableau_degree(S, T.alg)
    return CharacterVector(out)


def _column_terms(inp: DecompInput, lam, n: int, cache: LRCache):
    """The sum over column multipartitions behind both closed formulas.

    A choice nu splits each lam^(i) over the slots out of i, with a nonzero
    multi-LR coefficient (odd slots conjugated).  For each choice, yields the
    scalar coefficient * q^(sum m|nu_s|) pi^(sum eps|nu_s|) and, for each
    target color j in label order, the partitions of the slots landing in j."""
    labels = inp.labels
    lam = _pad_bold(lam, len(labels))
    target = {j: pos for pos, j in enumerate(labels)}
    per_i = []
    for pos, i in enumerate(labels):
        slots_i = inp.slots_from(i)
        lam_i = trim(lam[pos])
        twists = [s[3] for s in slots_i]
        opts = []
        for sizes in compositions(size(lam_i), len(slots_i)):
            pools = [partitions_of(sz, n) for sz in sizes]
            dm = sum(s[2] * sz for s, sz in zip(slots_i, sizes))
            de = sum(s[3] * sz for s, sz in zip(slots_i, sizes))
            for parts in product(*pools):
                c = cache.coeff(lam_i, parts, twists, max_rows=n)
                if c:
                    placed = tuple((target[s[1]], p) for s, p in zip(slots_i, parts))
                    opts.append((c, dm, de, placed))
        per_i.append(opts)

    for choice in product(*per_i):
        coeff, m, eps = 1, 0, 0
        into: list[list] = [[] for _ in labels]
        for c, dm, de, placed in choice:
            coeff *= c
            m += dm
            eps += de
            for pos, p in placed:
                into[pos].append(p)
        yield GradedSuperScalar.term(coeff, m, eps % 2), into


def char_standard_formula(T: SchurAlgebra, bold,
                          cache: LRCache | None = None) -> CharacterVector:
    """ch Delta(bold): the decomposition formula's column sum with the Schur
    characters s_mu in place of the classical decomposition matrix."""
    cache = cache or _default_cache()
    by_schur: dict = {}
    for scalar, into in _column_terms(T.base_decomp, bold, T.n, cache):
        for combo in product(*(lr_expand(parts, T.n).items() for parts in into)):
            mu_bold = tuple(k for k, _ in combo)
            c = 1
            for _, v in combo:
                c *= v
            by_schur[mu_bold] = by_schur.get(mu_bold, GradedSuperScalar.zero()) + scalar.scale(c)
    out = CharacterVector()
    for mu_bold, c in by_schur.items():
        out = out + schur_char_bold(mu_bold, T.n).scale(c)
    return out


def char_standard(T: SchurAlgebra, bold, method: str = "both",
                  cache: LRCache | None = None) -> CharacterVector:
    """Character of the standard module; with method="both" the tableau sum
    and the LR formula are computed independently and must agree."""
    if method == "tableaux":
        return char_standard_tableaux(T, bold)
    if method == "formula":
        return char_standard_formula(T, bold, cache)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    a = char_standard_tableaux(T, bold)
    b = char_standard_formula(T, bold, cache)
    if a != b:
        raise AssertionError(f"character methods disagree at {bold}")
    return a


# ---------------------------------------------------------------------------
# decomposition number formula
# ---------------------------------------------------------------------------

def _identity_classical(gamma: Partition, mu: Partition) -> int:
    return 1 if trim(tuple(gamma)) == trim(tuple(mu)) else 0


def decomp_formula(inp: DecompInput, lam, mu, n: int,
                   classical=None, cache: LRCache | None = None) -> GradedSuperScalar:
    """Graded decomposition number d_{lam,mu} from the base decomposition
    data: a sum over column multipartitions nu indexed by the slots, with
    multi-LR coefficients on the lam side (conjugating odd slots) and the
    classical decomposition matrix folded in on the gamma side."""
    classical = classical or _identity_classical
    cache = cache or _default_cache()
    mu = [trim(comp) for comp in _pad_bold(mu, len(inp.labels))]
    total = GradedSuperScalar.zero()
    for scalar, into in _column_terms(inp, lam, n, cache):
        # the classical matrix preserves sizes colorwise
        if any(sum(size(p) for p in parts) != size(mu_j) for parts, mu_j in zip(into, mu)):
            continue
        for parts, mu_j in zip(into, mu):
            scalar = scalar.scale(sum(cg * classical(gamma, mu_j)
                                      for gamma, cg in lr_expand(parts, n).items()))
            if not scalar:
                break
        total = total + scalar
    return total


# ---------------------------------------------------------------------------
# decomposition oracle
# ---------------------------------------------------------------------------

@dataclass
class DecompMatrix:
    labels: tuple
    entries: dict

    def entry(self, lam, mu) -> GradedSuperScalar:
        return self.entries.get((lam, mu), GradedSuperScalar.zero())


def char_irreducible(T: SchurAlgebra, bold, ring: CoefficientRing) -> CharacterVector:
    """ch L(bold) over the coefficient field: the graded ranks of the blocks
    of the integral Gram matrix of the standard module."""
    return CharacterVector((weight, GradedSuperScalar.term(exactla.rank(rows, ring), deg, par))
                           for (weight, deg, par), rows in gram_blocks(T, bold).items())


def decomp_oracle(T: SchurAlgebra, ring: CoefficientRing | None = None) -> DecompMatrix:
    """Graded decomposition matrix over the field, solved unitriangularly
    from oracle characters: ch Delta = D . ch L."""
    if T.n < T.d:
        raise ValueError("requires n >= d")
    ring = ring or QQ
    if not ring.is_field:
        raise ValueError("oracle needs a coefficient field")
    labels = gen_multipartitions(T.n, T.d, len(T.data.labels) - 1)
    chd = {lam: char_standard_tableaux(T, lam) for lam in labels}
    chl = {lam: char_irreducible(T, lam, ring) for lam in labels}
    weight_of = {lam: tuple(pad(c, T.n) for c in lam) for lam in labels}
    entries: dict = {}
    order = sorted(labels, key=linear_key, reverse=True)
    for lam in labels:
        residual = chd[lam]
        for mu in order:
            c = residual[weight_of[mu]]
            if not c:
                continue
            if mu != lam and not leq(mu, lam):
                raise AssertionError(f"support outside the order ideal: {lam} vs {mu}")
            if any(v < 0 for v in c.coeffs.values()):
                raise AssertionError(f"negative decomposition number at {(lam, mu)}")
            entries[(lam, mu)] = c
            residual = residual - chl[mu].scale(c)
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
        self._by_size: dict[int, DecompMatrix] = {}

    def _matrix(self, e: int) -> DecompMatrix:
        if e not in self._by_size:
            from .base_algebra import make_trivial
            from .schur import build_schur

            alg, data, tau = make_trivial()
            self._by_size[e] = decomp_oracle(build_schur(alg, data, self.n, e, tau), self.ring)
        return self._by_size[e]

    def __call__(self, gamma: Partition, mu: Partition) -> int:
        gamma, mu = trim(tuple(gamma)), trim(tuple(mu))
        if size(gamma) != size(mu):
            return 0
        g = self._matrix(size(gamma)).entry((gamma,), (mu,))
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

"""Characters, Kostka/Littlewood-Richardson engines, decomposition numbers.

Three layers live here:

  * the classical symmetric-function layer: Kostka numbers, two-factor LR
    expansion by lattice-word skew tableaux, iterated multi-factor
    coefficients with optional conjugate twists, and skew characters;
  * graded characters of standard modules, computed two independent ways
    (tableau sums and the LR product formula), and the closed decomposition
    number formula driven by the base algebra's graded decomposition data;
  * the brute-force decomposition oracle: graded Gram-rank profiles of the
    standard modules over a coefficient field, followed by a unitriangular
    solve of ch Delta = D . ch L.

Weights are compositions (classical) or tuples of compositions, one per
color, each padded to length n.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .base_algebra import BasedSuperalgebra, HeredityData, base_decomp_numbers
from . import exactla
from .codeterminants import standard_module_T
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
    """Disk-backed memo for multi-factor LR coefficients.

    One JSON object per line, keyed by the target partition, the sorted
    twisted factors, and the row bound.  Safe for concurrent readers; writes
    are appended under a process-local lock granularity (single process)."""

    def __init__(self, path: str | None = None):
        if path is None:
            root = os.environ.get(
                "SCHURIFY_CACHE_DIR",
                os.path.join(os.path.expanduser("~"), ".cache", "schurify"),
            )
            path = os.path.join(root, "lr_cache.jsonl")
        self.path = path
        self._memo: dict = {}
        self._load()

    def _load(self) -> None:
        if not self.path or not os.path.exists(self.path):
            return
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                key = (
                    tuple(obj["lam"]),
                    tuple(tuple(f) for f in obj["factors"]),
                    int(obj["rows"]),
                )
                self._memo[key] = int(obj["coeff"])

    def _store(self, key, value: int) -> None:
        self._memo[key] = value
        if not self.path:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps({
                "lam": list(key[0]),
                "factors": [list(f) for f in key[1]],
                "rows": key[2],
                "coeff": str(value),
            }) + "\n")

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


def _color_assignments(lam_i: Partition, xs, alg: BasedSuperalgebra, n: int,
                       cache: LRCache):
    """All ways to split lam_i over the column set X(i): tuples of partitions
    nu_x with nonzero multi-LR coefficient against lam_i after parity twists."""
    lam_i = trim(tuple(lam_i))
    d_i = size(lam_i)
    twists = [alg.parity[x] for x in xs]
    out = []
    for sizes in compositions(d_i, len(xs)):
        pools = [partitions_of(sz, n) for sz in sizes]
        for parts in product(*pools):
            c = cache.coeff(lam_i, parts, twists, max_rows=n)
            if c:
                out.append((parts, c))
    return out


def char_standard_formula(T: SchurAlgebra, bold,
                          cache: LRCache | None = None) -> CharacterVector:
    """ch Delta(bold) by the LR product formula over column multipartitions."""
    T.base_decomp  # raises for a non-basic base
    cache = cache or _default_cache()
    labels = T.data.labels
    bold = _pad_bold(bold, len(labels))
    alg, data, n = T.alg, T.data, T.n
    absorber = T.ctx.x_alphabet.absorbers

    per_color = [
        _color_assignments(bold[pos], data.X[i], alg, n, cache)
        for pos, i in enumerate(labels)
    ]
    by_schur: dict = {}
    for choice in product(*per_color):
        nu = {}
        coeff = 1
        for (parts, c), i in zip(choice, labels):
            coeff *= c
            for x, p in zip(data.X[i], parts):
                nu[x] = p
        degnu = GradedSuperScalar.one()
        for x, p in nu.items():
            degnu = degnu * GradedSuperScalar.term(
                1, alg.degree[x] * size(p), (alg.parity[x] * size(p)) % 2
            )
        expansions = []
        for j in labels:
            factors = [nu[x] for x in nu if absorber[x] == j]
            expansions.append(lr_expand(factors, n))
        for combo in product(*(e.items() for e in expansions)):
            mu_bold = tuple(k for k, _ in combo)
            c2 = coeff
            for _, v in combo:
                c2 *= v
            key = mu_bold
            by_schur[key] = by_schur.get(key, GradedSuperScalar.zero()) + degnu.scale(c2)
    out = CharacterVector()
    for mu_bold, c in by_schur.items():
        out = out + schur_char_bold(mu_bold, n).scale(c)
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

@dataclass(frozen=True)
class DecompInput:
    """Graded decomposition data of the base algebra, flattened into slots
    (i, j, m, eps, t): column index of a multipartition tuple, one partition
    per copy of a graded composition-factor multiplicity."""

    labels: tuple
    slots: tuple[tuple[int, int, int, int, int], ...]

    @staticmethod
    def from_base(alg: BasedSuperalgebra, data: HeredityData) -> "DecompInput":
        dd = base_decomp_numbers(alg, data)
        slots = []
        for (i, j), g in sorted(dd.items()):
            if i == j:
                if g != GradedSuperScalar.one():
                    raise ValueError(f"diagonal decomposition number at {i} is not 1")
            elif not data.lt(j, i):
                raise ValueError(f"nonzero decomposition number above the diagonal: {(i, j)}")
            for (m, eps), c in sorted(g.coeffs.items()):
                if c < 0:
                    raise ValueError("negative multiplicity in base decomposition data")
                for t in range(1, c + 1):
                    slots.append((i, j, m, eps, t))
        return DecompInput(labels=data.labels, slots=tuple(slots))

    def slots_from(self, i) -> list:
        return [s for s in self.slots if s[0] == i]


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
    labels = inp.labels
    lam = _pad_bold(lam, len(labels))
    mu = _pad_bold(mu, len(labels))

    # per source color i: splittings of lam^(i) over the slots out of i
    per_i = []
    for pos, i in enumerate(labels):
        slots_i = inp.slots_from(i)
        lam_i = trim(lam[pos])
        opts = []
        for sizes in compositions(size(lam_i), len(slots_i)):
            pools = [partitions_of(sz, n) for sz in sizes]
            for parts in product(*pools):
                c = cache.coeff(lam_i, parts, [s[3] for s in slots_i], max_rows=n)
                if c:
                    opts.append((dict(zip(slots_i, parts)), c))
        per_i.append(opts)

    mu_sizes = {j: size(trim(mu[pos])) for pos, j in enumerate(labels)}
    total = GradedSuperScalar.zero()
    for choice in product(*per_i):
        nu: dict = {}
        coeff = 1
        for assign, c in choice:
            coeff *= c
            nu.update(assign)
        # the classical matrix preserves sizes colorwise
        into = {j: [nu[s] for s in inp.slots if s[1] == j] for j in labels}
        if any(sum(size(p) for p in into[j]) != mu_sizes[j] for j in labels):
            continue
        degnu = GradedSuperScalar.one()
        for (i, j, m, eps, t), p in nu.items():
            degnu = degnu * GradedSuperScalar.term(1, m * size(p), (eps * size(p)) % 2)
        factor = GradedSuperScalar.term(coeff)
        for pos, j in enumerate(labels):
            acc = 0
            for gamma, cg in lr_expand(into[j], n).items():
                acc += cg * classical(gamma, trim(mu[pos]))
            factor = factor.scale(acc)
            if not factor:
                break
        total = total + degnu * factor
    return total


# ---------------------------------------------------------------------------
# zigzag specialization
# ---------------------------------------------------------------------------

def zig_decomp(lam, mu, n: int, ell: int, classical=None,
               cache: LRCache | None = None) -> GradedSuperScalar:
    """Decomposition numbers over the extended zigzag base, written with the
    loop-degree prefactor pulled out: columns are a beta-tuple over all colors
    and an alpha-tuple over colors below the top."""
    classical = classical or _identity_classical
    cache = cache or _default_cache()
    L = ell + 1
    lam = _pad_bold(lam, L)
    mu = _pad_bold(mu, L)
    # the loop-degree exponent: sum of the forced alpha sizes
    delta = sum(j * (size(trim(lam[j])) - size(trim(mu[j]))) for j in range(L))
    if delta < 0:
        return GradedSuperScalar.zero()

    lam_sizes = [size(trim(c)) for c in lam]
    mu_sizes = [size(trim(c)) for c in mu]
    total = GradedSuperScalar.zero()

    def rec(i: int, alphas: list, betas: list, coeff: int):
        nonlocal total
        if i == L:
            # gamma side: gamma^(i) from beta^(i) and alpha^(i), alpha^(ell) empty
            gcoeff = GradedSuperScalar.term(coeff)
            for j in range(L):
                a_j = alphas[j] if j < ell else ()
                acc = 0
                for gamma, cg in _lr_pair(betas[j], a_j, n).items():
                    acc += cg * classical(gamma, trim(mu[j]))
                gcoeff = gcoeff.scale(acc)
                if not gcoeff:
                    return
            total = total + gcoeff
            return
        a_prev = alphas[i - 1] if i > 0 else ()
        la = size(trim(lam[i]))
        b_size = la - size(a_prev)
        if b_size < 0:
            return
        for beta in partitions_of(b_size, n):
            c1 = cache.coeff(trim(lam[i]), [beta, a_prev], [0, 1], max_rows=n)
            if not c1:
                continue
            if i == L - 1:
                rec(i + 1, alphas, betas + [beta], coeff * c1)
                continue
            # alpha^(i) size forced by the gamma/mu size constraints
            a_size = sum(lam_sizes[j] - mu_sizes[j] for j in range(i + 1, L))
            if a_size < 0:
                continue
            for alpha in partitions_of(a_size, n):
                rec(i + 1, alphas + [alpha], betas + [beta], coeff * c1)

    rec(0, [], [], 1)
    return GradedSuperScalar.term(1, delta, delta % 2) * total


def zig_decomp_simple(lam, mu, n: int, ell: int,
                      cache: LRCache | None = None) -> GradedSuperScalar:
    """Semisimple-classical shortcut: the classical matrix is the identity and
    the beta sizes collapse to the mu sizes shifted by the alpha sizes."""
    cache = cache or _default_cache()
    L = ell + 1
    lam = _pad_bold(lam, L)
    mu = _pad_bold(mu, L)
    lam_sizes = [size(trim(c)) for c in lam]
    mu_sizes = [size(trim(c)) for c in mu]
    delta = sum(j * (lam_sizes[j] - mu_sizes[j]) for j in range(L))
    if delta < 0:
        return GradedSuperScalar.zero()
    a_sizes = [sum(lam_sizes[j] - mu_sizes[j] for j in range(i + 1, L)) for i in range(-1, L)]
    b_sizes = [mu_sizes[i] + sum(mu_sizes[j] - lam_sizes[j] for j in range(i + 1, L))
               for i in range(L)]
    if any(s < 0 for s in a_sizes) or any(s < 0 for s in b_sizes):
        return GradedSuperScalar.zero()
    total = 0
    alpha_pools = [partitions_of(a_sizes[i + 1], n) for i in range(-1, L)]
    # alpha^(-1) and alpha^(ell) are forced empty by their sizes (both 0)
    for alphas in product(*alpha_pools[1:L]):
        alphas = ((),) + alphas + ((),)
        term = 1
        for i in range(L):
            acc = 0
            for beta in partitions_of(b_sizes[i], n):
                c1 = cache.coeff(trim(lam[i]), [beta, alphas[i]], [0, 1], max_rows=n)
                if not c1:
                    continue
                c2 = cache.coeff(trim(mu[i]), [beta, alphas[i + 1]], [0, 0], max_rows=n)
                acc += c1 * c2
            term *= acc
            if not term:
                break
        total += term
    return GradedSuperScalar.term(total, delta, delta % 2)


# ---------------------------------------------------------------------------
# decomposition oracle
# ---------------------------------------------------------------------------

@dataclass
class DecompMatrix:
    labels: tuple
    entries: dict
    chars_delta: dict = field(default_factory=dict)
    chars_simple: dict = field(default_factory=dict)

    def entry(self, lam, mu) -> GradedSuperScalar:
        return self.entries.get((lam, mu), GradedSuperScalar.zero())


def _degree_of(tab, alg) -> tuple[int, int]:
    g = tableau_degree(tab, alg)
    ((m, eps),) = g.coeffs.keys()
    return m, eps


def char_irreducible(T: SchurAlgebra, bold, ring: CoefficientRing) -> CharacterVector:
    """ch L(bold) over the coefficient field: blockwise graded ranks of the
    integral Gram matrix of the standard module."""
    sm = standard_module_T(T, bold)
    ax, ay = T.ctx.x_alphabet, T.ctx.y_alphabet
    row_meta = [(tableau_weight(S, ax), *_degree_of(S, T.alg)) for S in sm.x_basis]
    col_meta = [(tableau_weight(Tb, ay), *_degree_of(Tb, T.alg)) for Tb in sm.y_basis]
    # the pairing is weight- and degree-homogeneous: assert cross-block zeros
    for si, (w1, m1, e1) in enumerate(row_meta):
        for ti, (w2, m2, e2) in enumerate(col_meta):
            if sm.gram[si][ti] and (w1 != w2 or m1 + m2 != 0 or e1 != e2):
                raise AssertionError("Gram pairing not homogeneous")
    out: dict = {}
    blocks_seen = sorted({meta for meta in row_meta})
    for (w, m, eps) in blocks_seen:
        rows = [si for si, meta in enumerate(row_meta) if meta == (w, m, eps)]
        cols = [ti for ti, meta in enumerate(col_meta) if meta == (w, -m, eps)]
        if not rows or not cols:
            continue
        rank = exactla.rank([[sm.gram[si][ti] for ti in cols] for si in rows], ring)
        if rank:
            out[w] = out.get(w, GradedSuperScalar.zero()) + GradedSuperScalar.term(rank, m, eps)
    return CharacterVector(out)


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
    return DecompMatrix(labels=tuple(labels), entries=entries,
                        chars_delta=chd, chars_simple=chl)


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

def blocks(labels, D, D_op=None) -> tuple[tuple, ...]:
    """Connected components of the linking graph: labels i, j are linked when
    some projective has both L(i) and L(j) as composition factors, detected
    from d^op_{k,i} d_{k,j} != 0."""
    if D_op is None:
        D_op = D
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

    def nz(mat, k, i) -> bool:
        v = mat.get((k, i))
        return bool(v)

    for i in labels:
        for j in labels:
            if any(nz(D_op, k, i) and nz(D, k, j) for k in labels):
                union(i, j)
    comps: dict = {}
    for l in labels:
        comps.setdefault(find(l), []).append(l)
    return tuple(tuple(v) for v in sorted(comps.values(), key=lambda v: min(map(repr, v))))


def matrix_to_dict(D: DecompMatrix) -> dict:
    return dict(D.entries)


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

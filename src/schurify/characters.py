"""Characters and the Kostka/Littlewood-Richardson engine.

Two layers live here:

  * the classical symmetric-function layer: one step that adds a
    horizontal strip (`_horizontal_strips`, Pieri's rule) gives the
    two-factor LR expansion, by the Jacobi-Trudi determinant of the second
    factor over strips added to the first, and, one strip per part of the
    weight, the Kostka numbers; iterated multi-factor coefficients with
    optional conjugate twists, memoized by an `LRCache` that its caller
    builds and passes in (only a cache given a file writes to disk).  The
    module keeps two memos for its whole life: `_PAIR_MEMO` of two-factor
    expansions and the `lru_cache` of `schur_char`;
  * graded characters of standard modules, by two routes.  The closed
    formula is one sum over column multipartitions driven by the base
    algebra's graded decomposition data (`_column_terms`), taken with the
    Schur characters s_mu; the same sum, taken with the classical
    decomposition matrix, is the decomposition formula of `decomposition`.
    The characters are also summed over standard tableaux, counted in ints
    by (weight, degree, parity) from the table of standard tableaux that
    the codeterminant blocks read (`TriContext.standard_tableaux`), a route
    independent of the formula.

The decomposition numbers, by formula and by oracle, and the blocks they
link are `decomposition`, which only the commands that compute them load
(see the README's module map).

A character is a dict from weight to `GradedSuperScalar` that stores no
zero scalar, as an Element is a dict from orbit to int.  Weights are
compositions (classical) or tuples of compositions, one per color, each
padded to length n.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from itertools import product

from .base_algebra import X_SIDE, DecompInput
from .partitions import Multipartition, Partition, compositions, conjugate, partitions_of, size, trim
from .rings import GradedSuperScalar
from .schur import SchurAlgebra


# ---------------------------------------------------------------------------
# Littlewood-Richardson expansion by horizontal strips, and Kostka numbers
# ---------------------------------------------------------------------------

def _horizontal_strips(shape: Partition, k: int, max_rows: int) -> list[Partition]:
    """All partitions obtained from `shape` by adding a horizontal strip of k
    cells within max_rows rows."""
    if len(shape) > max_rows:
        return []
    old = tuple(shape) + (0,) * (max_rows - len(shape))
    out = []

    def rec(r: int, left: int, new: tuple):
        if r == max_rows:
            if left == 0:
                out.append(trim(new))
            return
        # row r grows at most to the old length of the row above it, so no
        # two added cells share a column
        room = left if r == 0 else min(left, old[r - 1] - old[r])
        for a in range(room + 1):
            rec(r + 1, left - a, new + (old[r] + a,))

    rec(0, k, ())
    return out


_PAIR_MEMO: dict = {}


def _lr_pair(nu: Partition, mu: Partition, max_rows: int) -> dict[Partition, int]:
    """Expansion s_nu * s_mu = sum c^kappa s_kappa within max_rows rows, with
    s_mu by the Jacobi-Trudi determinant: the sum over permutations sigma of
    sgn(sigma) h_{mu_1-1+sigma(1)} ... h_{mu_l-l+sigma(l)}, each h_k added to
    nu as one horizontal strip of k cells (Pieri's rule).  Cutting every
    strip to max_rows rows is the ring map onto symmetric polynomials in
    max_rows variables, so the signed terms cancel there as they do uncut."""
    nu, mu = trim(tuple(nu)), trim(tuple(mu))
    for key in ((nu, mu, max_rows), (mu, nu, max_rows)):
        if key in _PAIR_MEMO:
            return _PAIR_MEMO[key]
    out: dict[Partition, int] = {}

    def rec(i: int, free: tuple, sign: int, shapes: dict):
        # row i of the determinant takes a free column j; the sign flips once
        # per free column left of j, which a later row takes
        if i == len(mu):
            for shape, c in shapes.items():
                out[shape] = out.get(shape, 0) + sign * c
            return
        for pos, j in enumerate(free):
            if mu[i] - i + j < 0:
                continue
            nxt: dict[Partition, int] = {}
            for shape, c in shapes.items():
                for new in _horizontal_strips(shape, mu[i] - i + j, max_rows):
                    nxt[new] = nxt.get(new, 0) + c
            rec(i + 1, free[:pos] + free[pos + 1:], -sign if pos % 2 else sign, nxt)

    rec(0, tuple(range(len(mu))), 1, {nu: 1})
    out = {shape: c for shape, c in out.items() if c}
    _PAIR_MEMO[(nu, mu, max_rows)] = out
    return out


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


def kostka(lam: Partition, mu) -> int:
    """Count of semistandard lam-tableaux of weight mu: the coefficient of
    s_lam in h_{mu_1} ... h_{mu_k}, one horizontal strip per part (Pieri's
    rule), each h_m being the one-row factor (m,) of `lr_expand`."""
    lam = trim(tuple(lam))
    if size(lam) != sum(mu):
        raise ValueError("size mismatch")
    return lr_expand([(m,) for m in mu], max(len(lam), 1)).get(lam, 0)


class LRCache:
    """Memo for multi-factor LR coefficients (`coeff`), kept in memory and,
    given a file, appended to it one JSON object per line, keyed by the
    target partition, the sorted twisted factors, and the row bound.

    The caller owns the cache and names its file; for the path "" nothing is
    written.  Each record is one write to a descriptor opened for appending,
    so concurrent writers do not interleave their lines.  Lines that do not
    parse, such as a record cut short, are skipped on load; after a torn
    last line the next record starts on a line of its own.  A file that
    exists but cannot be read, or whose directory is a file, raises its
    OSError on construction."""

    def __init__(self, path: str):
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
        """Multi-factor Littlewood-Richardson coefficient of s_lam in the
        product of the factors, each conjugated when its twist is odd."""
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


# ---------------------------------------------------------------------------
# classical and skew characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def schur_char(lam: Partition, n: int) -> dict:
    """s_lam as a weight sum over Lambda(n, |lam|) with Kostka coefficients.
    The dict is cached and shared, so no caller changes it."""
    lam = trim(tuple(lam))
    if len(lam) > n:
        return {}
    return {w: GradedSuperScalar.term(k) for w in compositions(size(lam), n)
            if (k := kostka(lam, w))}


def schur_char_bold(bold, n: int) -> dict:
    """Tensor product of the per-color classical characters."""
    out: dict = {(): GradedSuperScalar.one()}
    for comp in bold:
        vec = schur_char(trim(tuple(comp)), n)
        # Kostka numbers are positive, so no product is zero
        out = {w + (u,): c * cu for w, c in out.items() for u, cu in vec.items()}
        if not out:
            break
    return out


# ---------------------------------------------------------------------------
# standard characters (two methods)
# ---------------------------------------------------------------------------

def _pad_bold(bold, n_labels: int) -> Multipartition:
    bold = tuple(tuple(comp) for comp in bold)
    return bold + ((),) * (n_labels - len(bold))


def char_standard_tableaux(T: SchurAlgebra, bold) -> dict:
    """ch Delta(bold) as the sum of deg(S) . alpha^S over standard X-tableaux,
    counted by their shares (weight, degree, parity) in the context's table
    (`TriContext.standard_tableaux`), which the codeterminant blocks read
    too."""
    T.base_decomp  # raises unless A's heredity axioms hold
    by_weight: dict = {}
    bold = _pad_bold(bold, len(T.data.labels))
    for _S, (weight, deg, par) in T.ctx.standard_tableaux[X_SIDE, bold]:
        terms = by_weight.setdefault(weight, {})
        terms[deg, par] = terms.get((deg, par), 0) + 1
    return {w: GradedSuperScalar(terms) for w, terms in by_weight.items()}


def _column_terms(inp: DecompInput, lam, n: int, cache: LRCache):
    """The sum over column multipartitions behind both closed formulas.

    A choice nu splits each lam^(i) over the slots out of i, with a nonzero
    multi-LR coefficient (odd slots conjugated).  For each choice, yields the
    coefficient, the q-degree sum m|nu_s| and the pi-degree sum eps|nu_s| of
    its term, and, for each target color j in label order, the partitions of
    the slots landing in j.  A caller builds a term's scalar only if it keeps
    the term."""
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
        yield coeff, m, eps, into


def char_standard_formula(T: SchurAlgebra, bold, cache: LRCache) -> dict:
    """ch Delta(bold): the decomposition formula's column sum with the Schur
    characters s_mu in place of the classical decomposition matrix, its LR
    coefficients read through the caller's `cache`."""
    by_schur: dict = {}
    for coeff, m, eps, into in _column_terms(T.base_decomp, bold, T.n, cache):
        for combo in product(*(lr_expand(parts, T.n).items() for parts in into)):
            mu_bold = tuple(k for k, _ in combo)
            c = 1
            for _, v in combo:
                c *= v
            by_schur[mu_bold] = (by_schur.get(mu_bold, GradedSuperScalar.zero())
                                 + GradedSuperScalar.term(coeff * c, m, eps))
    out: dict = {}
    for mu_bold, c in by_schur.items():
        for w, s in schur_char_bold(mu_bold, T.n).items():
            acc = out[w] + s * c if w in out else s * c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
    return out


# ---------------------------------------------------------------------------
# the layer that moved out, by its old names
# ---------------------------------------------------------------------------

_MOVED = {"decomp_formula": "decomposition", "ClassicalDecomp": "decomposition",
          "decomp_oracle": "decomposition"}


def __getattr__(name: str):
    """`decomp_formula`, `ClassicalDecomp` and `decomp_oracle` read here
    load their own module, `decomposition` (PEP 562), for the layer
    benchmark (`perfbench/layers.py`), which still names them on this
    module.  Nothing under `src/` or `tests/` reads them here.  This goes
    with ROADMAP item 12, once the benchmark reads `decomposition`."""
    if name in _MOVED:
        from importlib import import_module

        return getattr(import_module(f".{_MOVED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Test-only oracles, independent of the production code paths.

- tensor_eta_product: multiplies eta basis elements by materializing them as
  signed sums of pure tensors in M_n(A)^{otimes d} and re-collecting orbits.
  It sums over all pairs of arrangements of the two factors; production
  (`SchurAlgebra.mult_orbits`) uses one arrangement of the left factor and
  symmetrizes, so the two share no loop.  Its signs come from its own
  `triple_stat` and `pair_stat` on the letter tuples, where production sorts
  words of letter indices (`TriContext.sort_signed`) and counts the
  interleaving sign on bitmasks, so the two share no sign code either.
  Its weights [w]_c count each letter's multiplicity where its basis
  element is a product of two odd heredity elements (`_c_factorial`);
  production reads runs of sorted index words against
  `TriContext.in_stratum`.
- eager_slot_groups: a right factor's arrangements, every permutation of
  its word grouped by slot word at once, signed by `triple_stat`; production
  (`SchurAlgebra.right_factor`) makes one group when a product asks for it.
- lr_brute / multi_lr_brute: Littlewood-Richardson coefficients by direct
  skew-filling enumeration with the reverse lattice word condition;
  production (`characters._lr_pair`) expands the second factor by the
  Jacobi-Trudi determinant over horizontal strips (Pieri's rule) and tests
  no lattice word, so the two share no rule.
- ssyt_count: Kostka numbers by filling enumeration.
- lu_rank / lu_det / lu_solve: LU elimination over Fractions (or residues
  mod p) with partial pivoting, dense, and forward and back substitution;
  production (`exactla`) runs a sparse fraction-free pass on ints that
  pivots anywhere and solves by replaying its record.
- orbit_profiles / eager_codet_blocks: weight profiles counted per color
  label, and every codeterminant block built in one walk over all tableau
  pairs and all orbits; production builds a block from its columns alone,
  its rows being the orbits their expansions reach.  codet_blocks reads
  production's blocks back as orbits and codeterminant keys, to compare.
- full_gram / gram_entries: the Gram matrix of a standard module over every
  pair of standard tableaux, each product solved in the codeterminant
  basis, and the blocks of `gram_blocks` read back into pairs; both place a
  tableau by its own `tableau_weight` and letter sums (`tableau_share`,
  which `eager_codet_blocks` reads too), where production multiplies only
  the degree-0 pairs of equal weight, placed by the per-letter table, and
  reads each entry through one dual row of the unit block.
- gram_rank_character: ch L over F_p as the ranks mod p, by `lu_rank`, of
  `full_gram`'s homogeneous blocks; production (`char_irreducible`) ranks
  the blocks of `gram_blocks` by `exactla.rank`.
- twisted_zigzag: zigzag:2 with the cycle 1 -> 0 -> 1 set to -c1, the one
  test algebra with a structure constant other than 1, built again from
  zigzag:2's algebra through `BasedSuperalgebra` with that constant changed.
- BROKEN / broken_presentation: one minimal broken presentation per failure
  family of the base heredity check, with the failure the check must
  report: a changed structure constant or parity goes through
  `BasedSuperalgebra`, a changed order or idempotent through
  `HeredityData._replace`.
- heredity_oracle: the checks of `heredity_of_T`, in its order and with its
  failure texts, with every product taken by `tensor_eta_product`, the
  blocks of `eager_codet_blocks` as dense matrices, determinants and solves
  by `lu_det` and `lu_solve`, weights read off `orbit_profiles` and the
  candidate orbits of axiom (b) filtered from `T.orbits`; production
  multiplies on letter indices through its one kernel and solves by sparse
  elimination.
- family / star / coproduct / double_coproduct / coproducts_star: the
  superbialgebra structure across degrees, and idempotent_comp /
  truncation_idempotent: the idempotents xi(lambda) and xi^e; with
  cellular_basis (the cellular basis X_S tau(X_T) of a truncation, whose
  pairs `verify` only counts), truncate_base / make_zigzag_bar (the
  base-level truncation eAe), skew_char (skew characters by filling
  enumeration) and check_skew_chars, shape_of, tableau_weight,
  tableau_from_json, tableau_entry, block_keys, table_word, table_words,
  index_expansion and as_orbits.  They are the paper's structures and
  readings that no command runs, kept here for the tests that check them;
  they read the production algebra's contexts, kernel factors and
  `idempotent_bold`.
- add / scale / std: x + c * y for Elements or characters, an integer
  multiple of a graded super-scalar, and a `CodetBasis`'s standard tableaux
  of one side.
- run_cli: the `schurify` command line in this process, its output captured.
- verify_fails_only: `verify` failing exactly one of its nine rows, the
  others passing or not applying.
- assert_reaped: the children a test forked (the `forks` fixture) were
  all reaped.
"""
import contextlib
import io
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import NamedTuple

from schurify import codeterminants as codet
from schurify.base_algebra import (
    SIDES,
    X_SIDE,
    Y_SIDE,
    AntiInvolution,
    BasedSuperalgebra,
    HeredityData,
    absorbing_colors,
    make_algebra,
    make_extended_zigzag,
)
from schurify.characters import schur_char
from schurify.cli import main
from schurify.partitions import conjugate, gen_multicompositions, leq, pad, partitions_of, trim
from schurify.rings import GradedSuperScalar
from schurify.schur import SchurAlgebra
from schurify.tableaux import own_word, word as tableau_word


# ---------------------------------------------------------------------------
# the command line, in this process
# ---------------------------------------------------------------------------

@dataclass
class CliRun:
    exit_code: int
    output: str  # stdout, then stderr
    stdout_bytes: bytes
    exception: SystemExit | None  # the SystemExit of a usage error


def run_cli(*argv: str) -> CliRun:
    """`schurify` with the arguments `argv`: `cli.main` with stdout and
    stderr captured.  Only a SystemExit is caught: the parser's, exit 2 on a
    usage error or 0 after --help."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code, exception = exc.code, exc if exc.code else None
    return CliRun(code, out.getvalue() + err.getvalue(), out.getvalue().encode(), exception)


def verify_fails_only(row: str, *args: str) -> str:
    """`verify` with `args` exits 1, and all nine rows but `row` pass or do
    not apply (`SKIP`): the FAIL line of `row`."""
    res = run_cli("verify", *args)
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    failed = [line for line in lines if not line.startswith(("PASS", "SKIP"))]
    assert len(lines) == 9 and len(failed) == 1, res.output
    assert failed[0].startswith(f"FAIL  {row}  "), res.output
    return failed[0]


def assert_reaped(forks: list[int]) -> None:
    """At least one child was forked, and each is reaped: none is left
    running or unreaped."""
    assert forks
    for pid in forks:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        raise AssertionError(f"child {pid} was not reaped")


# ---------------------------------------------------------------------------
# sums, multiples and sides
# ---------------------------------------------------------------------------

def add(x, y, c=1):
    """x + c * y for Elements x and y and an int c, or for characters x and
    y and a scalar c; a key whose sum is zero is dropped."""
    out = dict(x)
    for k, v in y.items():
        s = out[k] + c * v if k in out else c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale(a, c):
    """c * a for a graded super-scalar a and an int c."""
    return GradedSuperScalar({k: c * v for k, v in a.coeffs.items()} if c else {})


def std(cb, side):
    """shape -> the standard tableaux of `side` of a `CodetBasis`."""
    return side.pick(cb.std_x, cb.std_y)


# ---------------------------------------------------------------------------
# tensor-materialization multiplication oracle
# ---------------------------------------------------------------------------

def triple_stat(T, word):
    """Number of pairs k < l with both letters odd and letter_k > letter_l, mod 2."""
    key, parity = T.ctx.letter_key, T.alg.parity
    odd_keys = [key[w] for w in word if parity[w[0]]]
    inv = sum(
        1
        for k in range(len(odd_keys))
        for l in range(k + 1, len(odd_keys))
        if odd_keys[k] > odd_keys[l]
    )
    return inv % 2


def pair_stat(T, a_word, c_word):
    """Number of pairs k > l with a_k odd and c_l odd, mod 2."""
    par_a = [T.alg.parity[b] for b in a_word]
    par_c = [T.alg.parity[b] for b in c_word]
    total = 0
    odd_c_so_far = 0
    for k in range(len(par_a)):
        if par_a[k]:
            total += odd_c_so_far
        if par_c[k]:
            odd_c_so_far += 1
    return total % 2


def _c_factorial(T, word):
    """[w]_c: the product of the factorials of the multiplicities of the
    letters (b, r, s) of `word` whose b = x * y has x and y both odd, read
    off the heredity pairs (`ctx.pair_of`) and the parities of A."""
    parity, pair_of = T.alg.parity, T.ctx.pair_of
    out = 1
    for (b, _r, _s), k in Counter(word).items():
        _i, x, y = pair_of[b]
        if parity[x] and parity[y]:
            out *= factorial(k)
    return out


def _eta_tensor_vec(T, orbit):
    """eta_orbit as a vector on the pure-tensor word basis."""
    m = _c_factorial(T, orbit)
    out = {}
    for w in set(permutations(orbit)):
        sgn = -1 if triple_stat(T, w) else 1
        out[w] = out.get(w, 0) + sgn * m
    return out


def _pure_mul(T, u, v):
    """Product of two pure tensors, with the Koszul sign for interleaving."""
    d = len(u)
    for k in range(d):
        if u[k][2] != v[k][1]:
            return {}
    sgn = -1 if pair_stat(
        T, tuple(b for (b, _r, _s) in u), tuple(b for (b, _r, _s) in v)
    ) else 1
    factor_items = []
    for k in range(d):
        f = T.alg.mul_basis(u[k][0], v[k][0])
        if not f:
            return {}
        factor_items.append(list(f.items()))
    out = {}
    for combo in product(*factor_items):
        word = tuple((combo[k][0], u[k][1], v[k][2]) for k in range(d))
        c = sgn
        for (_b, cc) in combo:
            c *= cc
        out[word] = out.get(word, 0) + c
    return out


def tensor_eta_product(T, o1, o2):
    """eta_{o1} * eta_{o2} computed in M_n(A)^{otimes d}, on the eta basis."""
    ctx = T.ctx
    acc = {}
    for u, c1 in _eta_tensor_vec(T, o1).items():
        for v, c2 in _eta_tensor_vec(T, o2).items():
            for w, c in _pure_mul(T, u, v).items():
                acc[w] = acc.get(w, 0) + c1 * c2 * c
    out = {}
    for w, c in acc.items():
        if not c:
            continue
        if w != tuple(sorted(w, key=ctx.letter_key.__getitem__)):
            continue  # read each orbit off its canonical representative
        den = _c_factorial(T, w)
        assert c % den == 0, (w, c, den)
        out[w] = c // den
    return out


def eager_slot_groups(T, orbit):
    """The arrangements of an orbit grouped by their word of left profile
    slots, every group at once: each distinct permutation of the whole word
    (`set(permutations(orbit))`) as (index word, sign, bitmask of its odd
    places), grouped under its slots read by `TriContext.profile_slot`, with
    its sign from `triple_stat`.  Production makes one group on request, by
    placing each slot's letters at that slot's places."""
    ctx, parity = T.ctx, T.alg.parity
    slot = {lt: ctx.profile_slot(lt, 0) for lt in orbit}
    index = {lt: ctx.index[lt] for lt in orbit}
    groups = {}
    for w in set(permutations(orbit)):
        mask = 0
        for k, (b, _r, _s) in enumerate(w):
            if parity[b]:
                mask |= 1 << k
        sign = -1 if mask & (mask - 1) and triple_stat(T, w) else 1
        groups.setdefault(tuple([slot[lt] for lt in w]), []).append(
            (tuple([index[lt] for lt in w]), sign, mask))
    return groups


def word_parity(T, word):
    return sum(T.alg.parity[b] for (b, _r, _s) in word) % 2


def _twisted(alg, kappa=(), parity=()):
    """`alg` built again through `BasedSuperalgebra` with the structure
    constants `kappa` and the parities `parity` in place of its own."""
    return BasedSuperalgebra(alg.basis, {**alg.kappa, **dict(kappa)}, alg.degree,
                             {**alg.parity, **dict(parity)}, alg.unit)


def twisted_zigzag():
    """(alg, data, tau) of zigzag:2 with a1_0 * a0_1 = -c1 in place of c1:
    the cycle 1 -> 0 -> 1 negated.  The products of the pairs x * y keep
    coefficient 1, so the heredity data and zigzag:2's anti-involution
    still apply; through the kernel the twist reaches the letter products
    (a1_0, r, s)(a0_1, s, t) = -(c1, r, t)."""
    alg, data, tau = make_algebra("zigzag:2")
    assert alg.mul_basis("a1_0", "a0_1") == {"c1": 1}
    return _twisted(alg, kappa={("a1_0", "a0_1"): {"c1": -1}}), data, tau


# (spec, twist of its (alg, data), a failure the check must report): one
# minimal broken presentation per failure family, each still a graded
# associative superalgebra, so `BasedSuperalgebra` takes it
BROKEN = {
    # x*y = 2 c0 is no single basis element
    "axiom (a)": ("zigzag:1",
                  lambda alg, data: (_twisted(alg, kappa={("a0_1", "a1_0"): {"c0": 2}}), data),
                  "axiom (a): x*y for (1,a0_1,a1_0) is not a single basis label: {'c0': 2}"),
    # 1 < 0: a1_0 * e0 lands in B(1), which is no longer above 0
    "axiom (b)": ("zigzag:1",
                  lambda alg, data: (alg, data._replace(strictly_less=frozenset({(1, 0)}))),
                  "axiom (b): a*x for (a1_0,0,e0): component B(1) with 0 not < 1"),
    # the two labels' idempotents swapped
    "axiom (c)": ("zigzag:1", lambda alg, data: (alg, data._replace(e={0: "e1", 1: "e0"})),
                  "axiom (c): e_0 not in X(0) and Y(0)"),
    # 1 and 2 incomparable: y*x = c1 for label 1 lands in B(2)
    "f table": ("zigzag:2",
                lambda alg, data: (alg, data._replace(strictly_less=frozenset({(0, 1), (0, 2)}))),
                "f table: y*x for (1,a0_1,a1_0) has stray pair (2,a1_2,a2_1)"),
    # the arrows between 0 and 1 even: a1_0 * a0_1 = c1, whose pair (a1_2, a2_1) is odd
    "conforming": ("zigzag:2",
                   lambda alg, data: (_twisted(alg, parity={"a0_1": 0, "a1_0": 0}), data),
                   "conforming: even subalgebra not closed at (a1_0,a0_1)"),
}


def broken_presentation(family: str):
    """(alg, data, tau) of the broken presentation of `family` in `BROKEN`:
    its algebra's (alg, data), twisted, with that algebra's anti-involution."""
    spec, twist, _failure = BROKEN[family]
    alg, data, tau = make_algebra(spec)
    return (*twist(alg, data), tau)


# ---------------------------------------------------------------------------
# brute-force LR / Kostka
# ---------------------------------------------------------------------------

def _skew_fillings(lam, mu, content):
    """All semistandard fillings of lam/mu with the given content, as grids
    (None on the mu part)."""
    lam = trim(lam)
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam)) for c in range(mu[r], lam[r])]
    remaining = list(content)

    def rec(k, grid):
        if k == len(cells):
            yield [row[:] for row in grid]
            return
        r, c = cells[k]
        for v in range(len(remaining)):
            if not remaining[v]:
                continue
            if c > 0 and c - 1 >= mu[r] and grid[r][c - 1] is not None and grid[r][c - 1] > v:
                continue
            if r > 0 and c < lam[r - 1] and grid[r - 1][c] is not None and grid[r - 1][c] >= v:
                continue
            remaining[v] -= 1
            grid[r][c] = v
            yield from rec(k + 1, grid)
            grid[r][c] = None
            remaining[v] += 1

    grid = [[None] * lam[r] for r in range(len(lam))]
    yield from rec(0, grid)


def _is_lattice(lam, mu, grid):
    """Reverse reading word (rows top to bottom, right to left) is a lattice word."""
    counts = {}
    for row in grid:
        for v in reversed(row):
            if v is None:
                continue
            counts[v] = counts.get(v, 0) + 1
            if v > 0 and counts[v] > counts.get(v - 1, 0):
                return False
    return True


def lr_brute(lam, mu, nu):
    """c^lam_{mu,nu} by enumerating LR skew tableaux of shape lam/mu, content nu."""
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if any(m > l for m, l in zip(list(mu) + [0] * len(lam), lam)) or len(mu) > len(lam):
        return 0
    return sum(1 for g in _skew_fillings(lam, mu, nu) if _is_lattice(lam, mu, g))


def multi_lr_brute(lam, factors, twists=None):
    """Multi-factor coefficient by iterating the two-factor brute force."""
    factors = [trim(f) for f in factors]
    if twists:
        factors = [conjugate(f) if t % 2 else f for f, t in zip(factors, twists)]
    state = {(): 1}
    for f in factors:
        nxt = {}
        for nu, c in state.items():
            target = sum(nu) + sum(f)
            for cand in _partitions_of(target):
                k = lr_brute(cand, nu, f)
                if k:
                    nxt[cand] = nxt.get(cand, 0) + c * k
        state = nxt
    return state.get(trim(lam), 0)


def _partitions_of(m):
    out = []

    def rec(left, mx, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for p in range(min(left, mx), 0, -1):
            rec(left - p, p, acc + [p])

    rec(m, m, [])
    return out


def ssyt_count(lam, mu):
    """Kostka number by direct semistandard filling enumeration (no lattice
    condition; content need not be a partition)."""
    return sum(1 for _g in _skew_fillings(trim(lam), (), tuple(mu)))


# ---------------------------------------------------------------------------
# LU elimination over Q or F_p
# ---------------------------------------------------------------------------

def _lu(mat, p=None):
    """Forward elimination of an integer matrix over Q (Fractions) or F_p.

    Returns the reduced rows (row k < rank holds U from its pivot column on,
    with the multipliers of L below the pivots), the row permutation, the
    pivot columns and the sign of the permutation."""
    if p is None:
        lu = [[Fraction(v) for v in row] for row in mat]

        def div(a, b):
            return a / b
    else:
        lu = [[v % p for v in row] for row in mat]

        def div(a, b):
            return a * pow(b, p - 2, p) % p
    nrows, ncols = len(lu), len(lu[0]) if lu else 0
    perm, pivots, sign = list(range(nrows)), [], 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, nrows) if lu[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            lu[k], lu[piv] = lu[piv], lu[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            sign = -sign
        for r in range(k + 1, nrows):
            if lu[r][col]:
                f = div(lu[r][col], lu[k][col])
                lu[r][col] = f
                for c in range(col + 1, ncols):
                    lu[r][c] -= f * lu[k][c]
                    if p is not None:
                        lu[r][c] %= p
        pivots.append(col)
    return lu, perm, pivots, sign


def lu_rank(mat, p=None):
    return len(_lu(mat, p)[2])


def lu_det(mat):
    lu, _perm, pivots, sign = _lu(mat)
    if len(pivots) < len(mat):
        return Fraction(0)
    out = Fraction(sign)
    for k in range(len(mat)):
        out *= lu[k][k]
    return out


def lu_solve(mat, v):
    """The solution x of mat . x = v over Q for a nonsingular square mat, by
    forward and back substitution."""
    lu, perm, _pivots, _sign = _lu(mat)
    n = len(mat)
    x = [Fraction(v[p]) for p in perm]
    for k in range(n):
        for j in range(k):
            x[k] -= lu[k][j] * x[j]
    for k in range(n - 1, -1, -1):
        for j in range(k + 1, n):
            x[k] -= lu[k][j] * x[j]
        x[k] /= lu[k][k]
    return x


# ---------------------------------------------------------------------------
# eager codeterminant blocks
# ---------------------------------------------------------------------------

def orbit_profiles(T, orbit):
    """(alpha, beta): per color label, the counts of r (left) and s (right)
    over the letters whose x (left) or y (right) part that label absorbs."""
    left, right = T.ctx.x_alphabet.absorbers, T.ctx.y_alphabet.absorbers
    alpha = {j: [0] * T.n for j in T.data.labels}
    beta = {j: [0] * T.n for j in T.data.labels}
    for (b, r, s) in orbit:
        alpha[left[b]][r - 1] += 1
        beta[right[b]][s - 1] += 1
    return (tuple(tuple(alpha[j]) for j in T.data.labels),
            tuple(tuple(beta[j]) for j in T.data.labels))


def eager_codet_blocks(cb):
    """block key -> (orbits, codeterminant keys) of a `CodetBasis`, every
    block at once: the keys in the order of `cb.keys`, then every orbit of
    `T.orbits` under its (alpha, beta, degree, parity)."""
    T = cb.T
    blocks = {}
    keys = iter(cb.keys)  # shape by shape, in the order of product(std_x, std_y)
    for bold in T.labels:
        xs, ys = ([tableau_share(T, tab, side) for tab in std(cb, side)[bold]]
                  for side in SIDES)
        for ((alpha, dx, px), (beta, dy, py)), key in zip(product(xs, ys), keys):
            blocks.setdefault((alpha, beta, dx + dy, (px + py) % 2), ([], []))[1].append(key)
    for orbit in T.orbits:
        deg = sum(T.alg.degree[b] for (b, _r, _s) in orbit)
        key = (*orbit_profiles(T, orbit), deg, word_parity(T, orbit))
        blocks.setdefault(key, ([], []))[0].append(orbit)
    return blocks


def codet_blocks(cb):
    """block key -> (orbits, codeterminant keys) of the blocks with columns
    of a `CodetBasis`, in the order of `block_keys`, each built by
    `cb._block` as a solve or the unimodularity check builds it."""
    blocks = {}
    for key in block_keys(cb):
        rows, cols, _expansions = cb._block(key)
        blocks[key] = ([cb.T.ctx.word(w) for w in rows], [(x.bold, x.tab, y.tab) for x, y in cols])
    return blocks


def block_keys(cb):
    """The keys of the blocks with codeterminant columns of a `CodetBasis`,
    each once, in sorted order: those of the walk's pass (`cb._filed`)."""
    return (key for key, _cols in cb._filed())


def as_orbits(T, terms):
    """Terms keyed by words of letter indices, as an Element of `T`: keyed
    by `TriWord`s."""
    return {T.ctx.word(w): c for w, c in terms.items()}


def table_word(T, side, bold, tab):
    """(index word, sign) of X_S or Y_T for a standard tableau of shape
    `bold`, read from the context's table of standard tableaux."""
    return next((word, sign) for t, _share, word, sign in T.ctx.standard_tableaux[side, bold]
                if t == tab)


def table_words(cb, sides=SIDES):
    """The index words of X_S and Y_T in the context's table of standard
    tableaux, over every shape of a `CodetBasis` and the given sides."""
    table = cb.T.ctx.standard_tableaux
    return {word for side in sides for bold in cb.T.labels
            for _tab, _share, word, _sign in table[side, bold]}


def index_expansion(cb, key):
    """The codeterminant X_S * Y_T of `key` keyed by words of letter indices:
    the product kernel on the factors of S and T in the algebra's tables,
    their words and signs read from the context's table."""
    bold, S, Tb = key
    T = cb.T
    (x, sx), (y, sy) = table_word(T, X_SIDE, bold, S), table_word(T, Y_SIDE, bold, Tb)
    return T.product_terms(T.lefts[x], T.rights[y], sx * sy)


# ---------------------------------------------------------------------------
# tableaux: shapes, weights and their JSON form
# ---------------------------------------------------------------------------

def shape_of(tab):
    return tuple(tuple(len(row) for row in comp) for comp in tab)


def tableau_weight(tab, alphabet):
    """The profile alpha^S (X side) or beta^T (Y side): component j, letter r
    counts of cells whose color is absorbed by e_j."""
    counts = {j: [0] * alphabet.n for j in alphabet.data.labels}
    for (l, z) in tableau_word(tab):
        counts[alphabet.absorbers[z]][l - 1] += 1
    return tuple(tuple(counts[j]) for j in alphabet.data.labels)


def tableau_from_json(obj):
    """The tableau that `tableaux.to_json` wrote as `obj`."""
    return tuple(
        tuple(tuple((int(e["l"]), str(e["c"])) for e in row) for row in comp) for comp in obj
    )


# ---------------------------------------------------------------------------
# the superbialgebra structure and the idempotents, which no command runs
# ---------------------------------------------------------------------------

def family(T, d):
    """The algebra of degree d over T's base and truncation, made once and
    kept with T's other degrees.  A family shares one `TriContext` (the
    letter products), not its members' factor tables; a truncation starts
    its own family."""
    members = vars(T).setdefault("_family", {T.d: T})
    if d not in members:
        member = SchurAlgebra(T.alg, T.data, T.n, d, T.tau, T.keep_basis, ctx=T.ctx)
        member._family = members
        members[d] = member
    return members[d]


def word_factorial(T, word, stratum=None):
    """[w]!: the product of the factorials of the multiplicities of the
    letters of `word`, over the letters of the basis stratum 'a' or 'c'
    (`TriContext.in_stratum`) when `stratum` names one."""
    keep = T.ctx.in_stratum[stratum] if stratum else None
    index = T.ctx.index
    out = 1
    for lt, m in Counter(word).items():
        if keep is None or keep[index[lt]]:
            out *= factorial(m)
    return out


def star(T, x, y):
    """x star y for Elements x and y of any degrees in T's family, in the
    sum of their degrees: eta_{o1} star eta_{o2} is the concatenated word,
    canonicalized with its sign, times [o1 o2]_a / ([o1]_a [o2]_a)."""
    ctx, out = T.ctx, {}
    for o1, c1 in x.items():
        for o2, c2 in y.items():
            rep, sign = ctx.sort_signed([ctx.index[lt] for lt in o1 + o2])
            if rep is None:
                continue
            rep = ctx.word(rep)
            num = word_factorial(T, rep, "a")
            den = word_factorial(T, o1, "a") * word_factorial(T, o2, "a")
            assert num % den == 0
            out[rep] = out.get(rep, 0) + c1 * c2 * sign * (num // den)
    return {k: v for k, v in out.items() if v}


def coproduct(T, x, d1):
    """The (d1, d - d1) component of the coproduct of an Element x of T, as
    a sparse tensor keyed by pairs of words: each orbit splits into every
    sub-multiset of size d1 and its complement, with the sign of the split
    word and [o]_c / ([w1]_c [w2]_c)."""
    if not 0 <= d1 <= T.d:
        raise ValueError("invalid split degree")
    out = {}
    for orbit, c in x.items():
        mults = Counter(orbit)
        fac_t = word_factorial(T, orbit, "c")
        for take in product(*(range(m + 1) for m in mults.values())):
            if sum(take) != d1:
                continue
            w1 = tuple(lt for lt, t in zip(mults, take) for _ in range(t))
            w2 = tuple(lt for (lt, m), t in zip(mults.items(), take) for _ in range(m - t))
            sign = T.ctx.sort_signed([T.ctx.index[lt] for lt in w1 + w2])[1]
            ratio = fac_t // (word_factorial(T, w1, "c") * word_factorial(T, w2, "c"))
            out[w1, w2] = out.get((w1, w2), 0) + c * sign * ratio
    return {k: v for k, v in out.items() if v}


def double_coproduct(T, x, d1, d2, left):
    """The (d1, d2, d - d1 - d2) component of (nabla tensor 1) nabla
    (`left`) or of (1 tensor nabla) nabla, keyed by triples of words."""
    out = {}
    for (w1, w2), c in coproduct(T, x, d1 + d2 if left else d1).items():
        inner = w1 if left else w2
        for (u1, u2), c2 in coproduct(family(T, len(inner)), {inner: 1}, d1 if left else d2).items():
            k = (u1, u2, w2) if left else (w1, u1, u2)
            out[k] = out.get(k, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def coproducts_star(Tx, x, Ty, y, d1):
    """The (d1, dx + dy - d1) component of nabla(x) star nabla(y), for x in
    Tx (degree dx) and y in Ty (degree dy) of one family, with the super
    sign rule: the sign of passing x's right factor past y's left one."""
    out = {}
    for e1 in range(max(0, d1 - Ty.d), min(Tx.d, d1) + 1):
        for (x1, x2), cx in coproduct(Tx, x, e1).items():
            for (y1, y2), cy in coproduct(Ty, y, d1 - e1).items():
                sgn = -1 if word_parity(Tx, x2) and word_parity(Tx, y1) else 1
                for w1, c1 in star(Tx, {x1: 1}, {y1: 1}).items():
                    for w2, c2 in star(Tx, {x2: 1}, {y2: 1}).items():
                        out[w1, w2] = out.get((w1, w2), 0) + cx * cy * sgn * c1 * c2
    return {k: v for k, v in out.items() if v}


def _idempotent_sum(T, keep):
    """The sum of e_bold over the tuples of compositions `bold` (one per
    color, n parts each, total size d) that `keep` accepts: distinct orbits,
    each with coefficient 1."""
    out = {}
    for bold in gen_multicompositions(T.n, T.d, len(T.data.labels) - 1):
        if keep(bold):
            out.update(T.idempotent_bold(bold))
    return out


def idempotent_comp(T, lam):
    """xi(lambda): the sum of the e_bold over the color refinements of the
    weight lambda."""
    if len(lam) != T.n or sum(lam) != T.d or any(p < 0 for p in lam):
        raise ValueError("lambda must be a weight in Lambda(n, d)")
    lam = tuple(lam)
    return _idempotent_sum(T, lambda bold: tuple(map(sum, zip(*bold))) == lam)


def truncation_idempotent(T, colors):
    """xi^e: the sum of the e_bold that are empty outside `colors`."""
    colors = frozenset(colors)
    labels = T.data.labels
    return _idempotent_sum(T, lambda bold: not any(
        any(comp) for label, comp in zip(labels, bold) if label not in colors))


def cellular_basis(T, colors):
    """C^bold_{S,T} = X_S * tau(X_T) for the truncation by the initial
    idempotents in `colors`, assuming the truncating element is fixed by the
    standard anti-involution.  Keys are (shape, S, T) with S, T standard over
    the one-sided truncated X alphabets; the factors live in the ambient
    algebra but every product lands in the truncation.  `verify` counts
    these pairs without multiplying them."""
    if T.tau is None:
        raise ValueError("no anti-involution on the base algebra")
    colors = frozenset(colors)
    absorbers = T.ctx.x_alphabet.absorbers
    cb = T.codet_basis
    out = {}
    for bold in T.labels:
        tabs = [S for S in cb.std_x[bold]
                if all(absorbers.get(z) in colors for (_l, z) in tableau_word(S))]
        xs = [codet.side_element(T, S, X_SIDE) for S in tabs]
        ys = [T.involution(x) for x in xs]
        for S, x in zip(tabs, xs):
            for T2, y in zip(tabs, ys):
                out[(bold, S, T2)] = T.mul(x, y)
    return out


# ---------------------------------------------------------------------------
# the base-level truncation eAe
# ---------------------------------------------------------------------------

class Truncation(NamedTuple):
    algebra: BasedSuperalgebra
    data: HeredityData


def truncate_base(alg, data, colors):
    """eAe for e the sum of the distinct initial idempotents e_i, i in
    `colors`, with the heredity data that survives it.  The CLI's
    zigzag-bar:L is zigzag:L truncated at the Schur level
    (`SchurAlgebra.truncate`) instead."""
    colors = frozenset(colors)
    if not colors <= set(data.labels):
        raise ValueError("unknown colors in truncating idempotent")
    absorbers = {side: absorbing_colors(alg, data, side) for side in SIDES}

    def absorbed(b, side):
        return absorbers[side].get(b) in colors

    sub_basis = [b for b in alg.basis if all(absorbed(b, side) for side in SIDES)]
    keep = set(sub_basis)
    kappa = {
        (a, c): out
        for (a, c), out in alg.kappa.items()
        if a in keep and c in keep and all(b in keep for b in out)
    }
    # products of kept elements stay in the truncation automatically
    for a in sub_basis:
        for c in sub_basis:
            out = alg.mul_basis(a, c)
            if out and any(b not in keep for b in out):
                raise AssertionError("truncation not closed; adapted assumption broken")
    sub = BasedSuperalgebra(
        sub_basis, kappa,
        degree={b: alg.degree[b] for b in sub_basis},
        parity={b: alg.parity[b] for b in sub_basis},
        unit={data.e[i]: 1 for i in sorted(colors)},
    )
    Xb, Yb = (
        {i: tuple(z for z in side.pick(data.X, data.Y)[i] if absorbed(z, side))
         for i in data.labels}
        for side in SIDES
    )
    I_bar = tuple(i for i in data.labels if Xb[i] and Yb[i])
    sub_data = HeredityData(
        labels=I_bar,
        strictly_less=frozenset(p for p in data.strictly_less if p[0] in I_bar and p[1] in I_bar),
        X={i: Xb[i] for i in I_bar},
        Y={i: Yb[i] for i in I_bar},
        e={i: data.e[i] for i in I_bar if i in colors},
    )
    return Truncation(sub, sub_data)


def make_zigzag_bar(ell):
    """(eAe, tau restricted to it) for the extended zigzag algebra of
    length `ell` truncated at its first `ell` colors."""
    alg, data, tau = make_extended_zigzag(ell)
    trunc = truncate_base(alg, data, range(ell))
    return trunc, AntiInvolution(image={b: tau.image[b] for b in trunc.algebra.basis})


# ---------------------------------------------------------------------------
# skew characters
# ---------------------------------------------------------------------------

def skew_char(lam, mu, eps, n):
    """s^eps_{lam/mu}: weight sum of even (rows weak, columns strict) or odd
    (rows strict, columns weak) standard skew tableaux with entries in [1,n]."""
    lam, mu = trim(tuple(lam)), trim(tuple(mu))
    mu_full = pad(mu, len(lam)) if lam else ()
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu_full, lam)):
        raise ValueError("mu not contained in lam")
    cells = [(r, c) for r in range(len(lam)) for c in range(mu_full[r], lam[r])]
    out = {}

    def rec(k, filling):
        if k == len(cells):
            w = [0] * n
            for v in filling.values():
                w[v - 1] += 1
            wt = tuple(w)
            out[wt] = out.get(wt, GradedSuperScalar.zero()) + GradedSuperScalar.one()
            return
        r, c = cells[k]
        for v in range(1, n + 1):
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
    return out


def check_skew_chars(lr):
    """s^eps_{lam/mu} = sum_nu c^lam_{mu, nu^eps} s_nu, exactly, for every
    |lam| <= 5, every mu inside lam and eps = 0, 1, with n = 5: `skew_char`
    against `lr.coeff(..., twists=[0, eps])` times the Schur characters."""
    n = 5
    for total in range(1, 6):
        for lam in partitions_of(total, total):
            subs = [()] + [m for k in range(1, total + 1) for m in partitions_of(k, k)]
            for mu in subs:
                if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
                    continue
                for eps in (0, 1):
                    lhs = skew_char(lam, mu, eps, n)
                    rhs = {}
                    rest = total - sum(mu)
                    for nu in partitions_of(rest, rest):
                        c = lr.coeff(lam, [mu, nu], twists=[0, eps])
                        if c:
                            rhs = add(rhs, schur_char(nu, n), GradedSuperScalar.term(c))
                    assert lhs == rhs, (lam, mu, eps)


# ---------------------------------------------------------------------------
# Gram matrices of standard modules, over all pairs
# ---------------------------------------------------------------------------

def tableau_share(T, tab, side):
    """(weight, degree, parity) of a standard tableau: `tableau_weight`, and
    the sums of the degrees and parities of its letters' basis elements."""
    colors = [z for (_l, z) in tableau_word(tab)]
    return (tableau_weight(tab, T.ctx.alphabet(side)), sum(T.alg.degree[z] for z in colors),
            sum(T.alg.parity[z] for z in colors) % 2)


def tableau_entry(T, tab, side):
    """(share, word, sign) of a standard tableau, read afresh: the word of
    X_S or Y_T (`tableaux.own_word`), its letter indices (`T.indices`) sorted
    with their sign (`sort_signed`), and the share (`tableau_share`).  The
    reference for the context's table of standard tableaux."""
    word, sign = T.ctx.sort_signed(T.indices(own_word(tab, side)))
    return tableau_share(T, tab, side), word, sign


def full_gram(T, bold):
    """(S, T) -> the coefficient of e_bold in Y_T X_S, for every pair of
    standard tableaux of shape bold."""
    cb = T.codet_basis
    unit_key = (bold, *cb.initial_tableau_pair(bold))
    ys = [(Tb, codet.side_element(T, Tb, Y_SIDE)) for Tb in cb.std_y[bold]]
    gram = {}
    for S in cb.std_x[bold]:
        x = codet.side_element(T, S, X_SIDE)
        for Tb, y in ys:
            prod = T.mul(y, x)
            gram[S, Tb] = cb.solve(prod).get(unit_key, 0) if prod else 0
    return gram


def gram_rank_character(T, bold, p):
    """ch L(bold) over F_p: `full_gram` cut into blocks, a row per X
    tableau S under its share (weight, degree, parity) and against the Y
    tableaux of share (weight, -degree, parity), each block's rank mod p
    (`lu_rank`) the coefficient of q^degree pi^parity at that weight, where
    it is nonzero."""
    cb, gram = T.codet_basis, full_gram(T, bold)
    ys = [(Tb, tableau_share(T, Tb, Y_SIDE)) for Tb in cb.std_y[bold]]
    blocks = {}
    for S in cb.std_x[bold]:
        weight, deg, par = tableau_share(T, S, X_SIDE)
        cols = [Tb for Tb, share in ys if share == (weight, -deg, par)]
        blocks.setdefault((weight, deg, par), []).append([gram[S, Tb] for Tb in cols])
    by_weight = {}
    for (weight, deg, par), mat in blocks.items():
        if r := lu_rank(mat, p):
            by_weight.setdefault(weight, {})[deg, par] = r
    return {w: GradedSuperScalar(terms) for w, terms in by_weight.items()}


def gram_entries(T, bold, blocks):
    """The blocks of `gram_blocks(T, bold)` as (S, T) -> entry: the rows of a
    block are the X tableaux of its (weight, degree, parity) and its columns
    the Y tableaux of (weight, -degree, parity), each in standard order."""
    cb = T.codet_basis
    rows = {key: iter(block) for key, block in blocks.items()}
    ys = [(Tb, tableau_share(T, Tb, Y_SIDE)) for Tb in cb.std_y[bold]]
    out = {}
    for S in cb.std_x[bold]:
        weight, deg, par = tableau_share(T, S, X_SIDE)
        row = next(rows[weight, deg, par])
        cols = [Tb for Tb, share in ys if share == (weight, -deg, par)]
        assert len(row) == len(cols), (bold, S)
        out.update(((S, Tb), c) for Tb, c in zip(cols, row))
    assert all(next(left, None) is None for left in rows.values()), bold
    return out


# ---------------------------------------------------------------------------
# heredity of T, through the tensor oracle
# ---------------------------------------------------------------------------

def tensor_mul(T, x, y):
    """x * y for Elements, each pair of orbits by `tensor_eta_product`."""
    out = {}
    for o1, c1 in x.items():
        for o2, c2 in y.items():
            for o, c in tensor_eta_product(T, o1, o2).items():
                out[o] = out.get(o, 0) + c1 * c2 * c
    return {o: c for o, c in out.items() if c}


def heredity_oracle(T, sample_b=None):
    """(ok, failures) of `heredity_of_T(T, sample_b)`, by the route the
    module docstring describes."""
    cb = codet.CodetBasis(T)
    failures = []
    elt_of = {}

    def element(tab, side):
        if (side.name, tab) not in elt_of:
            elt_of[side.name, tab] = codet.side_element(T, tab, side)
        return elt_of[side.name, tab]

    # axiom (a): the blocks with columns, in the order the keys meet them
    count = sum(len(cb.std_x[bold]) * len(cb.std_y[bold]) for bold in T.labels)
    if count != len(T.orbits):
        failures.append(f"axiom (a): {count} codeterminants vs rank {len(T.orbits)}")
    blocks = {key: (rows, cols) for key, (rows, cols) in eager_codet_blocks(cb).items() if cols}
    block_of = {orbit: key for key, (rows, _cols) in blocks.items() for orbit in rows}
    mats = {}
    for key, (rows, cols) in blocks.items():
        assert len(rows) == len(cols), key
        mat = [[0] * len(cols) for _ in rows]
        for j, (_bold, S, Tb) in enumerate(cols):
            for orbit, c in tensor_mul(T, element(S, X_SIDE), element(Tb, Y_SIDE)).items():
                mat[rows.index(orbit)][j] = c
        det = lu_det(mat)
        if det == 0:
            failures.append(f"axiom (a): codeterminant block {key} singular")
            return False, failures
        if abs(det) != 1:
            failures.append(f"axiom (a): change of basis not unimodular: "
                            f"block {key} has determinant {int(det)}")
            return False, failures
        mats[key] = mat

    def solve(x):
        keys = {block_of[orbit] for orbit in x}
        assert len(keys) == 1, x  # a product of homogeneous orbits is homogeneous
        key = keys.pop()
        rows, cols = blocks[key]
        coeffs = lu_solve(mats[key], [x.get(orbit, 0) for orbit in rows])
        assert all(c.denominator == 1 for c in coeffs), (x, coeffs)
        return [col for col, c in zip(cols, coeffs) if c]

    def weight(tab, side):
        (orbit,) = element(tab, side)
        return orbit_profiles(T, orbit)[side.pick(0, 1)]

    def name(side):
        return f"{side.name}_{side.pick('S', 'T')}"

    # axiom (c)
    idem = {bold: T.idempotent_bold(bold) for bold in T.labels}
    padded = {bold: tuple(tuple(c) + (0,) * (T.n - len(c)) for c in bold) for bold in T.labels}
    ok_c = True
    for bold in T.labels:
        for side in SIDES:
            nm = name(side)
            elt_e, e_elt, emu_elt = (" ".join(side.orient(a, b))
                                     for a, b in ((nm, "e"), ("e", nm), ("e_mu", nm)))
            initial = side.pick(*cb.initial_tableau_pair(bold))
            for tab in std(cb, side)[bold]:
                elt = element(tab, side)
                witness = f"{side.pick('S', 'T')} = {tab}"
                if tensor_mul(T, *side.orient(elt, idem[bold])) != elt:
                    ok_c = False
                    failures.append(f"axiom (c): {elt_e} != {nm} at {bold}: {witness}")
                if tensor_mul(T, *side.orient(idem[bold], elt)) != (elt if tab == initial else {}):
                    ok_c = False
                    failures.append(f"axiom (c): {e_elt} wrong at {bold}: {witness}")
                w = weight(tab, side)
                for bold2 in T.labels:
                    want = elt if padded[bold2] == w else {}
                    if tensor_mul(T, *side.orient(idem[bold2], elt)) != want:
                        ok_c = False
                        failures.append(f"axiom (c): {emu_elt} not diagonal at {bold}: "
                                        f"{witness}, mu = {bold2}")

    # axiom (b): an orbit meets X_S on its right profile, Y_T on its left one
    profiles = {o: orbit_profiles(T, o) for o in T.orbits}

    def candidates(side, w):
        meeting = [o for o in T.orbits if profiles[o][side.pick(1, 0)] == w]
        return meeting if sample_b is None else meeting[:sample_b]

    ok_b = True
    for bold in T.labels:
        for side in SIDES:
            other_initial = side.orient(*cb.initial_tableau_pair(bold))[1]
            for tab in std(cb, side)[bold]:
                elt = element(tab, side)
                for orbit in candidates(side, weight(tab, side)):
                    prod = tensor_mul(T, *side.orient({orbit: 1}, elt))
                    if not prod:
                        continue
                    for key in solve(prod):
                        mu, *pair = key
                        if mu != bold and leq(bold, mu):
                            continue
                        if mu != bold or side.orient(*pair)[1] != other_initial:
                            ok_b = False
                            failures.append(
                                f"axiom (b): {side.spell('a', name(side))} escapes the "
                                f"{side.name} span at {bold}: a = {orbit}, "
                                f"{side.pick('S', 'T')} = {tab}, codeterminant {key}"
                            )
    return not failures, failures

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
  skew-filling enumeration with the reverse lattice word condition.
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
  tableau by its own `tableau_weight` and `tableau_degree` (`tableau_share`,
  which `eager_codet_blocks` reads too), where production multiplies only
  the degree-0 pairs of equal weight, placed by the per-letter table, and
  reads each entry through one dual row of the unit block.
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

from schurify import codeterminants as codet
from schurify.base_algebra import SIDES, X_SIDE, Y_SIDE, BasedSuperalgebra, make_algebra
from schurify.cli import main
from schurify.partitions import compare, conjugate, trim
from schurify.tableaux import tableau_degree, tableau_weight


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
        if w != tuple(sorted(w, key=ctx.key)):
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
    for bold in cb.shapes:
        xs, ys = ([tableau_share(T, tab, side) for tab in cb.std(side)[bold]]
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
    of a `CodetBasis`, in the order of `cb.block_keys`, each built by
    `cb._block` as a solve or the unimodularity check builds it."""
    blocks = {}
    for key in cb.block_keys:
        rows, cols, _expansions = cb._block(key)
        blocks[key] = ([cb.T.ctx.word(w) for w in rows], [(x.bold, x.tab, y.tab) for x, y in cols])
    return blocks


# ---------------------------------------------------------------------------
# Gram matrices of standard modules, over all pairs
# ---------------------------------------------------------------------------

def tableau_share(T, tab, side):
    """(weight, degree, parity) of a standard tableau."""
    ((deg, par),) = tableau_degree(tab, T.alg).coeffs
    return tableau_weight(tab, T.ctx.alphabet(side)), deg, par


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
    count = sum(len(cb.std_x[bold]) * len(cb.std_y[bold]) for bold in cb.shapes)
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
    idem = {bold: T.idempotent_bold(bold) for bold in cb.shapes}
    padded = {bold: tuple(tuple(c) + (0,) * (T.n - len(c)) for c in bold) for bold in cb.shapes}
    ok_c = True
    for bold in cb.shapes:
        for side in SIDES:
            nm = name(side)
            elt_e, e_elt, emu_elt = (" ".join(side.orient(a, b))
                                     for a, b in ((nm, "e"), ("e", nm), ("e_mu", nm)))
            initial = side.pick(*cb.initial_tableau_pair(bold))
            for tab in cb.std(side)[bold]:
                elt = element(tab, side)
                witness = f"{side.pick('S', 'T')} = {tab}"
                if tensor_mul(T, *side.orient(elt, idem[bold])) != elt:
                    ok_c = False
                    failures.append(f"axiom (c): {elt_e} != {nm} at {bold}: {witness}")
                if tensor_mul(T, *side.orient(idem[bold], elt)) != (elt if tab == initial else {}):
                    ok_c = False
                    failures.append(f"axiom (c): {e_elt} wrong at {bold}: {witness}")
                w = weight(tab, side)
                for bold2 in cb.shapes:
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
    for bold in cb.shapes:
        for side in SIDES:
            other_initial = side.orient(*cb.initial_tableau_pair(bold))[1]
            for tab in cb.std(side)[bold]:
                elt = element(tab, side)
                for orbit in candidates(side, weight(tab, side)):
                    prod = tensor_mul(T, *side.orient({orbit: 1}, elt))
                    if not prod:
                        continue
                    for key in solve(prod):
                        mu, *pair = key
                        if compare(mu, bold) == "GT":
                            continue
                        if mu != bold or side.orient(*pair)[1] != other_initial:
                            ok_b = False
                            failures.append(
                                f"axiom (b): {side.spell('a', name(side))} escapes the "
                                f"{side.name} span at {bold}: a = {orbit}, "
                                f"{side.pick('S', 'T')} = {tab}, codeterminant {key}"
                            )
    return not failures, failures

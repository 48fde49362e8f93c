"""The checks of `verify`: the invariant suite that the command runs on one
algebra, from a fixed seed, and prints as a pass/fail table.

There are nine checks: the unit, associativity, the rank (two ways: the
standard codeterminant count, and RSK on a sample; a truncation counts the
pairs of its cellular basis), the anti-involution, and, on a
quasi-hereditary algebra, straightening against the solve, the heredity
of A and of T, the two character routes and the two decomposition routes.
Samples are drawn by index and unranked (`T.orbit`), so no check lists
the orbits.

`run_checks` takes T, the seed, the ring and the LR cache, and returns
the result rows; `cli.verify` prints them and keeps the exit code.  Which
rows apply is read off T.  A truncation (`T.is_truncation`) is only
cellular, its cellular basis X_S tau(X_T) lying in the ambient algebra
(Graham and Lehrer, Cellular algebras, Invent. Math. 123, 1996): its rank
row counts the pairs (S, T) without multiplying them, and its
highest-weight checks are not registered.  A check that does not apply to
T (n < d, or no anti-involution) gives a row with no verdict.
The Schur heredity check's axiom (a) walk starts on a forked child before
the first row (`heredity.Started`), which runs on another allowed CPU than
this process where there are two, and shares the runs of X weights with
this process through one pipe, a byte a run.  At that check's row this
process walks the runs left, reaps the child, whose exit status is its
verdict, and walks the least failing run of the two again, so the row
reports what a walk in one process finds; on any other way out it kills
and reaps the child, so no process outlives `run_checks`.  `verify`'s peak
RSS is the larger of the two processes' peaks; a platform without
`os.fork` walks in one process.
This module does not import `cli`: run as `python -m schurify.cli`,
the CLI is `__main__`, and importing it by name would compile and run it a
second time.  Only `verify` loads this module, and with it `heredity` and
`rsk`, which no other command runs, as well as `straighten` and
`base_heredity` (see the README's module map).
"""
from __future__ import annotations

import json
import random

from . import partitions
from .base_algebra import X_SIDE
from .base_heredity import verify_heredity
from .characters import LRCache, char_standard_formula, char_standard_tableaux
from .decomposition import ClassicalDecomp, decomp_formula_row, decomp_oracle
from .heredity import Started
from .rings import QQ, CoefficientRing
from .rsk import rsk, rsk_inv
from .schur import SchurAlgebra
from .straighten import Straightener
from .tableaux import word as tableau_word
from .triples import TriContext


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _orbits_json(*orbits) -> str:
    """Orbits as the JSON that `mul --left`/`--right` and `straighten
    --orbit` take, one line, joined by commas: a failure's witness."""
    return ", ".join(json.dumps(TriContext.to_json(o)) for o in orbits)


def _labels_json(*labels) -> str:
    """Labels as the JSON that `char --label` takes, joined by commas: a
    failure's witness."""
    return ", ".join(json.dumps(partitions.to_json(lam)) for lam in labels)


def run_checks(T: SchurAlgebra, seed: int, ring: CoefficientRing,
               cache: LRCache) -> list[tuple[str, bool | None, str]]:
    """Run the checks that apply to T, sampled from `seed`, and return one
    row (name, verdict, witness or failure text) per check, in order.  The
    decomposition row compares over the field `ring`; over F_p its text
    names that the formula's classical part is the oracle run on the
    trivial base.  A check that does not apply has the verdict None and its
    reason as the text."""
    rng = random.Random(seed)
    results: list[tuple[str, bool | None, str]] = []

    def check(name: str, fn, skip: str | None = None):
        if skip:
            results.append((name, None, skip))
            return
        try:
            witness = fn()
            results.append((name, True, witness or ""))
        except Exception as e:  # any failure is a verification failure
            results.append((name, False, f"{type(e).__name__}: {e}"))

    # samples are drawn by index and unranked (`T.orbit`): the same indices,
    # and so the same orbits, as sampling the list `T.orbits`, never listed
    def sample(k: int) -> list:
        return [T.orbit(i) for i in rng.sample(range(T.rank), k)]

    def choice():
        return T.orbit(rng.randrange(T.rank))

    def c_unit():
        one = T.unit()
        for o in sample(min(20, T.rank)):
            x = {o: 1}
            assert T.mul(one, x) == x and T.mul(x, one) == x, \
                f"1*x or x*1 is not x at x = {_orbits_json(o)}"
        return f"{min(20, T.rank)} samples"

    def c_assoc():
        m = min(60, T.rank)
        for _ in range(m):
            a, b, c = (choice() for _ in range(3))
            lhs = T.mul(T.mult_orbits(a, b), {c: 1})
            rhs = T.mul({a: 1}, T.mult_orbits(b, c))
            assert lhs == rhs, f"(ab)c != a(bc) at a, b, c = {_orbits_json(a, b, c)}"
        return f"{m} triples"

    def c_rank():
        if T.is_truncation:
            return cellular_rank()
        cb = T.codet_basis
        total = sum(len(cb.std_x[bold]) * len(cb.std_y[bold]) for bold in T.labels)
        assert total == T.rank, f"standard codeterminant count {total} != rank {T.rank}"
        # RSK on a sample: a bijection from orbits onto codeterminant keys,
        # the standard pairs (S, T) of one shape
        std = {bold: (set(cb.std_x[bold]), set(cb.std_y[bold])) for bold in T.labels}
        preimage = {}
        for o in sample(min(30, T.rank)):
            image = rsk(T.ctx, o)
            bold, S, Tb = image
            xs, ys = std.get(bold, ((), ()))
            assert S in xs and Tb in ys, \
                f"rsk(o) is not a standard codeterminant at o = {_orbits_json(o)}"
            assert rsk_inv(T.ctx, S, Tb) == o, f"rsk_inv(rsk(o)) != o at o = {_orbits_json(o)}"
            assert image not in preimage, \
                f"rsk(o) == rsk(p) at o, p = {_orbits_json(o, preimage[image])}"
            preimage[image] = o
        return f"rank {T.rank} two ways"

    def cellular_rank():
        # the cellular basis X_S tau(X_T) of a truncation: per shape, a pair
        # of the ambient standard X tableaux whose letters' left absorbers
        # are colors whose idempotent T keeps
        if T.tau is None:
            raise ValueError("no anti-involution on the base algebra")
        colors = {i for i in T.data.labels if T.data.e[i] in T.keep_basis}
        absorbers, table = T.ctx.x_alphabet.absorbers, T.ctx.standard_tableaux
        count = 0
        for bold in T.labels:
            kept = sum(all(absorbers.get(z) in colors for _l, z in tableau_word(S))
                       for S, *_ in table[X_SIDE, bold])
            count += kept * kept
        assert count == T.rank, f"cellular pair count {count} != rank {T.rank}"
        return f"rank {T.rank} == cellular pair count"

    def c_straighten():
        cb = T.codet_basis
        st = Straightener(T)
        drawn = sample(min(25, T.rank))
        for o in drawn:
            assert cb.solve({o: 1}) == st.straighten_element({o: 1}), \
                f"solve and recursion differ at {_orbits_json(o)}"
        return f"{len(drawn)} orbits, both backends"

    def c_heredity_base():
        rep = verify_heredity(T.alg, T.data)
        assert rep.ok, rep.failures
        return "axioms (a)-(c)"

    def c_heredity_T():
        rep = schur()
        assert rep.ok, rep.failures
        return f"axioms (a)-(c), (b) on the first {sample_b} orbits per tableau"

    def c_chars():
        for lam in T.labels:
            a = char_standard_tableaux(T, lam)
            b = char_standard_formula(T, lam, cache)
            assert a == b, f"tableaux and formula characters differ at lam = {_labels_json(lam)}"
        return f"{len(T.labels)} labels, two methods"

    def c_decomp():
        inp = T.base_decomp  # raises, naming the failure, unless A's axioms hold
        D = decomp_oracle(T, ring)
        classical = None if ring == QQ else ClassicalDecomp(T.n, ring)
        for lam in D.labels:
            row = decomp_formula_row(inp, lam, D.labels, T.n, classical, cache)
            for mu, f in row.items():
                assert f == D.entry(lam, mu), \
                    f"formula != oracle at lam, mu = {_labels_json(lam, mu)}"
        compared = f"{len(D.labels)}x{len(D.labels)} formula == oracle over {ring!r}"
        if classical is None:
            return compared
        # over F_p the formula's classical part is the oracle run on the
        # trivial base, which on that base (A = k) is the whole formula
        if T.alg.dim == 1:
            return f"{compared}, both routes the oracle on the trivial base"
        return f"{compared}, the formula's classical part the oracle on the trivial base"

    def c_involution():
        def signed(x):
            # relabeling involution times the tensor-reversal sign; the
            # composite is a plain anti-automorphism
            out = {}
            for o, c in x.items():
                j = sum(T.alg.parity[b] for (b, _r, _s) in o)
                sgn = -1 if (j * (j - 1) // 2) % 2 else 1
                for k, v in T.involution({o: 1}).items():
                    out[k] = out.get(k, 0) + sgn * c * v
            return {k: v for k, v in out.items() if v}

        m = min(40, T.rank)
        for _ in range(m):
            a, b = choice(), choice()
            assert T.involution(T.involution({a: 1})) == {a: 1}, \
                f"tau(tau(a)) != a at a = {_orbits_json(a)}"
            lhs = signed(T.mult_orbits(a, b))
            rhs = T.mul(signed({b: 1}), signed({a: 1}))
            assert lhs == rhs, f"tau(ab) != tau(b)tau(a) at a, b = {_orbits_json(a, b)}"
        return f"anti-automorphism on {m} pairs"

    short = "n < d" if T.n < T.d else None
    # the truncation is only cellular: it has no highest-weight checks
    highest_weight = not T.is_truncation
    # the Schur heredity check's axiom (a) walk starts now, on a second
    # process, and its row finishes it; on any way out the child is reaped
    sample_b = 10
    schur = Started(T, sample_b) if highest_weight and not short else None
    try:
        check("unit", c_unit)
        check("associativity", c_assoc)
        check("rank", c_rank, short)
        check("involution", c_involution, "no anti-involution" if T.tau is None else None)
        if highest_weight:
            check("straightening", c_straighten, short)
            check("base heredity", c_heredity_base)
            check("schur heredity", c_heredity_T, short)
            check("characters", c_chars)
            check("decomposition", c_decomp, short)
    finally:
        if schur is not None:
            schur.close()
    return results

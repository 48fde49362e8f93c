"""`verify` fails when a layer gives a wrong exact answer, and names a
witness that can be re-run.

Each test plants one defect in process, runs `verify` on a small case that
reaches the check, and asserts exit code 1, the FAIL line of that check
with its witness, and PASS on every row the defect cannot reach.  The
witness is then read back as the CLI reads it.  The characters,
decomposition, straightening, base heredity and RSK rows have their
planted defects in `test_cli.py`."""
import json

import pytest
from helpers import assert_reaped, block_keys, run_cli as run, verify_fails_only

from schurify.base_algebra import make_algebra
from schurify.schur import SchurAlgebra, build_schur
from schurify.triples import TriContext


def common(spec: str, n: int, d: int, tmp_path) -> list[str]:
    return ["--algebra", spec, "-n", str(n), "-d", str(d), "--cache-dir", str(tmp_path)]


def algebra(spec: str, n: int, d: int) -> SchurAlgebra:
    alg, data, tau = make_algebra(spec)
    return build_schur(alg, data, n, d, tau)


def witness_orbits(failed: str) -> list:
    """The orbits that a FAIL line names after its last " = ", as the JSON
    that `mul --left` and `--right` take."""
    return [TriContext.from_json(o) for o in json.loads(f"[{failed.rsplit(' = ', 1)[1]}]")]


def as_json(orbit) -> str:
    return json.dumps(TriContext.to_json(orbit))


def test_verify_names_the_orbit_where_the_unit_fails(monkeypatch, tmp_path):
    """With one idempotent dropped from T's unit, `verify` fails its unit
    check alone, naming an orbit x that `mul` shows the dropped idempotent
    fixes."""
    real = SchurAlgebra.unit
    dropped = []

    def short(self):
        one = real(self)
        dropped[:] = [max(one)]
        del one[dropped[0]]
        return one

    monkeypatch.setattr(SchurAlgebra, "unit", short)
    args = common("zigzag:1", 2, 2, tmp_path)
    failed = verify_fails_only("unit", *args)
    assert "AssertionError: 1*x or x*1 is not x at x = [{" in failed, failed
    (x,) = witness_orbits(failed)
    fixed = [{"orbit": TriContext.to_json(x), "coeff": "1"}]
    products = [json.loads(run("mul", *args, "--left", left, "--right", right).output)
                for left, right in ((as_json(dropped[0]), as_json(x)),
                                    (as_json(x), as_json(dropped[0])))]
    assert fixed in products, products


def test_verify_names_the_triple_where_associativity_fails(monkeypatch, tmp_path):
    """With a + b added to every nonzero product a * b of two orbits that
    are not idempotents, T keeps its unit and its anti-involution but is no
    longer associative.  On S(2, 3), where n < d leaves out straightening,
    `verify` fails its associativity check alone, naming a triple whose two
    bracketings differ."""
    real = SchurAlgebra.mult_orbits

    def idempotent(orbit) -> bool:
        return all(r == s for _b, r, s in orbit)

    def skewed(self, a, b):
        out = real(self, a, b)
        if out and not idempotent(a) and not idempotent(b):
            out = dict(out)
            for o in (a, b):
                out[o] = out.get(o, 0) + 1
        return out

    monkeypatch.setattr(SchurAlgebra, "mult_orbits", skewed)
    failed = verify_fails_only("associativity", *common("trivial", 2, 3, tmp_path))
    assert "AssertionError: (ab)c != a(bc) at a, b, c = [{" in failed, failed
    a, b, c = witness_orbits(failed)
    T = algebra("trivial", 2, 3)
    assert T.mul(T.mult_orbits(a, b), {c: 1}) != T.mul({a: 1}, T.mult_orbits(b, c))
    monkeypatch.undo()
    assert T.mul(T.mult_orbits(a, b), {c: 1}) == T.mul({a: 1}, T.mult_orbits(b, c))


def test_verify_names_the_pair_where_the_involution_fails(monkeypatch, tmp_path):
    """With the sign of every image orbit that holds an odd letter flipped,
    tau is still an involution but no longer an anti-automorphism.  On
    zigzag:1 at n = 1, d = 2, `verify` fails its involution check alone,
    naming a pair a, b; `mul` takes them, and the defect moves tau(ab)."""
    real = SchurAlgebra.involution

    def flipped(self, x):
        return {o: -c if any(self.alg.parity[b] for b, _r, _s in o) else c
                for o, c in real(self, x).items()}

    monkeypatch.setattr(SchurAlgebra, "involution", flipped)
    args = common("zigzag:1", 1, 2, tmp_path)
    failed = verify_fails_only("involution", *args)
    assert "AssertionError: tau(ab) != tau(b)tau(a) at a, b = [{" in failed, failed
    a, b = witness_orbits(failed)
    res = run("mul", *args, "--left", as_json(a), "--right", as_json(b))
    assert res.exit_code == 0 and json.loads(res.output), res.output
    T = algebra("zigzag:1", 1, 2)
    ab = T.mult_orbits(a, b)
    assert flipped(T, ab) != real(T, ab)


def test_verify_names_the_two_counts_where_the_rank_differs(monkeypatch, tmp_path):
    """With T's orbit count one short, `verify` fails its rank check,
    naming the standard codeterminant count and the rank that `dim` prints,
    and the Schur heredity check, whose axiom (a) compares the same two
    counts; every other row passes."""
    real = SchurAlgebra.rank
    monkeypatch.setattr(SchurAlgebra, "rank", property(lambda self: real.fget(self) - 1))
    args = common("zigzag:1", 2, 2, tmp_path)
    res = run("verify", *args)
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    failed = [line for line in lines if not line.startswith("PASS")]
    assert len(lines) == 9 and len(failed) == 2, res.output
    assert failed[0] == ("FAIL  rank            "
                         "AssertionError: standard codeterminant count 202 != rank 201")
    assert failed[1].startswith("FAIL  schur heredity  "), res.output
    assert "axiom (a): 202 codeterminants vs rank 201" in failed[1]
    assert json.loads(run("dim", *args).output) == {"rank": "201"}


def test_verify_names_the_block_where_the_schur_heredity_fails(monkeypatch, tmp_path):
    """With the unimodularity walk reporting determinant 2 for its first
    block, the least key, whichever process walks it, `verify` fails its
    Schur heredity check alone, naming that block, whose own determinant
    is +-1."""
    from schurify.codeterminants import CodetBasis

    cb = algebra("zigzag:1", 2, 2).codet_basis
    first = next(block_keys(cb))
    real = CodetBasis._walk

    def skewed(self, weights=None):
        for key, det, size in real(self, weights):
            yield key, 2 if key == first else det, size

    monkeypatch.setattr(CodetBasis, "_walk", skewed)
    failed = verify_fails_only("schur heredity", *common("zigzag:1", 2, 2, tmp_path))
    assert f"axiom (a): change of basis not unimodular: block {first} has determinant 2" \
        in failed, failed
    assert abs(cb.factor(first).det) == 1


def test_an_interrupted_verify_leaves_no_process_running(monkeypatch, lr, forks):
    """The Schur heredity check's walk starts on a forked child before the
    first row; a KeyboardInterrupt in the first row reaches the caller, and
    `run_checks` has killed and reaped that child on the way out."""
    from schurify.rings import QQ
    from schurify.verification import run_checks

    T = algebra("zigzag:1", 3, 3)

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(SchurAlgebra, "unit", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_checks(T, 1, QQ, lr)
    assert len(forks) == 1
    assert_reaped(forks)

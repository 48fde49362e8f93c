import argparse
import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import BROKEN, broken_presentation, run_cli as run, verify_fails_only
from hypothesis import given, settings, strategies as st
from test_module_layout import ORBIT

import schurify
from schurify import characters, decomposition
from schurify.rings import GradedSuperScalar
from schurify.straighten import Straightener

DATA = Path(__file__).parent / "data"

scalar_str = repr  # the one scalar printer is GradedSuperScalar.__repr__


def test_scalar_str():
    assert scalar_str(GradedSuperScalar.zero()) == "0"
    assert scalar_str(GradedSuperScalar.one()) == "1"
    assert scalar_str(GradedSuperScalar.term(1, 1, 1)) == "q*pi"
    assert scalar_str(GradedSuperScalar.term(2, -1, 0)) == "2*q^-1"
    s = GradedSuperScalar.one() + GradedSuperScalar.term(3, 2, 1)
    assert scalar_str(s) == "1+3*q^2*pi"


def test_dim():
    res = run("dim", "--algebra", "zigzag:1", "-n", "2", "-d", "2")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"rank": "202"}


def test_build_labels():
    res = run("build", "--algebra", "trivial", "-n", "2", "-d", "2")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["rank"] == "10"
    assert out["base_dim"] == "1"
    assert len(out["labels"]) == 2
    res = run("build", "--algebra", "trivial", "-n", "2", "-d", "2", "--field", "Fp:3", "--seed", "4")
    assert json.loads(res.output)["config"] == {
        "algebra": "trivial", "d": "2", "field": "Fp:3", "n": "2", "out": "json", "seed": "4"}


def test_decomp_example_matrix():
    """The n = d = 1 zigzag matrix is [[1, 0], [q pi, 1]] with rows ordered by
    the label order."""
    res = run("decomp", "--algebra", "zigzag:1", "-n", "1", "-d", "1",
              "--field", "Q", "--method", "both", "--out", "csv")
    assert res.exit_code == 0
    import csv
    import io

    rows = list(csv.reader(io.StringIO(res.output)))
    entries = {(r[0], r[1]): r[2] for r in rows}
    assert entries[("[[1], []]", "[[1], []]")] == "1"
    assert entries[("[[1], []]", "[[], [1]]")] == "0"
    assert entries[("[[], [1]]", "[[1], []]")] == "q*pi"
    assert entries[("[[], [1]]", "[[], [1]]")] == "1"


def test_usage_error_exit_2():
    res = run("decomp", "--algebra", "zigzag:1", "-n", "1", "-d", "2", "--field", "Q")
    assert res.exit_code == 2
    res = run("decomp", "--algebra", "zigzag:1", "-n", "1", "-d", "1", "--field", "Z")
    assert res.exit_code == 2
    res = run("dim", "--algebra", "bogus:9")
    assert res.exit_code != 0


def test_char_command():
    res = run("char", "--algebra", "zigzag:1", "-n", "1", "-d", "1",
              "--label", "[[],[1]]", "--method", "both")
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert {e["coeff"] for e in out} == {"1", "q*pi"}


def test_mul_command():
    left = json.dumps([{"b": "1", "r": 1, "s": 1}])
    res = run("mul", "--algebra", "trivial", "-n", "2", "-d", "1",
              "--left", left, "--right", left)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out == [{"orbit": [{"b": "1", "r": 1, "s": 1}], "coeff": "1"}]


def test_output_file(tmp_path):
    out = tmp_path / "r.json"
    res = run("dim", "--algebra", "trivial", "-n", "2", "-d", "2",
              "--output", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text()) == {"rank": "10"}


# each cross-checking command, the route of it that a planted defect
# doubles, and the error its witness names
CROSS_CHECKS = {
    "decomp": (["--method", "both"], (decomposition, "decomp_formula_row"),
               "formula and oracle disagree"),
    "char": (["--label", "[[1], [1]]", "--method", "both"], (characters, "char_standard_formula"),
             "character methods disagree"),
    "straighten": (["--orbit", ORBIT, "--backend", "both"], (Straightener, "straighten_element"),
                   "straightening backends disagree"),
}


@pytest.mark.parametrize("cmd", CROSS_CHECKS)
def test_a_failed_cross_check_exits_1_with_its_witness_under_either_out(cmd, monkeypatch,
                                                                        tmp_path):
    """When the two routes of a command disagree, it exits 1 and writes its
    witness as JSON, under `--out csv` as under `--out json`."""
    args, (owner, name), error = CROSS_CHECKS[cmd]
    common = [cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *args,
              "--cache-dir", str(tmp_path)]
    assert run(*common).exit_code == 0
    real = getattr(owner, name)

    def doubled(*args):
        return {k: v + v for k, v in real(*args).items()}

    monkeypatch.setattr(owner, name, doubled)
    outputs = []
    for out in ("json", "csv"):
        res = run(*common, "--out", out)
        assert res.exit_code == 1, (out, res.output)
        assert json.loads(res.output)["error"] == error, (out, res.output)
        outputs.append(res.output)
    assert outputs[0] == outputs[1]


def test_verify_small():
    res = run("verify", "--algebra", "trivial", "-n", "2", "-d", "2", "--seed", "1")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert "decomposition" in res.output
    # axiom (b) is checked on a capped set of orbits, and the witness says so
    assert ("PASS  schur heredity  axioms (a)-(c), (b) on the first 10 orbits per tableau"
            in res.output.splitlines())


def test_verify_skips_the_rows_that_need_n_at_least_d():
    """With n < d the rank, straightening, Schur heredity and decomposition
    rows do not apply: each prints SKIP with its reason, the other five
    pass, and the run exits 0."""
    res = run("verify", "--algebra", "trivial", "-n", "2", "-d", "3")
    assert res.exit_code == 0, res.output
    rows = [re.split(" {2,}", line, maxsplit=2) for line in res.output.splitlines()]
    skipped = ["rank", "straightening", "schur heredity", "decomposition"]
    assert [(verdict, name) for verdict, name, _text in rows] == [
        ("SKIP" if name in skipped else "PASS", name) for name in (
            "unit", "associativity", "rank", "involution", "straightening",
            "base heredity", "schur heredity", "characters", "decomposition")], res.output
    assert {text for verdict, _name, text in rows if verdict == "SKIP"} == {"n < d"}


def test_the_involution_row_does_not_apply_without_an_anti_involution():
    """No built-in base lacks an anti-involution, so the suite runs on a
    Schur algebra built without one: its involution row has no verdict."""
    from schurify.base_algebra import make_algebra
    from schurify.characters import LRCache
    from schurify.rings import QQ
    from schurify.schur import build_schur
    from schurify.verification import run_checks

    alg, data, _tau = make_algebra("trivial")
    rows = run_checks(build_schur(alg, data, 1, 1, None), 0, QQ, LRCache(""))
    assert ("involution", None, "no anti-involution") in rows
    assert all(ok for name, ok, _text in rows if name != "involution"), rows


def test_scalar_printer_negative_coefficients():
    s = GradedSuperScalar.one() + GradedSuperScalar.term(-2, 1, 0)
    assert scalar_str(s) == "1-2*q"
    assert scalar_str(GradedSuperScalar.term(-1, 1, 1)) == "-q*pi"
    assert scalar_str(GradedSuperScalar.term(-3, -1, 0)) == "-3*q^-1"


def test_verify_builds_codeterminant_blocks_once(monkeypatch, tmp_path):
    from schurify.codeterminants import CodetBasis

    real = CodetBasis.__init__
    builds = []

    def counted(self, T):
        builds.append(T)
        real(self, T)

    monkeypatch.setattr(CodetBasis, "__init__", counted)
    res = run("verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert len(builds) == 1


def test_verify_rank_check_fails_on_a_broken_rsk(monkeypatch, tmp_path):
    from schurify import verification

    real_rsk = verification.rsk
    first = []

    def stuck_rsk(ctx, word):
        """Every orbit gets the image of the first one."""
        if not first:
            first.append(real_rsk(ctx, word))
        return first[0]

    monkeypatch.setattr(verification, "rsk", stuck_rsk)
    res = run("verify", "--algebra", "trivial", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 1
    failed = [line for line in res.output.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  rank"), res.output
    # the witness is an orbit as `mul --left` takes it
    assert " at o = [{" in failed[0], failed


def test_verify_names_the_orbit_where_straightening_fails(monkeypatch, tmp_path):
    """With the recursive backend's results doubled, `verify` fails its
    straightening check alone, naming an orbit as the JSON that `straighten
    --orbit` takes; `straighten` on that orbit shows the two backends
    disagree."""
    from schurify.straighten import Straightener

    real = Straightener.straighten_element

    def doubled(self, x):
        return {k: 2 * c for k, c in real(self, x).items()}

    monkeypatch.setattr(Straightener, "straighten_element", doubled)
    common = ["--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]
    failed = verify_fails_only("straightening", *common)
    assert "AssertionError: solve and recursion differ at [{" in failed, failed
    orbit = failed.split(" at ", 1)[1]
    res = run("straighten", *common, "--orbit", orbit, "--backend", "both")
    assert res.exit_code == 1, res.output
    assert json.loads(res.output)["error"] == "straightening backends disagree"


def test_verify_names_the_label_where_the_characters_differ(monkeypatch, tmp_path):
    """With the formula character of one label doubled, `verify` fails its
    characters check alone, naming that label as `char --label` takes it."""
    from schurify import verification

    real = verification.char_standard_formula
    target = ((1,), (1,))

    def perturbed(T, lam, cache):
        ch = real(T, lam, cache)
        return {w: c + c for w, c in ch.items()} if lam == target else ch

    monkeypatch.setattr(verification, "char_standard_formula", perturbed)
    common = ["--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]
    failed = verify_fails_only("characters", *common)
    assert failed.endswith("characters differ at lam = [[1], [1]]"), failed
    witness = failed.rsplit(" = ", 1)[1]
    assert run("char", *common, "--label", witness, "--method", "both").exit_code == 0


def test_verify_names_the_entry_where_the_decomposition_routes_differ(monkeypatch, tmp_path):
    """With one entry of the formula's decomposition matrix raised by 1,
    `verify` fails its decomposition check alone, naming the row and column
    labels of that entry."""
    from schurify import verification
    from schurify.rings import GradedSuperScalar

    real = verification.decomp_formula_row
    lam, mu = ((1,), (1,)), ((2,), ())

    def perturbed(inp, row_label, *args):
        row = real(inp, row_label, *args)
        if row_label == lam:
            row[mu] = row[mu] + GradedSuperScalar.one()
        return row

    monkeypatch.setattr(verification, "decomp_formula_row", perturbed)
    failed = verify_fails_only("decomposition", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
                                "--cache-dir", str(tmp_path))
    assert failed.endswith("formula != oracle at lam, mu = [[1], [1]], [[2], []]"), failed


def test_verify_fails_the_base_heredity_row_on_a_broken_presentation(monkeypatch, tmp_path):
    """On zigzag:2 with its arrows between 0 and 1 made even, the base
    heredity check fails, naming the product that leaves the even
    subalgebra; at n = d = 1 every other check passes."""
    from schurify import cli

    broken = broken_presentation("conforming")
    monkeypatch.setattr(cli, "make_algebra", lambda _spec: broken)
    failed = verify_fails_only("base heredity", "--algebra", "zigzag:2", "-n", "1", "-d", "1",
                                "--cache-dir", str(tmp_path))
    assert BROKEN["conforming"][2] in failed, failed


def test_verify_fails_the_decomposition_row_where_the_base_axioms_fail(monkeypatch, tmp_path):
    """On zigzag:1 with its order reversed, axiom (b) fails: `verify` still
    prints all nine rows, and the decomposition row fails, naming the
    check's first failure."""
    from schurify import cli
    from schurify.base_heredity import verify_heredity

    broken = broken_presentation("axiom (b)")
    monkeypatch.setattr(cli, "make_algebra", lambda _spec: broken)
    res = run("verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    assert [line.split()[1] for line in lines][-2:] == ["characters", "decomposition"]
    assert len(lines) == 9, res.output
    first = verify_heredity(*broken[:2]).failures[0]
    assert lines[-1].startswith("FAIL  decomposition  ") and first in lines[-1], res.output


@pytest.mark.parametrize("command", ["dim", "verify"])
def test_a_base_whose_axiom_a_fails_is_a_bad_algebra(command, monkeypatch, tmp_path):
    """On zigzag:1 with its cycle scaled by 2, a heredity pair is no basis
    label, so the Schur algebra cannot be built: a usage error naming the
    pair, exit 2, no traceback."""
    from schurify import cli

    broken = broken_presentation("axiom (a)")
    monkeypatch.setattr(cli, "make_algebra", lambda _spec: broken)
    res = _usage_error(command, "--algebra", "zigzag:1", "-n", "2", "-d", "2",
                       "--cache-dir", str(tmp_path))
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and "bad --algebra 'zigzag:1'" in errors[0], res.output
    assert "is not a single basis label" in errors[0], res.output
    assert "Traceback" not in res.output, res.output


def test_char_and_formula_decomp_enumerate_no_orbits(monkeypatch, tmp_path):
    from schurify import schur

    def refuse(*_args):
        raise AssertionError("orbits enumerated")

    monkeypatch.setattr(schur, "_multisets", refuse)
    common = ["--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]
    res = run("char", *common, "--label", "[[1],[1]]", "--method", "both")
    assert res.exit_code == 0, res.output
    res = run("decomp", *common, "--method", "formula")
    assert res.exit_code == 0, res.output


def test_standard_tableaux_are_listed_once_per_side_and_shape(monkeypatch, tmp_path):
    """`decomp --method both` and `verify` read the standard tableaux of a
    side and shape from one table on the algebra's context: the basis, the
    heredity check, the Gram matrices and the tableau characters share one
    call of `enumerate_tableaux` per side and shape."""
    import sys

    from schurify import tableaux

    enumerate_tableaux = tableaux.enumerate_tableaux
    calls: list = []

    def counted(bold, alphabet):
        calls.append((alphabet.side.name, bold))
        return enumerate_tableaux(bold, alphabet)

    # wherever a module of the package holds the enumerator by name
    for name, module in list(sys.modules.items()):
        if name.startswith("schurify") and hasattr(module, "enumerate_tableaux"):
            monkeypatch.setattr(module, "enumerate_tableaux", counted)
    common = ["--algebra", "zigzag:1", "-n", "3", "-d", "3", "--cache-dir", str(tmp_path)]
    for args in (["decomp", *common, "--method", "both"], ["verify", *common, "--seed", "1"]):
        calls.clear()
        res = run(*args)
        assert res.exit_code == 0, res.output
        assert {side for side, _bold in calls} == {"X", "Y"}, args
        assert len(calls) == len(set(calls)), (args, sorted(calls))


def test_dim_enumerates_no_orbits(monkeypatch, tmp_path):
    from schurify import schur

    def refuse(*_args):
        raise AssertionError("orbits enumerated")

    monkeypatch.setattr(schur, "_multisets", refuse)
    res = run("dim", "--algebra", "zigzag:1", "-n", "4", "-d", "4", "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {"rank": "1734436"}


def test_verify_lists_no_orbits_and_no_codeterminant_keys(monkeypatch, tmp_path):
    """`verify` draws its samples by unranking and checks RSK images against
    the standard tableaux of their shape: it never evaluates the orbit list
    or the list of codeterminant keys, and still passes every check."""
    from schurify.codeterminants import CodetBasis
    from schurify.schur import SchurAlgebra

    def refuse(name):
        def get(_self):
            raise AssertionError(f"{name} listed")
        return property(get)

    monkeypatch.setattr(SchurAlgebra, "orbits", refuse("orbits"))
    monkeypatch.setattr(CodetBasis, "keys", refuse("codeterminant keys"))
    res = run("verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--seed", "5",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output and res.output.count("PASS") == 9, res.output


def test_mul_enumerates_no_orbits(monkeypatch, tmp_path):
    from schurify import schur

    def refuse(*_args):
        raise AssertionError("orbits enumerated")

    monkeypatch.setattr(schur, "_multisets", refuse)
    common = ["mul", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--left", '[{"b": "e1", "r": 1, "s": 1}, {"b": "a0_1", "r": 1, "s": 1}]',
              "--right", '[{"b": "a1_0", "r": 1, "s": 1}, {"b": "e1", "r": 1, "s": 2}]']
    res = run(*common)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == [
        {"coeff": "-1", "orbit": [{"b": "a1_0", "r": 1, "s": 1}, {"b": "a0_1", "r": 1, "s": 2}]},
        {"coeff": "1", "orbit": [{"b": "c0", "r": 1, "s": 1}, {"b": "e1", "r": 1, "s": 2}]},
    ]
    res = run(*common, "--out", "csv")
    assert res.exit_code == 0, res.output
    assert res.output == (
        '"[{""b"": ""a1_0"", ""r"": 1, ""s"": 1}, {""b"": ""a0_1"", ""r"": 1, ""s"": 2}]",-1\n'
        '"[{""b"": ""c0"", ""r"": 1, ""s"": 1}, {""b"": ""e1"", ""r"": 1, ""s"": 2}]",1\n'
    )


def _usage_error(*args):
    res = run(*args)
    assert res.exit_code == 2, (args, res.exit_code, res.output)
    assert isinstance(res.exception, SystemExit), (args, res.exception)
    return res


def test_bad_algebra_exits_2():
    for spec in ("foo", "zigzag:0", "zigzag:x", "zigzag-bar:0", "semisimple:0"):
        _usage_error("dim", "--algebra", spec, "-n", "1", "-d", "1")


def test_an_algebra_past_its_bound_exits_2_before_any_work(monkeypatch):
    """A parameter past `MAX_PARAMETER`, `zigzag-bar:L` included, is one
    `error:` line naming the bound, before the base algebra is built: at
    zigzag:99999999999 the build itself ran out of memory."""
    from schurify import base_algebra

    def unbuilt(*args):
        raise AssertionError("the base algebra was built")

    for name in ("make_extended_zigzag", "make_semisimple"):
        monkeypatch.setattr(base_algebra, name, unbuilt)
    for spec, bound in [("zigzag:301", 300), ("zigzag-bar:301", 300), ("semisimple:801", 800),
                        ("zigzag:99999999999", 300)]:
        res = _usage_error("dim", "--algebra", spec, "-n", "1", "-d", "1")
        errors = [line for line in res.output.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(
            f"takes a parameter of at most {bound}, got {spec.split(':')[1]}"), res.output


@pytest.mark.parametrize("spec", ["zigzag: 3", "zigzag:1_0", "semisimple:+2", "zigzag:\u0663",
                                  "zigzag-bar:1_0", "zigzag-bar: 1"])
def test_an_algebra_parameter_is_ascii_digits_only(spec, monkeypatch):
    """A parameter that `int` would read but that is not ASCII digits alone
    (a space, an underscore, a sign, an Arabic-Indic three) is an unknown
    spec: one `error:` line, before the base algebra is built."""
    from schurify import base_algebra

    def unbuilt(*args):
        raise AssertionError("the base algebra was built")

    for name in ("make_extended_zigzag", "make_semisimple"):
        monkeypatch.setattr(base_algebra, name, unbuilt)
    res = _usage_error("dim", "--algebra", spec, "-n", "1", "-d", "1")
    errors = [line for line in res.output.splitlines() if "error:" in line]
    inner = spec.replace("zigzag-bar:", "zigzag:")  # the spec the bar is built from
    assert len(errors) == 1 and errors[0].endswith(f"unknown algebra spec {inner!r}"), res.output


def test_a_letter_count_past_its_bound_exits_2_before_any_work(monkeypatch):
    """`dim` on zigzag:1 at n = 1000 would list 5 000 000 letters and ran
    out of memory: it is one `error:` line naming the bound, before a
    letter is listed."""
    from schurify import schur, triples

    def unlisted(self):
        raise AssertionError("a letter was listed")

    monkeypatch.setattr(triples.TriContext, "letter_key", property(unlisted))
    res = _usage_error("dim", "--algebra", "zigzag:1", "-n", "1000", "-d", "1")
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(
        f"= 5000000 letters is past the bound of {schur.MAX_LETTERS}"), res.output


def test_a_degree_past_its_bound_exits_2_before_any_work(monkeypatch):
    """`dim` on zigzag:1 at n = 3, d = 1 000 000 would make 46 000 046
    counts and ran out of memory: it is one `error:` line naming the bound,
    before a count is made."""
    from schurify import schur

    def uncounted(self):
        raise AssertionError("a count was made")

    monkeypatch.setattr(schur.SchurAlgebra, "_counts", property(uncounted))
    res = _usage_error("dim", "--algebra", "zigzag:1", "-n", "3", "-d", "1000000")
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(
        f"= 46 * 1000001 = 46000046 counts is past the bound of {schur.MAX_COUNTS}"), res.output


@pytest.mark.parametrize("cmd", ["build", "straighten", "decomp", "blocks", "verify", "dim"])
def test_a_label_set_past_its_bound_exits_2_before_any_work(cmd, monkeypatch, tmp_path):
    """With the bound on label slots lowered to 9, zigzag:1 at n = d = 2,
    5 labels of 2 colors, is past it: each command that lists the labels
    is one `error:` line naming the bound, before a tableau is listed, and
    `dim`, which lists none, runs."""
    from schurify import schur, triples

    def unlisted(*args):
        raise AssertionError("a tableau was listed")

    monkeypatch.setattr(schur, "MAX_LABEL_SLOTS", 9)
    monkeypatch.setattr(triples, "enumerate_tableaux", unlisted)
    args = [cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path),
            *ONE_PROCESS_CASES.get(cmd, [])]
    if cmd == "dim":
        res = run(*args)
        assert (res.exit_code, json.loads(res.output)) == (0, {"rank": "202"}), res.output
        return
    res = _usage_error(*args)
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(
        "more than 4 labels x 2 colors at n=2, d=2 is past the bound of 9 label slots"), res.output


@pytest.mark.parametrize("option, value", [("-n", "0_2"), ("-n", "+2"), ("-d", "\u0662"),
                                           ("--seed", "1_0"), ("--field", "Fp:0_3"),
                                           ("--field", "Fp: 3"), ("--field", "Fp:\u0663")])
def test_a_command_line_integer_is_ascii_digits_only(option, value):
    """`int` reads each of these values, an underscore, a sign, a space or
    an Arabic-Indic digit in it, as an integer: each is one `error:` line."""
    res = _usage_error("dim", "--algebra", "trivial", "-n", "1", "-d", "1", option, value)
    assert len([line for line in res.output.splitlines() if "error:" in line]) == 1, res.output


@pytest.mark.parametrize("args", [
    ["char", "--label", '[["1"], [1]]'],
    ["straighten", "--orbit", '[{"b": "e0", "r": "0_1", "s": 1}, {"b": "e0", "r": 2, "s": 2}]'],
    ["mul", "--left", '[{"b": "e0", "r": 1, "s": "2"}, {"b": "e0", "r": 2, "s": 1}]',
     "--right", ORBIT],
])
def test_an_integer_in_json_is_a_json_integer(args, tmp_path):
    """A label's parts and an orbit's r and s are JSON integers: a string
    that `int` would read is one `error:` line."""
    res = _usage_error(*args, "--algebra", "zigzag:1", "-n", "2", "-d", "2",
                       "--cache-dir", str(tmp_path))
    assert len([line for line in res.output.splitlines() if "error:" in line]) == 1, res.output


@pytest.mark.parametrize("option", ["char --label", "straighten --orbit", "mul --left"])
def test_deeply_nested_json_is_a_usage_error(option, tmp_path):
    """JSON nested 50 000 deep, which the parser cannot read without
    passing the recursion limit, is one `error:` line, not a traceback."""
    cmd, flag = option.split()
    nested = "[" * 50_000 + "]" * 50_000
    right = ["--right", ORBIT] if cmd == "mul" else []
    res = _usage_error(cmd, flag, nested, *right, "--algebra", "zigzag:1", "-n", "2", "-d", "2",
                       "--cache-dir", str(tmp_path))
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and "RecursionError" not in res.output, res.output[-300:]


def test_bad_sizes_exit_2():
    _usage_error("dim", "--algebra", "trivial", "-n", "0", "-d", "1")
    _usage_error("dim", "--algebra", "trivial", "-n", "1", "-d", "-1")


def test_bad_field_exits_2():
    for field in ("Fp:4", "Fp:x", "R"):
        _usage_error("decomp", "--algebra", "trivial", "-n", "1", "-d", "1", "--field", field)
    # verify reads the field only inside a check; a bad one is still a usage error
    _usage_error("verify", "--algebra", "trivial", "-n", "1", "-d", "1", "--field", "Fp:4")


def test_a_prime_field_needs_a_prime_below_2_to_the_31():
    """A prime p >= 2^31, here 2^61 - 1, is refused at once, not tested for
    primality by trial division; the largest prime below the bound works."""
    res = _usage_error("dim", "--algebra", "trivial", "-n", "1", "-d", "1",
                       "--field", "Fp:2305843009213693951")
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(
        "(expected Q | Fp:p, p a prime below 2^31)"), res.output
    res = run("dim", "--algebra", "trivial", "-n", "1", "-d", "1", "--field", "Fp:2147483647")
    assert (res.exit_code, json.loads(res.output)) == (0, {"rank": "1"}), res.output


def test_z_is_an_unknown_field_for_every_command(monkeypatch):
    """`--field` names a field: `Z`, like `R`, is refused by every command
    with one `error:` line, before the algebra is built."""
    from schurify import cli

    def unbuilt(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "build_schur", unbuilt)
    for cmd, own in [*ONE_PROCESS_CASES.items(), ("verify", [])]:
        for field in ("Z", "R"):
            res = _usage_error(cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *own,
                               "--field", field)
            errors = [line for line in res.output.splitlines() if "error:" in line]
            assert errors == [f"schurify {cmd}: error: unknown field {field!r} "
                              "(expected Q | Fp:p, p a prime below 2^31)"], (cmd, res.output)


def test_config_is_an_unknown_option():
    """Every setting is a flag; there is no settings file."""
    res = _usage_error("--config", "f", "dim")
    assert len([line for line in res.output.splitlines() if "error:" in line]) == 1, res.output


def test_bad_label_exits_2(tmp_path):
    common = ["char", "--algebra", "zigzag:1", "-n", "2", "--cache-dir", str(tmp_path)]
    _usage_error(*common, "-d", "1", "--label", "[[1]")           # malformed JSON
    _usage_error(*common, "-d", "1", "--label", '[["a"]]')
    _usage_error(*common, "-d", "1", "--label", "[[1.5]]")
    _usage_error(*common, "-d", "1", "--label", "[[true]]")       # a boolean, not 1
    _usage_error(*common, "-d", "2", "--label", "[[true, true]]")
    _usage_error(*common, "-d", "1", "--label", "[[5]]")          # size 5, not d
    _usage_error(*common, "-d", "3", "--label", "[[1, 1, 1]]")    # more than n rows
    _usage_error(*common, "-d", "3", "--label", "[[1, 2]]")       # not a partition
    _usage_error(*common, "-d", "1", "--label", "[[1], [], []]")  # more colors than the base


def test_bad_orbit_exits_2():
    common = ["--algebra", "zigzag:1", "-n", "2", "-d", "1"]
    good = '[{"b": "e0", "r": 1, "s": 1}]'
    for bad in ('[{"b": "e0", "r": 1', '[{"b": "zz", "r": 1, "s": 1}]',
                '[{"b": "e0", "r": 9, "s": 1}]', '[{"b": "e0"}]',
                '[{"b": "e0", "r": 1.5, "s": 1}]', '[{"b": "e0", "r": true, "s": 1}]',
                '[{"b": "e0", "r": 1, "s": 1}, {"b": "e0", "r": 1, "s": 1}]'):
        _usage_error("mul", *common, "--left", bad, "--right", good)
        _usage_error("mul", *common, "--left", good, "--right", bad)
        _usage_error("straighten", *common, "--orbit", bad)
    # d = 2 letters, the one odd letter twice: no basis element to straighten
    odd_twice = '[{"b": "a1_0", "r": 1, "s": 1}, {"b": "a1_0", "r": 1, "s": 1}]'
    res = _usage_error("straighten", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
                       "--orbit", odd_twice)
    errors = [line for line in res.output.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"orbit {odd_twice} repeats an odd letter")


def test_csv_output_is_a_usage_error_where_a_command_has_no_rows(tmp_path):
    """`build`, `blocks` and `verify` have no CSV form: `--out csv` is a
    usage error for each, with the same message."""
    for cmd in ("build", "blocks", "verify"):
        res = _usage_error(cmd, "--algebra", "trivial", "-n", "1", "-d", "1", "--out", "csv",
                           "--output", str(tmp_path / cmd))
        assert "error: csv output not available for this command" in res.output, (cmd, res.output)
        assert not (tmp_path / cmd).exists()


def test_csv_output_is_refused_before_the_algebra_is_built(monkeypatch):
    """A command with no CSV form refuses `--out csv` before it builds the
    algebra."""
    from schurify import cli

    def unbuilt(args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "_make_T", unbuilt)
    for cmd in ("build", "blocks", "verify"):
        res = _usage_error(cmd, "--algebra", "trivial", "-n", "1", "-d", "1", "--out", "csv")
        errors = [line for line in res.output.splitlines() if "error:" in line]
        assert errors == [f"schurify {cmd}: error: csv output not available for this command"], \
            (cmd, res.output)


def test_output_into_a_missing_directory_exits_2(tmp_path):
    out = str(tmp_path / "missing" / "r.json")
    res = _usage_error("dim", "--algebra", "trivial", "-n", "1", "-d", "1", "--output", out)
    assert repr(out) in res.output
    assert not (tmp_path / "missing").exists()


def test_an_unwritable_output_is_refused_before_any_work(monkeypatch, tmp_path):
    """A directory, and a path in a missing directory, are refused as
    `--output` before the algebra is built."""
    from schurify import cli

    def unbuilt(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "build_schur", unbuilt)
    for cmd, out in [("verify", tmp_path), ("decomp", tmp_path / "missing" / "r.csv")]:
        res = _usage_error(cmd, "--algebra", "zigzag:1", "-n", "3", "-d", "3", "--output", str(out))
        errors = [line for line in res.output.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(
            f"schurify {cmd}: error: cannot write --output {str(out)!r}: "), res.output


def test_a_usage_error_leaves_the_output_path_as_it_was(tmp_path):
    """The check of `--output` neither truncates a file nor leaves one it
    made, when the command then stops at a usage error."""
    kept, new = tmp_path / "kept", tmp_path / "new"
    kept.write_text("earlier output\n")
    for out in (kept, new):
        _usage_error("char", "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--label", "[[5]]",
                     "--output", str(out))
    assert kept.read_text() == "earlier output\n"
    assert not new.exists()


def test_verify_checks_basicness_once(monkeypatch, tmp_path):
    from schurify import base_algebra

    built = []
    real = base_algebra.base_decomp_numbers

    def counted(alg, data):
        built.append(data)
        return real(alg, data)

    monkeypatch.setattr(base_algebra, "base_decomp_numbers", counted)
    res = run("verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert len(built) == 1


CACHE_CASES = {
    "char": ["--label", "[[1], [1]]", "--method", "formula"],
    "decomp": ["--method", "formula"],
    "verify": [],
}


def test_lr_cache_writes_only_where_asked(monkeypatch, tmp_path):
    """With no --cache-dir, or an empty one, a command keeps its LR cache in
    memory: it writes nothing to the working directory, the home directory,
    or the directory that SCHURIFY_CACHE_DIR names, which the package does
    not read."""
    home, named = tmp_path / "home", tmp_path / "named"
    home.mkdir()
    named.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("SCHURIFY_CACHE_DIR", str(named))
    monkeypatch.chdir(tmp_path)
    for cmd, args in CACHE_CASES.items():
        for unnamed in ([], ["--cache-dir", ""]):
            res = run(cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *args, *unnamed)
            assert res.exit_code == 0, (cmd, unnamed, res.output)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["home", "named"]
    assert list(home.iterdir()) == list(named.iterdir()) == []


@pytest.mark.parametrize("cmd", CACHE_CASES)
def test_unusable_lr_cache_is_a_usage_error(cmd, monkeypatch, tmp_path):
    """A cache directory that is a file, and a cache file that is a
    directory, stop the command with exit 2 before anything is computed,
    naming the path."""
    from schurify import cli

    made = []
    monkeypatch.setattr(cli, "_make_T", made.append)
    common = [cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *CACHE_CASES[cmd]]
    afile = tmp_path / "afile"
    afile.write_text("")
    res = run(*common, "--cache-dir", str(afile))
    assert res.exit_code == 2 and str(afile) in res.output, res.output
    (tmp_path / "dir" / "lr_cache.jsonl").mkdir(parents=True)
    res = run(*common, "--cache-dir", str(tmp_path / "dir"))
    assert res.exit_code == 2 and str(tmp_path / "dir" / "lr_cache.jsonl") in res.output, res.output
    assert not made


ONE_PROCESS_CASES = {
    "dim": [],
    "build": [],
    "mul": ["--left", ORBIT, "--right", ORBIT],
    "char": ["--label", "[[1], [1]]", "--method", "both"],
    "decomp": ["--method", "both"],
    "blocks": [],
    "straighten": ["--orbit", ORBIT, "--backend", "both"],
}


CSV_CASES = {
    "dim": [],
    "mul": ["--left", '[{"b": "e1", "r": 1, "s": 1}, {"b": "a0_1", "r": 1, "s": 1}]',
            "--right", '[{"b": "a1_0", "r": 1, "s": 1}, {"b": "e1", "r": 1, "s": 2}]'],
    "straighten": ["--orbit", '[{"b": "e1", "r": 1, "s": 1}, {"b": "a0_1", "r": 1, "s": 1}]'],
    "char": ["--label", "[[1], [1]]"],
    "decomp": [],
}


@pytest.mark.parametrize("cmd", CSV_CASES)
def test_a_csv_row_is_a_json_record(cmd):
    """Under `--out csv` each record of the JSON output, the output or each
    item of its list, is one row with a cell per value."""
    common = [cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *CSV_CASES[cmd]]
    records = json.loads(run(*common).output)
    records = records if isinstance(records, list) else [records]
    rows = list(csv.reader(io.StringIO(run(*common, "--out", "csv").output)))
    assert rows and [len(row) for row in rows] == [len(record) for record in records]


def test_a_csv_cell_is_a_string_as_it_is_and_else_json(capsys):
    """`_emit` writes a record's values in order, a string as it is and
    anything else as JSON, quoted as CSV quotes it."""
    from schurify import cli

    args = argparse.Namespace(out="csv", output=None)
    shared = [[1], []]
    cli._emit(args, [{"b": shared, "a": "s,t", "c": 2}, {"b": shared, "a": "u", "c": {"x": "y"}}])
    assert capsys.readouterr().out == \
        '"[[1], []]","s,t",2\n"[[1], []]",u,"{""x"": ""y""}"\n'
    cli._emit(args, {"rank": "15"})
    assert capsys.readouterr().out == "15\n"


@pytest.mark.parametrize("cmd", ONE_PROCESS_CASES)
def test_no_command_but_verify_forks(cmd, monkeypatch, tmp_path):
    """Only `verify` starts a second process, for the walk of its Schur
    heredity check: every other command runs, and exits 0, with `os.fork`
    raising."""
    def refused():
        raise AssertionError(f"{cmd} forked")

    monkeypatch.setattr(os, "fork", refused)
    res = run(cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *ONE_PROCESS_CASES[cmd],
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("cmd", ONE_PROCESS_CASES)
def test_no_command_but_verify_moves_between_cpus(cmd, monkeypatch, tmp_path):
    """Only `verify` sets its CPU affinity, to place the two walkers of its
    Schur heredity check: every other command runs, and exits 0, with
    `os.sched_setaffinity` raising."""
    def refused(pid, mask):
        raise AssertionError(f"{cmd} set its CPU affinity")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    res = run(cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *ONE_PROCESS_CASES[cmd],
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_verify_walks_in_one_process_where_it_cannot_fork(fork, monkeypatch, tmp_path):
    """Where `os.fork` does not exist, or raises OSError, `verify` walks in
    its one process and prints the same rows."""
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        def failing():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
    res = run("verify", "--algebra", "zigzag:2", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (DATA / "verify-zigzag2-n2-d2.txt").read_bytes()


BAR_CASES = {
    "straighten": ["--orbit", '[{"b": "e0", "r": 1, "s": 1}, {"b": "e0", "r": 2, "s": 2}]'],
    "char": ["--label", "[[1], [1]]"],
    "decomp": ["--method", "formula"],
    "blocks": [],
}


@pytest.mark.parametrize("cmd", BAR_CASES)
def test_cellular_only_truncation_is_a_usage_error(cmd, tmp_path):
    """The zigzag-bar truncation is cellular but not quasi-hereditary; the
    commands that need quasi-heredity refuse it, naming the spec."""
    common = ["--algebra", "zigzag-bar:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]
    variants = [BAR_CASES[cmd]]
    if cmd == "decomp":
        variants += [["--method", "oracle"], ["--method", "both"]]
    for args in variants:
        res = _usage_error(cmd, *common, *args)
        assert "--algebra zigzag-bar:1 is cellular but not quasi-hereditary" in res.output, args
    # a spec that names no algebra is refused as such
    res = _usage_error(cmd, *common, "--algebra", "zigzag-bar:0", *BAR_CASES[cmd])
    assert "bad --algebra 'zigzag-bar:0'" in res.output, res.output
    if cmd == "char":
        # below n = d the truncation is refused too, the ambient algebra is not
        small = ["-n", "1", "-d", "2", "--label", "[[2]]", "--cache-dir", str(tmp_path)]
        _usage_error("char", "--algebra", "zigzag-bar:1", *small)
        res = run("char", "--algebra", "zigzag:1", *small)
        assert res.exit_code == 0, res.output


# ---------------------------------------------------------------------------
# a command in a process of its own, which ends without interpreter teardown
# ---------------------------------------------------------------------------

# the streams buffered, as they are by default, so that output a process
# does not flush is lost
PROCESS_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
               "PYTHONPATH": os.path.dirname(os.path.dirname(schurify.__file__))}
PROCESS_CASES = {
    "dim": ["dim", "--algebra", "zigzag:1", "-n", "2", "-d", "2"],
    "char": ["char", "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--label", "[[1], [1]]",
             "--method", "both"],
    "decomp": ["decomp", "--algebra", "zigzag:2", "-n", "2", "-d", "2", "--method", "both",
               "--out", "csv"],
    "verify": ["verify", "--algebra", "zigzag:2", "-n", "2", "-d", "2"],
}
# the CLI run as `__main__` in a process where the formula character of the
# label [[1], [1]] is doubled, so that `verify` fails its characters check
PLANTED = """
import runpy
from schurify import verification
real = verification.char_standard_formula

def doubled(T, lam, cache):
    ch = real(T, lam, cache)
    return {w: c + c for w, c in ch.items()} if lam == ((1,), (1,)) else ch

verification.char_standard_formula = doubled
runpy.run_module("schurify.cli", run_name="__main__", alter_sys=True)
"""


def _process(*argv: str, env=PROCESS_ENV, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python -m schurify.cli argv` in a fresh process, or, given `-c`
    first, that code with the rest as its arguments."""
    argv = argv if argv[0] == "-c" else ("-m", "schurify.cli", *argv)
    return subprocess.run([sys.executable, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("cmd", PROCESS_CASES)
def test_a_command_process_writes_what_main_writes(cmd, tmp_path):
    """Run as `python -m schurify.cli`, a command exits 0 with nothing on
    stderr, and its stdout, and its `--output` file, hold byte for byte what
    `main` writes in this process."""
    args = [*PROCESS_CASES[cmd], "--cache-dir", str(tmp_path)]
    want = run(*args).stdout_bytes
    proc = _process(*args)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == want
    if cmd == "verify":
        assert want == (DATA / "verify-zigzag2-n2-d2.txt").read_bytes()
    here, there = tmp_path / "here", tmp_path / "there"
    assert run(*args, "--output", str(here)).exit_code == 0
    proc = _process(*args, "--output", str(there))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert there.read_bytes() == here.read_bytes() == want


def test_a_command_process_exits_1_on_a_failing_check(monkeypatch, tmp_path):
    """A failing check makes the process exit 1 after it prints the rows
    that `main` prints in this process under the same defect."""
    from schurify import verification

    args = ["verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)]
    proc = _process("-c", PLANTED, *args)
    real = verification.char_standard_formula

    def doubled(T, lam, cache):
        ch = real(T, lam, cache)
        return {w: c + c for w, c in ch.items()} if lam == ((1,), (1,)) else ch

    monkeypatch.setattr(verification, "char_standard_formula", doubled)
    failed = verify_fails_only("characters", *args[1:])
    assert failed.endswith("characters differ at lam = [[1], [1]]"), failed
    assert proc.returncode == 1, proc.stderr
    assert failed.encode() in proc.stdout.splitlines()
    assert proc.stdout == run(*args).stdout_bytes


@pytest.mark.parametrize("args", [["dim", "--algebra", "bogus:9"], ["dim", "-n", "x"], ["--help"]])
def test_a_command_process_exits_as_the_parser_does(args):
    """A usage error exits 2 with the one `error:` line that `main` prints
    in this process, and `--help` exits 0 after its usage text."""
    res = run(*args)
    proc = _process(*args)
    assert proc.returncode == res.exit_code == (0 if args == ["--help"] else 2)
    if res.exit_code:
        assert [line for line in proc.stderr.decode().splitlines() if "error:" in line] == \
            [line for line in res.output.splitlines() if "error:" in line]
    else:
        assert proc.stdout.startswith(b"usage: schurify") and proc.stderr == b""


@pytest.mark.parametrize("closed", [1, 2])
def test_a_command_process_starts_without_a_stream(closed, tmp_path):
    """A command started with stdout or stderr closed, whose stream is then
    None, writes its `--output` file and exits 0."""
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "schurify.cli", *PROCESS_CASES["dim"],
                           "--output", str(out)], env=PROCESS_ENV, timeout=120,
                          preexec_fn=lambda: os.close(closed))
    assert proc.returncode == 0
    assert json.loads(out.read_text()) == {"rank": "202"}


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("size", ["small", "large"])
def test_a_command_process_whose_reader_has_gone(size, buffered, tmp_path):
    """A command whose stdout is a pipe with no reader left fails as the
    interpreter reports it.  Output larger than the pipe's 64 KB (`decomp`
    on zigzag:2 n=d=3, 94 KB of JSON), and any output unbuffered
    (`PYTHONUNBUFFERED`), raise BrokenPipeError at the write in `_emit`: a
    traceback, exit 1.  A small output that the stream buffers fails only
    at its flush after `main` returns, which the interpreter's own exit
    reports as an exception it ignored, exit 120."""
    args = PROCESS_CASES["dim"] if size == "small" else \
        ["decomp", "--algebra", "zigzag:2", "-n", "3", "-d", "3", "--method", "formula"]
    env = PROCESS_ENV if buffered else {**PROCESS_ENV, "PYTHONUNBUFFERED": "1"}
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = _process(*args, "--cache-dir", str(tmp_path), env=env, stdout=writer)
    finally:
        os.close(writer)
    stderr = proc.stderr.decode().splitlines()
    assert stderr[-1] == "BrokenPipeError: [Errno 32] Broken pipe", stderr
    if size == "small" and buffered:
        assert proc.returncode == 120
        assert len(stderr) == 2
        assert stderr[0].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    else:
        assert proc.returncode == 1
        assert stderr[0] == "Traceback (most recent call last):"
        assert stderr[-4].endswith(", in _emit") and stderr[-3] == "    data = data[out.write(data):]"


def test_an_unbuffered_command_whose_reader_goes_mid_write_fails():
    """Unbuffered (`PYTHONUNBUFFERED`), `decomp` on zigzag:2 n=d=3 writes its
    94 KB of JSON in one call that fills the pipe and waits; when the reader
    then closes without reading, the write has taken only a part, and the
    command fails at the rest with BrokenPipeError, exit 1, instead of
    dropping it and exiting 0."""
    import fcntl
    import termios
    import time

    args = ["decomp", "--algebra", "zigzag:2", "-n", "3", "-d", "3", "--method", "formula"]
    reader, writer = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-m", "schurify.cli", *args],
                                env={**PROCESS_ENV, "PYTHONUNBUFFERED": "1"},
                                stdout=writer, stderr=subprocess.PIPE)
    finally:
        os.close(writer)
    try:
        full, deadline = fcntl.fcntl(reader, fcntl.F_GETPIPE_SZ), time.monotonic() + 120
        held = bytearray(4)
        while fcntl.ioctl(reader, termios.FIONREAD, held) or int.from_bytes(held, sys.byteorder) < full:
            assert proc.poll() is None and time.monotonic() < deadline, "the pipe never filled"
            time.sleep(0.05)
    finally:
        os.close(reader)
    _out, err = proc.communicate(timeout=120)
    stderr = err.decode().splitlines()
    assert proc.returncode == 1, stderr
    assert stderr[-1] == "BrokenPipeError: [Errno 32] Broken pipe", stderr
    assert stderr[-4].endswith(", in _emit") and stderr[-3] == "    data = data[out.write(data):]"


# the argv fuzz: real commands, options and values, good and bad, mixed with
# junk; every algebra tiny (n, d <= 2, the default zigzag:1 included).  The
# fuzz lowers the parameter bounds to zigzag:1 and semisimple:2, so that a
# value at a bound stays tiny; a value past a real bound is past these too
FUZZ_BOUNDS = {"zigzag": 1, "semisimple": 2}
ORBITS = ['[{"b": "1", "r": 1, "s": 1}]', '[{"b": "e0", "r": 1, "s": 2}, {"b": "e0", "r": 2, "s": 1}]',
          '[{"b": "e0", "r": 1, "s": 1}]', '[{"b": "a0_1", "r": 1, "s": 2}]',
          '[{"b": "a0_1", "r": 1, "s": 1}, {"b": "a0_1", "r": 1, "s": 1}]', "[]", '[{"b": "e0"}]',
          "[1.5]", "nope", '[{"b": "e0", "r": "0_1", "s": 1}]']
LABELS = ["[[1]]", "[[], [1]]", "[[1], [1]]", "[[2]]", "[[1, 1]]", "[[]]", "[[true]]", "[1]", "{}",
          '[["1"], [1]]']
OPTIONS = {
    "--algebra": ["trivial", "zigzag:1", "zigzag-bar:1", "semisimple:2", "zigzag:0", "bogus",
                  "zigzag:2", "zigzag-bar:2", "semisimple:3", "zigzag:301", "zigzag-bar:301",
                  "semisimple:801", "zigzag:99999999999", "zigzag: 3", "zigzag:1_0",
                  "semisimple:+2", "zigzag:\u0663"],
    "-n": ["1", "2", "0", "-1", "x", "0_2", "+2"],
    "-d": ["0", "1", "2", "-1", "1.5", "300000", "\u0662"],
    "--field": ["Q", "Z", "Fp:2", "Fp:4", "R", "Fp:0_3", "Fp: 3", "Fp:\u0663"],
    "--out": ["json", "csv", "xml"],
    "--output": ["out.txt", "missing/out.txt"],
    "--cache-dir": ["", "cache", "cfg.txt"],
    "--seed": ["0", "7", "x", "1_0"],
}
OWN_OPTIONS = {  # each command's own options, the required ones first
    "mul": {"--left": ORBITS, "--right": ORBITS},
    "straighten": {"--orbit": ORBITS, "--backend": ["recursive", "solve", "both", "none"]},
    "char": {"--label": LABELS, "--method": ["tableaux", "formula", "both", "oracle"]},
    "decomp": {"--method": ["formula", "oracle", "both", "tableaux"]},
}
REQUIRED = {"mul": ["--left", "--right"], "straighten": ["--orbit"], "char": ["--label"]}
COMMAND_NAMES = ["build", "dim", "mul", "straighten", "char", "decomp", "blocks", "verify"]
JUNK = ["", "x", "-", "--", "-x", "--bogus", "--alg", "-h", "7", "[[1]]", "--algebra=trivial",
        "-n1", "--config", "dim"]


@st.composite
def argvs(draw):
    """A command (or junk) with its required options, a few more options,
    and at most two junk tokens or flags without their values, in any
    order."""
    command = draw(st.sampled_from(COMMAND_NAMES * 3 + JUNK))
    options = {**OPTIONS, **OWN_OPTIONS.get(command, {})}

    def given_flag(flag):
        return st.sampled_from(options[flag]).map(lambda v: [flag, v])

    pieces = [draw(given_flag(flag)) for flag in REQUIRED.get(command, [])]
    pieces += draw(st.lists(st.sampled_from(sorted(options)).flatmap(given_flag), max_size=4))
    pieces += draw(st.lists(st.sampled_from([[t] for t in JUNK + sorted(options)]), max_size=2))
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_exits_0_or_2_with_one_error_line(argv):
    """Whatever the arguments, the CLI exits 0, or 2 with one `error:` line
    on stderr; no other exception escapes.  A command that exits 0 with
    `--output` given writes nothing on stdout.  Each run has its own working
    directory, so relative paths land there; it holds the regular file
    `cfg.txt`, which `--cache-dir cfg.txt` cannot use."""
    import os
    import tempfile
    from unittest import mock

    from schurify import base_algebra

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(base_algebra.MAX_PARAMETER, FUZZ_BOUNDS):
        os.chdir(work)
        try:
            open("cfg.txt", "w").close()
            res = run(*argv)
        finally:
            os.chdir(home)
    assert res.exit_code in (0, 2), (argv, res.output)
    if res.exit_code == 0 and "--output" in argv and "-h" not in argv:
        assert res.stdout_bytes == b"", (argv, res.output)  # the output went to the file
    if res.exit_code == 2:
        stderr = res.output[len(res.stdout_bytes.decode()):]
        assert len([line for line in stderr.splitlines() if "error:" in line]) == 1, (argv, stderr)

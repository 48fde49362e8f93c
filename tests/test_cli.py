import errno
import json
import os
import re
from pathlib import Path

import pytest
from helpers import BROKEN, broken_presentation, run_cli as run, verify_fails_only
from hypothesis import given, settings, strategies as st
from test_module_layout import ORBIT

from schurify.rings import GradedSuperScalar

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


def test_config_file_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("algebra=zigzag:1\nn=1\nd=1\nfield=Q\n")
    a = run("--config", str(cfg), "decomp")
    b = run("--config", str(cfg), "decomp")
    assert a.exit_code == 0
    assert a.output == b.output


def test_config_out_checked_like_the_flag(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("algebra=trivial\nn=1\nd=1\nout=xml\n")
    res = run("--config", str(cfg), "dim")
    assert res.exit_code == 2, res.output
    assert "out='xml'" in res.output
    cfg.write_text("algebra=trivial\nn=1\nd=1\nout=csv\n")
    res = run("--config", str(cfg), "dim")
    assert (res.exit_code, res.output) == (0, "1\n")


def test_config_method_checked_like_the_flag(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("algebra=zigzag:1\nn=1\nd=1\nmethod=bogus\n")
    for cmd in ("decomp", "dim"):
        res = run("--config", str(cfg), cmd)
        assert res.exit_code == 2, (cmd, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit)
    # each command checks against its own flag's choices
    cfg.write_text("algebra=zigzag:1\nn=1\nd=1\nmethod=oracle\n")
    assert run("--config", str(cfg), "char", "--label", "[[],[1]]").exit_code == 2
    assert run("--config", str(cfg), "decomp").exit_code == 0
    assert run("--config", str(cfg), "dim").exit_code == 0


CONFIG_KEYS = {"algebra": "trivial", "n": "1", "d": "1", "field": "Fp:2", "out": "json",
               "method": "both", "output": "r.json", "cache_dir": "cache", "seed": "3"}


def test_config_keys_are_the_settings_not_the_methods(tmp_path):
    """A `--config` key names a setting: the methods of the config are
    unknown keys, a usage error with no traceback; each of the nine
    settings is accepted."""
    cfg = tmp_path / "cfg.txt"
    for line in ("ring=Q", "lr_cache=x", "to_json=x"):
        cfg.write_text(f"{line}\n")
        res = _usage_error("--config", str(cfg), "dim", "--algebra", "trivial")
        assert f"unknown config key {line.split('=')[0]!r}" in res.output, res.output
    for key, value in CONFIG_KEYS.items():
        if key in ("output", "cache_dir"):
            value = str(tmp_path / value)
        cfg.write_text(f"algebra=trivial\nn=1\nd=1\n{key}={value}\n")
        res = run("--config", str(cfg), "dim")
        assert res.exit_code == 0, (key, res.output)
    assert json.loads((tmp_path / "r.json").read_text()) == {"rank": "1"}


def test_output_file(tmp_path):
    out = tmp_path / "r.json"
    res = run("dim", "--algebra", "trivial", "-n", "2", "-d", "2",
              "--output", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text()) == {"rank": "10"}


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
        return ch + ch if lam == target else ch

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


def test_bad_sizes_exit_2():
    _usage_error("dim", "--algebra", "trivial", "-n", "0", "-d", "1")
    _usage_error("dim", "--algebra", "trivial", "-n", "1", "-d", "-1")


def test_bad_field_exits_2():
    for field in ("Fp:4", "Fp:x", "R"):
        _usage_error("decomp", "--algebra", "trivial", "-n", "1", "-d", "1", "--field", field)
    # verify reads the field only inside a check; a bad one is still a usage error
    _usage_error("verify", "--algebra", "trivial", "-n", "1", "-d", "1", "--field", "Fp:4")


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


def test_missing_config_file_exits_2(tmp_path):
    path = str(tmp_path / "nope.txt")
    res = _usage_error("--config", path, "dim")
    assert repr(path) in res.output


def test_config_directory_exits_2(tmp_path):
    res = _usage_error("--config", str(tmp_path), "dim")
    assert repr(str(tmp_path)) in res.output


def test_config_file_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"algebra=trivial\nn=\xff\xfe1\n")
    res = _usage_error("--config", str(cfg), "dim")
    assert f"--config {str(cfg)!r} is not UTF-8 text" in res.output


def test_output_into_a_missing_directory_exits_2(tmp_path):
    out = str(tmp_path / "missing" / "r.json")
    res = _usage_error("dim", "--algebra", "trivial", "-n", "1", "-d", "1", "--output", out)
    assert repr(out) in res.output
    assert not (tmp_path / "missing").exists()


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


# the argv fuzz: real commands, options and values, good and bad, mixed with
# junk; every algebra tiny (n, d <= 2, the default zigzag:1 included)
ORBITS = ['[{"b": "1", "r": 1, "s": 1}]', '[{"b": "e0", "r": 1, "s": 2}, {"b": "e0", "r": 2, "s": 1}]',
          '[{"b": "e0", "r": 1, "s": 1}]', '[{"b": "a0_1", "r": 1, "s": 2}]',
          '[{"b": "a0_1", "r": 1, "s": 1}, {"b": "a0_1", "r": 1, "s": 1}]', "[]", '[{"b": "e0"}]',
          "[1.5]", "nope"]
LABELS = ["[[1]]", "[[], [1]]", "[[1], [1]]", "[[2]]", "[[1, 1]]", "[[]]", "[[true]]", "[1]", "{}"]
OPTIONS = {
    "--algebra": ["trivial", "zigzag:1", "zigzag-bar:1", "semisimple:2", "zigzag:0", "bogus"],
    "-n": ["1", "2", "0", "-1", "x"],
    "-d": ["0", "1", "2", "-1", "1.5"],
    "--field": ["Q", "Z", "Fp:2", "Fp:4", "R"],
    "--out": ["json", "csv", "xml"],
    "--output": ["out.txt", "missing/out.txt"],
    "--cache-dir": ["", "cache", "cfg.txt"],
    "--seed": ["0", "7", "x"],
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
CONFIG_LINES = ["algebra=trivial", "n=1", "d=2", "out=xml", "out=csv", "method=oracle", "bogus=1",
                "ring=Q", "seed=x", "# a comment", "garbage", "field=Fp:2"]


@st.composite
def argvs(draw):
    """`--config` or not, a command (or junk) with its required options, a
    few more options, and at most two junk tokens or flags without their
    values, in any order."""
    command = draw(st.sampled_from(COMMAND_NAMES * 3 + JUNK))
    options = {**OPTIONS, **OWN_OPTIONS.get(command, {})}

    def given_flag(flag):
        return st.sampled_from(options[flag]).map(lambda v: [flag, v])

    pieces = [draw(given_flag(flag)) for flag in REQUIRED.get(command, [])]
    pieces += draw(st.lists(st.sampled_from(sorted(options)).flatmap(given_flag), max_size=4))
    pieces += draw(st.lists(st.sampled_from([[t] for t in JUNK + sorted(options)]), max_size=2))
    argv = draw(st.sampled_from([[], ["--config", "cfg.txt"], ["--config", "missing.txt"]]))
    return [*argv, command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=150, deadline=None)
@given(argvs(), st.lists(st.sampled_from(CONFIG_LINES), max_size=3))
def test_any_argv_exits_0_or_2_with_one_error_line(argv, config_lines):
    """Whatever the arguments, the CLI exits 0, or 2 with one `error:` line
    on stderr; no other exception escapes.  Each run has its own working
    directory, so relative paths land there."""
    import os
    import tempfile

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("cfg.txt", "w") as fh:
                fh.write("".join(line + "\n" for line in config_lines))
            res = run(*argv)
        finally:
            os.chdir(home)
    assert res.exit_code in (0, 2), (argv, res.output)
    if res.exit_code == 2:
        stderr = res.output[len(res.stdout_bytes.decode()):]
        assert len([line for line in stderr.splitlines() if "error:" in line]) == 1, (argv, stderr)

import json

import pytest
from click.testing import CliRunner

from schurify.cli import main
from schurify.rings import GradedSuperScalar

scalar_str = repr  # the one scalar printer is GradedSuperScalar.__repr__


def run(*args):
    return CliRunner().invoke(main, list(args))


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


def test_scalar_printer_negative_coefficients():
    s = GradedSuperScalar.one() + GradedSuperScalar.term(-2, 1, 0)
    assert scalar_str(s) == "1-2*q"
    assert scalar_str(GradedSuperScalar.term(-1, 1, 1)) == "-q*pi"
    assert scalar_str(GradedSuperScalar.term(-3, -1, 0)) == "-3*q^-1"


def test_verify_builds_codeterminant_blocks_once(monkeypatch, tmp_path):
    from schurify.codeterminants import CodetBasis

    real = CodetBasis.__post_init__
    builds = []

    def counted(self):
        builds.append(self.T)
        real(self)

    monkeypatch.setattr(CodetBasis, "__post_init__", counted)
    res = run("verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert len(builds) == 1


def test_verify_rank_check_fails_on_a_broken_rsk(monkeypatch, tmp_path):
    from schurify import cli

    real_rsk = cli.rsk
    first = []

    def stuck_rsk(ctx, word):
        """Every orbit gets the image of the first one."""
        if not first:
            first.append(real_rsk(ctx, word))
        return first[0]

    monkeypatch.setattr(cli, "rsk", stuck_rsk)
    res = run("verify", "--algebra", "trivial", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 1
    failed = [line for line in res.output.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  rank"), res.output


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
    _usage_error(*common, "-d", "1", "--label", "[[5]]")          # size 5, not d
    _usage_error(*common, "-d", "3", "--label", "[[1, 1, 1]]")    # more than n rows
    _usage_error(*common, "-d", "3", "--label", "[[1, 2]]")       # not a partition
    _usage_error(*common, "-d", "1", "--label", "[[1], [], []]")  # more colors than the base


def test_bad_orbit_exits_2():
    common = ["--algebra", "zigzag:1", "-n", "2", "-d", "1"]
    good = '[{"b": "e0", "r": 1, "s": 1}]'
    for bad in ('[{"b": "e0", "r": 1', '[{"b": "zz", "r": 1, "s": 1}]',
                '[{"b": "e0", "r": 9, "s": 1}]', '[{"b": "e0"}]',
                '[{"b": "e0", "r": 1.5, "s": 1}]',
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
    real = base_algebra.standard_module_base

    def counted(alg, data, i):
        built.append(i)
        return real(alg, data, i)

    monkeypatch.setattr(base_algebra, "standard_module_base", counted)
    res = run("verify", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--cache-dir", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert sorted(built) == [0, 1]


def test_lr_cache_writes_only_where_asked(monkeypatch, tmp_path):
    from schurify import characters as ch

    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("SCHURIFY_CACHE_DIR", raising=False)
    monkeypatch.setattr(ch, "_CACHE_SINGLETON", [])
    monkeypatch.chdir(tmp_path)
    res = run("char", "--algebra", "zigzag:1", "-n", "2", "-d", "2",
              "--label", "[[1],[1]]", "--method", "formula")
    assert res.exit_code == 0, res.output
    assert ch.lr_coeff((2, 1), [(1,), (1,), (1,)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["home"]
    assert list(home.iterdir()) == []



CACHE_CASES = {
    "char": ["--label", "[[1], [1]]", "--method", "formula"],
    "decomp": ["--method", "formula"],
    "verify": [],
}


@pytest.mark.parametrize("cmd", CACHE_CASES)
def test_unusable_lr_cache_is_a_usage_error(cmd, monkeypatch, tmp_path):
    """A cache directory that is a file, by --cache-dir or by
    SCHURIFY_CACHE_DIR, and a cache file that is a directory, stop the
    command with exit 2 before anything is computed, naming the path."""
    from schurify import cli

    made = []
    monkeypatch.setattr(cli, "_make_T", made.append)
    monkeypatch.delenv("SCHURIFY_CACHE_DIR", raising=False)
    common = [cmd, "--algebra", "zigzag:1", "-n", "2", "-d", "2", *CACHE_CASES[cmd]]
    afile = tmp_path / "afile"
    afile.write_text("")
    res = run(*common, "--cache-dir", str(afile))
    assert res.exit_code == 2 and str(afile) in res.output, res.output
    monkeypatch.setenv("SCHURIFY_CACHE_DIR", str(afile / "sub"))
    res = run(*common)
    assert res.exit_code == 2 and str(afile) in res.output, res.output
    monkeypatch.delenv("SCHURIFY_CACHE_DIR")
    (tmp_path / "dir" / "lr_cache.jsonl").mkdir(parents=True)
    res = run(*common, "--cache-dir", str(tmp_path / "dir"))
    assert res.exit_code == 2 and str(tmp_path / "dir" / "lr_cache.jsonl") in res.output, res.output
    assert not made


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

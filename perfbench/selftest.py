"""Tests of the benchmark's own checkers, on small cases that run in seconds.

    python3 -m pytest -q perfbench/selftest.py

Each checker must pass on real output of the CLI and reject a corrupted
copy of it.  The file is not named test_*.py, so the repository's own test
run does not collect it.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from schurify.cli import main  # noqa: E402


def cli(tmp_path, *args) -> str:
    res = CliRunner().invoke(main, [*args, "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    return res.output


def case(spec, n, d) -> list[str]:
    return ["--algebra", spec, "-n", str(n), "-d", str(d)]


def test_rank_closed_form():
    assert checks.rank_closed_form("trivial", 2, 2) == 10
    assert checks.rank_closed_form("zigzag:1", 2, 2) == 202
    assert checks.rank_closed_form("zigzag:1", 3, 3) == 15405
    assert checks.rank_closed_form("zigzag:2", 3, 3) == 88965
    assert checks.rank_closed_form("zigzag:1", 4, 4) == 1734436


def test_multipartitions():
    assert checks.multipartitions("trivial", 3, 3) == {((3,),), ((2, 1),), ((1, 1, 1),)}
    assert len(checks.multipartitions("zigzag:1", 3, 3)) == 10
    assert len(checks.multipartitions("zigzag:2", 3, 3)) == 22
    assert len(checks.multipartitions("zigzag:1", 4, 4)) == 20
    assert ((1, 1, 1, 1), ()) not in checks.multipartitions("zigzag:1", 3, 4)


def test_parse_scalar():
    assert checks.parse_scalar("0") == {}
    assert checks.parse_scalar("1") == {(0, 0): 1}
    assert checks.parse_scalar("1+3*q^2*pi") == {(0, 0): 1, (2, 1): 3}
    assert checks.parse_scalar("q*pi") == {(1, 1): 1}
    assert checks.parse_scalar("2*q^-1") == {(-1, 0): 2}
    assert checks.parse_scalar("1+-2*q") == {(0, 0): 1, (1, 0): -2}


@pytest.mark.parametrize("spec,n,d", [("zigzag:1", 2, 2), ("trivial", 3, 3)])
def test_verify_checker(tmp_path, spec, n, d):
    out = cli(tmp_path, "verify", *case(spec, n, d), "--seed", "5")
    assert checks.check_verify(out, spec, n, d) == []
    lines = out.splitlines()
    failed = "\n".join(["FAIL" + lines[0][4:]] + lines[1:])
    assert checks.check_verify(failed, spec, n, d)
    dropped = "\n".join(line for line in lines if "schur heredity" not in line)
    assert checks.check_verify(dropped, spec, n, d)
    rank = checks.rank_closed_form(spec, n, d)
    assert f"rank {rank} " in out
    assert checks.check_verify(out.replace(f"rank {rank} ", f"rank {rank + 1} "), spec, n, d)


def test_dim_checker(tmp_path):
    out = cli(tmp_path, "dim", *case("zigzag:1", 2, 2))
    assert checks.check_dim(out, "zigzag:1", 2, 2) == []
    assert checks.check_dim(out.replace("202", "203"), "zigzag:1", 2, 2)


@pytest.mark.parametrize("spec,n,d,p", [("zigzag:1", 3, 3, 2), ("trivial", 3, 3, 2)])
def test_decomp_checker(tmp_path, spec, n, d, p):
    mats = {}
    for ring in ("Q", f"Fp:{p}"):
        out = cli(tmp_path, "decomp", *case(spec, n, d), "--field", ring,
                  "--method", "both", "--out", "csv")
        entries, problems = checks.parse_decomp_csv(out)
        assert problems == []
        assert checks.check_decomp(entries, spec, n, d) == []
        mats[ring] = (out, entries)
    q, fp = mats["Q"][1], mats[f"Fp:{p}"][1]
    assert checks.check_dominates(fp, q) == []
    assert fp != q, "the field should change some decomposition number"
    assert checks.check_dominates(q, fp)
    assert checks.check_equal(fp, q, "Fp vs Q")
    # the same comparison as the benchmark makes it within a round
    for q_out, fp_out, bad in ((mats["Q"][0], mats[f"Fp:{p}"][0], False),
                               (mats[f"Fp:{p}"][0], mats["Q"][0], True)):
        ops = [run.Op("fp", [], None, f"Fp:{p}", stdout=fp_out),
               run.Op("q", [], None, "Q", stdout=q_out)]
        run.fp_above_q(ops)
        assert bool(ops[0].problems) == bad and not ops[1].problems

    rows = list(csv.reader(io.StringIO(mats["Q"][0])))

    def rejected(corrupt_rows) -> bool:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(corrupt_rows)
        entries, problems = checks.parse_decomp_csv(buf.getvalue())
        return bool(problems or checks.check_decomp(entries, spec, n, d))

    assert not rejected(rows)
    # a flipped coefficient, on the diagonal and off it
    k = next(i for i, r in enumerate(rows) if r[0] == r[1])
    assert rejected(rows[:k] + [[rows[k][0], rows[k][1], "-1"]] + rows[k + 1:])
    assert rejected(rows[:k] + [[rows[k][0], rows[k][1], "2"]] + rows[k + 1:])
    k = next((i for i, r in enumerate(rows) if r[0] != r[1] and r[2] != "0"), None)
    if k is not None:
        assert rejected(rows[:k] + [[rows[k][0], rows[k][1], "-1*" + rows[k][2]]] + rows[k + 1:])
    # a dropped label
    assert rejected([r for r in rows if r[0] != rows[0][0]])
    assert rejected([r for r in rows if r[1] != rows[0][0]])


def test_char_checker_and_dimensions(tmp_path):
    spec, n, d = "zigzag:1", 3, 3
    total = corrupted = 0
    for lam in sorted(checks.multipartitions(spec, n, d)):
        label = json.dumps([list(c) for c in lam])
        out = cli(tmp_path, "char", *case(spec, n, d), "--label", label, "--method", "both")
        char, problems = checks.parse_char_json(out)
        assert problems == []
        assert checks.check_char(char, spec, n, d) == []
        total += checks.char_dimension(char) ** 2
        rows = json.loads(out)
        found = next(((i, c) for i, r in enumerate(rows)
                      for c, comp in enumerate(r["weight"]) if len(set(comp)) > 1), None)
        if found is None:  # every weight is fixed by permutations
            continue
        k, c = found
        corrupted += 1
        # a permuted weight: one color's entries rotated
        permuted = [dict(r) for r in rows]
        w = list(permuted[k]["weight"])
        w[c] = w[c][1:] + w[c][:1]
        permuted[k]["weight"] = w
        char2, problems2 = checks.parse_char_json(json.dumps(permuted))
        assert problems2 or checks.check_char(char2, spec, n, d)
        # a dropped weight
        char3, _ = checks.parse_char_json(json.dumps(rows[:k] + rows[k + 1:]))
        assert checks.check_char(char3, spec, n, d)
    assert corrupted > 0
    assert total == checks.rank_closed_form(spec, n, d) == 15405


def test_reference_matrix():
    with open(os.path.join(HERE, "reference", "zigzag1-n4-d4-Q.csv")) as fh:
        entries, problems = checks.parse_decomp_csv(fh.read())
    assert problems == []
    assert checks.check_decomp(entries, "zigzag:1", 4, 4) == []
    assert sum(1 for v in entries.values() if v) > 20

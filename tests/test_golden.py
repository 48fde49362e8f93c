"""Standard output of fixed commands, byte for byte.

Each file in tests/data is the stdout of `schurify` with the arguments listed
here, kept from before the heredity check moved to words of letter indices;
the F_p formula file is kept from before the formula was computed by rows.
A refactor or speed-up must leave them unchanged; regenerate a file only for
an intended change of output, by running its command."""
from pathlib import Path

import pytest
from click.testing import CliRunner

from schurify.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("verify-zigzag1-n3-d3-seed1.txt",
     ["verify", "--algebra", "zigzag:1", "-n", "3", "-d", "3", "--seed", "1"]),
    ("verify-zigzag2-n2-d2.txt", ["verify", "--algebra", "zigzag:2", "-n", "2", "-d", "2"]),
    ("verify-trivial-n3-d3-Q.txt",
     ["verify", "--algebra", "trivial", "-n", "3", "-d", "3", "--field", "Q"]),
    ("verify-trivial-n3-d3-Fp2.txt",
     ["verify", "--algebra", "trivial", "-n", "3", "-d", "3", "--field", "Fp:2"]),
    ("decomp-zigzag2-n2-d2-both.csv",
     ["decomp", "--algebra", "zigzag:2", "-n", "2", "-d", "2", "--method", "both", "--out", "csv"]),
    ("decomp-zigzag1-n3-d3-formula-Fp2.csv",
     ["decomp", "--algebra", "zigzag:1", "-n", "3", "-d", "3", "--field", "Fp:2",
      "--method", "formula", "--out", "csv"]),
]


@pytest.mark.parametrize("name,args", GOLDEN, ids=[name for name, _args in GOLDEN])
def test_stdout_matches_the_kept_file(name, args, tmp_path):
    res = CliRunner().invoke(main, [*args, "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (DATA / name).read_bytes()

"""Which modules a command parses, and how large they are.

Every command compiles the package from source when bytecode is not written
(`PYTHONDONTWRITEBYTECODE`), so what a process parses sets part of its peak
RSS.  Straightening and the heredity check of T live in their own modules,
which only the commands that run them load; and no module reaches the
token count at which CPython 3.11's parser doubles its token array."""
import os
import subprocess
import sys
import tokenize

import pytest

import schurify

PACKAGE = os.path.dirname(schurify.__file__)
LAYERS = {"schurify.straighten", "schurify.heredity"}
PARSER_TOKEN_ARRAY = 8192

# one CLI command in this process, which exits non-zero if it fails, then
# the schurify modules it loaded
RUN_AND_LIST = """
import sys
from schurify.cli import main
main(sys.argv[1:], standalone_mode=False)
print(" ".join(sorted(m for m in sys.modules if m.startswith("schurify"))))
"""

ORBIT = '[{"b":"a1_0","r":1,"s":2},{"b":"e0","r":2,"s":1}]'


def loaded_by(args, cache_dir) -> set[str]:
    """The schurify modules loaded by one command on zigzag:1 n=d=2 in a
    fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST, *args,
         "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(cache_dir)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("args", [
    ["decomp", "--method", "both"],
    ["char", "--label", "[[1],[1]]", "--method", "both"],
    ["dim"],
])
def test_commands_that_neither_straighten_nor_check_heredity_load_neither(args, tmp_path):
    assert not loaded_by(args, tmp_path) & LAYERS


def test_verify_loads_both_layers(tmp_path):
    assert LAYERS <= loaded_by(["verify"], tmp_path)


def test_straighten_loads_straightening(tmp_path):
    loaded = loaded_by(["straighten", "--backend", "both", "--orbit", ORBIT], tmp_path)
    assert "schurify.straighten" in loaded
    assert "schurify.heredity" not in loaded


def parser_tokens(path: str) -> int:
    """The tokens the parser reads: tokenize's, without comments and
    non-logical newlines."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for tok in tokenize.generate_tokens(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_no_module_reaches_the_parsers_token_array_doubling():
    sizes = {name: parser_tokens(os.path.join(PACKAGE, name))
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    assert {"codeterminants.py", "straighten.py", "heredity.py"} <= sizes.keys()
    assert max(sizes.values()) < PARSER_TOKEN_ARRAY, sizes

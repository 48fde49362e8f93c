"""Which modules a command parses, and how large they are.

Every command compiles the package from source when bytecode is not written
(`PYTHONDONTWRITEBYTECODE`), so what a process parses sets part of its peak
RSS.  Each layer lives in its own module, which only the commands that run
it load: the CLI's top imports the base algebra and the Schur algebra, and
each command imports its layers in its own body.  The layer benchmark still
reads some names from their old modules, which forward exactly those names.
And no module reaches the token bound past which a late compile raises a
command's peak."""
import os
import subprocess
import sys
import tokenize

import pytest

import schurify

PACKAGE = os.path.dirname(schurify.__file__)
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
# the modules only `verify` runs, the heredity check of A, which every
# command that reads A's decomposition data runs, and the layers past the
# Schur algebra
VERIFY_ONLY = {"schurify.verification", "schurify.heredity", "schurify.straighten",
               "schurify.rsk"}
BASE_CHECK = "schurify.base_heredity"
BEYOND_SCHUR = {"schurify.characters", "schurify.decomposition", "schurify.codeterminants",
                "schurify.exactla"}
# the parser tokens every module stays under
MODULE_TOKEN_BOUND = 4500

# one CLI command in this process, which exits non-zero if it fails, then
# the modules it loaded
RUN_AND_LIST = """
import sys
from schurify.cli import main
if main(sys.argv[1:]):
    sys.exit(1)
print(" ".join(sorted(sys.modules)))
"""

ORBIT = '[{"b":"a1_0","r":1,"s":2},{"b":"e0","r":2,"s":1}]'


def fresh(code: str, *args: str) -> str:
    """The stdout of `code`, given `args`, in a fresh process."""
    return subprocess.run([sys.executable, "-c", code, *args], env=ENV, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def loaded_by(args, cache_dir) -> set[str]:
    """The modules loaded by one command on zigzag:1 n=d=2 in a fresh
    process."""
    out = fresh(RUN_AND_LIST, *args, "--algebra", "zigzag:1", "-n", "2", "-d", "2",
                "--cache-dir", str(cache_dir))
    return set(out.splitlines()[-1].split())


@pytest.mark.parametrize("args", [
    ["decomp", "--method", "both"],
    ["char", "--label", "[[1],[1]]", "--method", "both"],
    ["dim"],
    ["build"],
])
def test_commands_that_neither_straighten_nor_check_heredity_load_neither(args, tmp_path):
    """No command but `verify` checks the heredity of T, and no command but
    `verify` and `straighten` straightens."""
    assert not loaded_by(args, tmp_path) & VERIFY_ONLY


@pytest.mark.parametrize("args", [
    ["char", "--label", "[[1],[1]]", "--method", "both"],
    ["decomp", "--method", "both"],
    ["blocks"],
    ["verify"],
])
def test_commands_that_read_the_base_decomposition_data_check_its_axioms(args, tmp_path):
    """A's decomposition data exists only when its heredity data holds, and
    `base_heredity.check_axioms` alone decides that."""
    assert BASE_CHECK in loaded_by(args, tmp_path)


@pytest.mark.parametrize("args", [["dim"], ["decomp", "--method", "both"], ["verify"]])
def test_commands_load_no_cli_framework(args, tmp_path):
    """The command line is parsed by the standard library's `argparse`:
    no command loads click, nor `difflib`, which click's parsing of `-n`
    and `-d` imported.  (`argparse` itself loads `locale`.)  And the
    package's records are plain classes and named tuples, so no command
    loads `dataclasses`, nor the `inspect`, `ast`, `dis` and `tokenize`
    that it imports; a bare interpreter loads none of the five."""
    assert not loaded_by(args, tmp_path) & {"click", "difflib", "dataclasses", "inspect",
                                              "ast", "dis", "tokenize"}


def test_verify_loads_every_layer(tmp_path):
    assert VERIFY_ONLY | BEYOND_SCHUR | {BASE_CHECK} <= loaded_by(["verify"], tmp_path)


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


def test_every_module_stays_under_the_late_compile_token_bound():
    """A module compiled from source keeps about 0.41 kB of parser scratch
    per token in the process's RSS, and what the CLI compiles late, once the
    package is resident, sets the peak.  On `decomp` over zigzag:2 n=d=3
    (Fp:3), with every module compiled from source the peak RSS was 20.19 MB;
    with only `base_algebra`, compiled first, precompiled it was 20.25 MB;
    with every module over 4 500 tokens precompiled it was 19.35 MB."""
    sizes = {name: parser_tokens(os.path.join(PACKAGE, name))
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    assert {"codeterminants.py", "straighten.py", "heredity.py"} <= sizes.keys()
    assert max(sizes.values()) < MODULE_TOKEN_BOUND, sizes


def test_char_loads_the_characters_but_not_the_decomposition_layer(tmp_path):
    loaded = loaded_by(["char", "--label", "[[1],[1]]", "--method", "both"], tmp_path)
    assert "schurify.characters" in loaded
    assert "schurify.decomposition" not in loaded


@pytest.mark.parametrize("args", [["dim"], ["build"]])
def test_dim_and_build_load_nothing_beyond_the_schur_algebra(args, tmp_path):
    assert not loaded_by(args, tmp_path) & (BEYOND_SCHUR | {BASE_CHECK})


def test_importing_the_package_loads_no_heredity_check():
    loaded = fresh("import sys, schurify\n"
                   "print(' '.join(m for m in sys.modules if m.startswith('schurify')))").split()
    assert "schurify" in loaded
    assert not {"schurify.base_heredity", "schurify.heredity"} & set(loaded)


def test_verify_under_dash_m_imports_no_second_cli(tmp_path):
    """Run as `python -m schurify.cli`, the CLI is `__main__`; a layer that
    imported `schurify.cli` would compile and run it a second time."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "schurify.cli", "verify",
         "--algebra", "zigzag:1", "-n", "2", "-d", "2", "--cache-dir", str(tmp_path)],
        env=ENV, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "schurify.verification" in imported
    assert "schurify.cli" not in imported


# (module, name, the module it lives in): the names the layer benchmark
# reads from where they lived before the layers were split
FORWARDED = [
    ("schurify.base_algebra", "verify_heredity", "schurify.base_heredity"),
    ("schurify.characters", "decomp_formula", "schurify.decomposition"),
    ("schurify.characters", "ClassicalDecomp", "schurify.decomposition"),
    ("schurify.characters", "decomp_oracle", "schurify.decomposition"),
    ("schurify.characters", "DecompInput", "schurify.base_algebra"),
    ("schurify.codeterminants", "Straightener", "schurify.straighten"),
    ("schurify.codeterminants", "heredity_of_T", "schurify.heredity"),
    ("schurify", "verify_heredity", "schurify.base_heredity"),
]


@pytest.mark.parametrize("old, name, home", FORWARDED)
def test_a_forwarded_name_is_its_homes_object(old, name, home):
    from importlib import import_module

    assert getattr(import_module(old), name) is getattr(import_module(home), name)


def test_the_forwarders_forward_nothing_else():
    from schurify import base_algebra, characters, codeterminants

    for module, name in [(base_algebra, "HeredityReport"), (base_algebra, "truncate_base"),
                         (characters, "decomp_formula_row"), (characters, "gram_blocks"),
                         (codeterminants, "gram_blocks"), (codeterminants, "cellular_basis"),
                         (codeterminants, "orbit_to_codet")]:
        assert not hasattr(module, name), (module.__name__, name)


def test_importing_the_old_modules_loads_none_of_the_new():
    loaded = fresh("import sys\n"
                   "import schurify.base_algebra, schurify.characters, schurify.codeterminants\n"
                   "print(' '.join(m for m in sys.modules if m.startswith('schurify')))").split()
    assert "schurify.codeterminants" in loaded
    assert not {"schurify.base_heredity", "schurify.decomposition", "schurify.straighten",
                "schurify.heredity", "schurify.verification"} & set(loaded)

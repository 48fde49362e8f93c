"""Which modules a command parses, and how large they are.

Every command compiles the package from source when bytecode is not written
(`PYTHONDONTWRITEBYTECODE`), so what a process parses sets part of its peak
RSS.  Each layer lives in its own module, which only the commands that run
it load: the CLI's top imports the base algebra and the Schur algebra, and
each command imports its layers in its own body.  The layer benchmark still
reads some names from their old modules, which forward exactly those names.
And no module reaches the token bound past which a late compile raises a
command's peak."""
import ast
import json
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


def unused_imports(path: str) -> set[str]:
    """The names a module binds by an import and never reads.  A read is a
    loaded `Name` anywhere in the module, annotations and `if TYPE_CHECKING:`
    blocks included, or a string of its `__all__`; a quoted annotation is
    not parsed."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [t.id for t in node.targets
                                               if isinstance(t, ast.Name)] == ["__all__"]:
            read |= {elt.value for elt in node.value.elts}
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    """Neither the package's modules nor the tests import a name they do
    not read."""
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(folder, name) for folder in (PACKAGE, tests)
             for name in sorted(os.listdir(folder)) if name.endswith(".py")]
    assert {path: names for path in paths if (names := unused_imports(path))} == {}


def private_reads(path: str) -> list[str]:
    """Each read of an attribute with one leading underscore off anything
    but `self` or `cls`, as `module.py:line name`; `os._exit`, the one such
    name of the standard library the package reads, is exempt."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [f"{os.path.basename(path)}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            and ast.unparse(node) != "os._exit"]


def test_no_module_reads_a_private_member_of_another_object():
    """A member with one leading underscore is read only through `self` or
    `cls`: no module reaches into another object's internals, its own
    module's objects included."""
    paths = [os.path.join(PACKAGE, name) for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py")]
    assert [read for path in paths for read in private_reads(path)] == []


# the commands of the reachability run, each as its arguments: `dim`,
# `build` and `verify` over Q and F_2 on an algebra, its truncation and a
# semisimple one, and every other command once, each product nonzero; a
# second `straighten` at n = d = 3, where a rewrite first meets a shape that
# is no partition (`Straightener._dominantize`)
REACH_ALGEBRAS = ["zigzag:1", "zigzag-bar:1", "semisimple:2"]
REACH_COMMANDS = [
    *([command, *field, "--algebra", spec] for spec in REACH_ALGEBRAS
      for command, field in [("dim", []), ("build", []), ("verify", []),
                             ("verify", ["--field", "Fp:2"])]),
    ["mul", "--left", ORBIT, "--right", '[{"b":"e0","r":1,"s":1},{"b":"e0","r":2,"s":2}]'],
    ["straighten", "--orbit", ORBIT],
    ["straighten", "--algebra", "trivial", "-n", "3", "-d", "3",
     "--orbit", '[{"b":"1","r":1,"s":1},{"b":"1","r":2,"s":1},{"b":"1","r":2,"s":2}]'],
    ["char", "--label", "[[1],[1]]"],
    ["decomp"],
    ["decomp", "--field", "Fp:3", "--out", "csv"],
    ["blocks"],
]
# the commands of argv[1] (JSON), at n = d = 2 unless they say otherwise, in
# one process, traced from before the package is imported; with no
# `os.fork`, `verify` walks axiom (a) in this process too.  The last line is
# the (file, first line) of every code object of the package that was
# entered.
RUN_TRACED = """
import json, os, sys
del os.fork
package, entered = sys.argv[2], set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from schurify.cli import main
for argv in json.loads(sys.argv[1]):
    if main([argv[0], "-n", "2", "-d", "2", "--cache-dir", sys.argv[3], *argv[1:]]):
        sys.exit(1)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""
# the functions no command of the run enters: those the layer benchmark
# (perfbench/layers.py) reads, which nothing in the package reads (ROADMAP
# item 12), those run only on a failure, and those run only once `os.fork`
# has made a child, which the run removes
READ_OUTSIDE_SRC = {
    "codeterminants.CodetBasis.unimodular", "codeterminants.CodetBasis.keys",
    "decomposition.decomp_formula", "heredity.heredity_of_T", "schur.SchurAlgebra.orbits",
}
FAILURE_ONLY = {
    "codeterminants.CodetBasis._name_stray", "exactla.Block._non_integral", "cli._witness",
    "cli._int_json.no_float", "verification._orbits_json", "verification._labels_json",
    "base_heredity.HeredityReport.fail", "base_algebra.Side.spell", "cli._output_error",
}
AFTER_A_FORK = {"heredity._place"}
NOT_REACHED = READ_OUTSIDE_SRC | FAILURE_ONLY | AFTER_A_FORK


def package_functions(package: str) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, last line) of every function
    and method of the package's modules, nested ones included and dunders
    left out; the first line is that of its first decorator, as on its code
    object."""
    out = {}

    def visit(node, path, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{sub.name}"
                if not isinstance(sub, ast.ClassDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    first = min([sub.lineno] + [dec.lineno for dec in sub.decorator_list])
                    out[path, first] = name, sub.end_lineno
                visit(sub, path, name)
            else:
                visit(sub, path, prefix)

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), path, name[:-3])
    return out


def unread_functions(package: str, names: set[str]) -> set[str]:
    """The functions of `names`, qualified as `package_functions` names
    them, whose name nothing in the package reads outside their own body,
    as a `Name` or an `Attribute`.  The scan is by name, so a read of any
    same-named attribute counts."""
    reads = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.Name):
                        reads.append((node.id, path, node.lineno))
                    elif isinstance(node, ast.Attribute):
                        reads.append((node.attr, path, node.lineno))
    return {qualified for (path, first), (qualified, last) in package_functions(package).items()
            if qualified in names
            and not any(read == qualified.rpartition(".")[2]
                        and not (where == path and first <= line <= last)
                        for read, where, line in reads)}


def test_every_function_of_the_package_runs_under_some_command(tmp_path):
    """Every function and method of the package is entered by one of the
    commands of `REACH_COMMANDS`, but for those of `NOT_REACHED`: what only
    the tests run lives under `tests/`."""
    out = fresh(RUN_TRACED, json.dumps(REACH_COMMANDS), PACKAGE + os.sep, str(tmp_path))
    entered = {tuple(place) for place in json.loads(out.splitlines()[-1])}
    functions = package_functions(PACKAGE)
    assert NOT_REACHED <= {name for name, _last in functions.values()}
    assert {name for place, (name, _last) in functions.items() if place not in entered} \
        == NOT_REACHED


def test_src_holds_no_code_that_only_the_tests_read():
    """Each function of `FAILURE_ONLY` and `AFTER_A_FORK` is read in the
    package outside its own body.  The traced run cannot tell a failure path
    or a forked one from a function whose only caller is gone, since it
    enters neither."""
    assert unread_functions(PACKAGE, FAILURE_ONLY | AFTER_A_FORK) == set()


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


# the suite of `verify` as a library call on the zigzag-bar:1 truncation,
# built as the CLI builds it, its rows printed as the CLI prints them
RUN_CHECKS = """
import sys
from schurify.base_algebra import make_algebra
from schurify.characters import LRCache
from schurify.rings import QQ
from schurify.schur import build_schur
from schurify.verification import run_checks
alg, data, tau = make_algebra("zigzag:1")
T = build_schur(alg, data, 2, 2, tau).truncate(data.labels[:-1])
rows = run_checks(T, 0, QQ, LRCache(""))
width = max(len(name) for name, _ok, _text in rows)
for name, ok, text in rows:
    verdict = "SKIP" if ok is None else "PASS" if ok else "FAIL"
    print(f"{verdict}  {name.ljust(width)}  {text}")
print("schurify.cli" in sys.modules)
"""


def test_the_verify_suite_runs_off_T_without_the_cli():
    """`run_checks` reads what it runs off T: on the truncation it gives
    the golden rows of `verify`, with no config and no CLI loaded."""
    *rows, cli_loaded = fresh(RUN_CHECKS).splitlines()
    golden = os.path.join(os.path.dirname(__file__), "data", "verify-zigzagbar1-n2-d2.txt")
    with open(golden) as fh:
        assert rows == fh.read().splitlines()
    assert cli_loaded == "False"


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


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _benchmark_sources() -> dict[str, ast.Module]:
    """Each module of the benchmark, and the set-up code that `run.py` runs
    in a process of its own (`SETUP_CODE`), parsed and not run."""
    trees = {}
    for name in sorted(os.listdir(PERFBENCH)):
        if name.endswith(".py"):
            with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    setup, = [node.value.value for node in trees["run.py"].body
              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETUP_CODE"]
    trees["run.py SETUP_CODE"] = ast.parse(setup)
    return trees


def test_every_package_name_the_benchmark_reads_resolves():
    """The benchmark reads names off the package that nothing in it reads,
    and tier-1 never runs it: every name that `perfbench/` imports from a
    `schurify` module, and every attribute it reads off an imported
    `schurify` module (`ch.decomp_oracle`), exists.  And every call whose
    callee this walk resolves to a package function or class binds to its
    signature: the count of positional arguments and the keyword names
    (`codet.heredity_of_T(Th, sample_b=...)`).  A call with a `*` or `**`
    splat is skipped, and so is a call on anything past the modules, such as
    an instance's method (`cb.unimodular()`) or a class's
    (`ch.DecompInput.from_base`): the walk cannot see what it calls."""
    import inspect
    from importlib import import_module
    from types import ModuleType

    def member(module: ModuleType, name: str):
        """`from module import name`: an attribute, else a submodule."""
        if hasattr(module, name):
            return getattr(module, name)
        try:
            return import_module(f"{module.__name__}.{name}")
        except ImportError:
            return None

    missing, read, called = [], set(), set()
    for source, tree in _benchmark_sources().items():
        bound: dict[str, object] = {}  # a local name -> the package object bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "schurify":
                        module = import_module(alias.name)
                        bound[alias.asname or "schurify"] = (
                            module if alias.asname else import_module("schurify"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "schurify":
                module = import_module(node.module)
                for alias in node.names:
                    if (obj := member(module, alias.name)) is None:
                        missing.append(f"{source}: from {node.module} import {alias.name}")
                    bound[alias.asname or alias.name] = obj

        def resolve(node: ast.expr, record: bool):
            """The package object that a name or a read a.b.c names, or None
            past the modules; each read off a module is checked when
            `record` is set."""
            chain = []  # a read a.b.c as [a, b, c]
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            chain.insert(0, node.id)
            obj = bound.get(node.id)
            for depth, name in enumerate(chain[1:], 2):
                if not isinstance(obj, ModuleType):
                    return None  # past the modules: an attribute of a package object
                if record:
                    read.add(".".join(chain[:depth]))
                if (obj := member(obj, name)) is None and record:
                    missing.append(f"{source}: {'.'.join(chain[:depth])}")
            return obj

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node, record=True)
            if not isinstance(node, ast.Call):
                continue
            callee = resolve(node.func, record=False)
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            if splat or not callable(callee):
                continue
            called.add(ast.unparse(node.func))
            try:
                inspect.signature(callee).bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                missing.append(f"{source}:{node.lineno}: {ast.unparse(node)}: {exc}")
    assert not missing, missing
    assert {"codet.heredity_of_T", "ch.decomp_formula", "ch.LRCache",
            "build_schur"} <= called, sorted(called)
    assert {"ch.decomp_oracle", "codet.CodetBasis", "codet.heredity_of_T"} <= read, sorted(read)

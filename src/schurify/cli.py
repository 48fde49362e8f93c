"""Command-line surface: build/inspect algebras, multiply, straighten,
characters, decomposition matrices, blocks, and a runnable verification suite.

Outputs are deterministic for a fixed (config, seed): all collections are
emitted in sorted order and JSON integers are rendered as strings.  Exit
codes: 0 ok, 1 verification failure, 2 usage error.

The module imports at its top only what every command needs: the base
algebra and the Schur algebra.  Each command imports the layers it runs at
the top of its own body, before it builds the algebra: `char` the
characters, `decomp` and `blocks` the decomposition layer, `straighten`
straightening, and `verify` its checks (`verification`), which load every
layer.  `dim`, `build` and `mul` load none of them (see the README's module
map).

The command line is parsed by `argparse`, so the CLI needs nothing beyond
Python's standard library.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import partitions, tableaux, triples
from .base_algebra import make_algebra
from .rings import GF, QQ, ZZ, CoefficientRing, GradedSuperScalar
from .schur import build_schur

if TYPE_CHECKING:
    from .characters import LRCache


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class UsageError(Exception):
    """Bad input: `main` prints it as the parser's one-line `error:` message
    and exits 2."""


class RunConfig:
    """The run's settings: the defaults here, then a `--config` file's
    values and the flags given (`_build_config`).  The annotated names are
    the config keys; the methods are not."""

    algebra: str = "zigzag:1"
    n: int = 2
    d: int = 2
    field: str = "Q"
    out: str = "json"
    method: str = "both"
    output: str | None = None
    cache_dir: str | None = None
    seed: int = 0

    def ring(self) -> CoefficientRing:
        f = self.field
        if f == "Z":
            return ZZ
        if f == "Q":
            return QQ
        if f.startswith("Fp:"):
            try:
                return GF(int(f.split(":", 1)[1]))
            except ValueError:
                pass
        raise UsageError(f"unknown field {f!r} (expected Z | Q | Fp:p, p prime)")

    def lr_cache(self) -> LRCache:
        """The LR cache: `lr_cache.jsonl` under the cache directory, or kept
        in memory when none is named (an empty name included).  A path that
        cannot hold it is a usage error."""
        import os

        from .characters import LRCache

        path = os.path.join(self.cache_dir, "lr_cache.jsonl") if self.cache_dir else ""
        try:
            return LRCache(path)
        except OSError as exc:
            raise UsageError(f"cannot use the LR cache at {exc.filename!r}: "
                             f"{exc.strerror}") from None

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra, "n": str(self.n), "d": str(self.d),
            "field": self.field, "out": self.out, "method": self.method,
            "seed": str(self.seed),
        }


def _read_config_file(path: str) -> dict:
    """KEY=VALUE per line of UTF-8 text; blank lines and #-comments ignored.
    A file that cannot be read is a usage error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read --config {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"--config {path!r} is not UTF-8 text") from None
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _build_config(file_values: dict, args: argparse.Namespace, commands: dict) -> RunConfig:
    """The config file's values, then the flags given, over the defaults.
    A file value is checked as strictly as its flag (`_flag_choices`)."""
    cfg = RunConfig()
    keys = RunConfig.__annotations__.keys()
    for k, v in file_values.items():
        if k not in keys:
            raise UsageError(f"unknown config key {k!r}")
        cur = getattr(cfg, k)
        try:
            setattr(cfg, k, type(cur)(v) if cur is not None else v)
        except ValueError:
            raise UsageError(f"bad config value {k}={v!r}") from None
        choices = _flag_choices(commands, args.command, k)
        if choices and v not in choices:
            raise UsageError(
                f"bad config value {k}={v!r} (expected {' | '.join(choices)})")
    for k in keys:
        v = getattr(args, k, None)
        if v is not None:
            setattr(cfg, k, v)
    if cfg.n < 1 or cfg.d < 0:
        raise UsageError(f"need n >= 1 and d >= 0, got n={cfg.n}, d={cfg.d}")
    cfg.ring()  # a bad --field is a usage error for every command
    return cfg


def _flag_choices(commands: dict, command: str, name: str) -> list[str]:
    """The values the flag --name accepts, checked as strictly for a config
    file: the running command's choices, or any command's when it has no
    such flag; empty when the flag takes any value.  `commands` maps each
    command's name to its parser."""

    def of(parser) -> list[str]:
        return [c for a in parser._actions if a.dest == name and a.choices for c in a.choices]

    own = of(commands[command])
    return own or list(dict.fromkeys(c for p in commands.values() for c in of(p)))


def _quasi_hereditary(cfg: RunConfig) -> bool:
    """Whether the algebra is quasi-hereditary; the zigzag-bar truncation is
    only cellular."""
    return not cfg.algebra.startswith("zigzag-bar:")


def _require_qh_algebra(cfg: RunConfig) -> None:
    if not _quasi_hereditary(cfg):
        raise UsageError(
            f"--algebra {cfg.algebra} is cellular but not quasi-hereditary, and this "
            "command needs a quasi-hereditary algebra"
        )


def _require_qh(cfg: RunConfig) -> None:
    _require_qh_algebra(cfg)
    if cfg.n < cfg.d:
        raise UsageError(
            "quasi-heredity operations need n >= d: the standard codeterminant "
            "basis is indexed by tableaux with at most n rows per column"
        )


def _emit(cfg: RunConfig, payload, csv_rows=None) -> None:
    if cfg.out == "csv":
        if csv_rows is None:
            raise UsageError("csv output not available for this command")
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {cfg.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _make_T(cfg: RunConfig):
    # the cellular truncation only exists inside the ambient algebra, so it
    # is built there and cut down at the Schur level
    bar = cfg.algebra.startswith("zigzag-bar:")
    spec = "zigzag:" + cfg.algebra.split(":", 1)[1] if bar else cfg.algebra
    try:
        alg, data, tau = make_algebra(spec)
    except ValueError as exc:
        raise UsageError(f"bad --algebra {cfg.algebra!r}: {exc}") from None
    T = build_schur(alg, data, cfg.n, cfg.d, tau)
    return T.truncate(data.labels[:-1]) if bar else T


def _int_json(text: str):
    """JSON given on the command line, whose numbers must be integers: a
    float, or a boolean, which Python would read as 0 or 1, is refused."""

    def no_float(token: str):
        raise ValueError(f"{token} is not an integer")

    def no_bool(obj) -> None:
        if isinstance(obj, bool):
            raise ValueError(f"{json.dumps(obj)} is not an integer")
        for v in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
            no_bool(v)

    obj = json.loads(text, parse_float=no_float)
    no_bool(obj)
    return obj


def _label_from_json(text: str, cfg: RunConfig, n_labels: int):
    """A multipartition of d with at most n rows per component."""
    try:
        lam = partitions.from_json(_int_json(text))
    except (ValueError, TypeError):
        raise UsageError(f"--label is not a list of lists of integers: {text!r}") from None
    if len(lam) > n_labels:
        raise UsageError("label has more components than the base has colors")
    if any(list(c) != sorted(c, reverse=True) or min(c, default=1) < 1 for c in lam):
        raise UsageError(f"label components must be partitions: {text!r}")
    if sum(map(sum, lam)) != cfg.d:
        raise UsageError(f"label {text} does not have size d = {cfg.d}")
    if any(len(c) > cfg.n for c in lam):
        raise UsageError(f"label {text} has a component with more than n = {cfg.n} rows")
    return lam + ((),) * (n_labels - len(lam))


def _orbit_from_json(T, text: str):
    """The eta element of an orbit word given as JSON [{b,r,s},...]."""
    try:
        return T.eta(triples.TriContext.from_json(_int_json(text)))
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad orbit {text}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

COMMANDS: dict = {}  # name -> (the command, its own options)


def _command(*options):
    """Register a command under its function's name, with its docstring as
    its help and its own options besides the common ones (`_parser`), each
    a flag and its `add_argument` keywords.  A command takes the config
    and the parsed arguments and returns 1 when a cross-check failed."""

    def register(run):
        COMMANDS[run.__name__] = (run, options)
        return run

    return register


@_command()
def build(cfg: RunConfig, args) -> None:
    """Construct the algebra and report its shape."""
    T = _make_T(cfg)
    labels = partitions.gen_multipartitions(cfg.n, cfg.d, len(T.data.labels) - 1)
    _emit(cfg, {
        "config": cfg.to_json(),
        "base_dim": str(T.alg.dim),
        "rank": str(T.rank),
        "labels": [partitions.to_json(l) for l in labels],
    })


@_command()
def dim(cfg: RunConfig, args) -> None:
    """Rank of the algebra (number of canonical orbits)."""
    T = _make_T(cfg)
    _emit(cfg, {"rank": str(T.rank)}, csv_rows=[[T.rank]])


@_command(("--left", dict(required=True, help="orbit word as JSON [{b,r,s},...]")),
          ("--right", dict(required=True, help="orbit word as JSON")))
def mul(cfg: RunConfig, args) -> None:
    """Product of two basis elements on the divided-power basis."""
    T = _make_T(cfg)
    x = _orbit_from_json(T, args.left)
    y = _orbit_from_json(T, args.right)
    payload = T.element_to_json(T.mul(x, y))
    _emit(cfg, payload, csv_rows=[[json.dumps(e["orbit"]), e["coeff"]] for e in payload])


@_command(("--orbit", dict(required=True, help="orbit word as JSON [{b,r,s},...]")),
          ("--backend", dict(choices=["recursive", "solve", "both"], default="both")))
def straighten(cfg: RunConfig, args) -> int | None:
    """Expand a basis element over standard codeterminants."""
    from .straighten import Straightener  # loaded only where straightening runs

    T = _make_T(cfg)
    _require_qh(cfg)
    x = _orbit_from_json(T, args.orbit)
    if not x:
        raise UsageError(f"orbit {args.orbit} repeats an odd letter")
    (rep,) = x
    results = {}
    backend = args.backend
    if backend in ("solve", "both"):
        results["solve"] = T.codet_basis.solve(x)
    if backend in ("recursive", "both"):
        results["recursive"] = Straightener(T).straighten_element(x)
    if backend == "both" and results["solve"] != results["recursive"]:
        _emit(cfg, {"error": "straightening backends disagree",
                    "orbit": triples.TriContext.to_json(rep)})
        return 1
    expansion = results.get("solve", results.get("recursive"))
    payload = [
        {"shape": partitions.to_json(key[0]),
         "S": tableaux.to_json(key[1]),
         "T": tableaux.to_json(key[2]),
         "coeff": str(c)}
        for key, c in sorted(expansion.items(), key=lambda kv: repr(kv[0]))
        if c
    ]
    _emit(cfg, payload,
          csv_rows=[[json.dumps(e["shape"]), json.dumps(e["S"]),
                     json.dumps(e["T"]), e["coeff"]] for e in payload])


@_command(("--label", dict(required=True, help="multipartition as JSON [[...],[...]]")),
          ("--method", dict(choices=["tableaux", "formula", "both"])))
def char(cfg: RunConfig, args) -> int | None:
    """Graded character of a standard module."""
    from .characters import char_standard_formula, char_standard_tableaux

    cache = cfg.lr_cache()
    T = _make_T(cfg)
    _require_qh_algebra(cfg)
    lam = _label_from_json(args.label, cfg, len(T.data.labels))
    vecs = {}
    if cfg.method in ("tableaux", "both"):
        vecs["tableaux"] = char_standard_tableaux(T, lam)
    if cfg.method in ("formula", "both"):
        vecs["formula"] = char_standard_formula(T, lam, cache)
    if cfg.method == "both" and vecs["tableaux"] != vecs["formula"]:
        _emit(cfg, {"error": "character methods disagree", "label": partitions.to_json(lam)})
        return 1
    vec = vecs.get("tableaux", vecs.get("formula"))
    rows = [(w, repr(c)) for w, c in sorted(vec.items())]
    _emit(cfg, [{"weight": [list(comp) for comp in w], "coeff": s} for w, s in rows],
          csv_rows=[[json.dumps([list(comp) for comp in w]), s] for w, s in rows])


@_command(("--method", dict(choices=["formula", "oracle", "both"])))
def decomp(cfg: RunConfig, args) -> int | None:
    """Graded decomposition matrix, by formula, oracle, or both (compared)."""
    from .decomposition import ClassicalDecomp, decomp_formula_row, decomp_oracle

    ring = cfg.ring()
    if not ring.is_field:
        raise UsageError("decomposition numbers need a field: Q or Fp:p")
    cache = cfg.lr_cache()
    T = _make_T(cfg)
    _require_qh(cfg)
    labels = partitions.gen_multipartitions(cfg.n, cfg.d, len(T.data.labels) - 1)
    matrices = {}
    if cfg.method in ("oracle", "both"):
        matrices["oracle"] = decomp_oracle(T, ring).entries
    if cfg.method in ("formula", "both"):
        inp = T.base_decomp
        classical = None if ring == QQ else ClassicalDecomp(cfg.n, ring)
        matrices["formula"] = {
            (lam, mu): v for lam in labels
            for mu, v in decomp_formula_row(inp, lam, labels, cfg.n, classical, cache).items() if v}
    if cfg.method == "both" and matrices["formula"] != matrices["oracle"]:
        diff = sorted(
            repr(k) for k in set(matrices["formula"]) ^ set(matrices["oracle"])
            | {k for k in matrices["formula"] if matrices["formula"][k] != matrices["oracle"].get(k)}
        )
        _emit(cfg, {"error": "formula and oracle disagree", "witnesses": diff[:10]})
        return 1
    mat = matrices.get("oracle", matrices.get("formula"))
    as_json = {lam: partitions.to_json(lam) for lam in labels}
    as_text = {lam: json.dumps(obj) for lam, obj in as_json.items()}
    zero = GradedSuperScalar.zero()
    rows = [(lam, mu, repr(mat.get((lam, mu), zero))) for lam in labels for mu in labels]
    _emit(cfg, [{"lam": as_json[l], "mu": as_json[m], "entry": e} for l, m, e in rows],
          csv_rows=[[as_text[l], as_text[m], e] for l, m, e in rows])


@_command()
def blocks(cfg: RunConfig, args) -> None:
    """Linking-graph blocks and the coarse base-block decomposition."""
    from .decomposition import block_decomposition, blocks as linking_blocks, decomp_oracle

    ring = cfg.ring()
    if not ring.is_field:
        raise UsageError("block detection needs a field: Q or Fp:p")
    T = _make_T(cfg)
    _require_qh(cfg)
    D = decomp_oracle(T, ring)
    fine = linking_blocks(D.labels, D.entries)
    coarse = block_decomposition(T.alg, T.data, cfg.n, cfg.d)
    _emit(cfg, {
        "linking_blocks": [[partitions.to_json(l) for l in blk] for blk in fine],
        "base_block_decomposition": [
            {"sizes": [str(s) for s in nu], "labels": [partitions.to_json(l) for l in labs]}
            for nu, labs in coarse.items()
        ],
    })


@_command()
def verify(cfg: RunConfig, args) -> int:
    """Run the invariant suite and print a pass/fail table."""
    # the checks and the layers only this command runs, parsed before the
    # algebra is built: a parse after it would stack on its heap and raise
    # the peak
    from .verification import run_checks

    cache = cfg.lr_cache()
    T = _make_T(cfg)
    results = run_checks(cfg, T, cache, _quasi_hereditary(cfg))

    width = max(len(n) for n, _ok, _w in results)
    for name, ok, witness in results:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {witness}\n")
    return 0 if all(ok for _n, ok, _w in results) else 1


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, `--config` then a command, and each command's own
    parser by name.  Every command takes the common options; no option may
    be abbreviated."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", help="zigzag:L | zigzag-bar:L | trivial | semisimple:m")
    common.add_argument("-n", type=int)
    common.add_argument("-d", type=int)
    common.add_argument("--field", help="Z | Q | Fp:p")
    common.add_argument("--out", choices=["json", "csv"])
    common.add_argument("--output", help="write to file instead of stdout")
    common.add_argument("--cache-dir")
    common.add_argument("--seed", type=int)
    parser = argparse.ArgumentParser(
        prog="schurify", description="Exact computations in generalized Schur algebras.",
        allow_abbrev=False)
    parser.add_argument("--config", help="KEY=VALUE config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, options) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], allow_abbrev=False,
                             help=run.__doc__, description=run.__doc__)
        for flag, kw in options:
            cmd.add_argument(flag, **kw)
        cmd.set_defaults(run=run)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run the command that `argv` (by default the process's arguments)
    names and return its exit code: 0, or 1 when a check or cross-check
    failed.  A usage error prints one `error:` line on stderr and exits 2."""
    parser, commands = _parser()
    args = parser.parse_args(argv)
    try:
        file_values = _read_config_file(args.config) if args.config else {}
        return args.run(_build_config(file_values, args, commands), args) or 0
    except UsageError as exc:
        commands[args.command].error(str(exc))


# `perfbench/selftest.py` runs the CLI through click's `CliRunner`, which
# reads `main.name` and calls `main.main(args=..., prog_name=...)`.  The two
# stay only until that selftest runs the CLI in a subprocess (ROADMAP item
# 12).
main.name = "schurify"
main.main = lambda args, prog_name: sys.exit(main(list(args)))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: build/inspect algebras, multiply, straighten,
characters, decomposition matrices, blocks, and a runnable verification suite.

Outputs are deterministic for fixed flags, `--seed` included: all
collections are emitted in sorted order and JSON integers are rendered as
strings.  Every command writes to the `--output` file when one is given.
Exit codes: 0 ok, 1 a verification or cross-check failure (a cross-check's
witness is JSON whatever `--out` says), 2 usage error.

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
import os
import sys
from typing import TYPE_CHECKING

from . import partitions, tableaux, triples
from .base_algebra import make_algebra
from .rings import GF, QQ, ZZ, CoefficientRing, GradedSuperScalar
from .schur import build_schur

if TYPE_CHECKING:
    from .characters import LRCache


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

class UsageError(Exception):
    """Bad input: `main` prints it as the parser's one-line `error:` message
    and exits 2."""


def _ring(args: argparse.Namespace) -> CoefficientRing:
    f = args.field
    if f == "Z":
        return ZZ
    if f == "Q":
        return QQ
    if f.startswith("Fp:"):
        try:
            return GF(int(f.split(":", 1)[1]))
        except ValueError:
            pass
    raise UsageError(f"unknown field {f!r} (expected Z | Q | Fp:p, p a prime below 2^31)")


def _lr_cache(args: argparse.Namespace) -> LRCache:
    """The LR cache: `lr_cache.jsonl` under the cache directory, or kept
    in memory when none is named (an empty name included).  A path that
    cannot hold it is a usage error."""
    from .characters import LRCache

    path = os.path.join(args.cache_dir, "lr_cache.jsonl") if args.cache_dir else ""
    try:
        return LRCache(path)
    except OSError as exc:
        raise UsageError(f"cannot use the LR cache at {exc.filename!r}: "
                         f"{exc.strerror}") from None


def _require_qh_algebra(args: argparse.Namespace, T) -> None:
    """A truncation (`T.is_truncation`) is only cellular: a usage error here."""
    if T.is_truncation:
        raise UsageError(
            f"--algebra {args.algebra} is cellular but not quasi-hereditary, and this "
            "command needs a quasi-hereditary algebra"
        )


def _require_qh(args: argparse.Namespace, T) -> None:
    _require_qh_algebra(args, T)
    if T.n < T.d:
        raise UsageError(
            "quasi-heredity operations need n >= d: the standard codeterminant "
            "basis is indexed by tableaux with at most n rows per column"
        )


def _emit(args: argparse.Namespace, payload, csv_rows=None) -> None:
    """Write `payload`, text as it is and anything else as JSON, or its
    `csv_rows` under `--out csv` (`main` refuses that option for a command
    that has none); to the `--output` file, or else to stdout."""
    if args.out == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        text = buf.getvalue()
    elif isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {args.output!r}: {exc.strerror}") from None
        return
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream with no bytes under it
        sys.stdout.write(text)
        return
    # bytes go to the stream's buffer, which writes them whole or raises;
    # unbuffered (PYTHONUNBUFFERED) it is the raw file, whose write may take
    # a part only, which the text layer would drop unseen
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data):]


def _witness(args: argparse.Namespace, payload) -> int:
    """A failed cross-check: write its witness as JSON, whatever `--out`
    says, and return the exit code 1."""
    args.out = "json"
    _emit(args, payload)
    return 1


def _make_T(args: argparse.Namespace):
    # the cellular truncation only exists inside the ambient algebra, so it
    # is built there and cut down at the Schur level
    bar = args.algebra.startswith("zigzag-bar:")
    spec = "zigzag:" + args.algebra.split(":", 1)[1] if bar else args.algebra
    # a presentation whose heredity pairs are not basis labels (axiom (a))
    # fails in `build_schur`, as bad an --algebra as one that does not parse
    try:
        alg, data, tau = make_algebra(spec)
        T = build_schur(alg, data, args.n, args.d, tau)
    except ValueError as exc:
        raise UsageError(f"bad --algebra {args.algebra!r}: {exc}") from None
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


def _label_from_json(args: argparse.Namespace, n_labels: int):
    """The `--label`: a multipartition of d with at most n rows per
    component."""
    text = args.label
    try:
        lam = partitions.from_json(_int_json(text))
    except (ValueError, TypeError):
        raise UsageError(f"--label is not a list of lists of integers: {text!r}") from None
    if len(lam) > n_labels:
        raise UsageError("label has more components than the base has colors")
    if any(list(c) != sorted(c, reverse=True) or min(c, default=1) < 1 for c in lam):
        raise UsageError(f"label components must be partitions: {text!r}")
    if sum(map(sum, lam)) != args.d:
        raise UsageError(f"label {text} does not have size d = {args.d}")
    if any(len(c) > args.n for c in lam):
        raise UsageError(f"label {text} has a component with more than n = {args.n} rows")
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

COMMANDS: dict = {}  # name -> (the command, whether it has a CSV form, its own options)


def _command(*options, csv=True):
    """Register a command under its function's name, with its docstring as
    its help and its own options besides the common ones (`_parser`), each
    a flag and its `add_argument` keywords; `csv=False` for a command whose
    output has no rows.  A command takes the parsed arguments and returns 1
    when a cross-check failed."""

    def register(run):
        COMMANDS[run.__name__] = (run, csv, options)
        return run

    return register


@_command(csv=False)
def build(args: argparse.Namespace) -> None:
    """Construct the algebra and report its shape."""
    T = _make_T(args)
    labels = partitions.gen_multipartitions(args.n, args.d, len(T.data.labels) - 1)
    _emit(args, {
        "config": {"algebra": args.algebra, "n": str(args.n), "d": str(args.d),
                   "field": args.field, "out": args.out, "seed": str(args.seed)},
        "base_dim": str(T.alg.dim),
        "rank": str(T.rank),
        "labels": [partitions.to_json(l) for l in labels],
    })


@_command()
def dim(args: argparse.Namespace) -> None:
    """Rank of the algebra (number of canonical orbits)."""
    T = _make_T(args)
    _emit(args, {"rank": str(T.rank)}, csv_rows=[[T.rank]])


@_command(("--left", dict(required=True, help="orbit word as JSON [{b,r,s},...]")),
          ("--right", dict(required=True, help="orbit word as JSON")))
def mul(args: argparse.Namespace) -> None:
    """Product of two basis elements on the divided-power basis."""
    T = _make_T(args)
    x = _orbit_from_json(T, args.left)
    y = _orbit_from_json(T, args.right)
    payload = T.element_to_json(T.mul(x, y))
    _emit(args, payload, csv_rows=[[json.dumps(e["orbit"]), e["coeff"]] for e in payload])


@_command(("--orbit", dict(required=True, help="orbit word as JSON [{b,r,s},...]")),
          ("--backend", dict(choices=["recursive", "solve", "both"], default="both")))
def straighten(args: argparse.Namespace) -> int | None:
    """Expand a basis element over standard codeterminants."""
    from .straighten import Straightener  # loaded only where straightening runs

    T = _make_T(args)
    _require_qh(args, T)
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
        return _witness(args, {"error": "straightening backends disagree",
                              "orbit": triples.TriContext.to_json(rep)})
    expansion = results.get("solve", results.get("recursive"))
    payload = [
        {"shape": partitions.to_json(key[0]),
         "S": tableaux.to_json(key[1]),
         "T": tableaux.to_json(key[2]),
         "coeff": str(c)}
        for key, c in sorted(expansion.items(), key=lambda kv: repr(kv[0]))
        if c
    ]
    _emit(args, payload,
          csv_rows=[[json.dumps(e["shape"]), json.dumps(e["S"]),
                     json.dumps(e["T"]), e["coeff"]] for e in payload])


@_command(("--label", dict(required=True, help="multipartition as JSON [[...],[...]]")),
          ("--method", dict(choices=["tableaux", "formula", "both"], default="both")))
def char(args: argparse.Namespace) -> int | None:
    """Graded character of a standard module."""
    from .characters import char_standard_formula, char_standard_tableaux

    cache = _lr_cache(args)
    T = _make_T(args)
    _require_qh_algebra(args, T)
    lam = _label_from_json(args, len(T.data.labels))
    vecs = {}
    if args.method in ("tableaux", "both"):
        vecs["tableaux"] = char_standard_tableaux(T, lam)
    if args.method in ("formula", "both"):
        vecs["formula"] = char_standard_formula(T, lam, cache)
    if args.method == "both" and vecs["tableaux"] != vecs["formula"]:
        return _witness(args, {"error": "character methods disagree",
                              "label": partitions.to_json(lam)})
    vec = vecs.get("tableaux", vecs.get("formula"))
    rows = [(w, repr(c)) for w, c in sorted(vec.items())]
    _emit(args, [{"weight": [list(comp) for comp in w], "coeff": s} for w, s in rows],
          csv_rows=[[json.dumps([list(comp) for comp in w]), s] for w, s in rows])


@_command(("--method", dict(choices=["formula", "oracle", "both"], default="both")))
def decomp(args: argparse.Namespace) -> int | None:
    """Graded decomposition matrix, by formula, oracle, or both (compared)."""
    from .decomposition import ClassicalDecomp, decomp_formula_row, decomp_oracle

    ring = _ring(args)
    if not ring.is_field:
        raise UsageError("decomposition numbers need a field: Q or Fp:p")
    cache = _lr_cache(args)
    T = _make_T(args)
    _require_qh(args, T)
    labels = partitions.gen_multipartitions(args.n, args.d, len(T.data.labels) - 1)
    matrices = {}
    if args.method in ("oracle", "both"):
        matrices["oracle"] = decomp_oracle(T, ring).entries
    if args.method in ("formula", "both"):
        inp = T.base_decomp
        classical = None if ring == QQ else ClassicalDecomp(args.n, ring)
        matrices["formula"] = {
            (lam, mu): v for lam in labels
            for mu, v in decomp_formula_row(inp, lam, labels, args.n, classical, cache).items() if v}
    if args.method == "both" and matrices["formula"] != matrices["oracle"]:
        diff = sorted(
            repr(k) for k in set(matrices["formula"]) ^ set(matrices["oracle"])
            | {k for k in matrices["formula"] if matrices["formula"][k] != matrices["oracle"].get(k)}
        )
        return _witness(args, {"error": "formula and oracle disagree", "witnesses": diff[:10]})
    mat = matrices.get("oracle", matrices.get("formula"))
    as_json = {lam: partitions.to_json(lam) for lam in labels}
    as_text = {lam: json.dumps(obj) for lam, obj in as_json.items()}
    zero = GradedSuperScalar.zero()
    rows = [(lam, mu, repr(mat.get((lam, mu), zero))) for lam in labels for mu in labels]
    _emit(args, [{"lam": as_json[l], "mu": as_json[m], "entry": e} for l, m, e in rows],
          csv_rows=[[as_text[l], as_text[m], e] for l, m, e in rows])


@_command(csv=False)
def blocks(args: argparse.Namespace) -> None:
    """Linking-graph blocks and the coarse base-block decomposition."""
    from .decomposition import block_decomposition, blocks as linking_blocks, decomp_oracle

    ring = _ring(args)
    if not ring.is_field:
        raise UsageError("block detection needs a field: Q or Fp:p")
    T = _make_T(args)
    _require_qh(args, T)
    D = decomp_oracle(T, ring)
    fine = linking_blocks(D.labels, D.entries)
    coarse = block_decomposition(T.alg, T.data, args.n, args.d)
    _emit(args, {
        "linking_blocks": [[partitions.to_json(l) for l in blk] for blk in fine],
        "base_block_decomposition": [
            {"sizes": [str(s) for s in nu], "labels": [partitions.to_json(l) for l in labs]}
            for nu, labs in coarse.items()
        ],
    })


@_command(csv=False)
def verify(args: argparse.Namespace) -> int:
    """Run the invariant suite and print its rows: PASS, FAIL, or SKIP where
    a check does not apply."""
    # the checks and the layers only this command runs, parsed before the
    # algebra is built: a parse after it would stack on its heap and raise
    # the peak
    from .verification import run_checks

    cache = _lr_cache(args)
    T = _make_T(args)
    results = run_checks(T, args.seed, _ring(args), cache)

    width = max(len(n) for n, _ok, _w in results)
    rows = []
    for name, ok, witness in results:
        verdict = "SKIP" if ok is None else "PASS" if ok else "FAIL"
        rows.append(f"{verdict}  {name.ljust(width)}  {witness}\n")
    _emit(args, "".join(rows))
    return 1 if any(ok is False for _n, ok, _w in results) else 0


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, which reads a command, and each command's own parser by
    name.  Every command takes the common options, whose defaults are the
    settings of a run; no option may be abbreviated."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", default="zigzag:1",
                        help="zigzag:L | zigzag-bar:L | trivial | semisimple:m")
    common.add_argument("-n", type=int, default=2)
    common.add_argument("-d", type=int, default=2)
    common.add_argument("--field", default="Q", help="Z | Q | Fp:p")
    common.add_argument("--out", choices=["json", "csv"], default="json")
    common.add_argument("--output", help="write to file instead of stdout")
    common.add_argument("--cache-dir")
    common.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="schurify", description="Exact computations in generalized Schur algebras.",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, _csv, options) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], allow_abbrev=False,
                             help=run.__doc__, description=run.__doc__)
        for flag, kw in options:
            cmd.add_argument(flag, **kw)
        cmd.set_defaults(run=run)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run the command that `argv` (by default the process's arguments)
    names and return its exit code: 0, or 1 when a check or cross-check
    failed.  A usage error prints one `error:` line on stderr and exits 2;
    sizes out of range, an unknown field and `--out csv` for a command with
    no CSV form are refused before the command runs."""
    parser, commands = _parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 1 or args.d < 0:
            raise UsageError(f"need n >= 1 and d >= 0, got n={args.n}, d={args.d}")
        _ring(args)  # a bad --field is a usage error for every command
        if args.out == "csv" and not COMMANDS[args.command][1]:
            raise UsageError("csv output not available for this command")
        return args.run(args) or 0
    except UsageError as exc:
        commands[args.command].error(str(exc))


# `perfbench/selftest.py` runs the CLI through click's `CliRunner`, which
# reads `main.name` and calls `main.main(args=..., prog_name=...)`.  The two
# stay only until that selftest runs the CLI in a subprocess (ROADMAP item
# 12).
main.name = "schurify"
main.main = lambda args, prog_name: sys.exit(main(list(args)))


if __name__ == "__main__":
    # A command that returns has written its output, closed its files and
    # reaped any child, so the process ends once both streams are flushed,
    # without tearing the interpreter down (about 15 ms a command); atexit
    # handlers do not run.  A usage error, an uncaught exception and a
    # stream that cannot be flushed take the interpreter's own exit, which
    # reports them as before.  A stream is None where its descriptor was
    # closed when the process started.
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)

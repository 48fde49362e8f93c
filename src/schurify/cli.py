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
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import click

from . import partitions, tableaux, triples
from .base_algebra import make_algebra
from .rings import GF, QQ, ZZ, CoefficientRing, GradedSuperScalar
from .schur import build_schur

if TYPE_CHECKING:
    from .characters import LRCache


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
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
        raise click.UsageError(f"unknown field {f!r} (expected Z | Q | Fp:p, p prime)")

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
            raise click.UsageError(f"cannot use the LR cache at {exc.filename!r}: "
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
        raise click.UsageError(f"cannot read --config {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise click.UsageError(f"--config {path!r} is not UTF-8 text") from None
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"bad config line: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _build_config(ctx_obj: dict, **overrides) -> RunConfig:
    cfg = RunConfig()
    for k, v in ctx_obj.get("file_values", {}).items():
        if not hasattr(cfg, k):
            raise click.UsageError(f"unknown config key {k!r}")
        cur = getattr(cfg, k)
        try:
            setattr(cfg, k, type(cur)(v) if cur is not None else v)
        except ValueError:
            raise click.UsageError(f"bad config value {k}={v!r}") from None
        choices = _flag_choices(k)
        if choices and v not in choices:
            raise click.UsageError(
                f"bad config value {k}={v!r} (expected {' | '.join(choices)})")
    for k, v in overrides.items():
        if v is not None:
            setattr(cfg, k, v)
    if cfg.n < 1 or cfg.d < 0:
        raise click.UsageError(f"need n >= 1 and d >= 0, got n={cfg.n}, d={cfg.d}")
    cfg.ring()  # a bad --field is a usage error for every command
    return cfg


def _flag_choices(name: str) -> list[str]:
    """The values the flag --name accepts, checked as strictly for a config
    file: the running command's choices, or any command's when it has no
    such flag; empty when the flag takes any value."""

    def of(cmd) -> list[str]:
        return [c for p in cmd.params if p.name == name and isinstance(p.type, click.Choice)
                for c in p.type.choices]

    own = of(click.get_current_context().command)
    return own or list(dict.fromkeys(c for cmd in main.commands.values() for c in of(cmd)))


def _quasi_hereditary(cfg: RunConfig) -> bool:
    """Whether the algebra is quasi-hereditary; the zigzag-bar truncation is
    only cellular."""
    return not cfg.algebra.startswith("zigzag-bar:")


def _require_qh_algebra(cfg: RunConfig) -> None:
    if not _quasi_hereditary(cfg):
        raise click.UsageError(
            f"--algebra {cfg.algebra} is cellular but not quasi-hereditary, and this "
            "command needs a quasi-hereditary algebra"
        )


def _require_qh(cfg: RunConfig) -> None:
    _require_qh_algebra(cfg)
    if cfg.n < cfg.d:
        raise click.UsageError(
            "quasi-heredity operations need n >= d: the standard codeterminant "
            "basis is indexed by tableaux with at most n rows per column"
        )


def _emit(cfg: RunConfig, payload, csv_rows=None) -> None:
    if cfg.out == "csv":
        if csv_rows is None:
            raise click.UsageError("csv output not available for this command")
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
            raise click.UsageError(f"cannot write --output {cfg.output!r}: {exc.strerror}") from None
    else:
        click.echo(text, nl=False)


def _make_T(cfg: RunConfig):
    # the cellular truncation only exists inside the ambient algebra, so it
    # is built there and cut down at the Schur level
    bar = cfg.algebra.startswith("zigzag-bar:")
    spec = "zigzag:" + cfg.algebra.split(":", 1)[1] if bar else cfg.algebra
    try:
        alg, data, tau = make_algebra(spec)
    except ValueError as exc:
        raise click.UsageError(f"bad --algebra {cfg.algebra!r}: {exc}") from None
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
        raise click.UsageError(f"--label is not a list of lists of integers: {text!r}") from None
    if len(lam) > n_labels:
        raise click.UsageError("label has more components than the base has colors")
    if any(list(c) != sorted(c, reverse=True) or min(c, default=1) < 1 for c in lam):
        raise click.UsageError(f"label components must be partitions: {text!r}")
    if sum(map(sum, lam)) != cfg.d:
        raise click.UsageError(f"label {text} does not have size d = {cfg.d}")
    if any(len(c) > cfg.n for c in lam):
        raise click.UsageError(f"label {text} has a component with more than n = {cfg.n} rows")
    return lam + ((),) * (n_labels - len(lam))


def _orbit_from_json(T, text: str):
    """The eta element of an orbit word given as JSON [{b,r,s},...]."""
    try:
        return T.eta(triples.TriContext.from_json(_int_json(text)))
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"bad orbit {text}: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _common(f):
    f = click.option("--algebra", default=None, help="zigzag:L | zigzag-bar:L | trivial | semisimple:m")(f)
    f = click.option("-n", type=int, default=None)(f)
    f = click.option("-d", type=int, default=None)(f)
    f = click.option("--field", default=None, help="Z | Q | Fp:p")(f)
    f = click.option("--out", type=click.Choice(["json", "csv"]), default=None)(f)
    f = click.option("--output", default=None, help="write to file instead of stdout")(f)
    f = click.option("--cache-dir", default=None)(f)
    f = click.option("--seed", type=int, default=None)(f)
    return f


@click.group()
@click.option("--config", default=None, help="KEY=VALUE config file; flags override")
@click.pass_context
def main(ctx, config):
    """Exact computations in generalized Schur algebras."""
    ctx.ensure_object(dict)
    ctx.obj["file_values"] = _read_config_file(config) if config else {}


@main.command()
@_common
@click.pass_context
def build(ctx, **kw):
    """Construct the algebra and report its shape."""
    cfg = _build_config(ctx.obj, **kw)
    T = _make_T(cfg)
    labels = partitions.gen_multipartitions(cfg.n, cfg.d, len(T.data.labels) - 1)
    _emit(cfg, {
        "config": cfg.to_json(),
        "base_dim": str(T.alg.dim),
        "rank": str(T.rank),
        "labels": [partitions.to_json(l) for l in labels],
    })


@main.command()
@_common
@click.pass_context
def dim(ctx, **kw):
    """Rank of the algebra (number of canonical orbits)."""
    cfg = _build_config(ctx.obj, **kw)
    T = _make_T(cfg)
    _emit(cfg, {"rank": str(T.rank)}, csv_rows=[[T.rank]])


@main.command()
@_common
@click.option("--left", required=True, help="orbit word as JSON [{b,r,s},...]")
@click.option("--right", required=True, help="orbit word as JSON")
@click.pass_context
def mul(ctx, left, right, **kw):
    """Product of two basis elements on the divided-power basis."""
    cfg = _build_config(ctx.obj, **kw)
    T = _make_T(cfg)
    x = _orbit_from_json(T, left)
    y = _orbit_from_json(T, right)
    payload = T.element_to_json(T.mul(x, y))
    _emit(cfg, payload, csv_rows=[[json.dumps(e["orbit"]), e["coeff"]] for e in payload])


@main.command()
@_common
@click.option("--orbit", required=True, help="orbit word as JSON [{b,r,s},...]")
@click.option("--backend", type=click.Choice(["recursive", "solve", "both"]), default="both")
@click.pass_context
def straighten(ctx, orbit, backend, **kw):
    """Expand a basis element over standard codeterminants."""
    from .straighten import Straightener  # loaded only where straightening runs

    cfg = _build_config(ctx.obj, **kw)
    T = _make_T(cfg)
    _require_qh(cfg)
    x = _orbit_from_json(T, orbit)
    if not x:
        raise click.UsageError(f"orbit {orbit} repeats an odd letter")
    (rep,) = x
    results = {}
    if backend in ("solve", "both"):
        results["solve"] = T.codet_basis.solve(x)
    if backend in ("recursive", "both"):
        results["recursive"] = Straightener(T).straighten_element(x)
    if backend == "both" and results["solve"] != results["recursive"]:
        _emit(cfg, {"error": "straightening backends disagree",
                    "orbit": triples.TriContext.to_json(rep)})
        sys.exit(1)
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


@main.command()
@_common
@click.option("--label", required=True, help="multipartition as JSON [[...],[...]]")
@click.option("--method", type=click.Choice(["tableaux", "formula", "both"]), default=None)
@click.pass_context
def char(ctx, label, method, **kw):
    """Graded character of a standard module."""
    from .characters import char_standard_formula, char_standard_tableaux

    cfg = _build_config(ctx.obj, method=method, **kw)
    cache = cfg.lr_cache()
    T = _make_T(cfg)
    _require_qh_algebra(cfg)
    lam = _label_from_json(label, cfg, len(T.data.labels))
    vecs = {}
    if cfg.method in ("tableaux", "both"):
        vecs["tableaux"] = char_standard_tableaux(T, lam)
    if cfg.method in ("formula", "both"):
        vecs["formula"] = char_standard_formula(T, lam, cache)
    if cfg.method == "both" and vecs["tableaux"] != vecs["formula"]:
        _emit(cfg, {"error": "character methods disagree", "label": partitions.to_json(lam)})
        sys.exit(1)
    vec = vecs.get("tableaux", vecs.get("formula"))
    rows = [(w, repr(c)) for w, c in sorted(vec.items())]
    _emit(cfg, [{"weight": [list(comp) for comp in w], "coeff": s} for w, s in rows],
          csv_rows=[[json.dumps([list(comp) for comp in w]), s] for w, s in rows])


@main.command()
@_common
@click.option("--method", type=click.Choice(["formula", "oracle", "both"]), default=None)
@click.pass_context
def decomp(ctx, method, **kw):
    """Graded decomposition matrix, by formula, oracle, or both (compared)."""
    from .decomposition import ClassicalDecomp, decomp_formula_row, decomp_oracle

    cfg = _build_config(ctx.obj, method=method, **kw)
    ring = cfg.ring()
    if not ring.is_field:
        raise click.UsageError("decomposition numbers need a field: Q or Fp:p")
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
        sys.exit(1)
    mat = matrices.get("oracle", matrices.get("formula"))
    as_json = {lam: partitions.to_json(lam) for lam in labels}
    as_text = {lam: json.dumps(obj) for lam, obj in as_json.items()}
    zero = GradedSuperScalar.zero()
    rows = [(lam, mu, repr(mat.get((lam, mu), zero))) for lam in labels for mu in labels]
    _emit(cfg, [{"lam": as_json[l], "mu": as_json[m], "entry": e} for l, m, e in rows],
          csv_rows=[[as_text[l], as_text[m], e] for l, m, e in rows])


@main.command()
@_common
@click.pass_context
def blocks(ctx, **kw):
    """Linking-graph blocks and the coarse base-block decomposition."""
    from .decomposition import block_decomposition, blocks as linking_blocks, decomp_oracle

    cfg = _build_config(ctx.obj, **kw)
    ring = cfg.ring()
    if not ring.is_field:
        raise click.UsageError("block detection needs a field: Q or Fp:p")
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


@main.command()
@_common
@click.pass_context
def verify(ctx, **kw):
    """Run the invariant suite and print a pass/fail table."""
    # the checks and the layers only this command runs, parsed before the
    # algebra is built: a parse after it would stack on its heap and raise
    # the peak
    from .verification import run_checks

    cfg = _build_config(ctx.obj, **kw)
    cache = cfg.lr_cache()
    T = _make_T(cfg)
    results = run_checks(cfg, T, cache, _quasi_hereditary(cfg))

    width = max(len(n) for n, _ok, _w in results)
    for name, ok, witness in results:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {witness}")
    if not all(ok for _n, ok, _w in results):
        sys.exit(1)


if __name__ == "__main__":
    main()

"""In-process layer suite for the traced benchmark run.

Times the public entry points of each schurify layer, from outside, on the
workload's case.  Spans (name, start, end, parent) are recorded by the
benchmark's own code around each call, kept in memory and written out at
the end; nothing inside the program is instrumented.  With `--spans 0` the
same calls run with no span recorded, which is the untraced run the tracing
overhead is measured against.

    PYTHONPATH=src python3 perfbench/layers.py --workload verify --seed 1 \
        --spans 1 --out perfbench/results/layers.json

`perfbench/run.py --trace 1` starts this script; it is not meant for users.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

import checks

# (algebra, n, d) of the case each workload's commands run on
CASES = {
    "verify": ("zigzag:1", 3, 3),
    "decomp": ("zigzag:2", 3, 3),
    "formula": ("zigzag:1", 4, 4),
}
# Layers that are out of reach on a workload's own case run on the verify
# case instead: on zigzag:2 with n=d=3 the unimodularity check over every
# block takes about 30 s; at d=4 the codeterminant basis and the oracle need
# about 95 s and 1.8 GB, and the recursive straightener fails an assertion.
SMALL = CASES["verify"]
ON_SMALL = {
    "verify": frozenset(),
    "decomp": frozenset({"codet", "straighten", "heredity"}),
    "formula": frozenset({"codet", "straighten", "heredity", "decomp.oracle"}),
}
PRIME = {"verify": 3, "decomp": 3, "formula": 2}

BASE_REPEATS = 21
MULT_PAIRS = 300
RSK_ORBITS = 500
SOLVE_ORBITS = 100
STRAIGHTEN_ORBITS = 25
HEREDITY_SAMPLE_B = 10  # as `schurify verify` calls heredity_of_T


class Tracer:
    """Spans kept in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool, trace_id: str):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p in self.spans if n == name]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cold_pairs(T, rng: random.Random, count: int) -> list:
    """Seeded pairs (a, b) whose product can be nonzero (the right profile of
    a is the left profile of b), with no orbit used twice, so that every
    mult_orbits call starts from empty per-orbit caches."""
    pool = rng.sample(T.orbits, min(len(T.orbits), 20 * count))
    by_left: dict = {}
    for o in pool:
        by_left.setdefault(T.profiles(o)[0], []).append(o)
    used: set = set()
    pairs = []
    for a in pool:
        if len(pairs) == count:
            break
        if a in used:
            continue
        b = next((o for o in by_left.get(T.profiles(a)[1], ()) if o not in used and o != a), None)
        if b is not None:
            used.update((a, b))
            pairs.append((a, b))
    return pairs


def suite(tr: Tracer, workload: str, seed: int, scratch: str) -> tuple[dict, list[str]]:
    """Run every layer once; return (counts, problems)."""
    rng = random.Random(seed)
    counts: dict = {}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    with tr.span("cli.import"):
        import schurify.cli  # noqa: F401  the import every command pays
    from schurify import characters as ch
    from schurify import codeterminants as codet
    from schurify.base_algebra import make_algebra, verify_heredity
    from schurify.partitions import gen_multipartitions
    from schurify.rings import GF, QQ
    from schurify.rsk import rsk
    from schurify.schur import build_schur

    spec, n, d = CASES[workload]
    for _ in range(BASE_REPEATS):
        with tr.span("base.build"):
            alg, data, tau = make_algebra(spec)
    for _ in range(BASE_REPEATS):
        with tr.span("base.heredity"):
            rep = verify_heredity(alg, data)
    expect(rep.ok, f"base heredity fails on {spec}")

    with tr.span("orbits.build"):
        T = build_schur(alg, data, n, d, tau)
    counts["orbits.rss_mb"] = peak_rss_mb()
    counts["orbits.count"] = T.rank
    expect(T.rank == checks.rank_closed_form(spec, n, d), f"rank {T.rank} on {spec}")

    pairs = cold_pairs(T, rng, MULT_PAIRS)
    nonzero = 0
    for a, b in pairs:
        with tr.span("mult.pair"):
            prod = T.mult_orbits(a, b)
        nonzero += bool(prod)
    counts["mult.pairs"] = len(pairs)
    counts["mult.nonzero_ratio"] = nonzero / max(1, len(pairs))

    for o in rng.sample(T.orbits, RSK_ORBITS):
        with tr.span("rsk.orbit"):
            rsk(T.ctx, o)

    labels = gen_multipartitions(n, d, len(data.labels) - 1)
    expect(set(labels) == checks.multipartitions(spec, n, d), "labels differ")
    cache = ch.LRCache(os.path.join(scratch, "char.jsonl"))
    for lam in labels:
        with tr.span("char.tableaux"):
            a = ch.char_standard_tableaux(T, lam)
        with tr.span("char.formula"):
            b = ch.char_standard_formula(T, lam, cache)
        expect(a == b, f"character routes differ at {lam}")

    def formula_matrix(T_, cache_):
        inp = ch.DecompInput.from_base(T_.alg, T_.data)
        labels_ = gen_multipartitions(T_.n, T_.d, len(T_.data.labels) - 1)
        return {(lam, mu): v for lam in labels_ for mu in labels_
                if (v := ch.decomp_formula(inp, lam, mu, T_.n, None, cache_))}

    with tr.span("decomp.formula"):
        formula = formula_matrix(T, cache)
    with tr.span("decomp.classical"):
        classical = ch.ClassicalDecomp(n, GF(PRIME[workload]))
        for e in range(1, d + 1):
            expect(classical((e,), (e,)) == 1, f"classical diagonal at {e}")

    def lr_pass(lr):
        for lam in labels:
            ch.char_standard_formula(T, lam, lr)
        formula_matrix(T, lr)

    lr_file = os.path.join(scratch, "lr.jsonl")
    with tr.span("lr.cold"):
        lr_pass(ch.LRCache(lr_file))
    with open(lr_file) as fh:
        counts["lr.stored"] = sum(1 for line in fh if line.strip())
    with tr.span("lr.warm"):
        lr_pass(ch.LRCache(lr_file))

    on_small = ON_SMALL[workload]
    small = T
    if on_small:
        s_spec, s_n, s_d = SMALL
        s_alg, s_data, s_tau = make_algebra(s_spec)
        small = build_schur(s_alg, s_data, s_n, s_d, s_tau)
    Tq = small if "codet" in on_small else T
    with tr.span("codet.basis"):
        cb = codet.CodetBasis(Tq)
        unimodular = cb.unimodular()
    expect(unimodular, "change of basis not unimodular")
    counts["codet.keys"] = len(cb.keys)
    expect(len(cb.keys) == Tq.rank, f"{len(cb.keys)} codeterminants vs rank {Tq.rank}")
    for o in rng.sample(Tq.orbits, SOLVE_ORBITS):
        with tr.span("codet.solve"):
            cb.solve({o: 1})

    Ts = small if "straighten" in on_small else T
    st = codet.Straightener(Ts)
    sample = rng.sample(Ts.orbits, STRAIGHTEN_ORBITS)
    for o in sample:
        with tr.span("straighten.orbit"):
            got = st.straighten_element({o: 1})
        if Ts is Tq:
            expect(got == cb.solve({o: 1}), f"straightening backends differ at {o}")
    counts["straighten.orbits"] = len(sample)

    Th = small if "heredity" in on_small else T
    with tr.span("heredity.schur"):
        rep_t = codet.heredity_of_T(Th, sample_b=HEREDITY_SAMPLE_B)
    expect(rep_t.ok, f"schur heredity fails: {rep_t.failures[:2]}")

    To = small if "decomp.oracle" in on_small else T
    with tr.span("decomp.oracle"):
        oracle = ch.decomp_oracle(To, QQ)
    want = formula if To is T else formula_matrix(To, ch.LRCache(""))
    expect(dict(oracle.entries) == want, "oracle and formula differ")
    return counts, problems


def span_cost_us(repeats: int = 20000) -> float:
    """Cost of recording one empty span.  Times the tracer itself: the
    difference between a traced and an untraced suite is mostly the host's
    drift, far larger than what the spans cost."""
    probe = Tracer(True, "probe")
    t0 = time.perf_counter()
    for _ in range(repeats):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / repeats * 1e6


def layer_metrics(tr: Tracer, counts: dict) -> dict:
    """Per-layer metrics from the spans, with the counts taken beside them."""
    def total(name):
        return sum(tr.durations(name))

    def mean(name):
        xs = tr.durations(name)
        return sum(xs) / len(xs)

    def med(name):
        return statistics.median(tr.durations(name))

    values = {
        "cli.import_s": (total("cli.import"), "s"),
        "base.build_s": (med("base.build"), "s"),
        "base.heredity_s": (med("base.heredity"), "s"),
        "orbits.build_s": (total("orbits.build"), "s"),
        "orbits.count": (counts["orbits.count"], "count"),
        "orbits.rss_mb": (counts["orbits.rss_mb"], "MB"),
        "mult.pair_us": (mean("mult.pair") * 1e6, "us"),
        "mult.pairs": (counts["mult.pairs"], "count"),
        "mult.nonzero_ratio": (counts["mult.nonzero_ratio"], "ratio"),
        "codet.basis_s": (total("codet.basis"), "s"),
        "codet.keys": (counts["codet.keys"], "count"),
        "codet.solve_us": (mean("codet.solve") * 1e6, "us"),
        "straighten.orbit_ms": (mean("straighten.orbit") * 1e3, "ms"),
        "straighten.orbits": (counts["straighten.orbits"], "count"),
        "heredity.schur_s": (total("heredity.schur"), "s"),
        "rsk.orbit_us": (mean("rsk.orbit") * 1e6, "us"),
        "char.tableaux_ms": (mean("char.tableaux") * 1e3, "ms"),
        "char.formula_ms": (mean("char.formula") * 1e3, "ms"),
        "lr.cold_s": (total("lr.cold"), "s"),
        "lr.warm_s": (total("lr.warm"), "s"),
        "lr.stored": (counts["lr.stored"], "count"),
        "decomp.oracle_s": (total("decomp.oracle"), "s"),
        "decomp.formula_s": (total("decomp.formula"), "s"),
        "decomp.classical_s": (total("decomp.classical"), "s"),
        "trace.span_us": (span_cost_us(), "us"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(CASES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    tr = Tracer(bool(args.spans), f"{args.workload}-{args.seed}")
    scratch = tempfile.mkdtemp(prefix="layers-", dir=os.path.dirname(os.path.abspath(args.out)))
    os.environ["SCHURIFY_CACHE_DIR"] = scratch
    t0 = time.perf_counter()
    with tr.span("suite"):
        counts, problems = suite(tr, args.workload, args.seed, scratch)
    wall = time.perf_counter() - t0
    shutil.rmtree(scratch)
    result = {
        "trace_id": tr.trace_id,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "problems": problems,
        "metrics": layer_metrics(tr, counts) if tr.enabled else {},
        "spans": [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                  for n, s, e, p in tr.spans],
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

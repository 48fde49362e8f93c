"""End-to-end benchmark of the schurify CLI.

    python3 perfbench/run.py --workload verify|decomp|formula --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The program is run from `src/` there, the
way its users run it: one `schurify` command per fresh process
(`python3 -m schurify.cli`), one process at a time, each with a fresh, empty
`--cache-dir`.  Every output is checked (see checks.py).  A run first times
the set-up several times and repeats whole rounds of the workload's
commands (S divided by the workload's seconds per round, and at least
one), with the set-up repeats spread between them.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics op_s, wall_s, peak_rss_mb and setup_s, the times scaled to
a fixed host speed by a reference process timed between the commands.  With `--trace 1`
the layer suite in layers.py runs instead, once untraced and once traced, in
fresh processes, and the last line holds the per-layer metrics and the
tracing overhead.  Details of each run go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import checks
from layers import CASES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference", "zigzag1-n4-d4-Q.csv")
OP_TIMEOUT_S = 60  # a command normally takes under 10 s; a killed one fails

VERIFY, DECOMP, FORMULA = CASES["verify"], CASES["decomp"], CASES["formula"]

# The host's speed drifts by up to 1.8x in phases that last from seconds to
# minutes, longer than a run (README.md), so the times are reported at a
# fixed host speed.  A reference process, in the benchmark's own code so that
# no change to the program can move it, is timed before every command and
# after the last, and every time is multiplied by REFERENCE_S over the median
# of those timings.  It is a fresh process that allocates as the commands
# do, because the commands' times follow those of the fresh set-up processes
# (slope 1.0 in log-log over 20 runs) much more closely than those of a loop
# inside this process (slope 0.6).  REFERENCE_S is a round figure near its median
# time on the reference host, so a figure reads as seconds there.
REFERENCE_S = 0.5
REFERENCE_CODE = """
from fractions import Fraction
d = {}
for i in range(60000):
    key = (i % 97, i % 89, i // 7)
    d[key] = d.get(key, 0) + Fraction(i % 13, 1 + i % 5)
print(len(sorted(d.items())))
"""


def time_reference(scratch: str, walls: list[float], problems: list[str]) -> None:
    code, out, err, wall, _rss = run_process([sys.executable, "-c", REFERENCE_CODE], scratch)
    walls.append(wall)
    if code != 0 or out.split() != ["60000"]:
        problems.append(f"reference exit {code}: {(out + err)[-300:]}")


# In a fresh process: import the CLI, then build each case's algebra, as
# every command does before its own work.  Prints the ranks for checking.
SETUP_CODE = """
import json, sys
import schurify.cli
from schurify import build_schur, make_algebra
for spec, n, d in json.loads(sys.argv[1]):
    alg, data, tau = make_algebra(spec)
    print(build_schur(alg, data, n, d, tau).rank)
"""


@dataclass
class Op:
    """One CLI command and the check of its standard output."""
    name: str
    args: list[str]
    check: Callable[[str], list[str]]  # stdout -> problems
    ring: str = ""  # coefficient field of a decomp command
    wall_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    stdout: str = ""
    problems: list[str] = field(default_factory=list)


def case_args(case) -> list[str]:
    spec, n, d = case
    return ["--algebra", spec, "-n", str(n), "-d", str(d)]


# ---------------------------------------------------------------------------
# workloads: each returns the fixed round of commands for a seed
# ---------------------------------------------------------------------------

def verify_round(rng: random.Random) -> list[Op]:
    s = rng.randrange(1, 10**6)
    return [Op(f"verify --seed {s}", ["verify", *case_args(VERIFY), "--seed", str(s)],
               lambda out: checks.check_verify(out, *VERIFY))]


def decomp_op(case, ring: str, method: str, reference: dict | None = None) -> Op:
    def check(out):
        entries, problems = checks.parse_decomp_csv(out)
        problems += checks.check_decomp(entries, *case)
        if reference is not None:
            problems += checks.check_equal(entries, reference, "formula over Q vs oracle reference")
        return problems
    return Op(f"decomp {method} {ring}",
              ["decomp", *case_args(case), "--field", ring, "--method", method, "--out", "csv"],
              check, ring)


def decomp_round(rng: random.Random) -> list[Op]:
    ops = [decomp_op(DECOMP, "Q", "both"), decomp_op(DECOMP, "Fp:3", "both")]
    rng.shuffle(ops)
    return ops


def formula_round(rng: random.Random) -> list[Op]:
    labels = sorted(checks.multipartitions(*FORMULA))
    ops = [Op("dim", ["dim", *case_args(FORMULA)], lambda out: checks.check_dim(out, *FORMULA))]
    for lam in rng.sample(labels, 2):
        text = json.dumps([list(c) for c in lam])

        def check(out):
            char, problems = checks.parse_char_json(out)
            return problems + checks.check_char(char, *FORMULA)
        ops.append(Op(f"char {text}", ["char", *case_args(FORMULA), "--label", text,
                                       "--method", "both"], check))
    with open(REFERENCE) as fh:
        reference, _ = checks.parse_decomp_csv(fh.read())
    ops += [decomp_op(FORMULA, "Q", "formula", reference), decomp_op(FORMULA, "Fp:2", "formula")]
    rng.shuffle(ops)
    return ops


def fp_above_q(ops: list[Op]) -> None:
    """Cross-check within a round: the F_p matrix dominates the Q matrix."""
    passed = [op for op in ops if op.ring and not op.problems]
    q = [checks.parse_decomp_csv(op.stdout)[0] for op in passed if op.ring == "Q"]
    for op in passed:
        if q and op.ring.startswith("Fp:"):
            op.problems += checks.check_dominates(checks.parse_decomp_csv(op.stdout)[0], q[0])


# workload -> (round maker, cases built in set-up, set-up repeats, seconds
# of --seconds per round).  The last is about a round's length on the
# reference host, so that `--seconds 42` gives 6 commands of verify and 6 of
# decomp (see README.md).  formula is not in BENCHMARK.json: it runs by hand.
WORKLOADS = {
    "verify": (verify_round, [VERIFY], 9, 7),
    "decomp": (decomp_round, [DECOMP], 7, 14),
    "formula": (formula_round, [FORMULA], 4, 25),
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def run_process(argv: list[str], scratch: str,
                cli: bool = False) -> tuple[int, str, str, float, float]:
    """Run argv to its end in `scratch` with a fresh cache directory there,
    also passed as `--cache-dir` to a CLI command.  Returns (exit code,
    stdout, stderr, wall seconds, peak RSS in MB of that process alone)."""
    work = tempfile.mkdtemp(prefix="op-", dir=scratch)
    cache = os.path.join(work, "cache")
    os.mkdir(cache)
    env = dict(os.environ, PYTHONPATH=SRC, SCHURIFY_CACHE_DIR=cache)
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    try:
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([*argv, *(["--cache-dir", cache] if cli else [])],
                                    stdout=out, stderr=err, env=env, cwd=work)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024


def run_op(op: Op, scratch: str) -> None:
    argv = [sys.executable, "-m", "schurify.cli", *op.args]
    op.exit_code, op.stdout, stderr, op.wall_s, op.rss_mb = run_process(argv, scratch, cli=True)
    if op.exit_code != 0:
        op.problems.append(f"exit {op.exit_code}: {(op.stdout + stderr)[-300:]}")
        return
    try:
        op.problems += op.check(op.stdout)
    except Exception as exc:  # output the checker cannot read is a wrong answer
        op.problems.append(f"unreadable output ({type(exc).__name__}: {exc}): {op.stdout[:300]!r}")


def setup_once(cases, scratch: str) -> tuple[float, list[str]]:
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(cases)]
    code, out, err, wall, _rss = run_process(argv, scratch)
    if code != 0:
        return wall, [f"set-up exit {code}: {err[-300:]}"]
    want = [str(checks.rank_closed_form(*c)) for c in cases]
    return wall, [] if out.split() == want else [f"set-up ranks {out.split()} != {want}"]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, scratch: str) -> dict:
    make_round, cases, setup_repeats, round_share_s = WORKLOADS[workload]
    problems: list[str] = []
    setup_once([], scratch)  # untimed: byte-compiles the sources
    # A fixed number of rounds, not "until the time is up": every run of a
    # workload then attempts the same operations whatever the host's speed.
    rounds = max(1, int(seconds // round_share_s))
    batches = [make_round(random.Random(seed)) for _ in range(rounds)]
    # the set-up repeats are spread between the operations, so that they see
    # the same stretch of the host's speed as the operations do
    total = rounds * len(batches[0])
    setup_before = [0] * total
    for i in range(setup_repeats):
        setup_before[i * total // setup_repeats] += 1
    setup_walls: list[float] = []
    reference_walls: list[float] = []
    ops: list[Op] = []
    for batch in batches:
        for op in batch:
            for _ in range(setup_before[len(ops)]):
                wall, p = setup_once(cases, scratch)
                setup_walls.append(wall)
                problems += p
            time_reference(scratch, reference_walls, problems)
            run_op(op, scratch)
            ops.append(op)
            print(f"  {op.name:<40} {op.wall_s:7.3f} s {op.rss_mb:7.1f} MB"
                  f"{'' if not op.problems else '  FAILED: ' + op.problems[0]}", flush=True)
        fp_above_q(batch)
    time_reference(scratch, reference_walls, problems)
    walls = [op.wall_s for op in ops]
    measured = {"op_s": statistics.median(walls), "wall_s": sum(walls) / rounds,
                "setup_s": statistics.median(setup_walls)}
    speed = REFERENCE_S / statistics.median(reference_walls)
    failed = [op for op in ops if op.problems]
    # a command that exits 0 with a wrong answer is worse than one that stops
    wrong = [op for op in failed if op.exit_code == 0]
    return {
        "workload": workload, "seed": seed, "trace": 0, "rounds": rounds,
        "correct": not wrong and not problems,
        "attempted": len(ops), "failed": len(failed),
        "problems": problems + [f"{op.name}: {p}" for op in failed for p in op.problems],
        "ops": [{"name": op.name, "wall_s": op.wall_s, "rss_mb": op.rss_mb,
                 "exit": op.exit_code} for op in ops],
        "setup_walls": setup_walls,
        "reference_walls": reference_walls,
        "host_speed": speed,
        "measured_s": measured,
        "metrics": {
            "op_s": {"value": measured["op_s"] * speed, "unit": "s"},
            "wall_s": {"value": measured["wall_s"] * speed, "unit": "s"},
            "peak_rss_mb": {"value": max(op.rss_mb for op in ops), "unit": "MB"},
            "setup_s": {"value": measured["setup_s"] * speed, "unit": "s"},
        },
    }


def traced_run(workload: str, seed: int, scratch: str) -> dict:
    """The layer suite untraced and traced, in that order for an even seed
    and the other way round for an odd one."""
    layers = os.path.join(HERE, "layers.py")
    runs = {}
    problems = []
    failed = 0
    for spans in ((0, 1) if seed % 2 == 0 else (1, 0)):
        out = os.path.join(scratch, f"layers-{spans}.json")
        argv = [sys.executable, layers, "--workload", workload, "--seed", str(seed),
                "--spans", str(spans), "--out", out]
        code, _stdout, err, _wall, _rss = run_process(argv, scratch)
        if not os.path.isfile(out):
            problems.append(f"layer suite (spans={spans}) exit {code}: {err[-300:]}")
            failed += 1
            continue
        with open(out) as fh:
            runs[spans] = json.load(fh)
        problems += runs[spans]["problems"]
        failed += bool(runs[spans]["problems"])
    metrics = dict(runs[1]["metrics"]) if 1 in runs else {}
    if len(runs) == 2:
        overhead = (runs[1]["wall_s"] / runs[0]["wall_s"] - 1) * 100
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        spans, span_us = len(runs[1]["spans"]), metrics["trace.span_us"]["value"]
        print(f"  layer suite untraced {runs[0]['wall_s']:.3f} s, traced {runs[1]['wall_s']:.3f} s:"
              f" overhead {overhead:+.2f}%; {spans} spans at {span_us:.2f} us cost"
              f" {spans * span_us / 1e4 / runs[1]['wall_s']:.4f}%")
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "correct": not any(r["problems"] for r in runs.values()),
        "attempted": 2, "failed": failed,
        "problems": problems, "metrics": metrics,
        "spans": runs[1]["spans"] if 1 in runs else [],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "schurify", "cli.py")):
        print(f"no schurify sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, scratch)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for p in result["problems"][:10]:
        print(f"  problem: {p}")
    if "host_speed" in result:
        print(f"host speed {result['host_speed']:.4f} of the reference; as measured: "
              + ", ".join(f"{k} {v:.4f} s" for k, v in result["measured_s"].items()))
    for name, m in result["metrics"].items():
        print(f"{name:22} {m['value']:14.6f} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

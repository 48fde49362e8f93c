"""Regenerate the reference decomposition matrix for the `formula` workload.

The `formula` workload checks `schurify decomp --method formula` on zigzag:1
with n = d = 4 over Q against this file.  The reference is made by the other
route, the Gram-rank oracle (`--method oracle`), which shares no code path
with the closed formula, so the comparison is a cross-check and not a
snapshot of the formula's own output.  The oracle needs about 100 s and
1.8 GB of memory on one core.

    python3 perfbench/make_reference.py

It runs the CLI from `src/` of the checkout it lives in, with a fresh LR
cache directory under `perfbench/results/`, and rewrites
`perfbench/reference/zigzag1-n4-d4-Q.csv`.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference", "zigzag1-n4-d4-Q.csv")
ARGS = ["decomp", "--algebra", "zigzag:1", "-n", "4", "-d", "4",
        "--field", "Q", "--method", "oracle", "--out", "csv"]


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "schurify", "cli.py")):
        print(f"no schurify sources under {src}", file=sys.stderr)
        return 2
    scratch = os.path.join(HERE, "results")
    os.makedirs(scratch, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="refcache-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=src, SCHURIFY_CACHE_DIR=cache)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "schurify.cli", *ARGS, "--cache-dir", cache],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=False)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
        return 1
    tmp = REFERENCE + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(proc.stdout)
    os.replace(tmp, REFERENCE)
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)} "
          f"({proc.stdout.count(chr(10))} rows) in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

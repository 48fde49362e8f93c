"""Output checks for the schurify benchmark.

Everything here is computed apart from the program: the rank by a closed
form, the label sets by an own generator, and the properties that the
decomposition matrices and the characters must have.  No function imports
`schurify`.  Each checker returns a list of problems; an empty list means
the output passed.
"""
from __future__ import annotations

import csv
import io
import json
from math import comb

Scalar = dict  # {(q-degree, parity): nonzero int}

VERIFY_CHECKS = ("unit", "associativity", "rank", "involution", "straightening",
                 "base heredity", "schur heredity", "characters", "decomposition")


# ---------------------------------------------------------------------------
# combinatorics computed apart from the program
# ---------------------------------------------------------------------------

def base_shape(spec: str) -> tuple[int, int, int]:
    """(even basis elements E, odd basis elements O, colors) of a base algebra.

    zigzag:L has the idempotents e_0..e_L and the cycles c_0..c_{L-1} (even)
    and two arrows between each pair of neighbouring vertices (odd)."""
    if spec == "trivial":
        return 1, 0, 1
    kind, _, arg = spec.partition(":")
    if kind == "zigzag":
        ell = int(arg)
        return 2 * ell + 1, 2 * ell, ell + 1
    raise ValueError(f"no closed form for {spec!r}")


def rank_closed_form(spec: str, n: int, d: int) -> int:
    """[t^d] (1+t)^(O n^2) / (1-t)^(E n^2): a degree-d basis orbit is a
    multiset of letters (basis element, row, column) in which odd letters
    occur at most once."""
    even, odd, _ = base_shape(spec)
    e, o = even * n * n, odd * n * n
    return sum(comb(o, k) * comb(e + d - k - 1, d - k) for k in range(min(d, o) + 1))


def _partitions(d: int, rows: int, largest: int):
    if d == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(d, largest), 0, -1):
        for rest in _partitions(d - first, rows - 1, first):
            yield (first,) + rest


def multipartitions(spec: str, n: int, d: int) -> set:
    """Multipartitions of d with one component per color, each with at most
    n rows: the labels of the standard modules of S^A(n, d)."""
    colors = base_shape(spec)[2]

    def rec(k: int, left: int):
        if k == colors - 1:
            for lam in _partitions(left, n, left):
                yield (lam,)
            return
        for size in range(left + 1):
            for lam in _partitions(size, n, size):
                for rest in rec(k + 1, left - size):
                    yield (lam,) + rest

    return set(rec(0, d))


# ---------------------------------------------------------------------------
# parsing the CLI's output
# ---------------------------------------------------------------------------

def parse_scalar(text: str) -> Scalar:
    """Inverse of the CLI's scalar printer: '1+3*q^2*pi', 'q*pi', '2*q^-1'."""
    out: Scalar = {}
    for part in text.split("+"):
        c, m, eps = 1, 0, 0
        for tok in part.split("*"):
            if tok == "pi":
                eps = 1
            elif tok == "q":
                m = 1
            elif tok.startswith("q^"):
                m = int(tok[2:])
            else:
                c = int(tok)
        out[(m, eps)] = out.get((m, eps), 0) + c
    return {k: v for k, v in out.items() if v}


def _label(text: str) -> tuple:
    return tuple(tuple(int(x) for x in comp) for comp in json.loads(text))


def parse_decomp_csv(text: str) -> tuple[dict, list[str]]:
    """CSV rows lam, mu, entry -> ({(lam, mu): Scalar}, problems)."""
    entries: dict = {}
    problems: list[str] = []
    for row in csv.reader(io.StringIO(text)):
        if len(row) != 3:
            problems.append(f"malformed row {row!r}")
            continue
        try:
            key = (_label(row[0]), _label(row[1]))
            value = parse_scalar(row[2])
        except (ValueError, TypeError) as exc:
            problems.append(f"unparsable row {row!r}: {exc}")
            continue
        if key in entries:
            problems.append(f"duplicate entry {key}")
        entries[key] = value
    return entries, problems


def parse_char_json(text: str) -> tuple[dict, list[str]]:
    """JSON [{"weight": [[...], ...], "coeff": s}] -> ({weight: Scalar}, problems)."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        return {}, [f"char output is not JSON: {exc}"]
    out: dict = {}
    problems: list[str] = []
    for row in rows:
        try:
            w = tuple(tuple(int(x) for x in comp) for comp in row["weight"])
            value = parse_scalar(row["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"unparsable row {row!r}: {exc}")
            continue
        if w in out:
            problems.append(f"duplicate weight {w}")
        out[w] = value
    return out, problems


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_verify(text: str, spec: str, n: int, d: int) -> list[str]:
    """Every check present and PASS; the printed rank equals the closed form;
    the label counts equal the number of multipartitions."""
    problems = []
    seen = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        status, _, rest = line.partition("  ")
        name = next((c for c in VERIFY_CHECKS if rest.startswith(c + " ") or rest == c), None)
        if name is None or status not in ("PASS", "FAIL"):
            problems.append(f"unexpected verify line {line!r}")
            continue
        seen[name] = (status, rest[len(name):].strip())
    for name in VERIFY_CHECKS:
        if name not in seen:
            problems.append(f"verify check {name!r} missing")
        elif seen[name][0] != "PASS":
            problems.append(f"verify check {name!r} failed: {seen[name][1]}")
    want_rank = rank_closed_form(spec, n, d)
    labels = len(multipartitions(spec, n, d))
    expect = {
        "rank": f"rank {want_rank} two ways",
        "characters": f"{labels} labels, two methods",
    }
    for name, witness in expect.items():
        if name in seen and seen[name][1] != witness:
            problems.append(f"verify {name}: {seen[name][1]!r}, expected {witness!r}")
    if "decomposition" in seen and not seen["decomposition"][1].startswith(f"{labels}x{labels} "):
        problems.append(f"verify decomposition: {seen['decomposition'][1]!r}, expected {labels} labels")
    return problems


def check_dim(text: str, spec: str, n: int, d: int) -> list[str]:
    try:
        rank = int(json.loads(text)["rank"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"dim output unreadable: {exc}"]
    want = rank_closed_form(spec, n, d)
    return [] if rank == want else [f"dim {rank}, closed form {want}"]


def check_decomp(entries: dict, spec: str, n: int, d: int) -> list[str]:
    """Labels are exactly the multipartitions, every pair appears once, the
    diagonal is 1 and no coefficient is negative."""
    problems = []
    labels = multipartitions(spec, n, d)
    keys = set(entries)
    want = {(lam, mu) for lam in labels for mu in labels}
    if keys != want:
        extra, missing = sorted(keys - want), sorted(want - keys)
        problems.append(f"label pairs differ: {len(missing)} missing {missing[:3]}, "
                        f"{len(extra)} unexpected {extra[:3]}")
    for lam in labels:
        if (lam, lam) in entries and entries[(lam, lam)] != {(0, 0): 1}:
            problems.append(f"diagonal entry at {lam} is {entries[(lam, lam)]}")
    for key, value in entries.items():
        if any(c < 0 for c in value.values()):
            problems.append(f"negative coefficient at {key}: {value}")
    return problems


def check_dominates(fp: dict, q: dict) -> list[str]:
    """D_p = D_Q . A with A unitriangular and nonnegative, so every graded
    coefficient over F_p is at least the one over Q."""
    problems = []
    for key in set(fp) | set(q):
        a, b = fp.get(key, {}), q.get(key, {})
        for mono in set(a) | set(b):
            if a.get(mono, 0) < b.get(mono, 0):
                problems.append(f"F_p entry below the Q entry at {key}: {a} < {b}")
                break
    return problems


def check_equal(got: dict, want: dict, what: str) -> list[str]:
    diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if not diff:
        return []
    k = diff[0]
    return [f"{what}: {len(diff)} entries differ, first {k}: {got.get(k)} vs {want.get(k)}"]


def check_char(char: dict, spec: str, n: int, d: int) -> list[str]:
    """ch Delta(lambda) is a nonzero weight sum of size d, one composition of
    length n per color, unchanged when the entries of any color's weight are
    permuted (checked on every adjacent transposition)."""
    colors = base_shape(spec)[2]
    if not char:
        return ["empty character"]
    problems = []
    for w, c in char.items():
        if len(w) != colors or any(len(comp) != n for comp in w) or sum(map(sum, w)) != d:
            problems.append(f"weight {w} is not a weight of degree {d}")
            continue
        for i, comp in enumerate(w):
            for k in range(n - 1):
                if comp[k] == comp[k + 1]:
                    continue
                swapped = list(comp)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                w2 = w[:i] + (tuple(swapped),) + w[i + 1:]
                if char.get(w2) != c:
                    problems.append(f"character not symmetric: {w} -> {c}, {w2} -> {char.get(w2)}")
                    break
    return problems


def char_dimension(char: dict) -> int:
    """dim Delta(lambda): the character evaluated at q = 1, pi = 1."""
    return sum(sum(c.values()) for c in char.values())

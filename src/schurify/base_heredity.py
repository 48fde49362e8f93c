"""The heredity check of the base algebra A: the axioms (a), (b), (c) of
based quasi-hereditary heredity data, the f table of the pairing, and
conformity, the even strata being heredity data for the even subalgebra.

The checks read an algebra only through basis, mul_basis, degree and
parity, so they run unchanged on its even subalgebra for the conformity
check.  The Schur algebras built downstream have their own check,
`heredity.heredity_of_T`.

`check_axioms` is the one place that decides whether A's heredity data
holds: `verify_heredity` runs it, and so does
`base_algebra.base_decomp_numbers`, since the decomposition data exists
only when the axioms hold.  So the commands that read that data (`char`,
`decomp`, `blocks` and `verify`) load this module, when they first read
it; `import schurify` reaches `verify_heredity` through the package's
`__getattr__` (see the README's module map).
"""
from __future__ import annotations

from typing import Mapping

from .base_algebra import SIDES, HeredityData, Side, strict_pairs


class HeredityReport:
    def __init__(self, ok: bool, failures: list[str] | None = None,
                 checked: list[str] | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures
        self.checked = [] if checked is None else checked

    def fail(self, axiom: str, witness: str) -> None:
        self.ok = False
        self.failures.append(f"{axiom}: {witness}")


def _in_pairs(of_label: Mapping[str, tuple[int, str, str]], v: Mapping[str, int]) -> dict:
    """An element of the algebra in the heredity pair basis {x*y}.  Once
    `strict_pairs` holds, each x*y is one basis label, so this is a
    relabelling."""
    return {of_label[b]: c for b, c in v.items()}


def check_axioms(alg, data: HeredityData) -> tuple[HeredityReport, dict | None]:
    """Check the heredity axioms (a), (b), (c) and the f table.  Returns the
    report and the pair basis of `strict_pairs`, None when axiom (a) fails.

    `alg` only needs basis / mul_basis / degree / parity.
    """
    report = HeredityReport(ok=True)

    try:
        of_label, _to_label = strict_pairs(alg, data)
    except ValueError as exc:
        report.fail("axiom (a)", str(exc))
        return report, None
    # the pair basis is a relabelling of the basis, so its change of basis is
    # a permutation matrix
    report.checked.append("axiom (a): pair basis invertible (unimodular over Z)")

    # axiom (c): idempotent absorption
    for i in data.labels:
        ei = data.e[i]
        if ei not in data.X[i] or ei not in data.Y[i]:
            report.fail("axiom (c)", f"e_{i} not in X({i}) and Y({i})")
        for side in SIDES:
            v = side.name.lower()
            for z in side.pick(data.X, data.Y)[i]:
                if alg.mul_basis(*side.orient(z, ei)) != {z: 1}:
                    report.fail("axiom (c)", f"{side.spell(v, 'e_i')} != {v} for ({i},{z})")
                want = {z: 1} if z == ei else {}
                if alg.mul_basis(*side.orient(ei, z)) != want:
                    report.fail("axiom (c)", f"{side.spell('e_i', v)} wrong for ({i},{z})")
                for j in data.labels:
                    p = alg.mul_basis(*side.orient(data.e[j], z))
                    if p not in ({z: 1}, {}):
                        report.fail("axiom (c)",
                                    f"{side.spell(f'e_{j}', v)} not in {{{v},0}} for ({i},{z})")
    if report.ok:
        report.checked.append("axiom (c): idempotent absorption")

    def support_ok(expansion, i: int, side: Side) -> tuple[bool, str]:
        """Support must lie in B(j) for j>i, plus pairs (i, x', e_i) [X side]
        or (i, e_i, y') [Y side]."""
        for (j, x, y), c in expansion.items():
            if c == 0:
                continue
            if data.lt(i, j):
                continue
            if j != i:
                return False, f"component B({j}) with {i} not < {j}"
            if side.orient(x, y)[1] != data.e[i]:
                form = side.spell(side.name.lower() + "'", "e_i")
                return False, f"pair ({j},{x},{y}) not of the form {form}"
        return True, ""

    # axiom (b)
    for side in SIDES:
        for a in alg.basis:
            for i in data.labels:
                for z in side.pick(data.X, data.Y)[i]:
                    prod = alg.mul_basis(*side.orient(a, z))
                    if not prod:
                        continue
                    ok, why = support_ok(_in_pairs(of_label, prod), i, side)
                    if not ok:
                        report.fail("axiom (b)",
                                    f"{side.spell('a', side.name.lower())} for ({a},{i},{z}): {why}")
    if report.ok:
        report.checked.append("axiom (b): X(i)/Y(i) span modulo higher ideals")

    # f table: y*x = f_i(y,x) e_i mod A^{>i}, with degree/parity constraints
    for i in data.labels:
        for x in data.X[i]:
            for y in data.Y[i]:
                f = 0
                for (j, xx, yy), c in _in_pairs(of_label, alg.mul_basis(y, x)).items():
                    if data.lt(i, j):
                        continue
                    if (j, xx, yy) == (i, data.e[i], data.e[i]):
                        f = c
                    elif c:
                        report.fail("f table", f"y*x for ({i},{x},{y}) has stray pair ({j},{xx},{yy})")
                if x == data.e[i] and y == data.e[i] and f != 1:
                    report.fail("f table", f"f_{i}(e,e) = {f} != 1")
                hom_trivial = (alg.degree[x] + alg.degree[y] == 0
                               and (alg.parity[x] + alg.parity[y]) % 2 == 0)
                if f != 0 and not hom_trivial:
                    report.fail("f table", f"f_{i}({y},{x}) nonzero in nonzero degree/parity")
    if report.ok:
        report.checked.append("f table: pairing shape")

    return report, of_label


def verify_heredity(alg, data: HeredityData) -> HeredityReport:
    """Check the heredity axioms (a), (b), (c), the f table, and conformity:
    the even strata are heredity data for the even subalgebra, checked by the
    same axioms."""
    report, of_label = check_axioms(alg, data)
    if of_label is None:
        return report
    even_labels = [b for b in alg.basis
                   if alg.parity[of_label[b][1]] == 0 and alg.parity[of_label[b][2]] == 0]
    closed = True
    for a in even_labels:
        for c in even_labels:
            if any(b not in even_labels for b in alg.mul_basis(a, c)):
                closed = False
                report.fail("conforming", f"even subalgebra not closed at ({a},{c})")
    if closed:
        sub_idx = set(even_labels)

        class _Sub:
            basis = tuple(even_labels)
            degree = alg.degree
            parity = alg.parity

            @staticmethod
            def mul_basis(a, c):
                out = alg.mul_basis(a, c)
                return out if all(b in sub_idx for b in out) else {}

        sub_data = HeredityData(
            labels=data.labels,
            strictly_less=data.strictly_less,
            X={i: tuple(x for x in data.X[i] if alg.parity[x] == 0) for i in data.labels},
            Y={i: tuple(y for y in data.Y[i] if alg.parity[y] == 0) for i in data.labels},
            e=dict(data.e),
        )
        sub_report, _ = check_axioms(_Sub, sub_data)
        for msg in sub_report.failures:
            report.fail("conforming", msg)
    if report.ok:
        report.checked.append("conforming: even strata are heredity data for a")
    return report

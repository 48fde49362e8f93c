"""Based quasi-hereditary graded superalgebras: presentations, built-in
constructors, axiom verification, standard modules, idempotent truncation.

An algebra is given by structure constants kappa over Z on a finite labelled
basis.  Heredity data attaches a poset I, sets X(i), Y(i) of basis labels and
initial idempotents e_i; the products x*y must sweep out the basis bijectively
(each x*y is required to be a single basis label with coefficient 1 - true for
every built-in and for the JSON presentation format).

The axiom checks behind `verify_heredity` read an algebra only through basis,
mul_basis, degree and parity, so they run unchanged on its even subalgebra for
the conformity check.  The Schur algebras built downstream have their own
check, `codeterminants.heredity_of_T`.

X(i) and Y(i) are mirror images of each other, and so is every one-sided step
built on them; `Side` carries the one difference, the order of a product, so
each such step is written once for both sides.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .rings import GradedSuperScalar

Elem = dict[str, int]


@dataclass(frozen=True)
class Side:
    """One side of the heredity data: X (x, X_S, a*x) or its mirror Y (y, Y_T,
    y*a).  `orient(a, b)` is (a, b) on the X side and (b, a) on the Y side, so
    a product or a pair written for X reads as its mirror on Y."""

    name: str  # "X" or "Y"; failure texts name an element of the side "x" or "y"
    orient: Callable[[object, object], tuple]

    def pick(self, x_thing, y_thing):
        """The member of a mirrored pair that belongs to this side."""
        return self.orient(x_thing, y_thing)[0]

    @property
    def other(self) -> "Side":
        return self.pick(Y_SIDE, X_SIDE)

    def spell(self, a: str, b: str) -> str:
        """The product a*b written for this side, for failure texts."""
        return "*".join(self.orient(a, b))


X_SIDE = Side("X", lambda a, b: (a, b))
Y_SIDE = Side("Y", lambda a, b: (b, a))
SIDES = (X_SIDE, Y_SIDE)


class BasedSuperalgebra:
    """Finite-dimensional graded superalgebra with integral structure constants."""

    def __init__(
        self,
        basis: Sequence[str],
        kappa: Mapping[tuple[str, str], Mapping[str, int]],
        degree: Mapping[str, int],
        parity: Mapping[str, int],
        unit: Mapping[str, int] | None = None,
    ):
        self.basis = tuple(basis)
        self.kappa = {k: {b: int(c) for b, c in v.items() if c} for k, v in kappa.items()}
        self.kappa = {k: v for k, v in self.kappa.items() if v}
        self.degree = dict(degree)
        self.parity = {b: p % 2 for b, p in parity.items()}
        self.unit = dict(unit) if unit is not None else None
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def mul_basis(self, a: str, c: str) -> Elem:
        return self.kappa.get((a, c), {})

    def multiply(self, x: Mapping[str, int], y: Mapping[str, int]) -> Elem:
        out: Elem = {}
        for a, ca in x.items():
            for c, cc in y.items():
                for b, k in self.mul_basis(a, c).items():
                    out[b] = out.get(b, 0) + ca * cc * k
        return {b: v for b, v in out.items() if v}

    def _validate(self) -> None:
        bset = set(self.basis)
        if len(bset) != len(self.basis):
            raise ValueError("duplicate basis labels")
        for b in self.basis:
            if b not in self.degree or b not in self.parity:
                raise ValueError(f"missing degree/parity for {b!r}")
        for (a, c), out in self.kappa.items():
            if a not in bset or c not in bset or any(b not in bset for b in out):
                raise ValueError(f"kappa entry {(a, c)} mentions unknown labels")
            for b in out:
                if self.degree[b] != self.degree[a] + self.degree[c]:
                    raise ValueError(f"kappa breaks grading at {(a, c)} -> {b}")
                if self.parity[b] != (self.parity[a] + self.parity[c]) % 2:
                    raise ValueError(f"kappa breaks parity at {(a, c)} -> {b}")
        if self.dim <= 16:
            for a in self.basis:
                for b in self.basis:
                    ab = self.mul_basis(a, b)
                    for c in self.basis:
                        left = self.multiply(ab, {c: 1})
                        right = self.multiply({a: 1}, self.mul_basis(b, c))
                        if left != right:
                            raise ValueError(f"kappa not associative at ({a},{b},{c})")
        if self.unit is not None:
            for b in self.basis:
                if self.multiply(self.unit, {b: 1}) != {b: 1} or self.multiply({b: 1}, self.unit) != {b: 1}:
                    raise ValueError(f"declared unit fails on {b!r}")

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "basis": list(self.basis),
            "kappa": [
                {"a": a, "c": c, "out": dict(out)} for (a, c), out in sorted(self.kappa.items())
            ],
            "degree": dict(self.degree),
            "parity": dict(self.parity),
            **({"unit": self.unit} if self.unit is not None else {}),
        }


@dataclass(frozen=True)
class HeredityData:
    """Poset I with X(i), Y(i) and initial idempotents e_i.

    `labels` lists I in the fixed total order refining the partial order;
    `strictly_less` holds the pairs (i, j) with i < j in the partial order.
    """

    labels: tuple[int, ...]
    strictly_less: frozenset[tuple[int, int]]
    X: dict[int, tuple[str, ...]]
    Y: dict[int, tuple[str, ...]]
    e: dict[int, str]

    def lt(self, i: int, j: int) -> bool:
        return (i, j) in self.strictly_less

    def to_json(self) -> dict:
        return {
            "order": sorted(list(p) for p in self.strictly_less),
            "labels": list(self.labels),
            "X": {str(i): list(v) for i, v in self.X.items()},
            "Y": {str(i): list(v) for i, v in self.Y.items()},
            "e": {str(i): v for i, v in self.e.items()},
        }


@dataclass(frozen=True)
class AntiInvolution:
    """Homogeneous anti-involution given by its permutation of the basis."""

    image: dict[str, str]

    def is_standard(self, data: HeredityData) -> bool:
        for i in data.labels:
            if self.image[data.e[i]] != data.e[i]:
                return False
            if sorted(self.image[x] for x in data.X[i]) != sorted(data.Y[i]):
                return False
        return True


def strict_pairs(alg, data: HeredityData) -> tuple[dict[str, tuple[int, str, str]], dict]:
    """The bijection basis label <-> b^i_{x,y}, requiring each x*y to be a
    single basis label with coefficient 1.  Raises if the presentation does not
    have this exact form."""
    of_label: dict[str, tuple[int, str, str]] = {}
    for i in data.labels:
        for x in data.X[i]:
            for y in data.Y[i]:
                prod = alg.mul_basis(x, y)
                if len(prod) != 1 or next(iter(prod.values())) != 1:
                    raise ValueError(f"x*y for ({i},{x},{y}) is not a single basis label: {prod}")
                b = next(iter(prod))
                if b in of_label:
                    raise ValueError(f"pair map not injective at {b!r}")
                of_label[b] = (i, x, y)
    if set(of_label) != set(alg.basis):
        missing = set(alg.basis) - set(of_label)
        raise ValueError(f"heredity pairs do not sweep the basis; missing {sorted(missing)}")
    to_label = {v: k for k, v in of_label.items()}
    return of_label, to_label


def absorbing_colors(alg, data: HeredityData, side: Side) -> dict[str, int]:
    """For each basis element b, the label j with e_j b = b (X side) or
    b e_j = b (Y side).  The e_j are orthogonal, so j is unique; elements
    that no initial idempotent absorbs are left out."""
    out = {}
    for b in alg.basis:
        for j in data.labels:
            if alg.mul_basis(*side.orient(data.e[j], b)) == {b: 1}:
                out[b] = j
                break
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class HeredityReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)

    def fail(self, axiom: str, witness: str) -> None:
        self.ok = False
        self.failures.append(f"{axiom}: {witness}")


def _in_pairs(of_label: Mapping[str, tuple[int, str, str]], v: Mapping[str, int]) -> dict:
    """An element of the algebra in the heredity pair basis {x*y}.  Once
    `strict_pairs` holds, each x*y is one basis label, so this is a
    relabelling."""
    return {of_label[b]: c for b, c in v.items()}


def _check_axioms(alg, data: HeredityData) -> tuple[HeredityReport, dict | None]:
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
    report, of_label = _check_axioms(alg, data)
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
        sub_report, _ = _check_axioms(_Sub, sub_data)
        for msg in sub_report.failures:
            report.fail("conforming", msg)
    if report.ok:
        report.checked.append("conforming: even strata are heredity data for a")
    return report


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------

def _chain(labels: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in labels for j in labels if i < j)


def make_extended_zigzag(ell: int) -> tuple[BasedSuperalgebra, HeredityData, AntiInvolution]:
    """Extended zigzag algebra on vertices 0..ell.

    a{i}_{j} is the arrow path from j to i (|i-j| = 1), c{j} the length-two
    cycle at j (j < ell); paths of length >= 3 vanish, non-cycle length-two
    paths vanish, the two cycles at a common vertex coincide, and the cycle at
    ell is zero.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    labels = list(range(ell + 1))
    basis = [f"e{i}" for i in labels]
    arrows = []
    for j in range(ell):
        arrows += [(j, j + 1), (j + 1, j)]
    basis += [f"a{i}_{j}" for (i, j) in arrows]
    basis += [f"c{j}" for j in range(ell)]

    # (source, target) of each path
    st = {f"e{i}": (i, i) for i in labels}
    st.update({f"a{i}_{j}": (j, i) for (i, j) in arrows})
    st.update({f"c{j}": (j, j) for j in range(ell)})
    length = {b: (0 if b.startswith("e") else 1 if b.startswith("a") else 2) for b in basis}

    def compose(p: str, q: str) -> Elem:
        """Product p*q = path q then path p."""
        sq, tq = st[q]
        sp, tp = st[p]
        if tq != sp:
            return {}
        tot = length[p] + length[q]
        if tot > 2:
            return {}
        if length[p] == 0:
            return {q: 1}
        if length[q] == 0:
            return {p: 1}
        # two arrows: q goes sq -> tq, p goes tq -> tp
        if sq != tp:
            return {}  # non-cycle length-two path
        v = sq  # base vertex of the cycle
        return {f"c{v}": 1} if v < ell else {}

    kappa = {}
    for p in basis:
        for q in basis:
            out = compose(p, q)
            if out:
                kappa[(p, q)] = out
    alg = BasedSuperalgebra(
        basis,
        kappa,
        degree=length,
        parity={b: length[b] % 2 for b in basis},
        unit={f"e{i}": 1 for i in labels},
    )
    X = {0: ("e0",)}
    Y = {0: ("e0",)}
    for i in range(1, ell + 1):
        X[i] = (f"e{i}", f"a{i - 1}_{i}")
        Y[i] = (f"e{i}", f"a{i}_{i - 1}")
    data = HeredityData(
        labels=tuple(labels),
        strictly_less=_chain(labels),
        X=X,
        Y=Y,
        e={i: f"e{i}" for i in labels},
    )
    tau = AntiInvolution(
        image={**{f"e{i}": f"e{i}" for i in labels},
               **{f"a{i}_{j}": f"a{j}_{i}" for (i, j) in arrows},
               **{f"c{j}": f"c{j}" for j in range(ell)}}
    )
    return alg, data, tau


def make_trivial() -> tuple[BasedSuperalgebra, HeredityData, AntiInvolution]:
    """A = k: seeds the classical Schur algebra."""
    alg = BasedSuperalgebra(
        ["1"], {("1", "1"): {"1": 1}}, degree={"1": 0}, parity={"1": 0}, unit={"1": 1}
    )
    data = HeredityData(
        labels=(0,), strictly_less=frozenset(), X={0: ("1",)}, Y={0: ("1",)}, e={0: "1"}
    )
    return alg, data, AntiInvolution(image={"1": "1"})


def make_semisimple(m: int) -> tuple[BasedSuperalgebra, HeredityData, AntiInvolution]:
    """A = k^(+m): m orthogonal idempotents, discrete poset."""
    if m < 1:
        raise ValueError("need m >= 1")
    basis = [f"u{t}" for t in range(m)]
    alg = BasedSuperalgebra(
        basis,
        {(b, b): {b: 1} for b in basis},
        degree={b: 0 for b in basis},
        parity={b: 0 for b in basis},
        unit={b: 1 for b in basis},
    )
    data = HeredityData(
        labels=tuple(range(m)),
        strictly_less=frozenset(),
        X={t: (f"u{t}",) for t in range(m)},
        Y={t: (f"u{t}",) for t in range(m)},
        e={t: f"u{t}" for t in range(m)},
    )
    return alg, data, AntiInvolution(image={b: b for b in basis})


# ---------------------------------------------------------------------------
# standard modules and decomposition numbers of the base algebra
# ---------------------------------------------------------------------------

@dataclass
class StandardModuleBase:
    color: int
    x_basis: tuple[str, ...]
    y_basis: tuple[str, ...]
    # action[a][x] = dict over x' of l^x_{x'}(a)
    action: dict[str, dict[str, dict[str, int]]]
    right_action: dict[str, dict[str, dict[str, int]]]
    gram: list[list[int]]  # gram[xi][yi] = f_i(y, x)


def _pair_labels(alg, data: HeredityData) -> dict[str, tuple[int, str, str]]:
    """`strict_pairs` for the constructions that need verified heredity data."""
    try:
        return strict_pairs(alg, data)[0]
    except ValueError as exc:
        raise ValueError(f"heredity axiom (a) fails; verify first: {exc}") from exc


def standard_module_base(alg: BasedSuperalgebra, data: HeredityData, i: int) -> StandardModuleBase:
    of_label = _pair_labels(alg, data)

    def project(prod: Mapping[str, int], side: Side) -> dict[str, int]:
        out: dict[str, int] = {}
        for (j, *xy), c in _in_pairs(of_label, prod).items():
            own, other = side.orient(*xy)
            if j == i and other == data.e[i]:
                out[own] = c
            elif not data.lt(i, j) and c:
                raise ValueError("axiom (b) violated; verify first")
        return out

    action, right_action = (
        {a: {z: project(alg.mul_basis(*side.orient(a, z)), side)
             for z in side.pick(data.X, data.Y)[i]}
         for a in alg.basis}
        for side in SIDES
    )
    unit_pair = (i, data.e[i], data.e[i])
    gram = [[_in_pairs(of_label, alg.mul_basis(y, x)).get(unit_pair, 0) for y in data.Y[i]]
            for x in data.X[i]]
    return StandardModuleBase(i, data.X[i], data.Y[i], action, right_action, gram)


def base_decomp_numbers(alg: BasedSuperalgebra, data: HeredityData):
    """Graded decomposition matrix d_{i,j}(q, pi) for a basic algebra.

    For basic A (all simples one-dimensional, concentrated in degree 0), the
    multiplicity [Delta(i) : q^n pi^eps L(j)] is the graded dimension of
    e_j Delta(i), i.e. a sum over x in X(i) absorbed by e_j.
    """
    # basicness: the Gram pairing of each Delta(i) must have rank exactly 1,
    # concentrated on the (e_i, e_i) entry in degree 0.
    for i in data.labels:
        sm = standard_module_base(alg, data, i)
        nz = [(x, y) for xi, x in enumerate(sm.x_basis) for yi, y in enumerate(sm.y_basis)
              if sm.gram[xi][yi] != 0]
        if any(alg.degree[x] + alg.degree[y] != 0 for x, y in nz):
            raise ValueError(f"algebra not basic at i={i}: pairing not concentrated in degree 0")
    left = absorbing_colors(alg, data, X_SIDE)
    out: dict[tuple[int, int], GradedSuperScalar] = {}
    for i in data.labels:
        for j in data.labels:
            acc = GradedSuperScalar.zero()
            for x in data.X[i]:
                if left.get(x) == j:
                    acc = acc + GradedSuperScalar.term(1, alg.degree[x], alg.parity[x])
            if acc:
                out[(i, j)] = acc
    return out


@dataclass(frozen=True)
class DecompInput:
    """Graded decomposition data of the base algebra, flattened into slots
    (i, j, m, eps, t): column index of a multipartition tuple, one partition
    per copy of a graded composition-factor multiplicity.  For a basic base
    the slots out of i are X(i), each x as (its absorbing color, degree,
    parity)."""

    labels: tuple
    slots: tuple[tuple[int, int, int, int, int], ...]

    @staticmethod
    def from_base(alg: BasedSuperalgebra, data: HeredityData) -> "DecompInput":
        dd = base_decomp_numbers(alg, data)
        slots = []
        for (i, j), g in sorted(dd.items()):
            if i == j:
                if g != GradedSuperScalar.one():
                    raise ValueError(f"diagonal decomposition number at {i} is not 1")
            elif not data.lt(j, i):
                raise ValueError(f"nonzero decomposition number above the diagonal: {(i, j)}")
            for (m, eps), c in sorted(g.coeffs.items()):
                if c < 0:
                    raise ValueError("negative multiplicity in base decomposition data")
                for t in range(1, c + 1):
                    slots.append((i, j, m, eps, t))
        return DecompInput(labels=data.labels, slots=tuple(slots))

    def slots_from(self, i) -> list:
        return [s for s in self.slots if s[0] == i]


# ---------------------------------------------------------------------------
# idempotent truncation
# ---------------------------------------------------------------------------

@dataclass
class Truncation:
    algebra: BasedSuperalgebra
    data: HeredityData


def truncate_base(alg: BasedSuperalgebra, data: HeredityData, colors: Sequence[int]) -> Truncation:
    """Truncate by e = sum of the distinct initial idempotents e_i, i in colors."""
    colors = frozenset(colors)
    if not colors <= set(data.labels):
        raise ValueError("unknown colors in truncating idempotent")
    es = [data.e[i] for i in sorted(colors)]
    absorbers = {side: absorbing_colors(alg, data, side) for side in SIDES}

    def absorbed(b: str, side: Side) -> bool:
        return absorbers[side].get(b) in colors

    sub_basis = [b for b in alg.basis if all(absorbed(b, side) for side in SIDES)]
    keep = set(sub_basis)
    kappa = {
        (a, c): out
        for (a, c), out in alg.kappa.items()
        if a in keep and c in keep and all(b in keep for b in out)
    }
    # products of kept elements stay in the truncation automatically
    for a in sub_basis:
        for c in sub_basis:
            out = alg.mul_basis(a, c)
            if out and any(b not in keep for b in out):
                raise AssertionError("truncation not closed; adapted assumption broken")
    unit = {e: 1 for e in es}
    sub = BasedSuperalgebra(
        sub_basis, kappa,
        degree={b: alg.degree[b] for b in sub_basis},
        parity={b: alg.parity[b] for b in sub_basis},
        unit=unit,
    )
    Xb, Yb = (
        {i: tuple(z for z in side.pick(data.X, data.Y)[i] if absorbed(z, side))
         for i in data.labels}
        for side in SIDES
    )
    I_bar = tuple(i for i in data.labels if Xb[i] and Yb[i])
    sub_data = HeredityData(
        labels=I_bar,
        strictly_less=frozenset(p for p in data.strictly_less if p[0] in I_bar and p[1] in I_bar),
        X={i: Xb[i] for i in I_bar},
        Y={i: Yb[i] for i in I_bar},
        e={i: data.e[i] for i in I_bar if i in colors},
    )
    return Truncation(sub, sub_data)


def make_zigzag_bar(ell: int) -> tuple[Truncation, AntiInvolution]:
    alg, data, tau = make_extended_zigzag(ell)
    trunc = truncate_base(alg, data, range(ell))
    sub_tau = AntiInvolution(image={b: tau.image[b] for b in trunc.algebra.basis})
    return trunc, sub_tau


# ---------------------------------------------------------------------------
# JSON presentation files
# ---------------------------------------------------------------------------

def load_presentation(obj: dict | str) -> tuple[BasedSuperalgebra, HeredityData]:
    if isinstance(obj, str):
        obj = json.loads(obj)
    alg = BasedSuperalgebra(
        obj["basis"],
        {(k["a"], k["c"]): k["out"] for k in obj["kappa"]},
        degree=obj["degree"],
        parity=obj["parity"],
        unit=obj.get("unit"),
    )
    h = obj["heredity"]
    labels = tuple(int(i) for i in h.get("labels", sorted(int(k) for k in h["e"])))
    data = HeredityData(
        labels=labels,
        strictly_less=frozenset((int(i), int(j)) for i, j in h["order"]),
        X={int(i): tuple(v) for i, v in h["X"].items()},
        Y={int(i): tuple(v) for i, v in h["Y"].items()},
        e={int(i): v for i, v in h["e"].items()},
    )
    return alg, data


def dump_presentation(alg: BasedSuperalgebra, data: HeredityData) -> dict:
    out = alg.to_json()
    out["heredity"] = data.to_json()
    return out


def make_algebra(spec: str):
    """Resolve a base algebra spec: zigzag:L | trivial | semisimple:m.  The
    CLI's zigzag-bar:L is built from zigzag:L and truncated at the Schur
    level (`cli._make_T`), so it is no spec here."""
    if spec == "trivial":
        return make_trivial()
    if spec.startswith("zigzag:"):
        return make_extended_zigzag(int(spec.split(":", 1)[1]))
    if spec.startswith("semisimple:"):
        return make_semisimple(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown algebra spec {spec!r}")

"""Based quasi-hereditary graded superalgebras: the constructors, the
built-in algebras, heredity data and the base decomposition numbers.

An algebra is given by structure constants kappa over Z on a finite labelled
basis (`BasedSuperalgebra`).  Heredity data (`HeredityData`) attaches a poset
I, sets X(i), Y(i) of basis labels and initial idempotents e_i; the products
x*y must sweep out the basis bijectively (each x*y is required to be a single
basis label with coefficient 1 - true for every built-in).

The heredity check of A is `base_heredity`, a module of its own, which a
command loads only when it runs it (see the README's module map).  The
decomposition numbers run the check's axioms first.

X(i) and Y(i) are mirror images of each other, and so is every one-sided step
built on them; `Side` carries the one difference, the order of a product, so
each such step is written once for both sides.
"""
from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

from .rings import GradedSuperScalar

Elem = dict[str, int]


class Side:
    """One side of the heredity data: X (x, X_S, a*x) or its mirror Y (y, Y_T,
    y*a).  `orient(a, b)` is (a, b) on the X side and (b, a) on the Y side, so
    a product or a pair written for X reads as its mirror on Y.  `X_SIDE` and
    `Y_SIDE` are the only two, so a side equals and hashes as itself."""

    __slots__ = ("name", "orient")

    def __init__(self, name: str, orient: Callable[[object, object], tuple]):
        self.name = name  # "X" or "Y"; failure texts name an element of the side "x" or "y"
        self.orient = orient

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


class HeredityData(NamedTuple):
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


class AntiInvolution(NamedTuple):
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


# ---------------------------------------------------------------------------
# decomposition numbers of the base algebra
# ---------------------------------------------------------------------------

def base_decomp_numbers(alg: BasedSuperalgebra, data: HeredityData):
    """Graded decomposition matrix d_{i,j}(q, pi) of A.

    It exists when A's heredity data holds, which `base_heredity.check_axioms`
    decides; a ValueError names its first failure otherwise.  Its f table
    puts the pairing of each Delta(i) in degree 0, so A is basic (all simples
    one-dimensional, concentrated in degree 0), and the multiplicity
    [Delta(i) : q^n pi^eps L(j)] is the graded dimension of e_j Delta(i),
    i.e. a sum over x in X(i) absorbed by e_j.
    """
    # imported here, so that loading this module loads no heredity check
    from .base_heredity import check_axioms

    report, _of_label = check_axioms(alg, data)
    if not report.ok:
        raise ValueError(f"heredity data fails; verify first: {report.failures[0]}")
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


class DecompInput(NamedTuple):
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
                for t in range(1, c + 1):
                    slots.append((i, j, m, eps, t))
        return DecompInput(labels=data.labels, slots=tuple(slots))

    def slots_from(self, i) -> list:
        return [s for s in self.slots if s[0] == i]


# ---------------------------------------------------------------------------
# the layer that moved out, by its old name
# ---------------------------------------------------------------------------

_MOVED = {"verify_heredity": "base_heredity"}


def __getattr__(name: str):
    """`verify_heredity` read here loads its own module, `base_heredity`
    (PEP 562), for the layer benchmark (`perfbench/layers.py`), which still
    names it on this module.  Nothing under `src/` or `tests/` reads it
    here.  This goes with ROADMAP item 12, once the benchmark reads
    `base_heredity`."""
    if name in _MOVED:
        from importlib import import_module

        return getattr(import_module(f".{_MOVED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""The heredity check of T^A_a(n, d): the axioms of a quasi-hereditary
algebra for the standard codeterminant structure of `codeterminants`.

  (a) the standard codeterminants are a unimodular basis over Z: their
      count is the rank, and every block of the change of basis has
      determinant +-1 (`CodetBasis.non_unimodular_block`, the walk);
  (c) the shape idempotents absorb the X and Y elements as they should;
  (b) a product a * X_S (or Y_T * a) lands in the X (or Y) span modulo the
      strictly greater shapes, solved on index words
      (`CodetBasis.solve_terms`).

The products run through the product kernel on index words, each
tableau's word and sign read off the walk's shares
(`CodetBasis.tableau_shares`).

Only `verify` loads this module (see the README's module map for why the
other commands do not).
"""
from __future__ import annotations

from functools import cache
from itertools import islice

from .base_algebra import SIDES, Side
from .base_heredity import HeredityReport
from .partitions import compare
from .schur import SchurAlgebra
from .triples import OnLookup


def heredity_of_T(T: SchurAlgebra, sample_b: int | None = None) -> HeredityReport:
    """Verify the heredity axioms for the codeterminant structure on T, and
    return the failures, each named by its axiom as the base check names
    its own (`HeredityReport.fail`).  A failure of axiom (a)'s walk ends
    the check, since axioms (c) and (b) solve in the blocks it walks.

    `sample_b` caps, per X/Y element, the number of weight-compatible basis
    orbits multiplied through in the span check: the first ones in the order
    of `T.orbits`, listed one weight at a time.  None checks all of them.
    """
    if T.n < T.d:
        raise ValueError("requires n >= d")
    cb = T.codet_basis
    report = HeredityReport()

    # axiom (a): standard codeterminants are a unimodular basis
    count = sum(len(cb.std_x[bold]) * len(cb.std_y[bold]) for bold in cb.shapes)
    if count != T.rank:
        report.fail("axiom (a)", f"{count} codeterminants vs rank {T.rank}")
    try:
        bad = cb.non_unimodular_block()
    except AssertionError as exc:
        report.fail("axiom (a)", str(exc))
        return report
    if bad is not None:
        # axiom (b) needs the integral solve, which a non-unimodular block breaks
        report.fail("axiom (a)", "change of basis not unimodular: "
                                 f"block {bad[0]} has determinant {bad[1]}")
        return report

    @cache
    def strictly_greater(mu, lam) -> bool:
        return compare(mu, lam) == "GT"

    # axiom (c): idempotent absorption against X and Y elements
    padded = {bold: tuple(tuple(c) + (0,) * (T.n - len(c)) for c in bold) for bold in cb.shapes}

    def name(side: Side) -> str:
        return f"{side.name}_{side.pick('S', 'T')}"

    # the products run on index words through the product kernel, each
    # factor one orbit as (left factor, right factor, coefficient, profiles
    # of its own word as sorted words of profile slots), 0 without the
    # kernel when the profiles do not meet.  A tableau's index word and sign
    # are read off its share of the walk (`CodetBasis.tableau_shares`).  A
    # word's factors come from the algebra's tables when they hold it, as
    # they hold each share's own, else are made and kept for axioms (c) and
    # (b) both, until it returns
    lefts = OnLookup(lambda w: T.lefts.get(w) or T.left_factor(w))
    rights = OnLookup(lambda w: T.rights.get(w) or T.right_factor(w))
    slots = T.ctx.slots
    shares = cb.tableau_shares()

    def factors(word, c) -> tuple:
        profiles = tuple(tuple(sorted(map(slot.__getitem__, word))) for slot in slots)
        return lefts[word], rights[word], c, profiles

    def times(a, b) -> dict:
        if a[3][1] != b[3][0]:
            return {}
        return T.product_terms(a[0], b[1], a[2] * b[2])

    index = T.ctx.index
    idem = {}
    for bold in cb.shapes:
        (orbit, c), = T.idempotent_bold(bold).items()
        idem[bold] = factors(tuple([index[lt] for lt in orbit]), c)
    for bold in cb.shapes:
        for side in SIDES:
            nm = name(side)
            # "X_S e", "e X_S" and "e_mu X_S" on the X side, mirrored on Y
            elt_e, e_elt, emu_elt = (" ".join(side.orient(a, b))
                                     for a, b in ((nm, "e"), ("e", nm), ("e_mu", nm)))
            initial = side.pick(*cb.initial_tableau_pair(bold))
            for tab, (weight, _deg, _par) in side.pick(*cb._tableau_blocks[bold]):
                share = side.pick(*shares)[tab]
                elt, terms = factors(share.factor[0], share.sign), {share.factor[0]: share.sign}
                witness = f"{side.pick('S', 'T')} = {tab}"
                if times(*side.orient(elt, idem[bold])) != terms:
                    report.fail("axiom (c)", f"{elt_e} != {nm} at {bold}: {witness}")
                want = terms if tab == initial else {}
                if times(*side.orient(idem[bold], elt)) != want:
                    report.fail("axiom (c)", f"{e_elt} wrong at {bold}: {witness}")
                for bold2 in cb.shapes:
                    want = terms if padded[bold2] == weight else {}
                    if times(*side.orient(idem[bold2], elt)) != want:
                        report.fail("axiom (c)", f"{emu_elt} not diagonal at {bold}: "
                                                 f"{witness}, mu = {bold2}")

    # axiom (b): products land in X (resp. Y) span modulo strictly greater shapes.
    # An orbit a meets X_S on its right profile and Y_T on its left profile;
    # a * X_S takes a as a left factor, Y_T * a as a right one.
    def meeting(key) -> list:
        side, weight = key
        factor = side.pick(lefts, rights)
        return [(orbit, factor[tuple([index[lt] for lt in orbit])])
                for orbit in islice(T.orbits_with_profile(side.pick(1, 0), weight), sample_b)]

    candidates = OnLookup(meeting)

    for bold in cb.shapes:
        for side in SIDES:
            other_initial = side.orient(*cb.initial_tableau_pair(bold))[1]
            for tab, (weight, _deg, _par) in side.pick(*cb._tableau_blocks[bold]):
                share = side.pick(*shares)[tab]
                factor = side.pick(rights, lefts)[share.factor[0]]
                for orbit, a in candidates[side, weight]:
                    prod = T.product_terms(*side.orient(a, factor), share.sign)
                    if not prod:
                        continue
                    for key in cb.solve_terms(prod):
                        mu, *pair = key
                        if strictly_greater(mu, bold):
                            continue
                        if mu != bold or side.orient(*pair)[1] != other_initial:
                            report.fail(
                                "axiom (b)",
                                f"{side.spell('a', name(side))} escapes the "
                                f"{side.name} span at {bold}: a = {orbit}, "
                                f"{side.pick('S', 'T')} = {tab}, codeterminant {key}"
                            )

    return report

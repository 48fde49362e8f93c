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

Axiom (a)'s walk runs on two processes (`Started`), which exchange only
the indices of runs of X weights.  `verify` builds a `Started` before its
first row: it queues the runs in one pipe, a byte each, and forks a child
that walks the runs it pulls and exits with its verdict as its status.
This process runs the other rows and axioms (c) and (b), then walks the
runs left, and walks the least failing run of the two again, so that the
failure it reports, or the exception it raises, is the one a walk in one
process finds.  A command's peak RSS is the larger of the two processes'
peaks.  A platform without `os.fork` walks in one process.

Right after the fork, this process moves to the lowest CPU it may run on
and the child to the next, and each then allows itself every one of them
again (`_place`).  A host whose cpusets do not balance load
(`cpuset.sched_load_balance` 0) leaves a forked child on its parent's CPU,
where the two walkers would take turns; a moved process stays where it was
moved.  With one CPU allowed, no affinity API, or a call that fails, both
stay where the fork left them, and the walk is the same.

Only `verify` loads this module (see the README's module map for why the
other commands do not).
"""
from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import islice

from .base_algebra import SIDES, Side
from .base_heredity import HeredityReport
from .partitions import leq, pad
from .schur import SchurAlgebra
from .triples import OnLookup


def heredity_of_T(T: SchurAlgebra, sample_b: int | None = None) -> HeredityReport:
    """Verify the heredity axioms for the codeterminant structure on T, and
    return the failures, each named by its axiom as the base check names
    its own (`HeredityReport.fail`): a `Started` check finished at once.

    `sample_b` caps, per X/Y element, the number of weight-compatible basis
    orbits multiplied through in the span check: the first ones in the order
    of `T.orbits`, listed one weight at a time.  None checks all of them.
    """
    return Started(T, sample_b)()


# the X weights go into the queue in runs of consecutive weights, one byte
# per run, at most 254 runs: the queue is written whole before the fork, so
# no write blocks, and a child's exit status 1 + j names its failing run j
# (zigzag:1 has 56 X weights at n=d=3, 330 at n=d=4, 2 002 at n=d=5)
RUNS = 254


def _place(rank: int) -> None:
    """Move this process to the allowed CPU of this `rank` in ascending order
    (0 for `verify`'s process, 1 for its child), then allow it every one
    again: the kernel moves a process when its own mask changes, and a host
    that does not balance load leaves it there.  With fewer than two CPUs
    allowed, no affinity API, or a call that fails, it stays where it is."""
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            return
        try:
            os.sched_setaffinity(0, {sorted(allowed)[rank]})
        finally:
            os.sched_setaffinity(0, allowed)
    except (AttributeError, OSError):
        pass


class Started:
    """A heredity check of T whose axiom (a) walk has begun on a second
    process; calling it finishes the check.

    The X weights of the walk, in runs of consecutive weights, are queued
    as their indices in a pipe; a forked child and then this process pull
    runs from it in ascending order, and each walks the blocks of the runs
    it pulls in sorted key order (`CodetBasis.non_unimodular_block`) until
    its first failure.  The child's exit status is its verdict: 0 when its
    runs pass, 1 + the index of its first failing run; any other status, a
    signal included, is no verdict, and this process then walks every run.
    Every run below the least failing run of the two was pulled and walked
    whole, so walking that one run again here finds the least failing
    block, with the text, exception and traceback of a walk in one process.
    Where `os.fork` does not exist or fails, this process pulls every run.
    After the fork, this process and the child each move to an allowed CPU
    of their own, the lowest and the next (`_place`).
    """

    def __init__(self, T: SchurAlgebra, sample_b: int | None):
        self.T, self.sample_b, self.pid = T, sample_b, None
        weights = T.codet_basis._weights[0]
        size = max(1, -(-len(weights) // RUNS))
        self.runs = [weights[i:i + size] for i in range(0, len(weights), size)]
        self.queue, fill = os.pipe()
        os.write(fill, bytes(range(len(self.runs))))
        os.close(fill)
        try:
            self.pid = os.fork()
        except (AttributeError, OSError):  # no fork here: this process walks alone
            return
        if self.pid == 0:
            code = 255
            try:
                _place(1)
                failed = self._failing_run(self._pulled())
                code = 0 if failed is None else 1 + failed
            finally:
                os._exit(code)
        _place(0)

    def _pulled(self) -> Iterator[int]:
        """The indices of the runs left in the queue, pulled one at a time."""
        while index := os.read(self.queue, 1):
            yield index[0]

    def _failing_run(self, pulled: Iterable[int]) -> int | None:
        """The first run of those `pulled` whose walk fails, by a block that
        is not unimodular or by any exception raised; None when they pass.
        An exception raised before the first pull names run 0."""
        at = 0  # the run last pulled, whose blocks the walk is on

        def weights():
            nonlocal at
            for at in pulled:
                yield from self.runs[at]

        try:
            return None if self.T.codet_basis.non_unimodular_block(weights()) is None else at
        except Exception:  # walked again, to raise here
            return at

    def _least_failing_run(self) -> int | None:
        """Walk the runs left in the queue here, reap the child, and return
        the least failing run of the two, or None.  When the child exits
        without a verdict, every run is walked here again."""
        failed = [self._failing_run(self._pulled())]
        if self.pid is not None:
            _pid, status = os.waitpid(self.pid, 0)
            self.pid = None
            code = os.waitstatus_to_exitcode(status)
            if 0 <= code <= len(self.runs):
                failed.append(code - 1 if code else None)
            else:
                failed = [self._failing_run(range(len(self.runs)))]
        return min((j for j in failed if j is not None), default=None)

    def close(self) -> None:
        """Kill and reap the child if it still runs, and close the queue."""
        if self.pid:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.queue is not None:
            os.close(self.queue)
            self.queue = None

    def __call__(self) -> HeredityReport:
        """Finish the check and return its report.  Axioms (c) and (b) run
        here while the walk runs; a failure of axiom (a) ends the check
        alone, since (c) and (b) solve in the blocks it walks, and hides
        what they found or raised."""
        T, cb = self.T, self.T.codet_basis
        report, products = HeredityReport(), HeredityReport()
        count = sum(len(cb.std_x[bold]) * len(cb.std_y[bold]) for bold in cb.shapes)
        if count != T.rank:
            report.fail("axiom (a)", f"{count} codeterminants vs rank {T.rank}")
        raised = None
        try:
            try:
                _axioms_c_and_b(T, self.sample_b, products)
            except Exception as exc:  # raised unless axiom (a) fails
                raised = exc
            failed = self._least_failing_run()
        finally:
            self.close()
        if failed is not None:
            try:
                bad = cb.non_unimodular_block(self.runs[failed])
                text = (f"change of basis not unimodular: block {bad[0]} has determinant {bad[1]}"
                        if bad else f"X weights {self.runs[failed]} failed one walk, passed the next")
            except AssertionError as exc:  # a stray or missing row
                text = str(exc)
            report.fail("axiom (a)", text)
            return report
        if raised is not None:
            raise raised
        report.failures += products.failures
        return report


def _axioms_c_and_b(T: SchurAlgebra, sample_b: int | None, report: HeredityReport) -> None:
    """Axioms (c) and (b), their failures recorded in `report`."""
    cb = T.codet_basis

    @cache
    def strictly_greater(mu, lam) -> bool:
        return mu != lam and leq(lam, mu)

    # axiom (c): idempotent absorption against X and Y elements
    padded = {bold: tuple(pad(c, T.n) for c in bold) for bold in cb.shapes}

    def name(side: Side) -> str:
        return f"{side.name}_{side.pick('S', 'T')}"

    # the products run on index words through the product kernel, each
    # factor one orbit as (left factor, right factor, coefficient, weight
    # profiles of its own word as in its block key), 0 without the kernel
    # when the profiles do not meet.  A tableau's index word and sign
    # are read off its share of the walk (`CodetBasis.tableau_shares`).  A
    # word's factors come from the algebra's tables when they hold it, as
    # they hold each share's own, else are made and kept for axioms (c) and
    # (b) both, until it returns
    lefts = OnLookup(lambda w: T.lefts.get(w) or T.left_factor(w))
    rights = OnLookup(lambda w: T.rights.get(w) or T.right_factor(w))
    shares = cb.tableau_shares()

    def factors(word, c) -> tuple:
        return lefts[word], rights[word], c, T.ctx.block_key(word)[:2]

    def times(a, b) -> dict:
        if a[3][1] != b[3][0]:
            return {}
        return T.product_terms(a[0], b[1], a[2] * b[2])

    idem = {}
    for bold in cb.shapes:
        (orbit, c), = T.idempotent_bold(bold).items()
        idem[bold] = factors(T.indices(orbit), c)
    for bold in cb.shapes:
        for side in SIDES:
            nm = name(side)
            # "X_S e", "e X_S" and "e_mu X_S" on the X side, mirrored on Y
            elt_e, e_elt, emu_elt = (" ".join(side.orient(a, b))
                                     for a, b in ((nm, "e"), ("e", nm), ("e_mu", nm)))
            initial = side.pick(*cb.initial_tableau_pair(bold))
            for tab, (weight, _deg, _par), *_ in side.pick(*cb._tableau_blocks[bold]):
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
        return [(orbit, factor[T.indices(orbit)])
                for orbit in islice(T.orbits_with_profile(side.pick(1, 0), weight), sample_b)]

    candidates = OnLookup(meeting)

    for bold in cb.shapes:
        for side in SIDES:
            other_initial = side.orient(*cb.initial_tableau_pair(bold))[1]
            for tab, (weight, _deg, _par), *_ in side.pick(*cb._tableau_blocks[bold]):
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

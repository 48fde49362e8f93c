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

Axiom (a)'s walk runs on two processes (`Started`).  `start`, which
`verify` calls before its first row, queues the X weights in a pipe and
forks a child that walks the weights it pulls; this process runs the
other rows and axioms (c) and (b), then walks the weights left, and the two
first failures merge into the one a walk in one process finds.  A command's
peak RSS is the larger of the two processes' peaks.  A platform without
`os.fork` walks in one process.

Only `verify` loads this module (see the README's module map for why the
other commands do not).
"""
from __future__ import annotations

import builtins
import marshal
import os
from collections.abc import Iterable, Iterator
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
    its own (`HeredityReport.fail`): `start` and finish at once.

    `sample_b` caps, per X/Y element, the number of weight-compatible basis
    orbits multiplied through in the span check: the first ones in the order
    of `T.orbits`, listed one weight at a time.  None checks all of them.
    """
    return start(T, sample_b)()


def start(T: SchurAlgebra, sample_b: int | None = None) -> Started:
    """Start the heredity check of T: axiom (a)'s walk begins on a second
    process, and calling the result finishes the check (`Started`)."""
    if T.n < T.d:
        raise ValueError("requires n >= d")
    return Started(T, sample_b)


# the X weights go into the queue in runs of consecutive weights, one
# record of two bytes per run, at most 2 048 runs: 4 096 bytes, the least a
# Linux pipe holds, so the queue is written whole before the fork and no
# write blocks (zigzag:1 has 56 X weights at n=d=3, 2 002 at n=d=5)
RECORD_BYTES, RECORDS = 2, 2048


class Started:
    """A heredity check of T begun by `start`, whose axiom (a) walk runs on
    two processes.

    The X weights of the walk, in runs of consecutive weights, are queued
    as their indices in a pipe; a forked child and then this process pull
    runs from it in ascending order, and each walks the blocks of the runs
    it pulls in sorted key order (`CodetBasis.non_unimodular_block`) until
    its first failure.  The child sends that failure, or None, back through
    a second pipe (`marshal`).  Every run below the least failing run was
    pulled and walked whole, so that failure names the least block, with
    the text and exception type of a walk in one process.  Where `os.fork`
    does not exist or fails, this process pulls every run.  A command's
    peak RSS is the larger of the two processes' peaks.
    """

    def __init__(self, T: SchurAlgebra, sample_b: int | None):
        self.T, self.sample_b, self.pid, self.verdict = T, sample_b, None, None
        weights = T.codet_basis._weights[0]
        size = max(1, -(-len(weights) // RECORDS))
        self.runs = [weights[i:i + size] for i in range(0, len(weights), size)]
        self.queue, fill = os.pipe()
        os.write(fill, b"".join(j.to_bytes(RECORD_BYTES, "big") for j in range(len(self.runs))))
        os.close(fill)
        if not hasattr(os, "fork"):
            return
        self.verdict, post = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            self.pid = None
        if self.pid == 0:
            self._child(post)
        os.close(post)

    def _child(self, post: int) -> None:
        """Walk the runs pulled from the queue, send the first failure, its
        exception as its builtin type's name and its text, and exit."""
        code = 1
        try:
            failure = self._first_failure(self._pulled())
            if failure and failure[2] is not None:
                j, _text, exc = failure
                failure = j, None, (type(exc).__name__, str(exc))
            data = marshal.dumps(failure)
            while data:
                data = data[os.write(post, data):]
            code = 0
        finally:
            os._exit(code)

    def _pulled(self) -> Iterator[int]:
        """The indices of the runs left in the queue, pulled one at a time.
        The queue holds whole records and every read asks for one, so no
        read splits a record."""
        while record := os.read(self.queue, RECORD_BYTES):
            yield int.from_bytes(record, "big")

    def _first_failure(self, pulled: Iterable[int]) -> tuple | None:
        """The first failure of the walk over the runs `pulled`, as (run,
        failure text, None) for a block that is not unimodular or whose rows
        fail their check (AssertionError), (run, None, exception) for any
        other exception; None when every block passes."""
        at = -1  # the run last pulled, whose blocks the walk is on

        def weights():
            nonlocal at
            for j in pulled:
                at = j
                yield from self.runs[j]

        try:
            bad = self.T.codet_basis.non_unimodular_block(weights())
        except AssertionError as exc:
            return at, str(exc), None
        except Exception as exc:  # raised by the check, as in one process
            return at, None, exc
        if bad is None:
            return None
        return at, f"change of basis not unimodular: block {bad[0]} has determinant {bad[1]}", None

    def _walked(self) -> tuple | None:
        """Walk the runs left in the queue here, reap the child, and return
        the failure at the least run of the two, or None.  When the child
        exits without its verdict, every run is walked here again."""
        mine = self._first_failure(self._pulled())
        if self.pid is None:
            return mine
        data = b"".join(iter(lambda: os.read(self.verdict, 1 << 16), b""))
        _pid, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status:
            return self._first_failure(range(len(self.runs)))
        theirs = marshal.loads(data)
        if theirs and theirs[2] is not None:
            name, text = theirs[2]
            cls = getattr(builtins, name, None)
            raised = (cls(text) if isinstance(cls, type) and issubclass(cls, Exception)
                      else RuntimeError(f"{name}: {text}"))
            theirs = theirs[0], None, raised
        return min(filter(None, (mine, theirs)), key=lambda failure: failure[0], default=None)

    def close(self) -> None:
        """Kill and reap the child if it still runs, and close the pipes."""
        if self.pid:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for fd in (self.queue, self.verdict):
            if fd is not None:
                os.close(fd)
        self.queue = self.verdict = None

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
            failure = self._walked()
        finally:
            self.close()
        if failure is not None:
            _run, text, exc = failure
            if text is None:
                raise exc
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

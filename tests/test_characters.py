import itertools
import json
import os
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import add, check_skew_chars, lr_brute, make_zigzag_bar, ssyt_count
from schurify import characters as ch
from schurify import decomposition as dec
from schurify.base_algebra import make_algebra
from schurify.partitions import compositions, gen_multipartitions, partitions_of
from schurify.rings import GF, GradedSuperScalar
from schurify.schur import build_schur


def test_kostka_examples():
    assert ch.kostka((2, 1), (2, 1)) == 1
    assert ch.kostka((2, 1), (1, 1, 1)) == 2
    assert ch.kostka((1, 1), (2,)) == 0
    assert ch.kostka((3, 2, 1), (2, 2, 1, 1)) == ssyt_count((3, 2, 1), (2, 2, 1, 1))
    assert ch.kostka((), ()) == 1
    assert ch.kostka((2,), (0, 2, 0)) == 1
    with pytest.raises(ValueError, match="size mismatch"):
        ch.kostka((2, 1), (2,))


def test_kostka_against_enumeration():
    for lam in partitions_of(5, 5):
        for mu in itertools.chain(compositions(5, 3), compositions(5, 5)):
            assert ch.kostka(lam, mu) == ssyt_count(lam, mu), (lam, mu)


parts5 = st.integers(1, 5).flatmap(
    lambda k: st.sampled_from(partitions_of(k, k))
)


@settings(max_examples=40, deadline=None)
@given(parts5, st.permutations(range(4)))
def test_kostka_weight_permutation_invariance(lam, perm):
    base = tuple([sum(lam) - len(lam) + 1] + [1] * (len(lam) - 1)) if lam else ()
    mus = [mu for mu in compositions(sum(lam), 4)]
    for mu in mus[:6]:
        permuted = tuple(mu[p] for p in perm)
        assert ch.kostka(lam, mu) == ch.kostka(lam, permuted)


def test_lr_examples(lr):
    assert lr.coeff((2, 1), [(2, 1)]) == 1
    assert lr.coeff((2, 1), [(2, 1), ()]) == 1
    assert lr.coeff((2, 1), [(1,), (1,), (1,)]) == 2
    assert lr.coeff((2, 2), [(2, 1), (1,)]) == 1
    assert lr.coeff((3, 2, 1), [(2, 1), (2, 1)]) == 2
    with pytest.raises(ValueError):
        lr.coeff((2, 1), [(1,)])


def test_lr_twists_conjugate(lr):
    # an odd twist transposes the factor before composing
    assert lr.coeff((1, 1), [(2,)], twists=[1]) == 1
    assert lr.coeff((2,), [(2,)], twists=[1]) == 0
    assert lr.coeff((2, 1), [(2,), (1,)], twists=[1, 0]) == \
        lr.coeff((2, 1), [(1, 1), (1,)])


def test_lr_factor_order_symmetry(monkeypatch):
    """s_a s_b = s_b s_a, each order expanded from an empty pair memo, so
    the two expand different determinants."""

    def fresh(factors, rows):
        monkeypatch.setattr(ch, "_PAIR_MEMO", {})
        return ch.lr_expand(factors, rows)

    for rows in range(1, 6):
        for a in partitions_of(2, 2):
            for b in partitions_of(3, 3):
                assert fresh([a, b], rows) == fresh([b, a], rows), (a, b, rows)


def test_lr_against_brute_force(lr):
    for total in range(1, 6):
        for lam in partitions_of(total, total):
            for k1 in range(1, total + 1):
                for mu in partitions_of(k1, k1):
                    for nu in partitions_of(total - k1, total - k1):
                        assert lr.coeff(lam, [mu, nu]) == lr_brute(lam, mu, nu), \
                            (lam, mu, nu)


def test_lr_max_rows_truncation(lr):
    # a factor needing more than max_rows contributes zero
    assert lr.coeff((1, 1, 1), [(1, 1, 1)], max_rows=2) == 0
    assert lr.coeff((1, 1), [(1, 1)], max_rows=2) == 1


def test_lr_expand_within_n_rows_is_the_uncut_expansion_cut():
    """Every factor list of total size <= 6 (1-3 nonempty factors), expanded
    within N = 1..4 rows, gives the terms of the uncut expansion with at
    most N rows."""
    cases = 0
    for count in (1, 2, 3):
        for sizes in itertools.product(range(1, 7), repeat=count):
            if sum(sizes) > 6:
                continue
            for factors in itertools.product(*(partitions_of(k, k) for k in sizes)):
                uncut = ch.lr_expand(factors, sum(sizes))
                for rows in range(1, 5):
                    assert ch.lr_expand(factors, rows) == \
                        {k: c for k, c in uncut.items() if len(k) <= rows}, (factors, rows)
                    cases += 1
    assert cases == 784


def test_lr_cache_roundtrip(tmp_path):
    cache = ch.LRCache(str(tmp_path / "lr.jsonl"))
    v = cache.coeff((2, 1), [(1,), (1,), (1,)])
    assert v == 2
    cache2 = ch.LRCache(str(tmp_path / "lr.jsonl"))
    assert cache2.coeff((2, 1), [(1,), (1,), (1,)]) == 2


def test_schur_char_weights():
    s = ch.schur_char((2, 1), 3)
    # dimension of the classical Weyl module (2,1) for GL_3 is 8
    total = 0
    for w, c in s.items():
        assert c[(0, 0)] >= 0
        total += c[(0, 0)]
    assert total == 8
    assert s[(2, 1, 0)] == GradedSuperScalar.one()
    assert s[(1, 1, 1)] == GradedSuperScalar.term(2)


def test_skew_char_lmac(lr):
    """s^eps_{lam/mu} = sum_nu c^lam_{mu, nu^eps} s_nu, exactly."""
    check_skew_chars(lr)


def test_char_standard_trivial_base(lr):
    alg, data, tau = make_algebra("trivial")
    T = build_schur(alg, data, 3, 3, tau)
    for lam in partitions_of(3, 3):
        bold = ((lam),) if isinstance(lam[0], tuple) else (lam,)
        v = ch.char_standard_tableaux(T, bold)
        assert v == ch.char_standard_formula(T, bold, lr), lam
        expected = {(w,): c for w, c in ch.schur_char(lam, 3).items()}
        assert v == expected, lam


def test_char_standard_zigzag_example(zz1, lr):
    alg, data, tau = zz1
    T = build_schur(alg, data, 1, 1, tau)
    v = ch.char_standard_tableaux(T, ((), (1,)))
    assert v == ch.char_standard_formula(T, ((), (1,)), lr)
    assert v[((0,), (1,))] == GradedSuperScalar.one()
    assert v[((1,), (0,))] == GradedSuperScalar.term(1, 1, 1)
    assert len(list(v.items())) == 2


def test_char_methods_agree_33(zz1, lr):
    alg, data, tau = zz1
    T = build_schur(alg, data, 3, 3, tau)
    for lam in gen_multipartitions(3, 3, 1):
        a = ch.char_standard_tableaux(T, lam)
        b = ch.char_standard_formula(T, lam, lr)
        assert a == b, lam


def test_char_requires_basic():
    alg, data, tau = make_algebra("semisimple:2")
    # semisimple base is basic; build a non-basic one by hand is out of scope,
    # but the zigzag-bar data is not strictly based and must be refused
    trunc, tau2 = make_zigzag_bar(1)
    with pytest.raises(ValueError):
        ch.DecompInput.from_base(trunc.algebra, trunc.data)


def test_ematrix_f2():
    """s_lam = sum_mu d^cl_{lam,mu} sbar_mu over F_2 at n = d = 2."""
    alg, data, tau = make_algebra("trivial")
    T = build_schur(alg, data, 2, 2, tau)
    D = dec.decomp_oracle(T, GF(2))
    # sbar comes from the oracle's irreducible characters
    sbar = {
        mu: dec.char_irreducible(T, mu, GF(2)) for mu in D.labels
    }
    for lam in D.labels:
        lhs = ch.char_standard_tableaux(T, lam)
        rhs = {}
        for mu in D.labels:
            e = D.entry(lam, mu)
            if e:
                assert e[(0, 0)] == e.coeffs.get((0, 0), 0)
                rhs = add(rhs, sbar[mu], e)
        assert lhs == rhs, lam


def test_basicness_checked_once_per_algebra(zz1, monkeypatch):
    from schurify import base_algebra

    built = []
    real = base_algebra.base_decomp_numbers

    def counted(alg, data):
        built.append(data)
        return real(alg, data)

    monkeypatch.setattr(base_algebra, "base_decomp_numbers", counted)
    alg, data, tau = zz1
    T = build_schur(alg, data, 2, 2, tau)
    for lam in gen_multipartitions(2, 2, 1):
        ch.char_standard_tableaux(T, lam)
        ch.char_standard_formula(T, lam, ch.LRCache(""))
    assert built == [data]


def test_lr_cache_skips_lines_it_cannot_parse(tmp_path):
    path = tmp_path / "lr.jsonl"
    good = '{"lam": [2, 1], "factors": [[1], [1], [1]], "rows": 2, "coeff": "2"}\n'
    path.write_text(good + "not json at all\n" + good[:30])
    cache = ch.LRCache(str(path))
    assert cache._memo == {((2, 1), ((1,), (1,), (1,)), 2): 2}
    assert cache.coeff((2, 1), [(1,), (1,), (1,)]) == 2


def _append_records(path, start, ready, go, parents) -> None:
    """In a forked writer: close the parent's ends of the pipes, load the
    cache, say so on `ready`, wait until `go` reaches its end, append 400
    records, and exit without returning."""
    code = 1
    try:
        for fd in parents:
            os.close(fd)
        cache = ch.LRCache(path)
        os.write(ready, b"r")
        os.read(go, 1)
        for k in range(start, start + 400):
            cache._store(((k,), ((k, 1) * 20,), 1), k)
        code = 0
    finally:
        os._exit(code)


def test_lr_cache_concurrent_writers_keep_whole_lines(tmp_path):
    """More writers than cores append at once; every line still parses.  The
    writers are forked and released together when this process closes the
    write end of a pipe they all wait on, so no semaphore and no helper
    process is made, and none is left behind."""
    path = str(tmp_path / "lr.jsonl")
    starts = (0, 1000, 2000)
    ready_r, ready_w = os.pipe()
    go_r, go_w = os.pipe()
    pids = []
    try:
        for start in starts:
            pid = os.fork()
            if pid == 0:
                _append_records(path, start, ready_w, go_r, (ready_r, go_w))
            pids.append(pid)
        os.close(ready_w)
        ready_w = None
        ready = b""
        while len(ready) < len(starts) and (more := os.read(ready_r, len(starts))):
            ready += more
        assert ready == b"r" * len(starts)
        os.close(go_w)
        go_w = None
        deadline = time.monotonic() + 60
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    pids.remove(pid)
                    assert os.waitstatus_to_exitcode(status) == 0
            time.sleep(0.01)
        assert not pids
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (ready_r, ready_w, go_r, go_w):
            if fd is not None:
                os.close(fd)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with open(path) as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""
    assert sorted(int(json.loads(line)["coeff"]) for line in lines[:-1]) == \
        [k for start in starts for k in range(start, start + 400)]
    assert len(ch.LRCache(path)._memo) == 1200


def test_lr_cache_skips_a_torn_last_line_and_appends_after_it(tmp_path):
    path = tmp_path / "lr.jsonl"
    good = '{"lam": [2, 1], "factors": [[1], [1], [1]], "rows": 2, "coeff": "2"}\n'
    path.write_text(good + good[:40])
    cache = ch.LRCache(str(path))
    assert cache._memo == {((2, 1), ((1,), (1,), (1,)), 2): 2}
    assert cache.coeff((2, 1), [(2,), (1,)]) == 1  # stored after the torn line
    again = ch.LRCache(str(path))
    assert again._memo == cache._memo
    assert path.read_text().count("\n") == 3

import os

import pytest

from schurify.base_algebra import make_algebra
from schurify.characters import LRCache
from schurify.schur import build_schur


@pytest.fixture(scope="session")
def lr():
    """The session's LR cache, kept in memory: the tests write no cache file
    outside their own temporary directories."""
    return LRCache("")


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pids of the children that `os.fork` makes during the test, for
    `helpers.assert_reaped`; other children of the test process are not
    among them."""
    pids, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(real()) or pids[-1])
    return pids


@pytest.fixture(scope="session")
def zz1():
    return make_algebra("zigzag:1")


@pytest.fixture(scope="session")
def T122(zz1):
    alg, data, tau = zz1
    return build_schur(alg, data, 2, 2, tau)


@pytest.fixture(scope="session")
def Ttriv22():
    alg, data, tau = make_algebra("trivial")
    return build_schur(alg, data, 2, 2, tau)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in name:
                num = name.split("test_criterion_")[1].split("_")[0]
                desc = name.split("test_criterion_")[1][len(num) + 1:].replace("_", " ")
                ok = status == "passed"
                lines[int(num)] = f"criterion {int(num):2d} [{desc}]: {'PASS' if ok else 'FAIL'}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for k in sorted(lines):
            terminalreporter.write_line(lines[k])

"""Shared fixtures and the per-criterion acceptance summary."""

import re
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

CRITERIA = {
    1: "codebook enumeration golden",
    2: "two-subframe chain golden",
    3: "wide chain golden, 24 states",
    4: "perceived-count anchor",
    5: "preamble lower bound",
    6: "oracle equivalence sweep",
    7: "monte carlo convergence",
    8: "crossover reproduction",
    9: "qualitative dominance",
    10: "simulation determinism",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")
_results: dict[int, str] = {}


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def count_matrix():
    """A chain's `counts` arrays as a scipy CSR matrix, for the tests that read
    the table through scipy's methods (`getrow` needs the matrix class)."""
    from scipy import sparse

    def wrap(model):
        indptr, indices, data = model.counts
        return sparse.csr_matrix((data, indices, indptr), shape=(len(model), len(model)))

    return wrap


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _PATTERN.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    _results[number] = {"passed": "PASS", "failed": "FAIL"}.get(report.outcome, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_results):
        label = CRITERIA.get(number, "unlabelled")
        terminalreporter.write_line(
            f"[acceptance] criterion {number} ({label}): {_results[number]}"
        )

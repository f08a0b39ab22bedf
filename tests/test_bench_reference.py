"""The benchmark's reference values still follow from the package.

`bench/make_reference.py` computes what `bench/reference.json` holds from the
public names of `codexpand`; loading and running it here fails as soon as one
of those names is gone or its numbers move.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def reference_script():
    """`bench/make_reference.py` as a module, and the `workloads` module it
    imports; the `sys.path` entries and the import are undone afterwards."""
    path, workloads = list(sys.path), sys.modules.get("workloads")
    try:
        spec = importlib.util.spec_from_file_location("make_reference", BENCH / "make_reference.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module, sys.modules["workloads"]
    finally:
        sys.path[:] = path
        if workloads is None:
            sys.modules.pop("workloads", None)
        else:
            sys.modules["workloads"] = workloads


def test_make_reference_reproduces_the_committed_reference(reference_script):
    script, workloads = reference_script
    committed = json.loads(workloads.REFERENCE_PATH.read_text())
    tol = workloads.EFFICIENCY_TOL

    assert script.oracle() == committed["oracle-a11"]

    exact = ("n_low", "n_high", "mode", "budgets")
    segments = script.plan()["segments"]
    want = committed["plan-l4m4"]["segments"]
    assert [{k: s[k] for k in exact} for s in segments] == [{k: s[k] for k in exact} for s in want]
    for got, ref in zip(segments, want):
        for key in ("efficiency_low", "efficiency_high"):
            assert got[key] == pytest.approx(ref[key], rel=0, abs=tol)

    curve = script.chain()["efficiency"]
    want = committed["chain-l6"]["efficiency"]
    assert [n for n, _ in curve] == [n for n, _ in want]
    assert [e for _, e in curve] == pytest.approx([e for _, e in want], rel=0, abs=tol)

    # the committed file differs from a fresh run in the last digits (about 3e-12)
    loads = script.monte_carlo()["loads"]
    want = committed["mc-l4m3"]["loads"]
    assert [r["n"] for r in loads] == [r["n"] for r in want]
    for got, ref in zip(loads, want):
        for key in ("singles_mean", "singles_sd", "perceived_mean", "perceived_sd"):
            assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-9)

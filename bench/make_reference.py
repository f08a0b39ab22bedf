"""Compute the reference values the benchmark checks outputs against.

Run from the repository root:  python3 bench/make_reference.py
It rewrites bench/reference.json from the code under src/.  Run it only at a
commit whose outputs are trusted; a change that claims a gain must not.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from codexpand import (  # noqa: E402
    CodebookSpec,
    LoadPoint,
    brute_force_expected,
    build_transition_model,
    default_candidates,
    efficiency_curve,
    expected_singles,
    threshold_schedule,
)
from codexpand.cli import parse_n_range  # noqa: E402

sys.path.insert(0, str(ROOT / "bench"))
from workloads import (  # noqa: E402
    CHAIN_BUDGETS, MC_RANGE, ORACLE_BUDGETS, ORACLE_USERS, PLAN_CANDIDATES, PLAN_LOADS,
    REFERENCE_PATH,
)


def plan() -> dict:
    grid = list(range(1, PLAN_LOADS + 1))
    candidates = default_candidates(4, 4, grid)
    if len(candidates.candidates) != PLAN_CANDIDATES:
        raise SystemExit(f"{len(candidates.candidates)} planner candidates, not {PLAN_CANDIDATES}")
    schedule = threshold_schedule(candidates)
    segments = [
        {"n_low": s.n_low, "n_high": s.n_high, "mode": s.spec.mode.value,
         "budgets": list(s.spec.budgets),
         "efficiency_low": s.efficiency_low, "efficiency_high": s.efficiency_high}
        for s in schedule.segments
    ]
    return {"segments": segments}


def chain() -> dict:
    spec = CodebookSpec.expanded(CHAIN_BUDGETS)
    return {"efficiency": [list(p) for p in efficiency_curve(spec, range(1, 21))]}


def monte_carlo() -> dict:
    # Exact per-trial means and standard deviations: singles from the
    # occupancy moments, perceived from the chain's state distribution.
    spec = CodebookSpec.expanded((3, 3, 3, 3))
    model = build_transition_model(spec)
    a = spec.size
    card = model.cardinalities.astype(np.float64)
    dist = model.initial
    loads = []
    grid = parse_n_range(MC_RANGE)
    for n in range(1, grid[-1] + 1):
        if n > 1:
            dist = dist @ model.matrix
        if n not in grid:
            continue
        s_mean = expected_singles(LoadPoint(n, a))
        s_sq = s_mean + n * (n - 1) * (1 - 1 / a) * (1 - 2 / a) ** (n - 2)
        p_mean = float(dist @ card)
        p_sq = float(dist @ card**2)
        loads.append({"n": n, "singles_mean": s_mean, "singles_sd": (s_sq - s_mean**2) ** 0.5,
                      "perceived_mean": p_mean, "perceived_sd": (p_sq - p_mean**2) ** 0.5})
    return {"loads": loads}


def oracle() -> dict:
    books = []
    for budgets in ORACLE_BUDGETS:
        spec = CodebookSpec.expanded(budgets)
        outcome = brute_force_expected(spec, ORACLE_USERS)
        exact = build_transition_model(spec).perceived_count_exact(ORACLE_USERS)
        if outcome.perceived != exact:
            raise SystemExit(f"oracle and chain disagree on {budgets}")
        fields = ("singles", "collided_codewords", "distinct_used", "perceived", "phantoms")
        books.append({"budgets": list(budgets),
                      "expected": {f: str(getattr(outcome, f)) for f in fields},
                      "perceived_count_exact": str(Fraction(exact))})
    return {"codebooks": books}


if __name__ == "__main__":
    reference = {"plan-l4m4": plan(), "chain-l6": chain(), "mc-l4m3": monte_carlo(),
                 "oracle-a11": oracle()}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")

"""The benchmark's four workloads: what each runs, and how its output is checked.

Each workload runs one CLI command (or, for the oracle, the library calls the
acceptance gate makes) in-process with one worker.  Outputs are checked
outside the timed region against `reference.json`, which
`make_reference.py` computed from the same code.

Why these four:

* ``plan-l4m4`` -- the planner's headline command; the Markov sweeps do most
  of the work and ``expected_singles`` is called once per candidate-load point.
  It runs on the first quarter of the default grid: on the whole grid one
  operation takes 8-13 s on a 2-vCPU Xeon guest, a run holds one, and its
  calibrated time spread 23 % over ten runs; a quarter gives several
  operations per run.
* ``mc-l4m3`` -- Monte Carlo: sampling, ``observe`` per trial and exact batch
  sums.  The Markov layer does no work here.
* ``chain-l6`` -- non-uniform budgets, so the full 38,879-state chain is built;
  state-space and transition-count construction and their memory dominate.
* ``oracle-a11`` -- the exhaustive oracle the acceptance gate relies on:
  many tiny ``observe`` calls, checked exactly against the chain.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from codexpand import cli, markov, simulate
from codexpand.codebook import CodebookSpec

REFERENCE_PATH = Path(__file__).parent / "reference.json"

#: A quarter of the CLI's default grid for L=4, M=4 (ten times the
#: 624-codeword codebook), and the planner's candidates, which do not depend
#: on the grid: the reference codebook plus one expanded codebook per
#: realizable size above the reference's 16.
PLAN_LOADS = 1560
PLAN_CANDIDATES = 44
MC_SPEC = "L=4,m=3,mode=expanded"
MC_RANGE = "20:200:20"
MC_TRIALS = 2000
#: A per-load mean further than this many standard errors from the analytic
#: mean fails the check (about 1e-5 false failures per operation), with
#: CSV_ROUNDING added for the six printed decimals.
MC_Z_BOUND = 5.0
CSV_ROUNDING = 5e-7
CHAIN_BUDGETS = (5, 5, 5, 5, 5, 4)
CHAIN_SPEC = f"L=6,m={','.join(map(str, CHAIN_BUDGETS))},mode=expanded"
ORACLE_BUDGETS = ((2, 3), (1, 5), (1, 1, 2))
ORACLE_USERS = 5
#: Allowed absolute difference of a CSV efficiency (six decimals) from the
#: reference; covers rounding of values that differ in the last float digits.
EFFICIENCY_TOL = 5e-6


@dataclass(frozen=True)
class Workload:
    item: str  # what one unit of throughput is
    items_per_op: int
    run: Callable[[Path, int], object]  # (output dir, operation seed) -> result
    check: Callable[[Path, object], list[str]]  # -> problems found
    warmup: Callable[[Path], object]  # small run over the same code paths
    layers: tuple[str, ...]  # layer functions that must record spans here
    dominant: str  # layer function expected to have the most self time


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _cli(out: Path, *argv: str) -> int:
    return cli.main([*argv, "--out", str(out)])


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _exit_problems(code) -> list[str]:
    return [] if code == 0 else [f"command exited with {code}"]


def _check_plan(out: Path, code) -> list[str]:
    problems = _exit_problems(code)
    rows = _read_csv(out / "thresholds.csv")
    ref = reference()["plan-l4m4"]["segments"]
    got = [[int(r["N_low"]), int(r["N_high"]), r["mode"],
            [int(b) for b in r["budgets"].split("|")]] for r in rows]
    want = [[s["n_low"], s["n_high"], s["mode"], s["budgets"]] for s in ref]
    if got != want:
        problems.append(f"schedule segments differ: {got} != {want}")
    else:
        for r, s in zip(rows, ref):
            for key in ("efficiency_low", "efficiency_high"):
                if abs(float(r[key]) - s[key]) > EFFICIENCY_TOL:
                    problems.append(f"segment {s['n_low']} {key} {r[key]} != {s[key]}")
    return problems


def _check_curve(out: Path, code) -> list[str]:
    problems = _exit_problems(code)
    rows = _read_csv(out / "analyze.csv")
    ref = reference()["chain-l6"]["efficiency"]
    got = [(int(r["N"]), float(r["efficiency"])) for r in rows]
    if [n for n, _ in got] != [n for n, _ in ref]:
        return problems + ["efficiency curve covers other loads"]
    for (n, e), (_, want) in zip(got, ref):
        if abs(e - want) > EFFICIENCY_TOL:
            problems.append(f"efficiency at N={n}: {e} != {want}")
    return problems


def _check_mc(out: Path, code) -> list[str]:
    # Statistical, not byte-exact: the RNG stream layout may change.
    problems = _exit_problems(code)
    rows = _read_csv(out / "simulate.csv")
    ref = reference()["mc-l4m3"]["loads"]
    if [int(r["N"]) for r in rows] != [x["n"] for x in ref]:
        return problems + ["simulate output covers other loads"]
    for r, x in zip(rows, ref):
        for field, key in (("mean_singles", "singles"), ("mean_perceived", "perceived")):
            se = x[f"{key}_sd"] / math.sqrt(MC_TRIALS)
            diff = float(r[field]) - x[f"{key}_mean"]
            if abs(diff) > MC_Z_BOUND * se + CSV_ROUNDING:
                problems.append(f"N={x['n']} {field} {r[field]} is {diff / se:+.1f} SE off")
    return problems


def _run_oracle(out: Path, seed: int):
    results = []
    for budgets in ORACLE_BUDGETS:
        spec = CodebookSpec.expanded(budgets)
        outcome = simulate.brute_force_expected(spec, ORACLE_USERS)
        exact = markov.build_transition_model(spec).perceived_count_exact(ORACLE_USERS)
        results.append((outcome, exact))
    return results


def _check_oracle(out: Path, results) -> list[str]:
    problems = []
    for budgets, (outcome, exact), ref in zip(
            ORACLE_BUDGETS, results, reference()["oracle-a11"]["codebooks"]):
        want = {k: Fraction(v) for k, v in ref["expected"].items()}
        got = {k: getattr(outcome, k) for k in want}
        if got != want:
            problems.append(f"oracle {budgets}: {got} != {want}")
        if outcome.perceived != exact or exact != Fraction(ref["perceived_count_exact"]):
            problems.append(f"oracle {budgets}: perceived {outcome.perceived} vs chain {exact}")
    return problems


WORKLOADS = {
    "plan-l4m4": Workload(
        item="candidate-load points",
        items_per_op=PLAN_CANDIDATES * PLAN_LOADS,
        run=lambda out, seed: _cli(out, "thresholds", "--length", "4", "--preambles", "4",
                                   "--n-range", f"1:{PLAN_LOADS}"),
        check=_check_plan,
        warmup=lambda out: _cli(out, "thresholds", "--length", "2", "--preambles", "2"),
        layers=("cli.main", "planner.default_candidates", "planner.efficiency_curve",
                "planner.threshold_schedule", "markov.build_state_space",
                "markov.build_lumped_model", "markov.perceived_sweep",
                "contention.expected_singles", "contention.reference_efficiency",
                "codebook.restrictions_for_cardinality", "reporting.write_csv",
                "reporting.write_manifest"),
        dominant="markov.perceived_sweep",
    ),
    "mc-l4m3": Workload(
        item="trials",
        items_per_op=len(cli.parse_n_range(MC_RANGE)) * MC_TRIALS,
        run=lambda out, seed: _cli(out, "simulate", "--spec", MC_SPEC, "--n-range", MC_RANGE,
                                   "--trials", str(MC_TRIALS), "--seed", str(seed),
                                   "--workers", "1"),
        check=_check_mc,
        warmup=lambda out: _cli(out, "simulate", "--spec", MC_SPEC, "--n-range", "20",
                                "--trials", "20", "--workers", "1"),
        layers=("cli.main", "simulate.run_batch", "simulate.trial_rng", "simulate.observe",
                "codebook.sample_codewords", "reporting.write_csv", "reporting.write_manifest"),
        dominant="simulate.observe",
    ),
    "chain-l6": Workload(
        item="chain states",
        items_per_op=math.prod(b + 1 for b in CHAIN_BUDGETS) - 1,
        run=lambda out, seed: _cli(out, "analyze", "--spec", CHAIN_SPEC, "--n-range", "1:20"),
        check=_check_curve,
        warmup=lambda out: _cli(out, "analyze", "--spec", "L=2,m=2,3,mode=expanded",
                                "--n-range", "1:5"),
        layers=("cli.main", "planner.efficiency_curve", "markov.build_transition_model",
                "markov.build_state_space", "markov.perceived_sweep",
                "contention.expected_singles", "reporting.write_csv",
                "reporting.write_manifest"),
        dominant="markov.build_transition_model",
    ),
    "oracle-a11": Workload(
        item="ordered assignments",
        items_per_op=sum(CodebookSpec.expanded(b).size ** ORACLE_USERS for b in ORACLE_BUDGETS),
        run=_run_oracle,
        check=_check_oracle,
        warmup=lambda out: simulate.brute_force_expected(CodebookSpec.expanded((1, 1)), 3),
        layers=("simulate.brute_force_expected", "simulate.observe",
                "codebook.enumerate_codewords", "markov.build_transition_model",
                "markov.perceived_count_exact"),
        dominant="simulate.observe",
    ),
}

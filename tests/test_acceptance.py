"""Release gate: ten numbered criteria with pinned values and budgets.

Each test is named test_criterion_NN so conftest can print one summary
line per criterion. Frozen constants are regression anchors; changing
them is an API-visible behaviour change.
"""

import itertools
import math
import time
from fractions import Fraction

from codexpand import (
    CodebookSpec,
    LoadPoint,
    Mode,
    ScenarioConfig,
    brute_force_expected,
    build_transition_model,
    cardinalities_of_interest,
    crossover_point,
    default_candidates,
    efficiency_curve,
    enumerate_codewords,
    expanded_efficiency,
    expected_singles,
    min_expanded_preambles,
    perceived_count,
    reference_efficiency,
    run_batch,
    supported_load,
    threshold_schedule,
)
from codexpand.cli import main

L2M2 = CodebookSpec.expanded((2, 2))

# regression constants established by numeric sweep
CROSSOVER_L4 = 226
SWITCH_BOUND_M3 = 226
SWITCH_BOUND_M4 = 224
DOMINANCE_START_L2M2 = 7

WIDE_CARDINALITIES = [
    1, 2, 3, 4,
    1, 3, 5, 7, 9,
    2, 5, 8, 11, 14,
    3, 7, 11, 15, 19,
    4, 9, 14, 19, 24,
]

WIDE_ADJACENCY = [
    [1, 2, 6, 7],
    [2, 3, 7, 8],
    [3, 4, 8, 9],
    [4, 9],
    [5, 6, 10, 11],
    [6, 7, 11, 12],
    [7, 8, 12, 13],
    [8, 9, 13, 14],
    [9, 14],
    [10, 11, 15, 16],
    [11, 12, 16, 17],
    [12, 13, 17, 18],
    [13, 14, 18, 19],
    [14, 19],
    [15, 16, 20, 21],
    [16, 17, 21, 22],
    [17, 18, 22, 23],
    [18, 19, 23, 24],
    [19, 24],
    [20, 21],
    [21, 22],
    [22, 23],
    [23, 24],
    [24],
]


def test_criterion_01_codebook_enumeration():
    started = time.perf_counter()
    words = enumerate_codewords(L2M2)
    assert set(words) == {
        (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    }
    assert len(words) == 8
    assert time.perf_counter() - started < 1.0


def test_criterion_02_small_chain_golden(count_matrix):
    started = time.perf_counter()
    model = build_transition_model(L2M2)

    assert model.states == (
        (1, 2), (1, 3),
        (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2), (3, 3),
    )
    assert model.cardinalities.tolist() == [1, 2, 1, 3, 5, 2, 5, 8]

    adjacency = [
        sorted(i + 1 for i in count_matrix(model).getrow(row).indices) for row in range(8)
    ]
    assert adjacency == [
        [1, 2, 4, 5], [2, 5], [3, 4, 6, 7], [4, 5, 7, 8],
        [5, 8], [6, 7], [7, 8], [8],
    ]

    # transition matrix, exact: integer codeword counts over a denominator of 8
    assert model.denominator == 8
    assert count_matrix(model).toarray().tolist() == [
        [1, 1, 0, 4, 2, 0, 0, 0],
        [0, 2, 0, 0, 6, 0, 0, 0],
        [0, 0, 1, 4, 0, 1, 2, 0],
        [0, 0, 0, 3, 2, 0, 2, 1],
        [0, 0, 0, 0, 5, 0, 0, 3],
        [0, 0, 0, 0, 0, 2, 6, 0],
        [0, 0, 0, 0, 0, 0, 5, 3],
        [0, 0, 0, 0, 0, 0, 0, 8],
    ]
    initial = [Fraction(int(c), model.denominator) for c in model.initial_counts]
    assert initial == [
        Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 2), 0, 0, 0, 0,
    ]
    assert time.perf_counter() - started < 1.0


def test_criterion_03_wide_chain_golden(count_matrix):
    started = time.perf_counter()
    spec = CodebookSpec.expanded((4, 4))
    model = build_transition_model(spec)

    assert len(model.states) == 24
    expected_states = tuple(
        (c1, c2) for c1 in range(1, 6) for c2 in range(1, 6) if (c1, c2) != (1, 1)
    )
    assert model.states == expected_states
    assert model.cardinalities.tolist() == WIDE_CARDINALITIES

    adjacency = [
        sorted(i + 1 for i in count_matrix(model).getrow(row).indices) for row in range(24)
    ]
    assert adjacency == WIDE_ADJACENCY

    # independent sanity on the adjacency golden itself: every row's
    # codeword counts must add up to the full codebook
    sums = count_matrix(model).sum(axis=1)
    assert [int(s) for s in sums.flat] == [24] * 24

    assert sorted(set(WIDE_CARDINALITIES)) == [
        1, 2, 3, 4, 5, 7, 8, 9, 11, 14, 15, 19, 24,
    ]
    assert cardinalities_of_interest(2, 4) == [9, 11, 14, 15, 19, 24]
    assert time.perf_counter() - started < 1.0


def test_criterion_04_perceived_count_anchor():
    assert perceived_count(L2M2, 1) == 2.0
    assert build_transition_model(L2M2).perceived_count_exact(1) == 2


def test_criterion_05_preamble_lower_bound():
    assert min_expanded_preambles(32, 4) == 3

    for m_r, length in itertools.product(range(1, 65), range(1, 7)):
        bound = min_expanded_preambles(m_r, length)
        # the bound itself reaches the reference pool ...
        assert (bound + 1) ** length - 1 >= m_r * length
        # ... minimally ...
        assert bound**length - 1 < m_r * length
        # ... and anything strictly above it wins outright
        for m_e in (bound + 1, bound + 2):
            assert (m_e + 1) ** length - 1 > m_r * length


def _small_specs(size_cap: int = 12):
    for length in range(1, 13):
        for m in range(1, size_cap + 1):
            if m * length <= size_cap:
                yield CodebookSpec.reference(m, length)
    for length in range(1, 5):
        for budgets in itertools.product(range(size_cap + 1), repeat=length):
            if any(budgets) and math.prod(b + 1 for b in budgets) - 1 <= size_cap:
                yield CodebookSpec.expanded(budgets)


def test_criterion_06_oracle_equivalence():
    started = time.perf_counter()

    anchor = brute_force_expected(CodebookSpec.expanded((1, 1)), 2)
    assert anchor.perceived == Fraction(23, 9)

    checked = 0
    for spec in _small_specs():
        size = len(enumerate_codewords(spec))
        model = build_transition_model(spec) if spec.mode is Mode.EXPANDED else None
        for n in range(1, 5):
            outcome = brute_force_expected(spec, n)
            point = LoadPoint(n, size)
            assert abs(float(outcome.singles) - expected_singles(point)) <= 1e-12
            if model is not None:
                assert outcome.perceived == model.perceived_count_exact(n)
                assert abs(float(outcome.perceived) - model.perceived_count(n)) <= 1e-12
            else:
                # reference observations are unambiguous: perceived codewords
                # are exactly the used ones, with closed-form expectation
                assert outcome.perceived == outcome.distinct_used
                used = size * (1 - Fraction(size - 1, size) ** n)
                assert outcome.distinct_used == used
            checked += 1

    assert checked >= 400
    assert time.perf_counter() - started < 30.0


def test_criterion_07_monte_carlo_convergence():
    started = time.perf_counter()
    model = build_transition_model(L2M2)
    for n in (1, 5, 10, 20, 50):
        stats = run_batch(
            ScenarioConfig(L2M2, n_users=n, trials=100_000, master_seed=20_260_818),
            workers=4,
        )
        targets = (
            (stats.perceived, model.perceived_count(n)),
            (stats.singles, expected_singles(LoadPoint(n, 8))),
        )
        for estimate, analytic in targets:
            if estimate.se == 0.0:
                # constant sample from a nearly degenerate distribution:
                # rule of three bounds the unseen tail mass at 3/trials,
                # and both statistics are bounded by the codebook size
                assert abs(estimate.mean - analytic) <= 8 * 3.0 / 100_000
            else:
                z = abs(estimate.mean - analytic) / estimate.se
                assert z <= 4.0, f"N={n}: sample mean {estimate.mean} is {z:.2f} SE from {analytic}"
    assert time.perf_counter() - started < 60.0


def test_criterion_08_crossover_reproduction():
    started = time.perf_counter()
    grid = list(range(1, 2001))
    reference = CodebookSpec.reference(32, 4)
    e3 = CodebookSpec.expanded((3, 3, 3, 3))
    e4 = CodebookSpec.expanded((4, 4, 4, 4))

    cross3 = crossover_point(reference, e3, grid)
    assert cross3 == CROSSOVER_L4
    assert 200 <= cross3 <= 250

    # growing the per-sub-frame pool must not move the point where the
    # load-adaptive system abandons the reference codebook
    bound3 = threshold_schedule(
        default_candidates(4, 3, grid, reference_preambles=32)
    ).thresholds[0]
    bound4 = threshold_schedule(
        default_candidates(4, 4, grid, reference_preambles=32)
    ).thresholds[0]
    assert bound3 == SWITCH_BOUND_M3
    assert bound4 == SWITCH_BOUND_M4
    assert abs(bound4 - bound3) <= 10

    assert time.perf_counter() - started < 60.0

    # the larger pool must extend the half-efficiency load region
    fall3 = supported_load(e3, grid, floor=0.5)
    fall4 = supported_load(e4, grid, floor=0.5)
    cross4 = crossover_point(reference, e4, grid)
    peak3 = max(e for _, e in efficiency_curve(e3, grid))
    peak4 = max(e for _, e in efficiency_curve(e4, grid))
    detail = (
        "the half-efficiency floor is unreachable for these expanded codebooks: "
        f"peak efficiency {peak3:.4f} (m=3x4) and {peak4:.4f} (m=4x4) never cross 0.5 "
        "(both are capped near 1/e once the observation chain saturates), and the "
        "only curve that does cross 0.5 is the shared 128-codeword reference at "
        f"N=161; pairwise crossovers {cross3} vs {cross4}"
    )
    assert fall3 is not None and fall4 is not None and fall4 > fall3, detail


def test_criterion_09_qualitative_dominance():
    reference_curve = [reference_efficiency(n, 2, 2) for n in range(1, 201)]
    expanded_curve = [expanded_efficiency(L2M2, n) for n in range(1, 201)]

    n_star = DOMINANCE_START_L2M2
    assert n_star <= 50
    for n in range(n_star, 201):
        assert expanded_curve[n - 1] > reference_curve[n - 1]
    # minimality: one step earlier the reference still wins
    assert expanded_curve[n_star - 2] <= reference_curve[n_star - 2]


def test_criterion_10_simulation_determinism(tmp_path):
    argv = [
        "simulate", "--spec", "L=2,m=2,2,mode=expanded",
        "--n-range", "1:20:7", "--trials", "2000", "--seed", "99",
    ]
    outputs = {}
    for name, workers in (("a", 1), ("b", 1), ("c", 3), ("d", 3)):
        out = tmp_path / name
        assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0
        outputs[name] = (out / "simulate.csv").read_bytes()

    assert outputs["a"] == outputs["b"]
    assert outputs["c"] == outputs["d"]
    assert outputs["a"] == outputs["c"]

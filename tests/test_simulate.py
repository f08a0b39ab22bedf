"""Monte Carlo trials, aggregation and the brute-force oracle."""

from collections import Counter
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codexpand import (
    ENUMERATION_CAP,
    CodebookSpec,
    DomainError,
    EnumerationTooLarge,
    Estimate,
    ExpectedOutcome,
    LoadPoint,
    Mode,
    ScenarioConfig,
    block_rng,
    brute_force_expected,
    build_transition_model,
    codebook_size,
    decode_codewords,
    encode_codewords,
    expected_singles,
    expected_singles_curve,
    expected_used_curve,
    observe,
    observe_codes,
    perceived_count,
    perceived_count_rational,
    perceived_curve,
    run_batch,
    sample_codewords,
)
from codexpand import simulate
from codexpand.simulate import _summarise

L2M2 = CodebookSpec.expanded((2, 2))


def loop_observe(spec, words):
    """(singles, distinct, perceived) counted one codeword at a time."""
    multiplicity = Counter(map(tuple, words))
    singles = sum(1 for c in multiplicity.values() if c == 1)
    if spec.mode is Mode.REFERENCE:
        return singles, len(multiplicity), len(multiplicity)
    perceived = 1
    for column in zip(*words):
        perceived *= len(set(column) - {0}) + 1
    return singles, len(multiplicity), perceived - 1


class TestObserve:
    def test_three_distinct_codewords_with_phantoms(self):
        # (A,B), (B,idle), (idle,A) light up both preambles in both sub-frames
        out = observe(L2M2, [(1, 2), (2, 0), (0, 1)])
        assert out.singles == 3
        assert out.collided_codewords == 0
        assert out.distinct_used == 3
        assert out.perceived == 8
        assert out.phantoms == 5

    def test_collision_semantics(self):
        out = observe(L2M2, [(0, 1), (0, 1)])
        assert out.singles == 0
        assert out.collided_codewords == 1
        assert out.distinct_used == 1
        assert out.perceived == 1

    def test_two_singles_make_one_phantom(self):
        out = observe(L2M2, [(0, 1), (1, 0)])
        assert out.singles == 2
        assert out.perceived == 3
        assert out.phantoms == 1

    def test_reference_mode_never_sees_phantoms(self):
        spec = CodebookSpec.reference(2, 2)
        out = observe(spec, [(1, 0), (2, 0), (0, 2)])
        assert out.perceived == out.distinct_used == 3
        assert out.phantoms == 0

    def test_reference_collision_example(self):
        spec = CodebookSpec.reference(2, 2)
        out = observe(spec, [(1, 0), (1, 0)])
        assert out.singles == 0 and out.collided_codewords == 1 and out.phantoms == 0

    def test_empty_observation(self):
        out = observe(L2M2, [])
        assert out.perceived == 0 and out.phantoms == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            observe(L2M2, [(1, 2, 0)])

    def test_non_codewords_rejected(self):
        for word in [(0, 0), (3, 0), (0, -1)]:
            with pytest.raises(DomainError):
                observe(L2M2, [(1, 1), word])
        with pytest.raises(DomainError):
            observe(CodebookSpec.reference(2, 2), [(1, 1)])

    def test_kernel_matches_a_loop_reference(self):
        rng = np.random.default_rng(21)
        for spec in [L2M2, CodebookSpec.expanded((1, 3, 0, 2)), CodebookSpec.reference(3, 2)]:
            for n in (1, 2, 6, 30):
                rows = [sample_codewords(spec, n, rng) for _ in range(50)]
                codes = np.stack([encode_codewords(spec, r) for r in rows])
                got = zip(*(x.tolist() for x in observe_codes(spec, codes)))
                assert list(got) == [loop_observe(spec, r.tolist()) for r in rows]

    def test_ids_outside_the_codebook_rejected(self):
        # id 0 is the all-idle word; A + 1 and negative ids are no codewords at all
        for spec in [L2M2, CodebookSpec.reference(2, 2)]:
            size = codebook_size(spec)
            for row in ([0, 1], [-1, 1], [1, size + 1], [size + 1, size + 1], [2**40, 1]):
                with pytest.raises(DomainError):
                    observe_codes(spec, np.array([[1, 2], row]))
            assert observe_codes(spec, np.array([[1, size]]))[1].tolist() == [2]

    def test_outcome_identities_hold_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            out = observe(L2M2, sample_codewords(L2M2, int(rng.integers(1, 9)), rng))
            assert out.distinct_used == out.singles + out.collided_codewords
            assert out.phantoms == out.perceived - out.distinct_used
            assert out.phantoms >= 0


#: Budgets around the 64-bit word a narrow sub-frame's symbols fill: sub-frames
#: of 63 preambles (one word) and of 64 or more (sorted instead), mixed with
#: narrow ones, and one far wider than a word.
WORD_EDGE_BUDGETS = [(63,), (64,), (32, 32), (63, 1), (1, 64), (65,), (54, 54),
                     (40, 40, 40), (130,), (2, 70, 3), (2,) * 12 + (1,), (10**5,)]


class TestLitKernel:
    @given(
        budgets=st.one_of(
            st.sampled_from(WORD_EDGE_BUDGETS),
            st.lists(st.integers(0, 80), min_size=1, max_size=3).filter(any).map(tuple),
        ),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(budgets=(63,), n=40, seed=1)
    @example(budgets=(64,), n=40, seed=2)
    @example(budgets=(1, 64), n=40, seed=3)
    @example(budgets=(130,), n=40, seed=4)
    @example(budgets=(10**5,), n=3, seed=5)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_loop_reference(self, budgets, n, seed):
        spec = CodebookSpec.expanded(budgets)
        codes = np.random.default_rng(seed).integers(1, codebook_size(spec) + 1, size=(20, n))
        got = zip(*(x.tolist() for x in observe_codes(spec, codes)))
        assert list(got) == [loop_observe(spec, w.tolist()) for w in decode_codewords(spec, codes)]

    def test_wide_sub_frame_counts_repeated_and_idle_symbols(self):
        # symbols 0 (idle), 64, 64 and 130 in the one sub-frame: two lit preambles
        spec = CodebookSpec.expanded((130, 2))
        ids = encode_codewords(spec, [(0, 1), (64, 0), (64, 2), (130, 1)])
        assert observe_codes(spec, ids[None, :])[2].tolist() == [(2 + 1) * (2 + 1) - 1]


class TestDeterminism:
    def test_same_seed_same_stats(self):
        config = ScenarioConfig(L2M2, n_users=5, trials=3_000, master_seed=42)
        assert run_batch(config) == run_batch(config)

    def test_worker_count_does_not_change_results(self):
        config = ScenarioConfig(L2M2, n_users=5, trials=3_000, master_seed=42)
        assert run_batch(config, workers=1) == run_batch(config, workers=3)

    def test_worker_pool_does_not_change_results(self):
        # 3,000 trials of 50 contenders fill 10 blocks: enough for a pool of 2 or 3
        config = ScenarioConfig(L2M2, n_users=50, trials=3_000, master_seed=42)
        serial = run_batch(config, workers=1)
        assert run_batch(config, workers=2) == serial
        assert run_batch(config, workers=3) == serial

    def test_block_streams_are_distinct(self):
        draws = {block_rng(99, b).integers(0, 2**63).item() for b in range(64)}
        assert len(draws) == 64

    def test_block_stream_is_stable(self):
        a = block_rng(7, 3).integers(0, 2**63, size=4)
        b = block_rng(7, 3).integers(0, 2**63, size=4)
        assert (a == b).all()


class TestAggregation:
    def test_single_trial_has_no_standard_error(self):
        stats = run_batch(ScenarioConfig(L2M2, n_users=2, trials=1, master_seed=1))
        assert stats.trials == 1
        assert stats.perceived.se is None
        assert stats.efficiency.se is None

    def test_single_user_perceived_matches_anchor(self):
        stats = run_batch(ScenarioConfig(L2M2, n_users=1, trials=20_000, master_seed=3))
        z = abs(stats.perceived.mean - 2.0) / stats.perceived.se
        assert z < 3.0

    def test_two_user_perceived_matches_oracle(self):
        spec = CodebookSpec.expanded((1, 1))
        stats = run_batch(ScenarioConfig(spec, n_users=2, trials=20_000, master_seed=8))
        z = abs(stats.perceived.mean - 23 / 9) / stats.perceived.se
        assert z < 3.0

    def test_standard_error_shrinks_with_trials(self):
        small = run_batch(ScenarioConfig(L2M2, n_users=5, trials=400, master_seed=11))
        large = run_batch(ScenarioConfig(L2M2, n_users=5, trials=6_400, master_seed=11))
        ratio = small.efficiency.se / large.efficiency.se
        # sqrt(16) = 4 expected; generous band for sampling noise
        assert 2.5 < ratio < 5.5

    def test_efficiency_is_ratio_of_means(self):
        stats = run_batch(ScenarioConfig(L2M2, n_users=4, trials=500, master_seed=2))
        assert stats.efficiency.mean == pytest.approx(
            stats.singles.mean / stats.perceived.mean, rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(L2M2, n_users=0, trials=10, master_seed=0)
        with pytest.raises(DomainError):
            ScenarioConfig(L2M2, n_users=1, trials=0, master_seed=0)
        with pytest.raises(DomainError):
            ScenarioConfig(L2M2, n_users=1, trials=1, master_seed=-1)
        # fractions and bools are refused, not truncated; integral values are stored as ints
        for bad in ({"n_users": 2.5}, {"trials": 10.5}, {"master_seed": 1.5},
                    {"n_users": True}, {"trials": "10"}):
            with pytest.raises(DomainError):
                ScenarioConfig(**{"spec": L2M2, "n_users": 2, "trials": 10,
                                  "master_seed": 1, **bad})
        config = ScenarioConfig(L2M2, np.int64(3), 10.0, 2**64 - 1)
        assert (config.n_users, config.trials, config.master_seed) == (3, 10, 2**64 - 1)
        assert all(type(v) is int for v in (config.n_users, config.trials, config.master_seed))


def reference_mean_se(hist, n, value):
    """Mean and standard error of ``value(s, d, p)``, one Fraction per histogram key."""
    mean = Fraction(sum(c * value(*k) for k, c in hist.items()), n)
    if n < 2:
        return Estimate(float(mean), None)
    spread = sum(c * (value(*k) - mean) ** 2 for k, c in hist.items())
    return Estimate(float(mean), sqrt(spread / (n - 1) / n))


def reference_summary(hist, n):
    """The `AggregateStats` estimates from per-key Fraction sums."""
    fields = [
        reference_mean_se(hist, n, value)
        for value in (lambda s, d, p: s, lambda s, d, p: d - s, lambda s, d, p: d,
                      lambda s, d, p: p, lambda s, d, p: p - d)
    ]
    s_x = sum(c * s for (s, _, _), c in hist.items())
    s_y = sum(c * p for (_, _, p), c in hist.items())
    ratio = Fraction(s_x, s_y)
    residual = reference_mean_se(hist, n, lambda s, d, p: s - ratio * p)
    efficiency = Estimate(s_x / s_y, None if residual.se is None else residual.se * n / s_y)
    return [*fields, efficiency]


def histogram_key(singles, collided, phantoms):
    """A (singles, distinct, perceived) key; every trial uses at least one codeword."""
    distinct = max(singles + collided, 1)
    return singles, distinct, distinct + phantoms


histogram_keys = st.builds(
    histogram_key, st.integers(0, 40), st.integers(0, 40), st.integers(0, 10**6)
)


class TestExactAggregation:
    @given(st.dictionaries(histogram_keys, st.integers(1, 10**4), min_size=1, max_size=40))
    @example({(1, 1, 1): 1})  # n = 1 and p = 1
    @example({(2, 3, 7): 500})  # zero spread
    @example({(1, 1, 1): 3, (0, 1, 1): 2})  # p = 1 throughout
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_power_sums_equal_the_per_key_fractions(self, keys):
        hist = Counter(keys)
        n = sum(hist.values())
        assert _summarise(hist, n) == reference_summary(hist, n)

    def test_batch_estimates_equal_the_per_key_fractions(self):
        config = ScenarioConfig(CodebookSpec.expanded((3, 1, 2)), 12, 3_000, master_seed=6)
        hist = simulate._histogram(config, 0, -(-3_000 // simulate._block_rows(12)))
        stats = run_batch(config)
        assert [stats.singles, stats.collided_codewords, stats.distinct_used, stats.perceived,
                stats.phantoms, stats.efficiency] == reference_summary(hist, 3_000)


small_specs = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=3)
    .filter(lambda b: any(b) and codebook_size(CodebookSpec.expanded(b)) <= 30)
    .map(CodebookSpec.expanded),
    st.tuples(st.integers(1, 10), st.integers(1, 4))
    .filter(lambda ml: ml[0] * ml[1] <= 30)
    .map(lambda ml: CodebookSpec.reference(*ml)),
)


class TestMonteCarloAgainstClosedForm:
    TRIALS = 2_000

    @given(small_specs, st.integers(1, 20))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_means_within_five_standard_errors(self, spec, n):
        size = codebook_size(spec)
        stats = run_batch(ScenarioConfig(spec, n, self.TRIALS, master_seed=20_261_018))
        perceived = (perceived_curve(spec, [n]) if spec.mode is Mode.EXPANDED
                     else expected_used_curve([n], size))
        targets = (
            (stats.singles, expected_singles_curve([n], size)[0]),
            (stats.perceived, perceived[0]),
        )
        for estimate, analytic in targets:
            if estimate.se == 0.0:
                # rule of three, as in criterion 7: the unseen tail mass is at
                # most 3/trials, and both statistics are bounded by A
                assert abs(estimate.mean - analytic) <= size * 3.0 / self.TRIALS
            else:
                z = abs(estimate.mean - analytic) / estimate.se
                assert z <= 5.0, f"{spec.describe()} N={n}: {estimate.mean} is {z:.2f} SE from {analytic}"


class TestBruteForce:
    def test_rational_anchor(self):
        out = brute_force_expected(CodebookSpec.expanded((1, 1)), 2)
        assert out.perceived == Fraction(23, 9)
        assert out.singles == Fraction(4, 3)

    def test_single_user_anchor(self):
        out = brute_force_expected(L2M2, 1)
        assert out.perceived == 2
        assert out.singles == 1

    def test_degenerate_codebook(self):
        spec = CodebookSpec.expanded((1,))
        out = brute_force_expected(spec, 2)
        assert out.singles == 0 and out.perceived == 1

    def test_efficiency_helper(self):
        out = brute_force_expected(CodebookSpec.expanded((1, 1)), 2)
        assert out.efficiency() == Fraction(4, 3) / Fraction(23, 9)

    def test_agrees_with_chain_and_closed_form(self):
        for budgets, n in [((2, 2), 3), ((1, 2), 4), ((1, 1, 1), 3)]:
            spec = CodebookSpec.expanded(budgets)
            out = brute_force_expected(spec, n)
            assert float(out.perceived) == pytest.approx(
                perceived_count(spec, n), abs=1e-12
            )
            point = LoadPoint(n, codebook_size(spec))
            assert float(out.singles) == pytest.approx(
                expected_singles(point), abs=1e-12
            )

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
            lambda b: any(b) and codebook_size(CodebookSpec.expanded(b)) <= 12
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree_exactly(self, budgets, n):
        spec = CodebookSpec.expanded(budgets)
        out = brute_force_expected(spec, n)
        assert out.perceived == perceived_count_rational(spec, n)
        assert out.perceived == build_transition_model(spec).perceived_count_exact(n)
        size = codebook_size(spec)
        assert out.singles == n * Fraction(size - 1, size) ** (n - 1)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationTooLarge):
            brute_force_expected(L2M2, 9, cap=10**6)

    @pytest.mark.parametrize("n_users", [2.5, True, "2"])
    def test_non_whole_user_counts_rejected(self, n_users):
        with pytest.raises(DomainError):
            brute_force_expected(L2M2, n_users)

    def test_integral_float_user_count_accepted(self):
        assert brute_force_expected(L2M2, 2.0) == brute_force_expected(L2M2, 2)

    def test_no_contenders_on_a_codebook_too_large_to_enumerate(self):
        # one assignment, though the codebook is above the enumeration cap
        spec = CodebookSpec.expanded((3000, 3000))
        assert codebook_size(spec) > ENUMERATION_CAP
        assert brute_force_expected(spec, 0) == ExpectedOutcome(0, 0, 0, 0, 0)

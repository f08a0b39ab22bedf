"""Monte Carlo trials, aggregation and the brute-force oracle."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codexpand import (
    CodebookSpec,
    DomainError,
    EnumerationTooLarge,
    LoadPoint,
    Mode,
    ScenarioConfig,
    block_rng,
    brute_force_expected,
    build_transition_model,
    codebook_size,
    encode_codewords,
    expected_singles,
    observe,
    observe_codes,
    perceived_count,
    perceived_count_rational,
    run_batch,
    run_trial,
    sample_codewords,
)

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

    def test_outcome_identities_hold_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            out = run_trial(L2M2, int(rng.integers(1, 9)), rng)
            assert out.distinct_used == out.singles + out.collided_codewords
            assert out.phantoms == out.perceived - out.distinct_used
            assert out.phantoms >= 0


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

    def test_per_trial_estimator_is_also_reported(self):
        stats = run_batch(ScenarioConfig(L2M2, n_users=4, trials=500, master_seed=2))
        assert stats.efficiency_per_trial.mean != stats.efficiency.mean

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(L2M2, n_users=0, trials=10, master_seed=0)
        with pytest.raises(DomainError):
            ScenarioConfig(L2M2, n_users=1, trials=0, master_seed=0)
        with pytest.raises(DomainError):
            ScenarioConfig(L2M2, n_users=1, trials=1, master_seed=-1)


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

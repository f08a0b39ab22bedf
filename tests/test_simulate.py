"""Monte Carlo trials, aggregation and the brute-force oracle."""

import dataclasses
import itertools
import math
import time
import tracemalloc
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
    enumerate_codewords,
    expected_singles,
    expected_singles_curve,
    expected_used_curve,
    observe,
    observe_codes,
    perceived_count,
    perceived_count_rational,
    perceived_curve,
    run_batch,
)
from codexpand import simulate
from codexpand.simulate import _summarise

L2M2 = CodebookSpec.expanded((2, 2))


def draw(spec, n, rng):
    """``n`` codewords drawn independently and uniformly: uniform ids in
    ``1..A``, decoded to an (n, L) array of symbols."""
    return decode_codewords(spec, rng.integers(1, codebook_size(spec) + 1, size=n))


def enumerable_specs(size_cap):
    """Every reference codebook, and every expanded one of at most three
    sub-frames, with at most ``size_cap`` codewords."""
    for length in range(1, size_cap + 1):
        for m in range(1, size_cap // length + 1):
            yield CodebookSpec.reference(m, length)
    for length in range(1, 4):
        for budgets in itertools.product(range(size_cap + 1), repeat=length):
            if any(budgets) and math.prod(b + 1 for b in budgets) - 1 <= size_cap:
                yield CodebookSpec.expanded(budgets)


def ordered_average(spec, n):
    """Exact mean `TrialOutcome` over all ``A**n`` ordered assignments, one
    `observe` call each."""
    assignments = list(itertools.product(enumerate_codewords(spec), repeat=n))
    outcomes = [observe(spec, words) for words in assignments]
    return ExpectedOutcome(*(Fraction(sum(getattr(o, f.name) for o in outcomes), len(outcomes))
                             for f in dataclasses.fields(ExpectedOutcome)))


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
                rows = [draw(spec, n, rng) for _ in range(50)]
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
            out = observe(L2M2, draw(L2M2, int(rng.integers(1, 9)), rng))
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


def assert_matches_loop(spec, codes, counts):
    assert list(zip(*(x.tolist() for x in counts))) == [
        loop_observe(spec, w.tolist()) for w in decode_codewords(spec, np.asarray(codes))]


#: Budgets at the edges of the lit-word tables: sub-frames of no preamble, of
#: 63 preambles (the widest in a table), 64 and 65 (counted from sorted
#: symbols), groups that reach or would cross 2**16 entries or 64 bits, and
#: one sub-frame of 65,535 preambles.
TABLE_EDGE_BUDGETS = [(0, 3), (3, 0, 0, 3), (0, 63, 0), (63,), (64,), (65,), (63, 64, 65),
                      (64, 0, 2), (15,) * 4, (15,) * 5, (1,) * 16, (1,) * 17, (63, 63),
                      (63, 1), (63, 2), (7,) * 10, (65535,)]


class TestNarrowKernel:
    """Ids are sorted and split in the narrowest unsigned type, of at least 16
    bits, that holds A + 1, and each digit group's lit words are looked up in
    a table of the narrowest type that holds its bits."""

    @pytest.mark.parametrize("budgets, radices", [
        ((3, 3, 3, 3), [256]),
        ((0, 3, 0), [4]),
        ((15,) * 4, [2**16]),
        ((15,) * 5, [2**16, 16]),  # least significant group first
        ((1,) * 17, [2**16, 2]),
        ((63, 63), [64, 64]),  # 126 bits
        ((63, 1), [128]),  # 64 bits
        ((63, 2), [3, 64]),  # 65 bits
        ((7,) * 10, [2**15, 2**15]),  # 5 more sub-frames would make 2**30 entries
        ((63, 64, 65), [66, 65, 64]),
        ((65535,), [65536]),
    ])
    def test_digit_groups(self, budgets, radices):
        groups = simulate._digit_groups(budgets)
        assert [g.radix for g in groups] == radices
        for g in groups:
            if g.table is not None:
                assert len(g.table) == g.radix <= simulate.LIT_TABLE_ENTRIES
                assert not g.table.flags.writeable
                # the fields are disjoint and fill the word's low bits
                bits = sum(int(mask).bit_count() for mask in g.masks)
                assert bits <= simulate.LIT_WORD_BITS
                assert int(np.bitwise_or.reduce(g.table)) == (1 << bits) - 1
                assert g.table.dtype == np.min_scalar_type((1 << bits) - 1)

    @given(
        budgets=st.sampled_from(TABLE_EDGE_BUDGETS),
        n=st.sampled_from([0, 1, 2, 3, 40]),
        rows=st.sampled_from([0, 1, 2, 9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(budgets=(15,) * 5, n=2, rows=1, seed=1)
    @example(budgets=(63, 63), n=40, rows=9, seed=2)
    @example(budgets=(63, 2), n=40, rows=9, seed=7)
    @example(budgets=(7,) * 10, n=40, rows=9, seed=3)
    @example(budgets=(65535,), n=1, rows=1, seed=4)
    @example(budgets=(0, 63, 0), n=0, rows=1, seed=5)
    @example(budgets=(64, 0, 2), n=2, rows=0, seed=6)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_table_edges_match_the_loop_reference(self, budgets, n, rows, seed):
        spec = CodebookSpec.expanded(budgets)
        size = codebook_size(spec)
        codes = np.random.default_rng(seed).integers(1, size + 1, size=(rows, n))
        counts = observe_codes(spec, codes)
        assert [x.shape for x in counts] == [(rows,)] * 3
        assert_matches_loop(spec, codes, counts)

    @pytest.mark.parametrize("budgets, id_type", [
        ((65534,), np.uint16),  # A + 1 = 2**16 - 1
        ((65535,), np.uint32),  # A fits in 16 bits, the radix A + 1 does not
        ((255, 255), np.uint32),
        ((65536,), np.uint32),
        ((2**32 - 1,), np.uint64),
    ])
    def test_id_type_edges(self, budgets, id_type):
        spec = CodebookSpec.expanded(budgets)
        size = codebook_size(spec)
        near = [min(v, size) for v in (2**16 - 1, 2**16, 2**16 + 1)]
        codes = np.array([[size, size, 1, size - 1, 2, 2],
                          [1] * 6,
                          [size] * 6,
                          [*near, size // 2, size - 1, 1]])
        counts = observe_codes(spec, codes)
        assert [x.dtype for x in counts] == [id_type] * 3
        assert_matches_loop(spec, codes, counts)

    @pytest.mark.parametrize("m", [7, 8, 15, 16, 31, 32, 63, 64])
    def test_bit_word_edges(self, m):
        spec = CodebookSpec.expanded((m, 1))
        n = m + 2
        words = [
            [(s, 0 if s else 1) for s in range(m + 1)] + [(m, 1)],  # every symbol, top one twice
            [(m, 0)] * n,  # only the top bit
            [(m - i % 2, 1) for i in range(n)],  # the top two bits
            draw(spec, n, np.random.default_rng(m)).tolist(),
        ]
        codes = np.stack([encode_codewords(spec, w) for w in words])
        assert_matches_loop(spec, codes, observe_codes(spec, codes))

    @pytest.mark.parametrize("spec", [CodebookSpec.expanded((3, 3, 3, 3)),
                                      CodebookSpec.reference(8, 4)])
    def test_input_types_give_the_same_counts(self, spec):
        # A <= 255, so every id also fits in uint8
        codes = np.random.default_rng(8).integers(1, codebook_size(spec) + 1, size=(40, 30))
        counts = observe_codes(spec, codes)
        assert_matches_loop(spec, codes, counts)
        want = [x.tolist() for x in counts]
        for given in (codes.astype(np.uint8), codes.astype(np.int32), codes.astype(np.uint16),
                      codes.astype(np.uint64), codes.tolist()):
            before = np.array(given, copy=True)
            assert [x.tolist() for x in observe_codes(spec, given)] == want
            assert np.array_equal(given, before)  # the caller's rows are not sorted in place

    @pytest.mark.parametrize("spec", [CodebookSpec.expanded((3, 3, 3, 3)), L2M2,
                                      CodebookSpec.reference(2, 2)])
    def test_out_of_range_ids_raise_instead_of_wrapping(self, spec):
        # 2**16 + 1 would wrap to id 1 in a 16-bit type
        size = codebook_size(spec)
        for bad in (-1, 0, size + 1, 2**16 + 1):
            types = (np.int64, np.int32) + ((np.uint64,) if bad >= 0 else ())
            for given in [np.array([[1, bad]], dtype=t) for t in types] + [[[1, bad]]]:
                with pytest.raises(DomainError):
                    observe_codes(spec, given)

    def test_block_peak_memory(self):
        # one 16,384-id block at N = 100; tracemalloc sees numpy's data buffers
        spec = CodebookSpec.expanded((3, 3, 3, 3))
        n = 100
        codes = block_rng(1, 0).integers(1, codebook_size(spec) + 1,
                                         size=(simulate._block_rows(n), n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            observe_codes(spec, codes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024, f"peak {peak / 1024:.0f} KiB"


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

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_block_stream_is_the_keyed_philox_counter(self, seed):
        for b in (0, 1, 9, 2**40):
            want = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, b]))
            assert (block_rng(seed, b).integers(0, 2**63, size=9)
                    == want.integers(0, 2**63, size=9)).all()

    def test_histogram_blocks_draw_their_own_streams(self):
        # 3,000 trials of 50 contenders: nine blocks of 327 rows and a last one of 57
        spec = CodebookSpec.expanded((3, 3, 3, 3))
        config = ScenarioConfig(spec, n_users=50, trials=3_000, master_seed=42)
        rows = simulate._block_rows(config.n_users)
        blocks = simulate.block_count(config)
        assert (blocks, config.trials - (blocks - 1) * rows) == (10, 57)

        def block(b):
            shape = (min(rows, config.trials - b * rows), config.n_users)
            codes = block_rng(config.master_seed, b).integers(1, codebook_size(spec) + 1,
                                                               size=shape)
            return Counter(zip(*(x.tolist() for x in observe_codes(spec, codes))))

        for b in (0, 1, 4, blocks - 1):
            assert simulate._histogram(config, b, b + 1) == block(b)
        # one generator moved from block to block draws what fresh ones do
        assert simulate._histogram(config, 3, blocks) == sum(map(block, range(3, blocks)),
                                                              Counter())


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
        hist = simulate._histogram(config, 0, simulate.block_count(config))
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

    @pytest.mark.parametrize("spec", enumerable_specs(6), ids=CodebookSpec.describe)
    def test_matches_ordered_definition(self, spec):
        for n in range(5):
            assert brute_force_expected(spec, n) == ordered_average(spec, n), n

    def test_one_codeword_many_contenders(self):
        out = brute_force_expected(CodebookSpec.expanded((1,)), 200)
        assert out.singles == 0 and out.perceived == 1

    def test_single_contender_on_a_wide_codebook(self):
        spec = CodebookSpec.expanded((300, 300))
        out = brute_force_expected(spec, 1)
        assert out.singles == 1
        assert out.perceived == perceived_count_rational(spec, 1)

    @pytest.mark.parametrize("budgets", [(2, 3), (1, 5), (1, 1, 2)])
    def test_size_eleven_codebooks_at_five_contenders(self, budgets):
        spec = CodebookSpec.expanded(budgets)
        assert codebook_size(spec) == 11
        out = brute_force_expected(spec, 5)
        assert out.perceived == perceived_count_rational(spec, 5)
        assert out.singles == 5 * Fraction(10, 11) ** 4

    def test_rows_over_several_blocks_with_long_runs(self):
        spec = CodebookSpec.expanded((4, 7))
        size, n = codebook_size(spec), 4
        assert sum(1 for _ in simulate._multisets(size, n)) > 1
        out = brute_force_expected(spec, n)
        assert out.perceived == perceived_count_rational(spec, n)
        assert out.singles == n * Fraction(size - 1, size) ** (n - 1)
        assert out.distinct_used == size * (1 - Fraction(size - 1, size) ** n)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_weights_are_the_multinomials(self, data):
        size, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 9))
        row = st.lists(st.integers(1, size), min_size=n, max_size=n).map(sorted)
        rows = data.draw(st.lists(row, min_size=1, max_size=8))
        codes = np.array(rows, dtype=np.int64)
        edges = simulate._run_edges(codes.ravel(), np.arange(0, codes.size, n))
        binomials = np.array([[math.comb(i, k) for k in range(n + 1)] for i in range(n + 1)])
        want = [math.factorial(n) // math.prod(map(math.factorial, Counter(r).values()))
                for r in rows]
        assert simulate._weights(edges, binomials).tolist() == want

    def test_two_codewords_up_to_the_default_cap(self):
        spec = CodebookSpec.expanded((2,))
        assert codebook_size(spec) == 2
        out = brute_force_expected(spec, 23)
        assert out.singles == 23 * Fraction(1, 2) ** 22
        assert out.perceived == perceived_count_rational(spec, 23)
        with pytest.raises(EnumerationTooLarge):
            brute_force_expected(spec, 24)

    def test_two_codewords_up_to_the_int64_limit(self, monkeypatch):
        # 2**62 assignments would let the weighted sums reach 2**63
        monkeypatch.setattr(simulate, "BRUTE_FORCE_CAP", 2**62)
        spec = CodebookSpec.expanded((2,))
        out = brute_force_expected(spec, 61)
        assert out.singles == Fraction(61, 2**60)
        assert out.perceived == perceived_count_rational(spec, 61)
        with pytest.raises(EnumerationTooLarge):
            brute_force_expected(spec, 62)

    def test_one_codeword_builds_no_table_of_binomials(self):
        # a table of C(i, k) for i, k <= 10**6 would not fit in memory
        started = time.perf_counter()
        out = brute_force_expected(CodebookSpec.expanded((1,)), 10**6)
        assert time.perf_counter() - started < 2.0
        assert out == ExpectedOutcome(0, 1, 1, 1, 0)

    def test_cap_enforced(self):
        # 8**8 = 16,777,216 assignments, over the default cap
        with pytest.raises(EnumerationTooLarge):
            brute_force_expected(L2M2, 8)

    def test_cap_refuses_without_forming_the_power(self):
        # forming 1,002,000**(10**7) before comparing takes about a minute
        started = time.perf_counter()
        with pytest.raises(EnumerationTooLarge, match=r"1002000\*\*10000000 "):
            brute_force_expected(CodebookSpec.expanded((1000, 1000)), 10**7)
        assert time.perf_counter() - started < 2.0

    def test_exceeds_is_the_direct_power_comparison(self):
        for cap in (0, 1, 7, 10**7, 2**63 - 1):
            for base, exponent in itertools.product(range(1, 6), range(71)):
                assert simulate._exceeds(base, exponent, cap) is (base**exponent > cap)

    @pytest.mark.parametrize("n_users", [2.5, True, "2"])
    def test_non_whole_user_counts_rejected(self, n_users):
        with pytest.raises(DomainError):
            brute_force_expected(L2M2, n_users)

    def test_integral_float_user_count_accepted(self):
        assert brute_force_expected(L2M2, 2.0) == brute_force_expected(L2M2, 2)

    @pytest.mark.parametrize("n_users", [np.int64(2), np.float64(2.0)])
    def test_numpy_whole_user_counts_accepted(self, n_users):
        assert brute_force_expected(L2M2, n_users) == brute_force_expected(L2M2, 2)

    def test_no_contenders_on_a_codebook_too_large_to_enumerate(self):
        # one assignment, though the codebook is above the enumeration cap
        spec = CodebookSpec.expanded((3000, 3000))
        assert codebook_size(spec) > ENUMERATION_CAP
        assert brute_force_expected(spec, 0) == ExpectedOutcome(0, 0, 0, 0, 0)


class TestScenarioWholeNumbers:
    FIELDS = {"n_users": 2, "trials": 2, "master_seed": 1}

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("value", [np.int64(3), 3.0, np.float64(3.0)])
    def test_whole_numbers_taken(self, field, value):
        config = ScenarioConfig(L2M2, **{**self.FIELDS, field: value})
        assert getattr(config, field) == 3 and type(getattr(config, field)) is int

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @pytest.mark.parametrize("value", [True, 2.5, "3"])
    def test_bools_fractions_and_strings_refused(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be a whole number"):
            ScenarioConfig(L2M2, **{**self.FIELDS, field: value})

"""Codebook construction, enumeration, codeword ids, uniform draws and sizing."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codexpand import (
    CodebookSpec,
    DomainError,
    LoadPoint,
    Mode,
    ScenarioConfig,
    SizeExceedsCap,
    block_rng,
    brute_force_expected,
    build_transition_model,
    cardinalities_of_interest,
    codebook_size,
    decode_codewords,
    default_candidates,
    encode_codewords,
    enumerate_codewords,
    expected_singles_curve,
    min_expanded_preambles,
    perceived_count,
    perceived_count_rational,
    reference_efficiency,
    run_batch,
    threshold_schedule,
)
from codexpand.cli import parse_inline_spec

budget_vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4).filter(
    lambda b: any(b)
)


def draw(spec, n, rng):
    """``n`` codewords drawn independently and uniformly: uniform ids in
    ``1..A``, decoded to an (n, L) array of symbols."""
    return decode_codewords(spec, rng.integers(1, codebook_size(spec) + 1, size=n))


class TestSpecValidation:
    def test_reference_is_uniform_by_construction(self):
        spec = CodebookSpec.reference(3, 4)
        assert spec.budgets == (3, 3, 3, 3)

    def test_empty_frame_rejected(self):
        with pytest.raises(DomainError):
            CodebookSpec.expanded(())

    def test_all_zero_budgets_rejected(self):
        with pytest.raises(DomainError):
            CodebookSpec.expanded((0, 0))

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            CodebookSpec.expanded((2, -1))

    def test_budget_above_global_pool_rejected(self):
        with pytest.raises(DomainError):
            CodebookSpec.expanded((2, 5), m_global=4)

    def test_nonuniform_reference_rejected(self):
        with pytest.raises(DomainError):
            CodebookSpec(budgets=(1, 2), mode=Mode.REFERENCE)

    # every count of a spec, built from a value: a budget of the expanded
    # and of the reference alphabet, the sub-frame count, the provisioned pool
    COUNT_FIELDS = {
        "expanded budget": lambda v: CodebookSpec.expanded([v, 2]),
        "reference budget": lambda v: CodebookSpec.reference(v, 2),
        "length": lambda v: CodebookSpec.reference(2, v),
        "m_global": lambda v: CodebookSpec.expanded([2, 2], m_global=v),
    }

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.7)])
    def test_counts_follow_the_whole_number_rule(self, field, value):
        with pytest.raises(DomainError, match="must be a whole number"):
            self.COUNT_FIELDS[field](value)

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    @pytest.mark.parametrize("value", [2.0, np.int64(2)])
    def test_whole_counts_taken_as_ints(self, field, value):
        spec = self.COUNT_FIELDS[field](value)
        assert spec == self.COUNT_FIELDS[field](2)
        assert all(type(b) is int for b in spec.budgets) and type(spec.m_global) is int

    def test_describe_round_trips_through_inline_grammar(self):
        for spec in (
            CodebookSpec.reference(2, 2),
            CodebookSpec.expanded((1, 3, 2)),
            CodebookSpec.expanded((2, 4), m_global=5),
        ):
            assert parse_inline_spec(spec.describe()) == spec


class TestSizing:
    def test_reference_size_is_budget_sum(self):
        assert codebook_size(CodebookSpec.reference(32, 4)) == 128

    def test_expanded_size_excludes_all_idle(self):
        assert codebook_size(CodebookSpec.expanded((2, 2))) == 8
        assert codebook_size(CodebookSpec.expanded((4, 4))) == 24
        assert codebook_size(CodebookSpec.expanded((3, 3, 3, 3))) == 255

    @given(budget_vectors)
    def test_size_matches_enumeration(self, budgets):
        spec = CodebookSpec.expanded(tuple(budgets))
        assert codebook_size(spec) == len(enumerate_codewords(spec))

    def test_single_subframe_modes_coincide_in_size(self):
        # with one sub-frame there is no code expansion to exploit
        assert codebook_size(CodebookSpec.reference(7, 1)) == codebook_size(
            CodebookSpec.expanded((7,))
        )


class TestEnumeration:
    def test_two_by_two_codewords(self):
        words = enumerate_codewords(CodebookSpec.expanded((2, 2)))
        assert set(words) == {
            (0, 1), (0, 2),
            (1, 0), (1, 1), (1, 2),
            (2, 0), (2, 1), (2, 2),
        }

    def test_lexicographic_order(self):
        words = enumerate_codewords(CodebookSpec.expanded((1, 2)))
        assert words == sorted(words)

    def test_reference_codewords_have_one_active_symbol(self):
        words = enumerate_codewords(CodebookSpec.reference(3, 3))
        assert len(words) == 9
        for w in words:
            assert sum(1 for s in w if s) == 1

    def test_zero_budget_subframe_stays_idle(self):
        words = enumerate_codewords(CodebookSpec.expanded((0, 2)))
        assert words == [(0, 1), (0, 2)]

    def test_all_idle_never_enumerated(self):
        for budgets in [(1,), (2, 2), (1, 1, 1)]:
            assert (0,) * len(budgets) not in enumerate_codewords(
                CodebookSpec.expanded(budgets)
            )

    def test_enumeration_cap_guards_blowup(self):
        with pytest.raises(SizeExceedsCap):
            enumerate_codewords(CodebookSpec.expanded((9,) * 7))


@pytest.mark.parametrize("spec", [CodebookSpec.expanded((2, 3)),
                                  CodebookSpec.expanded((1, 0, 2)),
                                  CodebookSpec.reference(4, 3)], ids=CodebookSpec.describe)
def test_ids_number_the_codebook(spec):
    ids = np.arange(1, codebook_size(spec) + 1)
    words = list(map(tuple, decode_codewords(spec, ids).tolist()))
    # mixed-radix ids count in enumeration order; reference ids run one
    # sub-frame at a time, which is not lexicographic
    assert (words if spec.mode is Mode.EXPANDED else sorted(words)) == enumerate_codewords(spec)
    assert encode_codewords(spec, words).tolist() == ids.tolist()


class TestSampling:
    def test_shape_and_symbol_ranges(self):
        spec = CodebookSpec.expanded((2, 3))
        rng = np.random.default_rng(7)
        draws = draw(spec, 500, rng)
        assert draws.shape == (500, 2)
        assert draws[:, 0].max() <= 2 and draws[:, 1].max() <= 3
        assert draws.min() >= 0
        assert (draws.sum(axis=1) > 0).all()

    def test_reference_draws_are_valid_codewords(self):
        spec = CodebookSpec.reference(4, 3)
        rng = np.random.default_rng(11)
        draws = draw(spec, 400, rng)
        assert ((draws > 0).sum(axis=1) == 1).all()

    def test_sampling_is_uniform_over_the_codebook(self):
        # chi-square against the enumerated codebook, fixed seed
        spec = CodebookSpec.expanded((2, 2))
        words = enumerate_codewords(spec)
        index = {w: i for i, w in enumerate(words)}
        rng = np.random.default_rng(1234)
        n = 80_000
        draws = draw(spec, n, rng)
        counts = np.zeros(len(words))
        for row in map(tuple, draws.tolist()):
            counts[index[row]] += 1
        expected = n / len(words)
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # 7 degrees of freedom; 27.9 is far beyond the 0.999 quantile
        assert chi2 < 27.9

    def test_empty_draw(self):
        spec = CodebookSpec.expanded((2, 2))
        assert draw(spec, 0, np.random.default_rng(0)).shape == (0, 2)


class TestPreambleBound:
    def test_known_bounds(self):
        assert min_expanded_preambles(32, 4) == 3
        assert min_expanded_preambles(4, 2) == 2
        assert min_expanded_preambles(1, 1) == 1

    def test_bound_is_minimal(self):
        for m_r, length in itertools.product(range(1, 30), range(1, 6)):
            bound = min_expanded_preambles(m_r, length)
            assert (bound + 1) ** length - 1 >= m_r * length
            if bound > 1:
                assert bound**length - 1 < m_r * length

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            min_expanded_preambles(0, 4)
        with pytest.raises(DomainError):
            min_expanded_preambles(4, 0)


L2M2 = CodebookSpec.expanded((2, 2))
ONE = CodebookSpec.expanded((1,))  # one codeword, under every cap from 1 on
SCHEDULE = threshold_schedule(default_candidates(2, 2, range(1, 50)))

#: Every public entry that takes a count, with the count in one argument,
#: and the least value it takes there.
COUNT_ENTRIES = {
    "LoadPoint n_users": (lambda v: LoadPoint(v, 4), 0),
    "LoadPoint codewords": (lambda v: LoadPoint(2, v), 1),
    "ScenarioConfig n_users": (lambda v: ScenarioConfig(L2M2, v, 2, 1), 1),
    "ScenarioConfig trials": (lambda v: ScenarioConfig(L2M2, 2, v, 1), 1),
    "ScenarioConfig master_seed": (lambda v: ScenarioConfig(L2M2, 2, 2, v), 0),
    "CodebookSpec budget": (lambda v: CodebookSpec.expanded((v, 2)), 0),
    "CodebookSpec m_global": (lambda v: CodebookSpec.expanded((2, 2), m_global=v), 0),
    # no preambles, or no sub-frames, leave the reference codebook empty
    "CodebookSpec.reference m": (lambda v: CodebookSpec.reference(v, 2), 1),
    "CodebookSpec.reference length": (lambda v: CodebookSpec.reference(2, v), 1),
    "perceived_count n_users": (lambda v: perceived_count(L2M2, v), 0),
    "perceived_count_rational n_users": (lambda v: perceived_count_rational(L2M2, v), 0),
    "reference_efficiency n_users": (lambda v: reference_efficiency(v, 2, 2), 1),
    "expected_singles_curve codewords": (lambda v: expected_singles_curve([1, 3], v), 1),
    "brute_force_expected n_users": (lambda v: brute_force_expected(L2M2, v), 0),
    "build_transition_model cap": (lambda v: build_transition_model(ONE, cap=v), 0),
    # two trials of two contenders fill one block, so every worker count runs in-process
    "run_batch workers": (lambda v: run_batch(ScenarioConfig(L2M2, 2, 2, 1), workers=v), 1),
    "min_expanded_preambles m_reference": (lambda v: min_expanded_preambles(v, 2), 1),
    "min_expanded_preambles length": (lambda v: min_expanded_preambles(2, v), 1),
    "cardinalities_of_interest length": (lambda v: cardinalities_of_interest(v, 2), 1),
    "cardinalities_of_interest m": (lambda v: cardinalities_of_interest(2, v), 1),
    "cardinalities_of_interest reference_preambles":
        (lambda v: cardinalities_of_interest(2, 2, v), 1),
    "default_candidates length": (lambda v: default_candidates(v, 2, [1]), 1),
    "default_candidates m": (lambda v: default_candidates(2, v, [1]), 1),
    "default_candidates reference_preambles":
        (lambda v: default_candidates(2, 2, [1], v), 1),
    # the schedule's grid starts at load 1
    "ThresholdSchedule.spec_at": (lambda v: SCHEDULE.spec_at(v), 1),
    "block_rng master_seed": (lambda v: block_rng(v, 0).bit_generator.state, 0),
    "block_rng block_index": (lambda v: block_rng(1, v).bit_generator.state, 0),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
class TestCountEntries:
    """Every count a public entry takes follows `codebook.whole_number`."""

    def test_fractions_bools_and_values_below_the_least_refused(self, entry):
        call, least = COUNT_ENTRIES[entry]
        for value in (2.5, True, least - 1):
            with pytest.raises(DomainError):
                call(value)

    def test_integral_floats_and_numpy_integers_taken_as_ints(self, entry):
        call, _ = COUNT_ENTRIES[entry]
        assert repr(call(2.0)) == repr(call(np.int64(2))) == repr(call(2))

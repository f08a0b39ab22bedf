"""Observation-configuration chain over expanded codebooks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codexpand import (
    CodebookSpec,
    DomainError,
    StateSpaceTooLarge,
    build_state_space,
    build_transition_model,
    configuration_cardinality,
    expanded_efficiency,
    perceived_count,
    perceived_count_rational,
    perceived_curve,
    perceived_terms,
    reference_efficiency,
)
from codexpand.markov import transition_count

L2M2 = CodebookSpec.expanded((2, 2))

small_budgets = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).filter(
    lambda b: any(b)
)


def loop_successors(config, budgets):
    """{successor: codeword count} for one more contender, one move at a time.

    In each sub-frame the codeword sends one of the ``C_j`` symbols already
    observed, or (below the budget) one of the ``m_j + 1 - C_j`` unobserved
    preambles; the self-loop loses the all-idle word.
    """
    moves = [
        ((c, c),) if c > m else ((c, c), (c + 1, m + 1 - c))
        for c, m in zip(config, budgets)
    ]
    out = {}
    for move in itertools.product(*moves):
        succ, factors = zip(*move)
        count = math.prod(factors) - (succ == tuple(config))
        if count:
            out[succ] = count
    return out


class TestStateSpace:
    def test_two_by_two_states(self):
        space = build_state_space(L2M2)
        assert space.states == (
            (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3),
            (3, 1), (3, 2), (3, 3),
        )
        assert space.cardinalities.tolist() == [1, 2, 1, 3, 5, 2, 5, 8]

    def test_all_idle_configuration_excluded(self):
        for budgets in [(1,), (2, 2), (1, 2, 1)]:
            space = build_state_space(CodebookSpec.expanded(budgets))
            assert (1,) * len(budgets) not in space.states

    def test_cardinality_formula(self):
        assert configuration_cardinality((3, 3)) == 8
        assert configuration_cardinality((1, 2)) == 1
        assert configuration_cardinality((5, 5)) == 24

    def test_nonuniform_budgets(self):
        space = build_state_space(CodebookSpec.expanded((1, 2)))
        assert space.states == ((1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
        assert space.cardinalities.tolist() == [1, 2, 1, 3, 5]

    def test_cap_guards_state_blowup(self):
        with pytest.raises(StateSpaceTooLarge):
            build_state_space(CodebookSpec.expanded((9,) * 9))

    def test_reference_mode_has_no_chain(self):
        with pytest.raises(DomainError):
            build_state_space(CodebookSpec.reference(2, 2))

    def test_cap_counts_states(self):
        # (2,) has 2 states; the all-ones configuration is not one of them
        assert len(build_state_space(CodebookSpec.expanded((2,)), cap=2)) == 2
        with pytest.raises(StateSpaceTooLarge, match="2 states exceed the cap of 1"):
            build_state_space(CodebookSpec.expanded((2,)), cap=1)
        with pytest.raises(StateSpaceTooLarge):
            build_transition_model(CodebookSpec.expanded((2,)), cap=1)


class TestTransitionModel:
    def test_transition_counts_match_hand_values(self):
        # from configuration (1,2): stay, add a preamble in either sub-frame, or both
        assert transition_count((1, 2), (1, 2), L2M2) == 1
        assert transition_count((1, 2), (2, 2), L2M2) == 4
        assert transition_count((1, 2), (1, 3), L2M2) == 1
        assert transition_count((1, 2), (2, 3), L2M2) == 2
        assert transition_count((1, 2), (3, 2), L2M2) == 0
        assert transition_count((2, 2), (1, 2), L2M2) == 0
        assert transition_count([1, 2], [1, 2], L2M2) == 1  # lists work too

    @given(small_budgets)
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_codebook_size(self, budgets):
        model = build_transition_model(CodebookSpec.expanded(tuple(budgets)))
        sums = np.asarray(model.counts.sum(axis=1)).ravel()
        assert (sums == model.denominator).all()

    def test_matrix_is_row_stochastic(self):
        model = build_transition_model(CodebookSpec.expanded((2, 3)))
        rows = model.matrix.sum(axis=1)
        assert np.abs(np.asarray(rows).ravel() - 1.0).max() <= 1e-12

    def test_initial_distribution_mass(self):
        model = build_transition_model(L2M2)
        assert model.initial_counts.sum() == model.denominator
        assert [
            Fraction(int(c), model.denominator) for c in model.initial_counts
        ] == [
            Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 2), 0, 0, 0, 0,
        ]

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)
           .filter(any))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_chain_matches_loop_reference(self, budgets):
        spec = CodebookSpec.expanded(tuple(budgets))
        model = build_transition_model(spec)
        all_ones = (1,) * len(budgets)
        states = tuple(c for c in itertools.product(*(range(1, m + 2) for m in budgets))
                       if c != all_ones)
        assert model.states == states
        index = {c: i for i, c in enumerate(states)}
        expected = np.zeros((len(states), len(states)), dtype=np.int64)
        for i, config in enumerate(states):
            for succ, count in loop_successors(config, budgets).items():
                expected[i, index[succ]] = count
        assert np.array_equal(model.counts.toarray(), expected)
        initial = np.zeros(len(states), dtype=np.int64)
        for succ, count in loop_successors(all_ones, budgets).items():
            initial[index[succ]] = count
        assert np.array_equal(model.initial_counts, initial)
        for frm in (all_ones, *states):
            successors = loop_successors(frm, budgets)
            for to in (all_ones, *states):
                assert transition_count(frm, to, spec) == successors.get(to, 0)

    def test_large_single_budget_builds_in_linear_space(self):
        # 10**5 states and 2 * 10**5 - 1 non-zeros; a dense per-sub-frame
        # factor would need 80 GB here
        m = 10**5
        model = build_transition_model(CodebookSpec.expanded((m,)))
        assert len(model) == m and model.counts.nnz == 2 * m - 1
        assert model.counts[0, 0] == 1 and model.counts[0, 1] == m - 1
        assert model.counts[m - 1, m - 1] == m
        assert model.initial_counts[0] == m and model.initial_counts[1:].sum() == 0

    def test_transition_count_on_a_huge_budget(self):
        spec = CodebookSpec.expanded((10**6, 1))
        assert transition_count((5, 1), (6, 2), spec) == 10**6 - 4
        assert transition_count((5, 2), (5, 2), spec) == 9
        assert transition_count((5, 1), (7, 1), spec) == 0

    def test_absorbing_full_state(self):
        model = build_transition_model(L2M2)
        last = model.counts.getrow(len(model.states) - 1)
        assert last.indices.tolist() == [len(model.states) - 1]
        assert last.data.tolist() == [model.denominator]


class TestPerceivedCount:
    def test_single_user_anchor(self):
        assert perceived_count(L2M2, 1) == 2.0
        model = build_transition_model(L2M2)
        assert model.perceived_count_exact(1) == 2

    def test_two_user_rational_anchor(self):
        model = build_transition_model(CodebookSpec.expanded((1, 1)))
        assert model.perceived_count_exact(2) == Fraction(23, 9)
        assert perceived_count(CodebookSpec.expanded((1, 1)), 2) == pytest.approx(
            23 / 9, abs=1e-14
        )

    def test_empty_frame_is_zero(self):
        model = build_transition_model(L2M2)
        assert model.perceived_count(0) == 0.0

    def test_monotone_and_bounded(self):
        model = build_transition_model(CodebookSpec.expanded((2, 3)))
        grid = list(range(1, 60))
        values = model.perceived_sweep(grid)
        assert (np.diff(values) >= -1e-12).all()
        assert values.max() <= model.denominator + 1e-9

    def test_sweep_equals_pointwise(self):
        model = build_transition_model(L2M2)
        grid = [1, 2, 5, 9, 17]
        swept = model.perceived_sweep(grid)
        single = [model.perceived_count(n) for n in grid]
        assert swept == pytest.approx(single, abs=1e-12)

    def test_grid_must_increase(self):
        model = build_transition_model(L2M2)
        with pytest.raises(DomainError):
            model.perceived_sweep([3, 2])


class TestClosedForm:
    def test_term_counts(self):
        assert perceived_terms((2, 2)) == {9: 1, 6: -2, 4: 1}
        for budgets in [(1,) * 5, (3,) * 4, (4,) * 10]:
            assert len(perceived_terms(budgets)) == len(budgets) + 1
        assert len(perceived_terms((5, 5, 5, 5, 5, 4))) == 12

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).filter(any),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_chain_exactly(self, budgets, n):
        spec = CodebookSpec.expanded(tuple(budgets))
        chain = build_transition_model(spec).perceived_count_exact(n)
        assert perceived_count_rational(spec, n) == chain

    @pytest.mark.parametrize("budgets", [(4,) * 10, (1,) * 20, (12, 12, 12)])
    def test_float_path_stays_near_exact(self, budgets):
        # few contenders over many sub-frames cancel large terms; the
        # rounding guard must route those loads through the exact sum
        spec = CodebookSpec.expanded(budgets)
        loads = list(range(1, 41))
        values = perceived_curve(spec, loads)
        for n, value in zip(loads, values):
            exact = perceived_count_rational(spec, n)
            assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10**12) * exact

    def test_matches_chain_sweep_on_a_long_grid(self):
        spec = CodebookSpec.expanded((1, 2, 3))
        grid = list(range(1, 301))
        chain = build_transition_model(spec).perceived_sweep(grid)
        assert np.abs(perceived_curve(spec, grid) - chain).max() <= 1e-12 * spec.size

    def test_negative_load_rejected(self):
        with pytest.raises(DomainError):
            perceived_curve(L2M2, [-1])

    def test_reference_mode_rejected(self):
        with pytest.raises(DomainError):
            perceived_count(CodebookSpec.reference(2, 2), 3)


class TestEfficiency:
    def test_single_user_value(self):
        assert expanded_efficiency(L2M2, 1) == pytest.approx(0.5, abs=1e-15)

    def test_single_subframe_has_no_phantoms(self):
        # one sub-frame cannot create ambiguity, so both schemes coincide
        spec = CodebookSpec.expanded((5,))
        for n in (1, 2, 7, 19):
            assert expanded_efficiency(spec, n) == pytest.approx(
                reference_efficiency(n, 5, 1), abs=1e-12
            )

    def test_efficiency_stays_in_unit_interval(self):
        model = build_transition_model(CodebookSpec.expanded((2, 3)))
        for n in (1, 2, 5, 12, 40):
            assert 0.0 < model.efficiency(n) <= 1.0

"""Candidate codebooks, efficiency curves and threshold schedules."""

import itertools
import math

import numpy as np
import pytest

from codexpand import (
    BudgetExceedsTotal,
    CandidateSet,
    CodebookSpec,
    DomainError,
    Mode,
    build_state_space,
    cardinalities_of_interest,
    codebook_size,
    crossover_point,
    default_candidates,
    efficiency_curve,
    expanded_efficiency_curve,
    partition_preambles,
    reference_efficiency,
    spec_for_cardinality,
    state_cardinality_values,
    supported_load,
    threshold_schedule,
)

GRID_200 = list(range(1, 201))


class TestCardinalities:
    def test_reachable_values_for_two_by_four(self):
        assert state_cardinality_values(2, 4) == [
            1, 2, 3, 4, 5, 7, 8, 9, 11, 14, 15, 19, 24,
        ]

    @pytest.mark.parametrize("length, m", [(2, 4), (4, 3), (4, 4)])
    def test_values_match_the_state_space(self, length, m):
        space = build_state_space(CodebookSpec.expanded((m,) * length))
        assert state_cardinality_values(length, m) == sorted(set(space.cardinalities.tolist()))

    def test_interest_exceeds_reference_pool(self):
        assert cardinalities_of_interest(2, 4) == [9, 11, 14, 15, 19, 24]

    def test_interest_with_external_reference_pool(self):
        # reference uses 32 preambles while the expanded side only has 3
        assert cardinalities_of_interest(4, 3, reference_preambles=32) == [143, 191, 255]

    def test_interest_is_subset_of_reachable(self):
        values = set(state_cardinality_values(3, 3))
        assert set(cardinalities_of_interest(3, 3)) <= values

    def test_spec_for_cardinality_picks_smallest_budgets(self):
        assert spec_for_cardinality(2, 4, 9).budgets == (1, 4)
        assert spec_for_cardinality(2, 4, 24).budgets == (4, 4)

    @pytest.mark.parametrize("length, m", itertools.product(range(1, 5), repeat=2))
    def test_spec_for_cardinality_is_the_smallest_realization(self, length, m):
        realizations = {}
        for budgets in itertools.product(range(m + 1), repeat=length):
            realizations.setdefault(math.prod(b + 1 for b in budgets) - 1, []).append(budgets)
        realizations.pop(0)
        assert sorted(realizations) == state_cardinality_values(length, m)
        for target, options in realizations.items():
            assert spec_for_cardinality(length, m, target).budgets == min(options)

    @pytest.mark.parametrize("m", [3, 4])
    def test_chosen_realization_is_never_less_efficient(self, m):
        # realizations of one size differ in efficiency; the lexicographically
        # smallest one, with its idle leading sub-frames, wins at every load
        grid = np.arange(1, 10 * ((m + 1) ** 4 - 1) + 1)
        contested = 0
        for target in cardinalities_of_interest(4, m):
            chosen = spec_for_cardinality(4, m, target)
            others = {tuple(sorted(b)) for b in itertools.product(range(m + 1), repeat=4)
                      if math.prod(c + 1 for c in b) - 1 == target}
            others.discard(tuple(sorted(chosen.budgets)))
            contested += bool(others)
            best = expanded_efficiency_curve(chosen, grid)
            for budgets in others:
                other = expanded_efficiency_curve(CodebookSpec.expanded(budgets), grid)
                assert (best >= other).all()
        assert contested > 0

    def test_spec_for_unreachable_cardinality(self):
        with pytest.raises(DomainError):
            spec_for_cardinality(2, 4, 6)


class TestCandidates:
    def test_default_set_shape(self):
        cands = default_candidates(2, 4, GRID_200)
        assert codebook_size(cands.candidates[0]) == 8
        assert cands.candidates[0].mode is Mode.REFERENCE
        assert [codebook_size(s) for s in cands.candidates[1:]] == [9, 11, 14, 15, 19, 24]

    def test_load_grid_validation(self):
        with pytest.raises(DomainError):
            CandidateSet((CodebookSpec.reference(2, 2),), (3, 2, 1))
        with pytest.raises(DomainError):
            CandidateSet((), (1, 2))


class TestCurvesAndCrossover:
    def test_reference_curve_matches_closed_form(self):
        spec = CodebookSpec.reference(2, 2)
        curve = dict(efficiency_curve(spec, [1, 2, 7]))
        for n in (1, 2, 7):
            assert curve[n] == pytest.approx(reference_efficiency(n, 2, 2), abs=1e-14)

    def test_expanded_single_user_value(self):
        curve = dict(efficiency_curve(CodebookSpec.expanded((2, 2)), [1]))
        assert curve[1] == pytest.approx(0.5, abs=1e-15)

    def test_crossover_for_smallest_example(self):
        ref = CodebookSpec.reference(2, 2)
        exp = CodebookSpec.expanded((2, 2))
        assert crossover_point(ref, exp, GRID_200) == 7

    def test_crossover_of_identical_specs_is_absent(self):
        ref = CodebookSpec.reference(2, 2)
        assert crossover_point(ref, ref, GRID_200) is None

    def test_no_flip_back_after_crossover(self):
        ref = CodebookSpec.reference(2, 2)
        exp = CodebookSpec.expanded((2, 2))
        ref_curve = dict(efficiency_curve(ref, GRID_200))
        exp_curve = dict(efficiency_curve(exp, GRID_200))
        for n in range(7, 201):
            assert exp_curve[n] > ref_curve[n]

    def test_supported_load_of_reference_pool(self):
        grid = list(range(1, 401))
        spec = CodebookSpec.reference(32, 4)
        assert supported_load(spec, grid, floor=0.5) == 161

    def test_supported_load_below_any_reach(self):
        spec = CodebookSpec.reference(2, 2)
        assert supported_load(spec, GRID_200, floor=0.999999) == 1

    @pytest.mark.parametrize("grid", [[3, 1], [1, 1], [], [0, 1]])
    def test_supported_load_needs_an_increasing_grid(self, grid):
        # both loads of [3, 1] reach 0.5; a silent answer would be 1, not 3
        with pytest.raises(DomainError):
            supported_load(CodebookSpec.reference(2, 2), grid, floor=0.5)

    @pytest.mark.parametrize("grid", [[200, 7, 100], [7, 7], [], [-1, 7]])
    def test_crossover_needs_an_increasing_grid(self, grid):
        # on [200, 7, 100] a silent answer would be 200, not the smallest win 7
        with pytest.raises(DomainError):
            crossover_point(CodebookSpec.reference(2, 2), CodebookSpec.expanded((2, 2)), grid)


class TestSchedule:
    def test_single_candidate_single_segment(self):
        cands = CandidateSet((CodebookSpec.reference(4, 2),), tuple(GRID_200))
        schedule = threshold_schedule(cands)
        assert len(schedule.segments) == 1
        seg = schedule.segments[0]
        assert (seg.n_low, seg.n_high) == (1, 200)
        assert schedule.thresholds == ()

    def test_two_by_four_schedule_boundaries(self):
        grid = list(range(1, 61))
        schedule = threshold_schedule(default_candidates(2, 4, grid))
        layout = [
            (seg.n_low, seg.n_high, codebook_size(seg.spec)) for seg in schedule.segments
        ]
        assert layout == [(1, 13, 8), (14, 15, 14), (16, 20, 19), (21, 60, 24)]

    def test_chosen_cardinality_is_monotone(self):
        schedule = threshold_schedule(default_candidates(2, 4, GRID_200))
        sizes = [codebook_size(seg.spec) for seg in schedule.segments]
        assert sizes == sorted(sizes)

    def test_schedule_dominates_every_candidate(self):
        grid = list(range(1, 81))
        cands = default_candidates(2, 4, grid)
        schedule = threshold_schedule(cands)
        curves = [dict(efficiency_curve(s, grid)) for s in cands.candidates]
        chosen = {}
        for seg in schedule.segments:
            curve = dict(efficiency_curve(seg.spec, grid))
            for n in range(seg.n_low, seg.n_high + 1):
                chosen[n] = curve[n]
        for n in grid:
            best = max(c[n] for c in curves)
            assert chosen[n] >= best - 1e-12

    def test_exact_tie_goes_to_the_smaller_codebook(self):
        small, large = CodebookSpec.reference(2, 2), CodebookSpec.reference(4, 2)
        assert efficiency_curve(small, [1]) == efficiency_curve(large, [1]) == [(1, 1.0)]
        first = threshold_schedule(CandidateSet((large, small), (1, 2, 3))).segments[0]
        assert (first.n_low, first.n_high, first.spec) == (1, 1, small)
        assert first.efficiency_low == 1.0

    @pytest.mark.parametrize("length, m", [(2, 4), (4, 3)])
    def test_segment_efficiencies_are_the_chosen_curve(self, length, m):
        grid = list(range(1, 301))
        schedule = threshold_schedule(default_candidates(length, m, grid))
        assert len(schedule.segments) > 2
        for seg in schedule.segments:
            curve = dict(efficiency_curve(seg.spec, grid))
            assert seg.efficiency_low == curve[seg.n_low]
            assert seg.efficiency_high == curve[seg.n_high]

    def test_candidate_order_does_not_change_the_schedule(self):
        cands = default_candidates(4, 3, GRID_200)
        reversed_cands = CandidateSet(cands.candidates[::-1], cands.load_grid)
        assert threshold_schedule(reversed_cands) == threshold_schedule(cands)

    def test_spec_at_lookup(self):
        grid = list(range(1, 61))
        schedule = threshold_schedule(default_candidates(2, 4, grid))
        assert codebook_size(schedule.spec_at(1)) == 8
        assert codebook_size(schedule.spec_at(14)) == 14
        assert codebook_size(schedule.spec_at(60)) == 24

    def test_longer_frame_extends_the_half_efficiency_region(self):
        # envelope over reference plus interest candidates, half-success floor
        def last_above_half(length, m):
            grid = list(range(1, 101))
            cands = default_candidates(length, m, grid)
            curves = [dict(efficiency_curve(s, grid)) for s in cands.candidates]
            best = None
            for n in grid:
                if max(c[n] for c in curves) > 0.5:
                    best = n
            return best

        l4 = last_above_half(4, 4)
        l2 = last_above_half(2, 4)
        assert (l4, l2) == (20, 10)
        assert l4 > l2


class TestPartition:
    def test_contiguous_split(self):
        assert partition_preambles(64, [32, 4]) == [(1, 32), (33, 36)]

    def test_single_class(self):
        assert partition_preambles(32, [3]) == [(1, 3)]

    def test_overcommitted_pool_rejected(self):
        with pytest.raises(BudgetExceedsTotal):
            partition_preambles(64, [64, 1])

    def test_zero_budget_rejected(self):
        with pytest.raises(DomainError):
            partition_preambles(8, [0, 2])

"""Candidate codebooks, efficiency curves and threshold schedules."""

import decimal
import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codexpand import (
    CandidateSet,
    CodebookSpec,
    DomainError,
    Mode,
    build_transition_model,
    cardinalities_of_interest,
    codebook_size,
    crossover_point,
    default_candidates,
    efficiency_curve,
    expanded_efficiency_curve,
    perceived_curve,
    reference_efficiency,
    supported_load,
    threshold_schedule,
)
from codexpand.contention import _closed_form, _rounded_base, _singles, _term_table
from codexpand import planner
from codexpand.codebook import _smallest_budgets
from codexpand.planner import ScheduleSegment

GRID_200 = list(range(1, 201))


def realizations(length, m):
    """Every budget vector of ``length`` budgets up to ``m``, by codebook size."""
    sizes = {}
    for budgets in itertools.product(range(m + 1), repeat=length):
        sizes.setdefault(math.prod(b + 1 for b in budgets) - 1, []).append(budgets)
    sizes.pop(0)
    return sizes


class TestCardinalities:
    def test_reachable_values_for_two_by_four(self):
        assert (_smallest_budgets(2, 4)[0][1:] - 1).tolist() == [
            1, 2, 3, 4, 5, 7, 8, 9, 11, 14, 15, 19, 24,
        ]

    @pytest.mark.parametrize("length, m", [(2, 4), (4, 3), (4, 4)])
    def test_values_match_the_state_space(self, length, m):
        model = build_transition_model(CodebookSpec.expanded((m,) * length))
        assert ((_smallest_budgets(length, m)[0][1:] - 1).tolist()
                == sorted(set(model.cardinalities.tolist())))

    def test_interest_exceeds_reference_pool(self):
        assert cardinalities_of_interest(2, 4) == [9, 11, 14, 15, 19, 24]

    def test_interest_with_external_reference_pool(self):
        # reference uses 32 preambles while the expanded side only has 3
        assert cardinalities_of_interest(4, 3, reference_preambles=32) == [143, 191, 255]

    def test_interest_is_subset_of_reachable(self):
        values = set((_smallest_budgets(3, 3)[0][1:] - 1).tolist())
        assert set(cardinalities_of_interest(3, 3)) <= values

    def test_candidates_take_the_smallest_budgets(self):
        budgets = {s.size: s.budgets for s in default_candidates(2, 4, GRID_200).candidates[1:]}
        assert (budgets[9], budgets[24]) == ((1, 4), (4, 4))

    @pytest.mark.parametrize("length, m", [*itertools.product(range(1, 5), repeat=2),
                                           (2, 54), (3, 12), (8, 2)])
    def test_candidates_are_the_smallest_realizations(self, length, m):
        sizes = sorted(realizations(length, m).items())
        products, budgets = _smallest_budgets(length, m)
        assert [(a, min(options)) for a, options in sizes] == list(
            zip((products[1:] - 1).tolist(), map(tuple, budgets[1:].tolist())))
        # above the smallest reference codebook, of one preamble per sub-frame
        expanded = default_candidates(length, m, [1], reference_preambles=1).candidates[1:]
        assert ([(s.size, s.budgets) for s in expanded]
                == [(a, min(options)) for a, options in sizes if a > length])

    @pytest.mark.parametrize("m", [3, 4])
    def test_chosen_realization_is_never_less_efficient(self, m):
        # realizations of one size differ in efficiency; the lexicographically
        # smallest one, with its idle leading sub-frames, wins at every load
        grid = np.arange(1, 10 * ((m + 1) ** 4 - 1) + 1)
        sizes = realizations(4, m)
        contested = 0
        for chosen in default_candidates(4, m, grid).candidates[1:]:
            others = {tuple(sorted(b)) for b in sizes[chosen.size]}
            others.discard(tuple(sorted(chosen.budgets)))
            contested += bool(others)
            best = expanded_efficiency_curve(chosen, grid)
            for budgets in others:
                other = expanded_efficiency_curve(CodebookSpec.expanded(budgets), grid)
                assert (best >= other).all()
        assert contested > 0


class TestCandidates:
    @pytest.mark.parametrize("length, m, reference_preambles, reference", [
        (2, 4, None, 8), (4, 3, 32, 128)])
    def test_default_set_shape(self, length, m, reference_preambles, reference):
        cands = default_candidates(length, m, GRID_200, reference_preambles)
        assert codebook_size(cands.candidates[0]) == reference
        assert cands.candidates[0].mode is Mode.REFERENCE
        assert ([codebook_size(s) for s in cands.candidates[1:]]
                == cardinalities_of_interest(length, m, reference_preambles))

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

    @pytest.mark.parametrize("grid", [[200, 7, 100], [7, 7], [], [-1, 7], 7])
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


class TestLoadGridFormat:
    """A grid is one read-only int64 array; loads leave the planner as Python ints."""

    @pytest.mark.parametrize("grid", [list(range(1, 701)), range(1, 701), np.arange(1, 701)],
                             ids=["list", "range", "int64"])
    def test_loads_come_out_as_python_ints(self, grid):
        schedule = threshold_schedule(default_candidates(4, 4, grid))
        ref, exp = CodebookSpec.reference(2, 2), CodebookSpec.expanded((2, 2))
        loads = [schedule.tail_start, crossover_point(ref, exp, grid),
                 supported_load(ref, grid, floor=0.5),
                 *(n for seg in schedule.segments for n in (seg.n_low, seg.n_high))]
        assert loads[:3] == [580, 7, 5]
        assert all(type(n) is int for n in loads), loads

    def test_candidate_grid_does_not_alias_the_callers_array(self):
        grid = np.arange(1, 301)
        cands = default_candidates(2, 4, grid)
        expected = threshold_schedule(cands)
        assert cands.load_grid.dtype == np.int64
        with pytest.raises(ValueError):
            cands.load_grid[0] = 2
        grid *= 2
        assert cands.load_grid.tolist() == list(range(1, 301))
        assert threshold_schedule(cands) == expected


def segments_of(grid, specs, best, chosen):
    """Segments of per-load choices and efficiencies, as `threshold_schedule`
    builds them."""
    cuts = (np.flatnonzero(np.diff(chosen)) + 1).tolist()
    return tuple(
        ScheduleSegment(int(grid[lo]), int(grid[stop - 1]), specs[chosen[lo]],
                        float(best[lo]), float(best[stop - 1]))
        for lo, stop in zip([0, *cuts], [*cuts, len(grid)])
    )


def running_best(specs, loads):
    """The running best over every candidate at every load, in size order."""
    best = np.full(len(loads), -np.inf)
    chosen = np.zeros(len(loads), dtype=np.intp)
    for index, spec in enumerate(specs):
        values = expanded_efficiency_curve(spec, loads)
        better = values > best
        best[better] = values[better]
        chosen[better] = index
    return best, chosen


def dense_schedule(candidates):
    """Segments of the running best over every candidate at every load: the
    schedule without its saturated tail."""
    specs = sorted(candidates.candidates, key=codebook_size)
    return segments_of(candidates.load_grid, specs,
                       *running_best(specs, candidates.load_grid))


#: Distinct sizes `per_load_tail` compares at each load: the two that bracket
#: it and one more on either side.  h(A) = (1 - 1/A)**(N-1) / A rises below
#: A = N and falls above it, so the best size is among them.
TAIL_WINDOW = 4


def per_load_tail(specs, loads):
    """The tail rule at every load, exactly: the first maximum of
    ln h(A) = (N - 1) ln(1 - 1/A) - ln A in `decimal` over the `TAIL_WINDOW`
    distinct sizes around each load, and the smallest codebook from the first
    load where the largest size's float efficiency is 0.0; with the chosen
    size's efficiency ``N h(A)`` in `_singles`' floats.  ``specs`` are sorted
    by size."""
    sizes, first = np.unique([codebook_size(s) for s in specs], return_index=True)
    n = loads.astype(np.float64)
    zeros = np.flatnonzero(_singles(n, *_rounded_base(int(sizes[-1]))) == 0.0)
    cut = zeros[0] if zeros.size else len(loads)
    starts = np.clip(np.searchsorted(sizes, loads) - TAIL_WINDOW // 2,
                     0, max(len(sizes) - TAIL_WINDOW, 0))
    member = np.zeros(len(loads), dtype=np.intp)
    with decimal.localcontext() as context:
        context.prec = 40
        logs = [(Decimal(a - 1).ln() - Decimal(a).ln(), Decimal(a).ln()) for a in sizes.tolist()]
        for i, (load, start) in enumerate(zip(loads[:cut].tolist(), starts[:cut].tolist())):
            window = logs[start:start + TAIL_WINDOW]
            values = [-log_a if load == 1 else (load - 1) * log_r - log_a
                      for log_r, log_a in window]
            member[i] = start + values.index(max(values))
    best = np.empty(len(loads))
    for d in np.unique(member).tolist():
        at = member == d
        best[at] = _singles(n[at], *_rounded_base(int(sizes[d]))) / sizes[d]
    return best, first[member]


def per_load_schedule(candidates):
    """The schedule with its tail rule run at every tail load, from the last
    candidate's saturation load on."""
    grid = candidates.load_grid
    specs = sorted(candidates.candidates, key=codebook_size)
    tail = np.searchsorted(grid, max(_term_table([s]).saturation[0] for s in specs))
    best, chosen = (np.concatenate(parts) for parts in zip(
        running_best(specs, grid[:tail]), per_load_tail(specs, grid[tail:])))
    return segments_of(grid, specs, best, chosen)


def uncut_closed_form(specs, loads):
    """`contention._closed_form` of codebooks evaluated at every load, none
    cut at its saturation load."""
    table = _term_table(specs)
    return _closed_form(table._replace(saturation=np.full(len(specs), np.inf)), loads)


def crossings(sizes):
    """Loads where ``N h(a)`` and ``N h(b)`` cross, for sizes that can share
    a window; with a = 1, at N = 1."""
    sizes = sorted(set(sizes))
    return [1.0 if a == 1 else 1 + math.log(b / a) / (math.log1p(-1 / b) - math.log1p(-1 / a))
            for i, a in enumerate(sizes) for b in sizes[i + 1:i + TAIL_WINDOW]]


class TestSaturatedTail:
    # (length, preambles, reference preambles, last load or None for the
    # default grid of ten times the full codebook) and the tail start
    GRIDS = {
        "l2m4": ((2, 4, None, None), None),
        "l4m4": ((4, 4, None, None), 580),
        "l4m3-ref32": ((4, 3, 32, None), None),
        "l6m5": ((6, 5, None, 3000), 1105),
        "l8m4": ((8, 4, None, 2000), 1179),  # a 1:20000 dense loop is too slow here
        "l2m54": ((2, 54, None, 2000), None),  # 861 candidates, all in the dense head
    }
    # six budget vectors of 23 codewords
    EQUAL_23 = [CodebookSpec.expanded(b) for b in
                [(0, 0, 23), (0, 1, 11), (0, 2, 7), (0, 3, 5), (1, 1, 5), (1, 2, 3)]]

    @staticmethod
    def candidates(length, m, reference_preambles, last):
        last = last or 10 * ((m + 1) ** length - 1)
        return default_candidates(length, m, range(1, last + 1), reference_preambles)

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_schedule_is_the_dense_running_best(self, case):
        args, tail_start = self.GRIDS[case]
        cands = self.candidates(*args)
        schedule = threshold_schedule(cands)
        assert schedule.tail_start == tail_start
        assert schedule.segments == dense_schedule(cands)

    @pytest.mark.parametrize("case", sorted(c for c, (_, start) in GRIDS.items() if start))
    def test_every_candidate_perceives_its_size_in_the_tail(self, case):
        args, tail_start = self.GRIDS[case]
        cands = self.candidates(*args)
        tail = cands.load_grid[cands.load_grid >= tail_start]
        for spec in cands.candidates:
            assert (uncut_closed_form([spec], tail) == codebook_size(spec)).all(), spec

    @pytest.mark.parametrize("case", [*sorted(GRIDS), "equal-23"])
    def test_every_candidate_perceives_its_size_from_its_own_saturation(self, case):
        if case == "equal-23":
            # with a one-codeword reference, which saturates at the first load
            # and so has no closed-form loads in the head
            one = CodebookSpec.reference(1, 1)
            assert _term_table([one]).saturation[0] == 1
            cands = CandidateSet((one, CodebookSpec.reference(2, 2), *self.EQUAL_23),
                                 range(1, 2001))
        else:
            cands = self.candidates(*self.GRIDS[case][0])
        schedule = threshold_schedule(cands)
        grid = np.array(cands.load_grid)
        head = grid[grid < (schedule.tail_start or np.inf)]
        evaluated = 0
        for spec in cands.candidates:
            size = codebook_size(spec)
            start = _term_table([spec]).saturation[0]
            assert (uncut_closed_form([spec], grid[grid >= start]) == size).all(), spec
            evaluated += np.count_nonzero(head < start)
        assert schedule.closed_form_loads == evaluated
        if case == "equal-23":  # the other cases are compared in the test above
            assert schedule.segments == dense_schedule(cands)

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_saturation_cut_changes_no_float(self, case):
        # every candidate at every load of the case's grid
        cands = self.candidates(*self.GRIDS[case][0])
        table, loads = _term_table(cands.candidates), cands.load_grid
        assert (_closed_form(table, loads).tobytes()
                == uncut_closed_form(cands.candidates, loads).tobytes())

    @pytest.mark.parametrize("spec", [CodebookSpec.expanded((2**61,)),
                                      CodebookSpec.reference(2**60, 2)], ids=["2^61", "2^60x2"])
    def test_codebooks_saturating_beyond_every_int64_load(self, spec):
        # the saturation estimate, near 8.6e19, is past every int64 load: the
        # codebook never saturates, and its values are the evaluated sum's
        assert _term_table([spec]).saturation[0] == np.inf
        assert perceived_curve(spec, [1, 2, 10, 1000]).tolist() == [
            1.0, 2.0, 10.0, float.fromhex("0x1.f3ffffffffffep+9")]
        cands = CandidateSet((CodebookSpec.reference(2, 2), spec), range(1, 50))
        schedule = threshold_schedule(cands)
        assert schedule.tail_start is None and schedule.closed_form_loads == 98
        assert schedule.segments == dense_schedule(cands)
        assert schedule.thresholds == (2,)

    @pytest.mark.parametrize("chunk", [1, 7 * 579, 2**40])
    def test_head_blocks_leave_the_schedule_unchanged(self, monkeypatch, chunk):
        # blocks of one candidate, of seven over l4m4's 579 head loads, and of all
        cands = self.candidates(*self.GRIDS["l4m4"][0])
        expected = threshold_schedule(cands)
        monkeypatch.setattr(planner, "HEAD_CHUNK", chunk)
        assert threshold_schedule(cands) == expected

    def test_equal_sizes_tie_to_the_first_in_size_order(self):
        # six budget vectors of 23 codewords: they differ below the tail and
        # tie exactly in it, more of them than the window holds
        equal = self.EQUAL_23
        grid = tuple(range(1, 2001))
        for order in [equal, equal[::-1]]:
            cands = CandidateSet((CodebookSpec.reference(2, 2), *order), grid)
            schedule = threshold_schedule(cands)
            assert schedule.tail_start is not None
            assert schedule.segments == dense_schedule(cands)
            assert schedule.spec_at(grid[-1]) == order[0]

    def test_loads_past_underflow_tie_to_the_smallest_codebook(self):
        # from about N = 17,500 every efficiency of L=2, M=4 underflows to 0.0
        grid = (*range(1, 300), 10**3, 10**4, 10**5, 10**6)
        cands = default_candidates(2, 4, grid)
        schedule = threshold_schedule(cands)
        assert schedule.segments == dense_schedule(cands)
        assert schedule.spec_at(10**6) == cands.candidates[0]
        assert schedule.segments[-1].efficiency_high == 0.0

    @pytest.mark.parametrize("length, m", [(10, 4), (16, 2)])
    def test_tail_is_the_per_load_rule_on_long_grids(self, length, m):
        # out to 2e7 (l10m4: 486 sizes up to 9,765,624; l16m2: 141 up to
        # 43,046,720) in prime steps, dense around every size and crossover
        sizes = [m * length, *cardinalities_of_interest(length, m)]
        dense = [round(c) + k for c in [*sizes, *crossings(sizes)] for k in range(-4, 5)]
        grid = np.union1d(np.arange(1, 2 * 10**7, 997), dense)
        cands = default_candidates(length, m, grid[(grid >= 1) & (grid <= 2 * 10**7)])
        schedule = threshold_schedule(cands)
        assert schedule.segments == per_load_schedule(cands)
        assert schedule.tail_checks < 4000

    @pytest.mark.parametrize("grid", [range(1, 10**6 + 1),
                                      (*range(1, 300), *range(10**3, 10**6, 7919))],
                             ids=["dense", "prime-stepped"])
    def test_tail_is_the_per_load_rule_through_underflow(self, grid):
        # L=2, M=4 efficiencies turn subnormal near N = 10**4 and are 0.0
        # from about 17,900 on, where the smallest codebook takes every load
        cands = default_candidates(2, 4, grid)
        schedule = threshold_schedule(cands)
        assert schedule.segments == per_load_schedule(cands)
        assert schedule.spec_at(grid[-1]) == cands.candidates[0]
        assert schedule.tail_checks < 5000

    @given(st.sets(st.one_of(st.integers(1, 300), st.integers(10**7 - 12, 10**7 + 12),
                             st.integers(1, 4 * 10**7)), min_size=1, max_size=12),
           st.lists(st.integers(1, 4 * 10**7), max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_tail_runs_are_the_per_load_rule(self, sizes, extra):
        # random size sets, with sizes one apart near 10**7; loads around every
        # size, crossover and underflow of a size, and anywhere
        specs = [CodebookSpec.reference(a, 1) for a in sorted(sizes)]
        marks = [*sizes, *crossings(sizes), *extra]
        for a in sizes:  # where x**(N-1) turns subnormal, and where it is 0.0
            marks += [] if a == 1 else [1 - t / math.log1p(-1 / a) for t in (708.4, 745.1)]
        loads = np.unique([round(c) + k for c in marks for k in range(-40, 41)])
        loads = loads[(loads >= 1) & (loads < 2**53)]
        sizes = sorted(sizes)
        bases = map(np.array, zip(*map(_rounded_base, sizes)))
        starts, chosen, low, high, checks = planner._tail_runs(sizes, *bases, loads)
        best, expected = per_load_tail(specs, loads)
        stops = np.append(starts[1:], len(loads))
        assert np.repeat(chosen, stops - starts).tolist() == expected.tolist()
        assert low.tolist() == best[starts].tolist()
        assert high.tolist() == best[stops - 1].tolist()
        assert checks <= len(loads)

    def test_exact_decision_is_the_rational_comparison(self):
        # h(A) = ((A - 1)/A)**(N - 1) / A in rationals, on either side of
        # every crossover of small sizes, and at N = 1; with a = 1 it is 1 at
        # N = 1 and 0 from N = 2 on
        def h(size, load):
            return Fraction(size - 1, size) ** (load - 1) / size

        for a, b in itertools.combinations(range(1, 41), 2):
            c = crossings([a, b])[0]
            for n in {1, math.floor(c), math.floor(c) + 1}:
                assert planner._beats(a, b, n) == (h(b, n) > h(a, n)), (a, b, n)

    def test_a_load_within_float_error_of_a_crossover_is_decided_exactly(self):
        # the crossover of 1012922 and 1018442 lies 2.8e-12 below 1015677, and
        # rounds to 1015677.0: there the larger size already leads
        sizes = [1012922, 1018442]
        loads = np.arange(1015670, 1015685)
        bases = map(np.array, zip(*map(_rounded_base, sizes)))
        starts, chosen, *_, checks = planner._tail_runs(sizes, *bases, loads)
        assert loads[starts].tolist() == [1015670, 1015677] and chosen.tolist() == [0, 1]
        assert checks == 1
        _, expected = per_load_tail([CodebookSpec.reference(a, 1) for a in sizes], loads)
        assert expected.tolist() == [0] * 7 + [1] * 8

    def test_tail_allocates_nothing_of_its_length(self):
        # the tail of l2m4 on 1:1e6 starts at 281; no temporary of its
        # length (8 MB a float array) is made, so the peak does not grow with it
        threshold_schedule(default_candidates(2, 4, range(1, 1001)))  # warm caches
        peaks = []
        for last in (10**5, 10**6):
            cands = default_candidates(2, 4, range(1, last + 1))
            tracemalloc.start()
            try:
                threshold_schedule(cands)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < cands.load_grid.nbytes / 8
        assert peaks[1] <= peaks[0] + 2**14

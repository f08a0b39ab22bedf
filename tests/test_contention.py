"""Closed-form contention statistics."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codexpand import (
    CodebookSpec,
    DomainError,
    LoadPoint,
    expected_singles,
    expected_singles_curve,
    expected_used_curve,
    reference_efficiency,
    reference_efficiency_curve,
)
from codexpand.codebook import _checked_grid, _whole_loads, whole_number
from codexpand.contention import _closed_form, _rounded_base, _term_table

loads = st.builds(
    LoadPoint,
    n_users=st.integers(min_value=0, max_value=300),
    codewords=st.integers(min_value=1, max_value=500),
)


def exact_pmf(point: LoadPoint, k: int) -> Fraction:
    n, a = point.n_users, point.codewords
    p = Fraction(1, a)
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


class TestPmf:
    def test_non_integral_load_rejected(self):
        with pytest.raises(DomainError):
            LoadPoint(2.5, 8)


WHOLE = [2, 2.0, np.int64(2), np.uint8(2), np.float64(2.0), np.float32(2.0)]
NOT_WHOLE = [True, False, np.bool_(True), 2.5, np.float64(2.5), float("nan"), float("inf"),
             "2", None, Fraction(5, 2)]


class TestWholeNumber:
    """One rule for counts: integers and integral floats, never bools or fractions."""

    @pytest.mark.parametrize("value", WHOLE)
    def test_integers_and_integral_floats_taken(self, value):
        taken = whole_number(value, "count")
        assert taken == 2 and type(taken) is int
        assert _whole_loads([value]).tolist() == [2]

    @pytest.mark.parametrize("value", NOT_WHOLE)
    def test_bools_fractions_and_non_numbers_refused(self, value):
        with pytest.raises(DomainError, match="count must be a whole number"):
            whole_number(value, "count")
        with pytest.raises(DomainError, match="whole numbers"):
            _whole_loads([value])

    def test_integers_of_any_size_taken(self):
        assert whole_number(2**70, "seed") == 2**70

    def test_values_below_the_least_refused(self):
        assert whole_number(np.int64(1), "count", 1) == 1
        with pytest.raises(DomainError, match="count must be at least 1, got 0"):
            whole_number(0.0, "count", 1)

    def test_loads_are_a_read_only_copy_checked_against_the_least(self):
        given = np.array([0, 2])
        loads = _whole_loads(given)
        assert loads.dtype == np.int64 and not loads.flags.writeable
        given[1] = 5
        assert loads.tolist() == [0, 2]
        with pytest.raises(DomainError, match="user count cannot be negative"):
            _whole_loads([2, -1])
        with pytest.raises(DomainError, match="efficiency is undefined without contenders"):
            _whole_loads(given, least=1)

    def test_checked_grids_pass_through_uncopied(self):
        grid = _checked_grid(np.arange(1, 11))
        assert _checked_grid(grid) is grid and _whole_loads(grid) is grid
        # a view does not own its data, so it is copied
        assert _checked_grid(grid[::2]) is not grid
        # and a read-only array is still checked
        for bad, message in [([3, 2], "strictly increasing"), ([0, 2], "positive")]:
            bad = np.array(bad)
            bad.flags.writeable = False
            with pytest.raises(DomainError, match=message):
                _checked_grid(bad)

    @pytest.mark.parametrize("value", [2.0, np.int64(2), np.float64(2.0)])
    def test_load_point_takes_whole_numbers(self, value):
        point = LoadPoint(value, 4 * value)
        assert (point.n_users, point.codewords) == (2, 8)
        assert type(point.n_users) is int and type(point.codewords) is int

    @pytest.mark.parametrize("value", [True, 2.5, "2"])
    def test_load_point_refuses_bools_and_fractions(self, value):
        with pytest.raises(DomainError, match="user count must be a whole number"):
            LoadPoint(value, 8)
        with pytest.raises(DomainError, match="codeword count must be a whole number"):
            LoadPoint(2, value)


    def test_curves_take_numpy_codeword_counts(self):
        # an np.int64 count once overflowed inside the singles' rational
        # correction of its rounded base
        grid = [5000, 10**6]
        for curve in (expected_singles_curve, expected_used_curve):
            assert curve(grid, np.int64(390624)).tolist() == curve(grid, 390624).tolist()
        assert (reference_efficiency_curve(grid, np.int64(4), np.int64(4)).tolist()
                == reference_efficiency_curve(grid, 4, 4).tolist())

    @pytest.mark.parametrize("call", [
        lambda: expected_singles_curve([10], True),
        lambda: expected_used_curve([10], True),
        lambda: reference_efficiency_curve([10], True, 2),
        lambda: reference_efficiency_curve([10], 2, True),
    ])
    def test_curves_refuse_bool_counts(self, call):
        with pytest.raises(DomainError, match="must be a whole number"):
            call()


class TestMoments:
    def test_single_user_always_succeeds(self):
        assert expected_singles(LoadPoint(1, 8)) == 1.0

    def test_empty_frame(self):
        assert expected_singles(LoadPoint(0, 8)) == 0.0

    def test_two_users_one_codeword_always_collide(self):
        point = LoadPoint(2, 1)
        assert expected_singles(point) == 0.0

    @pytest.mark.parametrize("n,a", [(2, 3), (3, 8), (5, 8), (4, 24)])
    def test_moments_match_exact_occupancy_sums(self, n, a):
        # E[singles] = A * P[X = 1]
        point = LoadPoint(n, a)
        singles = a * exact_pmf(point, 1)
        assert expected_singles(point) == pytest.approx(float(singles), rel=1e-12)

    @given(loads)
    @settings(max_examples=80)
    def test_bounds(self, point):
        singles = expected_singles(point)
        assert 0.0 <= singles <= min(point.n_users, point.codewords)

    def test_log_space_path_agrees_with_direct_power(self):
        # loads far past the codebook size, against the power taken in log space
        for n in (9_999, 10_000, 10_001, 50_000):
            direct = n * math.exp((n - 1) * math.log1p(-1 / 640.0))
            assert expected_singles(LoadPoint(n, 640)) == pytest.approx(direct, rel=1e-9)


class TestReferenceEfficiency:
    def test_known_value(self):
        assert reference_efficiency(2, 2, 2) == pytest.approx(6 / 7, abs=1e-15)

    def test_lone_contender_is_perfect(self):
        assert reference_efficiency(1, 32, 4) == 1.0

    def test_monotone_decreasing_in_load(self):
        values = [reference_efficiency(n, 8, 2) for n in range(1, 120)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_empty_load(self):
        with pytest.raises(DomainError):
            reference_efficiency(0, 8, 2)


class TestReferenceEfficiencyCurve:
    # Loads on both sides of the used count's switch from its expm1 form to
    # its exp form (near N = A), out to a million.
    GRID = [*range(1, 6241), *range(10_001, 10_101), 50_000, 1_000_000]

    def _worst_relative_gap(self, m, length):
        curve = reference_efficiency_curve(self.GRID, m, length)
        scalar = np.array([reference_efficiency(n, m, length) for n in self.GRID])
        return (np.abs(curve - scalar) / np.maximum(np.abs(scalar), 1e-300)).max()

    def test_matches_scalar_on_planner_codebooks(self):
        # the reference codebooks of `thresholds --length 4 --preambles 4` and
        # of the L=2, M=2 figures
        for m, length in [(4, 4), (2, 2)]:
            assert self._worst_relative_gap(m, length) <= 1e-15

    def test_matches_scalar_on_large_codebook(self):
        # the scalar is the curve at one load; the tolerance is a few ulps
        assert self._worst_relative_gap(32, 4) <= 1e-14

    def test_rejects_empty_load(self):
        with pytest.raises(DomainError):
            reference_efficiency_curve([1, 0], 8, 2)
        with pytest.raises(DomainError):
            reference_efficiency_curve([1], 0, 2)


def exact_occupancy(codewords, loads):
    """Exact (N, singles, used) over a load grid: ``N q^(N-1)`` and ``A (1 - q^N)``."""
    q = Fraction(codewords - 1, codewords)
    for n in loads:
        below = q ** (n - 1)
        yield n, n * below, codewords * (1 - below * q)


class TestReferencePrecision:
    # power-of-two codebooks, where 1 - 1/A is exact: the reference codebooks
    # of the L=2 figures, of the planner and of the L=4 figure, and 512 codewords
    CODEBOOKS = [(2, 2), (4, 4), (32, 4), (64, 8)]
    LOADS = range(1, 401)

    def test_efficiency_is_singles_over_used_to_full_precision(self):
        for m, length in self.CODEBOOKS:
            for n, singles, used in exact_occupancy(m * length, self.LOADS):
                exact = singles / used
                error = abs(Fraction(reference_efficiency(n, m, length)) - exact) / exact
                assert error <= Fraction(1, 10**15), (m, length, n, float(error))

    @pytest.mark.parametrize("codewords", [3, 15, 25, 49, 511, 624])
    def test_singles_to_full_precision(self, codewords):
        # the rounded base (A - 1)/A is corrected, so its rounding does not
        # grow with the power
        singles_curve = expected_singles_curve(self.LOADS, codewords)
        for (n, singles, _), value in zip(exact_occupancy(codewords, self.LOADS), singles_curve):
            error = abs(Fraction(float(value)) - singles) / singles
            assert error <= Fraction(1, 10**15), (codewords, n, float(error))

    @given(st.one_of(
        st.integers(min_value=1, max_value=4999),
        st.integers(min_value=1, max_value=2**64),
        st.builds(lambda k, d: 2**k + d, st.integers(min_value=1, max_value=64),
                  st.sampled_from([-1, 0, 1])),
    ))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_singles_correction_is_the_rational_one_bit_for_bit(self, codewords):
        # the integer quotient rounds the same rational as the Fraction formula
        x = (codewords - 1) / codewords
        expected = float(Fraction(codewords - 1, codewords) / Fraction(x) - 1) if x else 0.0
        assert [v.hex() for v in _rounded_base(codewords)] == [x.hex(), expected.hex()]

    @pytest.mark.parametrize("codewords", [3, 4, 15, 16, 49, 128, 512])
    def test_used_codewords_to_full_precision(self, codewords):
        used_curve = expected_used_curve(self.LOADS, codewords)
        for (n, _, used), value in zip(exact_occupancy(codewords, self.LOADS), used_curve):
            error = abs(Fraction(float(value)) - used) / used
            assert error <= Fraction(1, 10**15), (codewords, n, float(error))

    @pytest.mark.parametrize("codewords", [16, 24, 128])
    def test_used_codewords_saturate_from_the_saturation_load(self, codewords):
        # evaluated at every load, not cut at the saturation load
        table = _term_table([CodebookSpec.reference(codewords, 1)])
        start = int(table.saturation[0])
        used = _closed_form(table._replace(saturation=np.array([np.inf])),
                            np.arange(start, 10 * start))
        assert (used == codewords).all()
        if codewords == 16:
            # the bound is tight where A is a power of two: one load earlier
            # the remainder exceeds half an ulp below A
            assert start == 580
            assert expected_used_curve([start - 1], codewords)[0] < codewords

    def test_used_codewords_edge_cases(self):
        assert expected_used_curve([0, 1, 5], 1).tolist() == [0.0, 1.0, 1.0]
        assert expected_used_curve([0], 8).tolist() == [0.0]
        with pytest.raises(DomainError):
            expected_used_curve([-1], 8)
        with pytest.raises(DomainError):
            expected_used_curve([1], 0)


# The curves' float bytes, pinned: the tests above allow a few ulps, these
# catch a one-ulp move in any evaluator behind them.  The grid is geometric,
# from 0 to past 10**8, built in integers only.
PIN_GRID = [0, 1]
while PIN_GRID[-1] < 10**8:
    PIN_GRID.append(PIN_GRID[-1] + max(1, PIN_GRID[-1] // 8))
PIN_SIZES = [1, 2, 3, 16, 24, 640, 390624, 9150624]
PIN_GEOMETRIES = [(1, 1), (2, 2), (4, 4), (8, 2), (32, 4), (54, 3), (3, 5)]


@pytest.mark.parametrize("curves, expected", [
    pytest.param(lambda: [expected_singles_curve(PIN_GRID, a) for a in PIN_SIZES],
                 "47f504e31040f2229eac2f5010290dffb6f8176a774249ff42c491e4bae37272",
                 id="singles"),
    pytest.param(lambda: [expected_used_curve(PIN_GRID, a) for a in PIN_SIZES],
                 "18fa2a6cf6435b0312ae1d28314fda11bd145aad3ae85737783d9fa64217de89",
                 id="used"),
    pytest.param(lambda: [reference_efficiency_curve(PIN_GRID[1:], m, length)
                          for m, length in PIN_GEOMETRIES],
                 "328bba0164ec4e33ab9204039e767a565d6b173975dda120e7d72a6f3089a1d3",
                 id="reference-efficiency"),
])
def test_curve_float_bytes(curves, expected):
    digest = hashlib.sha256()
    for curve in curves():
        digest.update(np.ascontiguousarray(curve, dtype="<f8").tobytes())
    assert digest.hexdigest() == expected

"""Closed-form contention statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from codexpand import (
    DomainError,
    LoadPoint,
    contention_pmf,
    expected_collisions,
    expected_singles,
    expected_used_curve,
    reference_efficiency,
    reference_efficiency_curve,
)

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
    # contention_pmf imports scipy.stats on its first call (about 1 s); the
    # module import above keeps that one-off cost out of Hypothesis's
    # per-example deadline.
    @given(loads)
    @settings(max_examples=80)
    def test_sums_to_one(self, point):
        total = sum(contention_pmf(point, k) for k in range(point.n_users + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,a", [(1, 8), (4, 8), (7, 3), (12, 24)])
    def test_matches_exact_binomial(self, n, a):
        point = LoadPoint(n, a)
        for k in range(n + 1):
            assert contention_pmf(point, k) == pytest.approx(
                float(exact_pmf(point, k)), rel=1e-12
            )

    def test_out_of_support_rejected(self):
        with pytest.raises(DomainError):
            contention_pmf(LoadPoint(3, 8), 4)
        with pytest.raises(DomainError):
            contention_pmf(LoadPoint(3, 8), -1)

    def test_non_integral_load_rejected(self):
        with pytest.raises(DomainError):
            LoadPoint(2.5, 8)


class TestMoments:
    def test_single_user_always_succeeds(self):
        assert expected_singles(LoadPoint(1, 8)) == 1.0
        assert expected_collisions(LoadPoint(1, 8)) == 0.0

    def test_empty_frame(self):
        assert expected_singles(LoadPoint(0, 8)) == 0.0

    def test_two_users_one_codeword_always_collide(self):
        point = LoadPoint(2, 1)
        assert expected_singles(point) == 0.0
        assert expected_collisions(point) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,a", [(2, 3), (3, 8), (5, 8), (4, 24)])
    def test_moments_match_exact_occupancy_sums(self, n, a):
        # E[singles] = A * P[X = 1], E[collisions] = A * P[X >= 2]
        point = LoadPoint(n, a)
        singles = a * exact_pmf(point, 1)
        collisions = a * (1 - exact_pmf(point, 0) - exact_pmf(point, 1))
        assert expected_singles(point) == pytest.approx(float(singles), rel=1e-12)
        assert expected_collisions(point) == pytest.approx(float(collisions), rel=1e-12)

    @given(loads)
    @settings(max_examples=80)
    def test_bounds(self, point):
        singles = expected_singles(point)
        collisions = expected_collisions(point)
        assert 0.0 <= singles <= min(point.n_users, point.codewords)
        assert 0.0 <= collisions <= point.codewords

    def test_log_space_path_agrees_with_direct_power(self):
        # either side of the switchover to log-space exponentiation
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
    # Both branches of the survival power: direct below 10,000, log space above.
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
        # numpy's vectorised pow may differ from the C library's by an ulp;
        # at small loads the collision term cancels and magnifies that to a
        # few ulps of the result
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

    @pytest.mark.parametrize("codewords", [3, 4, 15, 16, 49, 128, 512])
    def test_used_codewords_to_full_precision(self, codewords):
        used_curve = expected_used_curve(self.LOADS, codewords)
        for (n, _, used), value in zip(exact_occupancy(codewords, self.LOADS), used_curve):
            error = abs(Fraction(float(value)) - used) / used
            assert error <= Fraction(1, 10**15), (codewords, n, float(error))

    def test_used_codewords_edge_cases(self):
        assert expected_used_curve([0, 1, 5], 1).tolist() == [0.0, 1.0, 1.0]
        assert expected_used_curve([0], 8).tolist() == [0.0]
        with pytest.raises(DomainError):
            expected_used_curve([-1], 8)
        with pytest.raises(DomainError):
            expected_used_curve([1], 0)

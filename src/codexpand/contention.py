"""Closed-form contention statistics for uniform random codeword choice.

With ``N`` contenders each picking one of ``A`` codewords independently and
uniformly, the number of contenders on any fixed codeword is binomial(N, 1/A).
Codewords picked by exactly one contender (singles) number ``N (1 - 1/A)^(N-1)``
on average, and codewords picked by any (used) ``A (1 - (1 - 1/A)^N)``.  The
reference scheme's contention efficiency is singles over used codewords.  Each
quantity is one numpy formula over a load grid; scalars evaluate it at one load.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class LoadPoint:
    """A contention load: ``n_users`` contenders over ``codewords`` resources.

    The user count is an exact integer; fractional loads are rejected rather
    than interpolated.
    """

    n_users: int
    codewords: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_users, numbers.Integral):
            raise DomainError(f"user count must be an integer, got {self.n_users!r}")
        if not isinstance(self.codewords, numbers.Integral):
            raise DomainError(f"codeword count must be an integer, got {self.codewords!r}")
        object.__setattr__(self, "n_users", int(self.n_users))
        object.__setattr__(self, "codewords", int(self.codewords))
        if self.n_users < 0:
            raise DomainError("user count cannot be negative")
        if self.codewords < 1:
            raise DomainError("need at least one codeword")


def contention_pmf(point: LoadPoint, k: int) -> float:
    """Probability that exactly ``k`` of the contenders land on a fixed codeword."""
    if not 0 <= k <= point.n_users:
        raise DomainError(f"occupancy {k} outside 0..{point.n_users}")
    from scipy import stats  # imported here: it dominates the package's import time

    return float(stats.binom.pmf(k, point.n_users, 1.0 / point.codewords))


def _loads(n_values: Sequence[int], codewords: int) -> np.ndarray:
    n = np.asarray(n_values, dtype=np.int64).astype(np.float64)
    if (n < 0).any():
        raise DomainError("user count cannot be negative")
    if codewords < 1:
        raise DomainError("need at least one codeword")
    return n


def expected_singles_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """Expected singles at every load of a grid, ``N * (1 - 1/A)**(N - 1)``."""
    n = _loads(n_values, codewords)
    return n * np.power(1.0 - 1.0 / codewords, np.maximum(n - 1.0, 0.0))


def expected_used_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """Expected codewords chosen by at least one contender, ``A (1 - (1 - 1/A)**N)``.

    Evaluated as ``-A * expm1(N * log1p(-1/A))``, which keeps full relative
    precision where ``(1 - 1/A)**N`` is close to 1.
    """
    n = _loads(n_values, codewords)
    if codewords == 1:
        return np.minimum(n, 1.0)
    return -codewords * np.expm1(n * np.log1p(-1.0 / codewords))


def reference_efficiency_curve(n_values: Sequence[int], m: int, length: int) -> np.ndarray:
    """Singles over used codewords at every (positive) load of a grid, for the
    reference scheme with ``m`` preambles over ``length`` sub-frames."""
    if m < 1 or length < 1:
        raise DomainError("need at least one preamble and one sub-frame")
    n = np.asarray(n_values, dtype=np.int64)
    if (n < 1).any():
        raise DomainError("efficiency is undefined without contenders")
    a = m * length
    efficiency = expected_singles_curve(n, a) / expected_used_curve(n, a)
    efficiency[n == 1] = 1.0  # a lone contender is a single, exactly
    return efficiency


def expected_singles(point: LoadPoint) -> float:
    """Expected number of codewords chosen by exactly one contender."""
    return float(expected_singles_curve([point.n_users], point.codewords)[0])


def expected_collisions(point: LoadPoint) -> float:
    """Expected number of codewords chosen by more than one contender."""
    if point.n_users <= 1:
        return 0.0
    n, a = [point.n_users], point.codewords
    return max(0.0, float(expected_used_curve(n, a)[0] - expected_singles_curve(n, a)[0]))


def reference_efficiency(n_users: int, m: int, length: int) -> float:
    """Fraction of used codewords that carry exactly one contender in the
    reference scheme: `reference_efficiency_curve` at one positive integer load."""
    return float(reference_efficiency_curve([LoadPoint(n_users, 1).n_users], m, length)[0])

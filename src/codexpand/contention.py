"""Closed-form contention statistics for uniform random codeword choice.

With ``N`` contenders each picking one of ``A`` codewords independently and
uniformly, the number of contenders on any fixed codeword is binomial(N, 1/A).
The expected number of codewords picked by exactly one contender (singles)
and by several (collisions) follow directly, and the reference scheme's
contention efficiency is singles / (singles + collisions).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

# Above this exponent (1 - 1/A)**k is evaluated as exp(k * log1p(-1/A)).
_LOG_POWER_THRESHOLD = 10_000


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


def _survival_power(codewords: int, exponent: int) -> float:
    """(1 - 1/codewords) ** exponent, stable for very large exponents."""
    if exponent == 0:
        return 1.0
    if codewords == 1:
        return 0.0
    if exponent > _LOG_POWER_THRESHOLD:
        return math.exp(exponent * math.log1p(-1.0 / codewords))
    return (1.0 - 1.0 / codewords) ** exponent


def contention_pmf(point: LoadPoint, k: int) -> float:
    """Probability that exactly ``k`` of the contenders land on a fixed codeword."""
    if not 0 <= k <= point.n_users:
        raise DomainError(f"occupancy {k} outside 0..{point.n_users}")
    from scipy import stats  # imported here: it dominates the package's import time

    return float(stats.binom.pmf(k, point.n_users, 1.0 / point.codewords))


def expected_singles(point: LoadPoint) -> float:
    """Expected number of codewords chosen by exactly one contender."""
    n, a = point.n_users, point.codewords
    if n == 0:
        return 0.0
    return n * _survival_power(a, n - 1)


def expected_singles_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """`expected_singles` at every load of a grid, ``N * (1 - 1/A)**(N - 1)``."""
    n = np.asarray(n_values, dtype=np.int64).astype(np.float64)
    if (n < 0).any():
        raise DomainError("user count cannot be negative")
    if codewords < 1:
        raise DomainError("need at least one codeword")
    return n * np.power(1.0 - 1.0 / codewords, np.maximum(n - 1.0, 0.0))


def expected_collisions(point: LoadPoint) -> float:
    """Expected number of codewords chosen by more than one contender."""
    n, a = point.n_users, point.codewords
    if n <= 1:
        return 0.0
    value = (1.0 - _survival_power(a, n) - (n / a) * _survival_power(a, n - 1)) * a
    return max(0.0, value)


def reference_efficiency(n_users: int, m: int, length: int) -> float:
    """Fraction of used codewords that carry exactly one contender in the
    reference scheme with ``m`` preambles over ``length`` sub-frames.

    Undefined (0/0) for an empty system, hence ``n_users`` must be positive.
    """
    if m < 1 or length < 1:
        raise DomainError("need at least one preamble and one sub-frame")
    if n_users < 1:
        raise DomainError("efficiency is undefined without contenders")
    point = LoadPoint(n_users, m * length)
    singles = expected_singles(point)
    collisions = expected_collisions(point)
    return singles / (singles + collisions)


def _survival_power_curve(codewords: int, exponents: np.ndarray) -> np.ndarray:
    """`_survival_power` at every exponent of a float array, same branches."""
    if codewords == 1:
        return np.where(exponents == 0, 1.0, 0.0)
    return np.where(
        exponents > _LOG_POWER_THRESHOLD,
        np.exp(exponents * math.log1p(-1.0 / codewords)),
        np.power(1.0 - 1.0 / codewords, exponents),
    )


def reference_efficiency_curve(n_values: Sequence[int], m: int, length: int) -> np.ndarray:
    """`reference_efficiency` at every load of a grid, evaluated in numpy."""
    if m < 1 or length < 1:
        raise DomainError("need at least one preamble and one sub-frame")
    n = np.asarray(n_values, dtype=np.int64).astype(np.float64)
    if (n < 1).any():
        raise DomainError("efficiency is undefined without contenders")
    a = m * length
    below = _survival_power_curve(a, n - 1.0)
    singles = n * below
    collisions = np.maximum(0.0, (1.0 - _survival_power_curve(a, n) - (n / a) * below) * a)
    collisions[n <= 1] = 0.0
    return singles / (singles + collisions)

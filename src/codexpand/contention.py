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

    Both are whole numbers (`whole_number`); fractional loads are rejected
    rather than interpolated.
    """

    n_users: int
    codewords: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_users", whole_number(self.n_users, "user count"))
        object.__setattr__(self, "codewords", whole_number(self.codewords, "codeword count"))
        if self.n_users < 0:
            raise DomainError("user count cannot be negative")
        if self.codewords < 1:
            raise DomainError("need at least one codeword")


def whole_number(value, name: str) -> int:
    """``value`` as a Python int, by the package's one rule for counts:
    integers and integral floats are taken; bools, fractional values and
    non-numbers raise `DomainError` instead of being truncated."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _whole_loads(n_values) -> np.ndarray:
    """User counts, a scalar or a grid, as int64, by `whole_number`'s rule
    applied to the array's type: integer arrays, and float arrays of whole
    values inside the int64 range; bool and other arrays raise."""
    loads = np.asarray(n_values)
    if loads.dtype.kind == "f" and (np.abs(loads) < 2.0**63).all():
        fractional = loads[loads != np.trunc(loads)]
        if fractional.size:
            raise DomainError(f"user counts must be whole numbers, got {fractional[0]:g}")
    elif loads.dtype.kind not in "iu":
        raise DomainError(f"user counts must be whole numbers, got {n_values!r}")
    return loads.astype(np.int64)


def _loads(n_values: Sequence[int], codewords: int) -> np.ndarray:
    n = _whole_loads(n_values).astype(np.float64)
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
    n = _whole_loads(n_values)
    if (n < 1).any():
        raise DomainError("efficiency is undefined without contenders")
    a = m * length
    efficiency = expected_singles_curve(n, a) / expected_used_curve(n, a)
    efficiency[n == 1] = 1.0  # a lone contender is a single, exactly
    return efficiency


def expected_singles(point: LoadPoint) -> float:
    """Expected number of codewords chosen by exactly one contender."""
    return float(expected_singles_curve([point.n_users], point.codewords)[0])


def reference_efficiency(n_users: int, m: int, length: int) -> float:
    """Fraction of used codewords that carry exactly one contender in the
    reference scheme: `reference_efficiency_curve` at one positive integer load."""
    return float(reference_efficiency_curve([LoadPoint(n_users, 1).n_users], m, length)[0])

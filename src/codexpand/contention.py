"""Closed-form contention statistics for uniform random codeword choice.

With ``N`` contenders each picking one of ``A`` codewords independently and
uniformly, the number of contenders on any fixed codeword is binomial(N, 1/A).
Codewords picked by exactly one contender (singles) number ``N (1 - 1/A)^(N-1)``
on average, and codewords picked by any (used) ``A (1 - (1 - 1/A)^N)``.  The
reference scheme's contention efficiency is singles over used codewords.  Each
quantity is one numpy formula over a load grid; scalars evaluate it at one load.
Used codewords are the one-sub-frame case of the perceived count's closed form
(`codexpand.markov`), and `_closed_form` evaluates that form for both alphabets.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
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


def _loads(n_values: Sequence[int], codewords: int) -> tuple[np.ndarray, int]:
    """Loads as floats and the codeword count as a Python int, both checked."""
    n = _whole_loads(n_values).astype(np.float64)
    codewords = whole_number(codewords, "codeword count")
    if (n < 0).any():
        raise DomainError("user count cannot be negative")
    if codewords < 1:
        raise DomainError("need at least one codeword")
    return n, codewords


def expected_singles_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """Expected singles at every load of a grid, ``N * (1 - 1/A)**(N - 1)``,
    as ``N * x**(N - 1) * (1 + (N - 1) * delta)`` with ``x`` the rounded base
    and ``delta`` its relative rounding (`_rounded_base`)."""
    n, codewords = _loads(n_values, codewords)
    x, delta = _rounded_base(codewords)
    below = np.maximum(n - 1.0, 0.0)
    return n * np.power(x, below) * (1.0 + below * delta)


def _rounded_base(codewords: int) -> tuple[float, float]:
    """The float ``x`` nearest ``(A-1)/A`` and ``delta``, the float nearest
    its relative rounding ``(A-1)/(A x) - 1``: with ``x = top/bottom``
    exactly, one correctly rounded integer quotient
    ``((A-1) bottom - A top) / (A top)``, 0 for power-of-two ``A`` and for
    ``A = 1``."""
    x = (codewords - 1) / codewords
    top, bottom = x.as_integer_ratio()
    delta = ((codewords - 1) * bottom - codewords * top) / (codewords * top) if top else 0.0
    return x, delta


def expected_used_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """Expected codewords chosen by at least one contender, ``A (1 - (1 - 1/A)**N)``:
    the closed form of one sub-frame of ``A`` preambles, terms ``{A+1: 1, A: -1}``."""
    n, codewords = _loads(n_values, codewords)
    return _closed_form({codewords + 1: 1, codewords: -1}, codewords, n)


#: Loads whose float closed form may be off by more than this relative error
#: are evaluated exactly.
CLOSED_FORM_RTOL = 1e-12


def _closed_form(terms: dict[int, int], size: int, loads: np.ndarray) -> np.ndarray:
    """``sum c*P*((P-1)/A)**N - 1`` over terms ``{P: c}`` at every load, ``A = size``,
    in the two forms `codexpand.markov` describes; exactly at ``N = 1`` and
    wherever the rounding bound exceeds `CLOSED_FORM_RTOL` of the value."""
    weights = {p: c * p for p, c in terms.items()}
    lead = weights.pop(size + 1)
    ones = weights.pop(1, 0)
    # Python ints keep the constant exact where int64 sums could overflow
    exact = np.array(list(weights.values()),
                     dtype=np.int64 if sum(map(abs, weights.values())) < 2**63 else object)
    w = exact.astype(np.float64)
    y = loads[:, None] * np.log1p(np.array([(p - 1 - size) / size for p in weights]))
    near = y > -1.0
    e = np.expm1(y, out=y, where=near)
    np.exp(y, out=e, where=~near)
    constant = near @ exact + (lead - 1) + ones * (loads == 0)
    values = e @ w + constant.astype(np.float64)
    # Rounding ln r costs eps*|y|*e**y*|w|: at most eps*|w*expm1(y)| where
    # y > -1, and at most eps*|w|/e beyond, where it decays as e**y while the
    # value grows with N.  The other roundings scale with |e| @ |w| or the value.
    bound = np.finfo(np.float64).eps * (len(terms) + 4) * (
        np.abs(e, out=e) @ np.abs(w) + np.abs(values))
    for i in np.flatnonzero((loads == 1) | (bound > CLOSED_FORM_RTOL * np.abs(values))):
        values[i] = float(_closed_form_exact(terms, size, int(loads[i])))
    return values


def _closed_form_exact(terms: dict[int, int], size: int, n: int) -> Fraction:
    """`_closed_form` at one load in rationals, ``sum c*P*(P-1)**N / A**N - 1``."""
    return Fraction(sum(c * p * (p - 1) ** n for p, c in terms.items()), size**n) - 1


def _saturation_load(terms: dict[int, int], size: int) -> int:
    """First load from which `_closed_form` returns exactly ``float(size)``.

    There every term but the leading ``P = A+1`` and the ``P = 1`` ones takes
    the ``exp`` form, so the constant is exactly ``A``; their sum, bounded by
    ``sum |w| * r_max**N`` with ``r_max`` the largest ratio, stays under
    ``eps/4 * A``, less than half an ulp of ``A`` on either side, and rounds
    away.  The rounding bound is then about ``eps (terms + 4) A``, under
    `CLOSED_FORM_RTOL` of the value for fewer than 4,000 terms, so no load
    falls back to exact arithmetic.  Checked in the floats `_closed_form`
    computes, with the dot product's rounding on top.
    """
    rest = {p: abs(c * p) for p, c in terms.items() if p not in (1, size + 1)}
    if not rest:
        return 1
    weights = np.array(list(rest.values()), dtype=np.float64)
    log_r = np.log1p(np.array([(p - 1 - size) / size for p in rest]))
    eps = np.finfo(np.float64).eps
    slope = float(log_r.max())
    n = max(1, math.ceil(-1 / slope),
            math.floor(math.log(eps / 4 * size / weights.sum()) / slope) + 1)
    while (n * slope > -1.0
           or np.exp(n * log_r) @ weights * (1 + (weights.size + 2) * eps) >= eps / 4 * size):
        n += 1
    return n


def reference_efficiency_curve(n_values: Sequence[int], m: int, length: int) -> np.ndarray:
    """Singles over used codewords at every (positive) load of a grid, for the
    reference scheme with ``m`` preambles over ``length`` sub-frames."""
    m, length = whole_number(m, "preamble count"), whole_number(length, "sub-frame count")
    if m < 1 or length < 1:
        raise DomainError("need at least one preamble and one sub-frame")
    n = _whole_loads(n_values)
    if (n < 1).any():
        raise DomainError("efficiency is undefined without contenders")
    a = m * length
    return expected_singles_curve(n, a) / expected_used_curve(n, a)


def expected_singles(point: LoadPoint) -> float:
    """Expected number of codewords chosen by exactly one contender."""
    return float(expected_singles_curve([point.n_users], point.codewords)[0])


def reference_efficiency(n_users: int, m: int, length: int) -> float:
    """Fraction of used codewords that carry exactly one contender in the
    reference scheme: `reference_efficiency_curve` at one positive integer load."""
    return float(reference_efficiency_curve([n_users], m, length)[0])

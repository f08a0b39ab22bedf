"""Closed-form contention statistics for uniform random codeword choice.

With ``N`` contenders each picking one of ``A`` codewords independently and
uniformly, the number of contenders on any fixed codeword is binomial(N, 1/A).
Codewords picked by exactly one contender (singles) number ``N (1 - 1/A)^(N-1)``
on average, and codewords picked by any (used) ``A (1 - (1 - 1/A)^N)``.  The
reference scheme's contention efficiency is singles over used codewords.  Each
quantity is one numpy formula over a load grid; scalars evaluate it at one load.
Used codewords are the one-sub-frame case of the perceived count's closed form
(`codexpand.markov`).  `_closed_form` is its one evaluator, for both alphabets
and a whole batch of codebooks at once (`_term_table`); it sums each value's
terms one at a time in a fixed order, so a batch of one gives the same floats.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
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


def _whole_loads(n_values, least: int = 0) -> np.ndarray:
    """User counts, a scalar or a grid, as a read-only int64 copy, by
    `whole_number`'s rule applied to the array's type: integer arrays, and
    float arrays of whole values inside the int64 range; bool and other
    arrays raise, and so do loads below ``least`` (1 where efficiency is taken).
    A read-only int64 array that owns its data is checked and returned as is."""
    loads = np.asarray(n_values)
    if loads.dtype.kind == "f" and (np.abs(loads) < 2.0**63).all():
        fractional = loads[loads != np.trunc(loads)]
        if fractional.size:
            raise DomainError(f"user counts must be whole numbers, got {fractional[0]:g}")
    elif loads.dtype.kind not in "iu":
        raise DomainError(f"user counts must be whole numbers, got {n_values!r}")
    if not (loads.dtype == np.int64 and loads.flags.owndata and not loads.flags.writeable):
        loads = loads.astype(np.int64)
    if (loads < least).any():
        raise DomainError("efficiency is undefined without contenders" if least
                          else "user count cannot be negative")
    loads.flags.writeable = False
    return loads


def _loads(n_values: Sequence[int], codewords: int) -> tuple[np.ndarray, int]:
    """Loads as floats and the codeword count as a Python int, both checked."""
    n = _whole_loads(n_values).astype(np.float64)
    codewords = whole_number(codewords, "codeword count")
    if codewords < 1:
        raise DomainError("need at least one codeword")
    return n, codewords


def expected_singles_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """Expected singles at every load of a grid, ``N * (1 - 1/A)**(N - 1)``,
    as ``N * x**(N - 1) * (1 + (N - 1) * delta)`` with ``x`` the rounded base
    and ``delta`` its relative rounding (`_rounded_base`)."""
    n, codewords = _loads(n_values, codewords)
    return _singles(n, *_rounded_base(codewords))


def _singles(n: np.ndarray, x, delta) -> np.ndarray:
    """`expected_singles_curve` at float loads ``n`` from the rounded bases;
    with columns of the bases of ``K`` codebooks, one row per codebook, each
    its curve bit for bit."""
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
    return _closed_form(_term_table([{codewords + 1: 1, codewords: -1}], [codewords]), n)[0]


#: Loads whose float closed form may be off by more than this relative error
#: are evaluated exactly.
CLOSED_FORM_RTOL = 1e-12

#: Term values `_closed_form` evaluates in one array pass, at least one term
#: of every value: enough to amortise numpy's per-call cost on short grids.
CLOSED_FORM_CHUNK = 2**13


#: The closed-form terms of a batch of codebooks, built by `_term_table`.
_TermTable = namedtuple("_TermTable", "terms fill widths log_r exact rounding")


def _term_table(terms: Sequence[dict[int, int]], sizes: Sequence[int]) -> _TermTable:
    """The terms ``{P: c}`` of codebooks of the given sizes ``A``, one column
    each: those other than the leading ``P = A+1`` and ``P = 1``, in
    `markov.perceived_terms` order and zero-padded to ``widths`` terms, as
    ``log_r = log1p((P - 1 - A) / A)`` and the weights ``c*P`` in ``exact``,
    integers (Python ints where int64 sums could overflow) with ``A`` in its
    last row; ``fill`` is ``float(A)`` and ``rounding`` is
    ``eps (terms + 4)``, the rounding bound's factor."""
    widths = np.array([len(t) - 1 - (1 in t) for t in terms], dtype=np.intp)
    held = (np.arange(widths.max(initial=0))[:, None] < widths).T
    fits = max(sum(abs(c * p) for p, c in t.items()) for t in terms) + max(sizes) < 2**63
    exact = np.zeros((held.shape[1] + 1, len(sizes)), dtype=np.int64 if fits else object)
    exact[:-1].T[held] = np.fromiter((c * p for t, a in zip(terms, sizes) for p, c in t.items()
                                      if p not in (1, a + 1)), exact.dtype, held.sum())
    exact[-1] = sizes
    log_r = np.zeros(exact[:-1].shape)
    log_r.T[held] = np.log1p(np.fromiter(((p - 1 - a) / a for t, a in zip(terms, sizes) for p in t
                                          if p not in (1, a + 1)), np.float64, held.sum()))
    return _TermTable(list(terms), np.array(sizes, dtype=np.float64), widths, log_r, exact,
                      np.finfo(np.float64).eps * (np.array(list(map(len, terms))) + 4))


def _closed_form(table: _TermTable, loads: np.ndarray, counts: np.ndarray | None = None
                 ) -> np.ndarray:
    """``sum c*P*((P-1)/A)**N - 1`` at every load, one row per codebook of
    the `_term_table`, in the two forms `codexpand.markov` describes; exactly
    at ``N = 1``, as one integer quotient, and, in rationals, wherever the
    rounding bound exceeds `CLOSED_FORM_RTOL` of the value.  Codebook ``k``
    is evaluated at its first ``counts[k]`` loads (all by default) and is
    ``float(A)`` from there on, its value from its saturation load on.
    Terms are summed one at a time in table order, never by a dot product,
    so a codebook's floats do not depend on its batch, on
    `CLOSED_FORM_CHUNK` or on the BLAS build."""
    n = np.asarray(loads, dtype=np.float64)
    counts = np.full(len(table.fill), n.size) if counts is None else counts
    # the values evaluated, codebook k at load at, codebook by codebook
    k = np.repeat(np.arange(counts.size), counts)
    at = np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts)
    x = n[at]
    total, magnitude = np.zeros(x.size), np.zeros(x.size)
    constant = np.repeat(table.exact[-1], counts)
    width = table.widths.max(initial=0)  # the terms beyond a codebook's own add 0
    step = max(1, CLOSED_FORM_CHUNK // max(x.size, 1))  # terms at a time
    for terms in (slice(j, min(j + step, width)) for j in range(0, width, step)):
        y = np.repeat(table.log_r[terms], counts, axis=1) * x
        w = np.repeat(table.exact[terms], counts, axis=1)
        near = y > -1.0
        constant += np.where(near, w, 0).sum(axis=0)
        e = np.exp(y)
        np.expm1(y, out=e, where=near)
        e *= w.astype(np.float64)
        for term in e:
            total += term
        for term in np.abs(e, out=e):
            magnitude += term
    values = total + constant.astype(np.float64)
    values[x == 0] = 0.0  # where the P = 1 terms count, and every term cancels
    # Rounding ln r costs eps*|y|*e**y*|w|: at most eps*|w*expm1(y)| where
    # y > -1, and at most eps*|w|/e beyond, where it decays as e**y while the
    # value grows with N.  The other roundings scale with |e| |w| or the value.
    bound = np.repeat(table.rounding, counts) * (magnitude + np.abs(values))
    single = x == 1
    for i, c in zip(np.flatnonzero(single).tolist(), k[single].tolist()):
        # at N = 1, (sum c*P*(P-1) - A) / A: one correctly rounded integer quotient
        size = int(table.exact[-1, c])
        values[i] = (sum(w * p * (p - 1) for p, w in table.terms[c].items()) - size) / size
    fallback = np.flatnonzero(~single & (bound > CLOSED_FORM_RTOL * np.abs(values)))
    for i, c in zip(fallback.tolist(), k[fallback].tolist()):
        values[i] = float(_closed_form_exact(table.terms[c], int(table.exact[-1, c]), int(x[i])))
    out = np.repeat(table.fill[:, None], n.size, axis=1)
    out[k, at] = values
    return out


def _closed_form_exact(terms: dict[int, int], size: int, n: int) -> Fraction:
    """`_closed_form` at one load in rationals, ``sum c*P*(P-1)**N / A**N - 1``."""
    return Fraction(sum(c * p * (p - 1) ** n for p, c in terms.items()), size**n) - 1


def _saturation_loads(table: _TermTable) -> np.ndarray:
    """First load from which `_closed_form` returns exactly ``float(A)``, for
    every codebook of the `_term_table`.

    There every term but the leading ``P = A+1`` and the ``P = 1`` ones takes
    the ``exp`` form, so the constant is exactly ``A``; their sum, bounded by
    ``sum |w| * r_max**N`` with ``r_max`` the largest ratio, stays under
    ``eps/4 * A``, less than half an ulp of ``A`` on either side, and rounds
    away.  The rounding bound is then about ``eps (terms + 4) A``, under
    `CLOSED_FORM_RTOL` of the value for fewer than 4,000 terms, so no load
    falls back to exact arithmetic.  Checked in the floats `_closed_form`
    computes, summed term by term, with the sum's rounding on top.
    """
    eps = np.finfo(np.float64).eps
    weights = np.abs(table.exact[:-1]).astype(np.float64)
    slope = np.max(table.log_r, axis=0, initial=-np.inf,
                   where=np.arange(len(table.log_r))[:, None] < table.widths)
    target = eps / 4 * table.fill
    with np.errstate(divide="ignore", invalid="ignore"):  # codebooks without such terms
        start = np.maximum(np.ceil(-1 / slope),
                           np.floor(np.log(target / sum(weights)) / slope) + 1)
    n = np.where(table.widths > 0, np.maximum(start, 1), 1).astype(np.int64)
    late = np.flatnonzero(table.widths)
    while late.size:  # every codebook still failing the check steps on
        terms = table.log_r[:, late] * n[late]
        terms = np.exp(terms, out=terms) * weights[:, late]
        late = late[(n[late] * slope[late] > -1.0) | (
            sum(terms) * (1 + (table.widths[late] + 2) * eps) >= target[late])]
        n[late] += 1
    return n


def _saturation_load(terms: dict[int, int], size: int) -> int:
    """`_saturation_loads` of one codebook."""
    return int(_saturation_loads(_term_table([terms], [size]))[0])


def reference_efficiency_curve(n_values: Sequence[int], m: int, length: int) -> np.ndarray:
    """Singles over used codewords at every (positive) load of a grid, for the
    reference scheme with ``m`` preambles over ``length`` sub-frames."""
    m, length = whole_number(m, "preamble count"), whole_number(length, "sub-frame count")
    if m < 1 or length < 1:
        raise DomainError("need at least one preamble and one sub-frame")
    n = _whole_loads(n_values, least=1)
    a = m * length
    return expected_singles_curve(n, a) / expected_used_curve(n, a)


def expected_singles(point: LoadPoint) -> float:
    """Expected number of codewords chosen by exactly one contender."""
    return float(expected_singles_curve([point.n_users], point.codewords)[0])


def reference_efficiency(n_users: int, m: int, length: int) -> float:
    """Fraction of used codewords that carry exactly one contender in the
    reference scheme: `reference_efficiency_curve` at one positive integer load."""
    return float(reference_efficiency_curve([n_users], m, length)[0])

"""Closed-form contention statistics: singles, and perceived codewords.

With ``N`` contenders each picking one of ``A`` codewords independently and
uniformly, the number of contenders on any fixed codeword is binomial(N, 1/A).
Codewords picked by exactly one contender (singles) number ``N (1 - 1/A)^(N-1)``
on average.  Each quantity is one numpy formula over a load grid; scalars
evaluate it at one load.

The base station cannot see codewords directly; in each sub-frame ``j`` it
sees some set of preambles.  Writing ``C_j`` for the number of observed
preambles in sub-frame ``j`` *counting idle as always present*, the tuple
``(C_1, ..., C_L)`` -- a configuration -- is everything the observation
reveals.  The codewords consistent with a configuration number
``prod(C_j) - 1`` (the all-idle word never counts), and that cardinality is
exactly how many codewords the base station perceives: singles, collisions,
and phantom codewords no one sent.

``prod(C_j)`` counts the words ``w`` of the full alphabet (idle allowed
everywhere) whose every non-idle symbol was observed.  By inclusion-exclusion
over the set ``T`` of sub-frames in which such a symbol goes unobserved::

    E[perceived | N] = sum_T (-1)^|T| * P_T * ((P_T - 1) / A)^N - 1,
    P_T = prod_{j in T} m_j * prod_{j not in T} (m_j + 1),

where ``A`` is the codebook size: ``P_T`` words carry a preamble in every
sub-frame of ``T``, and for each of them ``P_T - 1`` codewords avoid all
those preambles.  Equal products merge, so uniform budgets leave ``L + 1``
terms (`perceived_terms`).  A reference codebook of ``A`` codewords is
observed like one sub-frame of ``A`` preambles, terms ``{A+1: 1, A: -1}``, so
it perceives exactly its used codewords ``A (1 - (1 - 1/A)^N)``; the
reference scheme's efficiency, singles over used codewords, is the
efficiency of that one-sub-frame codebook.

`_closed_form` is the sum's one evaluator, and `_efficiency`, singles over
it, the one efficiency evaluator, for both alphabets and a whole batch of
codebooks at once (`_term_table`).  From a codebook's saturation load on,
every codeword is perceived and the sum is ``float(A)``, unevaluated; below
it, with ``w = coef * P`` and
``y = N log1p((P - 1 - A) / A)``, a term is ``w + w expm1(y)`` where
``y > -1``, its ``w`` summed exactly into an integer constant, and
``w exp(y)`` beyond, added one term at a time in `perceived_terms` order,
never by a dot product, so a batch of one gives the same floats.  With ``e``
the expm1 or exp evaluated, the rounding bound
``eps (terms + 4) (sum |w e| + |value|)`` has no term in ``N``; where it
exceeds ``CLOSED_FORM_RTOL`` of the value, and at ``N <= 1``, the sum is
evaluated exactly.  The observation chain (`codexpand.markov`) is an
independent route to the same numbers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .codebook import CodebookSpec, Mode, _whole_loads, codebook_size, whole_number


@dataclass(frozen=True)
class LoadPoint:
    """A contention load: ``n_users`` contenders over ``codewords`` resources.

    Both are whole numbers (`whole_number`); fractional loads are rejected
    rather than interpolated.
    """

    n_users: int
    codewords: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_users", whole_number(self.n_users, "user count", 0))
        object.__setattr__(self, "codewords", whole_number(self.codewords, "codeword count", 1))


def expected_singles_curve(n_values: Sequence[int], codewords: int) -> np.ndarray:
    """Expected singles at every load of a grid, ``N * (1 - 1/A)**(N - 1)``,
    as ``N * x**(N - 1) * (1 + (N - 1) * delta)`` with ``x`` the rounded base
    and ``delta`` its relative rounding (`_rounded_base`)."""
    n = _whole_loads(n_values).astype(np.float64)
    return _singles(n, *_rounded_base(whole_number(codewords, "codeword count", 1)))


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
    the perceived count of one sub-frame of ``A`` preambles."""
    return perceived_curve(CodebookSpec.reference(codewords, 1), n_values)


#: Loads whose float closed form may be off by more than this relative error
#: are evaluated exactly.
CLOSED_FORM_RTOL = 1e-12

#: Term values `_closed_form` evaluates in one array pass, at least one term
#: of every value: enough to amortise numpy's per-call cost on short grids.
CLOSED_FORM_CHUNK = 2**13


#: The closed-form terms of a batch of codebooks, built by `_term_table`.
_TermTable = namedtuple("_TermTable", "terms fill widths log_r exact rounding x delta saturation")


def perceived_terms(budgets: Sequence[int]) -> dict[int, int]:
    """Inclusion-exclusion terms ``{P: coef}`` of the perceived-count sum.

    One pass over the sub-frames: each term ``(p, c)`` becomes
    ``(p * (m_j + 1), c)`` and ``(p * m_j, -c)``; equal products merge, and
    terms with a zero product or coefficient are dropped.
    """
    terms = {1: 1}
    for m in budgets:
        merged: dict[int, int] = {}
        for p, c in terms.items():
            for product, coef in ((p * (m + 1), c), (p * m, -c)):
                if product:
                    merged[product] = merged.get(product, 0) + coef
        terms = {p: c for p, c in merged.items() if c}
    return terms


def _alphabet_terms(spec: CodebookSpec) -> dict[int, int]:
    """`perceived_terms` of either alphabet; a reference one is a single sub-frame."""
    return perceived_terms(spec.budgets if spec.mode is Mode.EXPANDED else (spec.size,))


def _term_table(specs: Sequence[CodebookSpec]) -> _TermTable:
    """The terms ``{P: c}`` of codebooks (`_alphabet_terms`), one column
    each, with ``A`` the codebook's size: those other than the leading
    ``P = A+1`` and ``P = 1``, in `perceived_terms` order and zero-padded to
    ``widths`` terms, as ``log_r = log1p((P - 1 - A) / A)`` and the weights ``c*P`` in ``exact``,
    integers (Python ints where int64 sums could overflow) with ``A`` in its
    last row; ``fill`` is ``float(A)``, ``rounding`` is ``eps (terms + 4)``,
    the rounding bound's factor, ``x, delta`` the `_rounded_base` and
    ``saturation`` the `_saturation_loads`."""
    terms = [_alphabet_terms(spec) for spec in specs]
    sizes = [codebook_size(spec) for spec in specs]
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
    table = _TermTable(list(terms), np.array(sizes, dtype=np.float64), widths, log_r, exact,
                       np.finfo(np.float64).eps * (np.array(list(map(len, terms))) + 4),
                       *map(np.array, zip(*map(_rounded_base, sizes))), None)
    return table._replace(saturation=_saturation_loads(table))


def _closed_form(table: _TermTable, loads: np.ndarray) -> np.ndarray:
    """``sum c*P*((P-1)/A)**N - 1`` at every load, one row per codebook of
    the `_term_table`, in the two forms the module docstring describes; exactly,
    as one integer quotient, at ``N <= 1`` and wherever the rounding bound
    exceeds `CLOSED_FORM_RTOL` of the value.  Codebook ``k`` is evaluated
    only at loads below ``table.saturation[k]``, and is ``float(A)``, the
    value the sum rounds to there, at the others.  Terms are summed one at a
    time in table order, never by a dot product, so a codebook's floats do
    not depend on its batch, on `CLOSED_FORM_CHUNK` or on the BLAS build."""
    n = np.asarray(loads, dtype=np.float64)
    # the values evaluated, codebook k at load at
    k, at = np.nonzero(n < table.saturation[:, None])
    x = n[at]
    total, magnitude = np.zeros(x.size), np.zeros(x.size)
    constant = table.exact[-1, k]
    width = table.widths.max(initial=0)  # the terms beyond a codebook's own add 0
    step = max(1, CLOSED_FORM_CHUNK // max(x.size, 1))  # terms at a time
    for terms in (slice(j, min(j + step, width)) for j in range(0, width, step)):
        y = table.log_r[terms, k] * x
        w = table.exact[terms, k]
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
    # Rounding ln r costs eps*|y|*e**y*|w|: at most eps*|w*expm1(y)| where
    # y > -1, and at most eps*|w|/e beyond, where it decays as e**y while the
    # value grows with N.  The other roundings scale with |e| |w| or the value.
    bound = table.rounding[k] * (magnitude + np.abs(values))
    # exactly, as one correctly rounded integer quotient: at N = 0, where the
    # P = 1 terms count, at N = 1, and where the terms cancel beyond the bound
    redo = np.flatnonzero((x <= 1) | (bound > CLOSED_FORM_RTOL * np.abs(values)))
    for i, c in zip(redo.tolist(), k[redo].tolist()):
        top, bottom = _closed_form_exact(table.terms[c], int(table.exact[-1, c]), int(x[i]))
        values[i] = top / bottom
    out = np.repeat(table.fill[:, None], n.size, axis=1)
    out[k, at] = values
    return out


def _efficiency(table: _TermTable, loads: np.ndarray) -> np.ndarray:
    """Singles over `_closed_form` at every positive load, one row per codebook."""
    n = np.asarray(loads, dtype=np.float64)
    return _singles(n, table.x[:, None], table.delta[:, None]) / _closed_form(table, n)


def _closed_form_exact(terms: dict[int, int], size: int, n: int) -> tuple[int, int]:
    """`_closed_form` at one load as integers ``(sum c*P*(P-1)**N - A**N, A**N)``,
    a numerator over a denominator."""
    denominator = size**n
    return sum(c * p * (p - 1) ** n for p, c in terms.items()) - denominator, denominator


def _saturation_loads(table: _TermTable) -> np.ndarray:
    """First load from which the `_closed_form` sum rounds to exactly
    ``float(A)``, for every codebook of the `_term_table`, as floats:
    ``inf`` where that load lies beyond every int64 load.

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
    start = np.where(table.widths > 0, np.maximum(start, 1), 1)
    finite = start < 2.0**63  # the others never saturate, and are not stepped
    n, late = np.where(finite, start, 1).astype(np.int64), np.flatnonzero(table.widths * finite)
    while late.size:  # every codebook still failing the check steps on
        terms = table.log_r[:, late] * n[late]
        terms = np.exp(terms, out=terms) * weights[:, late]
        late = late[(n[late] * slope[late] > -1.0) | (
            sum(terms) * (1 + (table.widths[late] + 2) * eps) >= target[late])]
        n[late] += 1
    return np.where(finite, n, np.inf)


def perceived_count_rational(spec: CodebookSpec, n_users: int) -> Fraction:
    """Exact expected perceived count, ``sum coef*P*(P-1)^N / A^N - 1``."""
    n = int(_whole_loads(n_users))
    return Fraction(*_closed_form_exact(_alphabet_terms(spec), codebook_size(spec), n))


def perceived_curve(spec: CodebookSpec, n_values: Sequence[int]) -> np.ndarray:
    """Expected perceived codewords at every load of a grid (closed form).

    Evaluated in floats for the whole grid at once, and exactly at no or one
    contender and where large terms cancel beyond float precision.
    """
    return _closed_form(_term_table([spec]), _whole_loads(n_values))[0]


def expanded_efficiency_curve(spec: CodebookSpec, n_values: Sequence[int]) -> np.ndarray:
    """Expected singles over expected perceived codewords at every load, for
    either alphabet (a reference codebook perceives its used codewords)."""
    return _efficiency(_term_table([spec]), _whole_loads(n_values, least=1))[0]


def reference_efficiency_curve(n_values: Sequence[int], m: int, length: int) -> np.ndarray:
    """Singles over used codewords at every (positive) load of a grid, for the
    reference scheme with ``m`` preambles over ``length`` sub-frames."""
    return expanded_efficiency_curve(CodebookSpec.reference(m, length), n_values)


def perceived_count(spec: CodebookSpec, n_users: int) -> float:
    """Expected perceived codewords for ``n_users`` contenders (closed form)."""
    return float(perceived_curve(spec, [n_users])[0])


def expanded_efficiency(spec: CodebookSpec, n_users: int) -> float:
    """Expected singles over expected perceived codewords (closed form)."""
    return float(expanded_efficiency_curve(spec, [n_users])[0])


def expected_singles(point: LoadPoint) -> float:
    """Expected number of codewords chosen by exactly one contender."""
    return float(expected_singles_curve([point.n_users], point.codewords)[0])


def reference_efficiency(n_users: int, m: int, length: int) -> float:
    """Fraction of used codewords that carry exactly one contender in the
    reference scheme: `reference_efficiency_curve` at one positive integer load."""
    return float(reference_efficiency_curve([n_users], m, length)[0])

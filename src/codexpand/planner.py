"""Load-adaptive codebook selection.

Small codebooks suffer few phantom codewords but run out of contention room;
large ones invert the trade.  Given the distinct observation cardinalities a
system can realize, the planner builds one candidate codebook per cardinality
worth using (those larger than the baseline), sweeps every candidate's
efficiency over a user-load grid, and reads off the load thresholds at which
the preferred codebook changes.

The sweep has a dense head and a saturated tail.  At high load every preamble
is seen in every sub-frame, so every codeword is perceived: from its
saturation load, held in the candidates' one term table
(`contention._term_table`), a candidate's closed form
rounds to exactly its size ``A``, and its efficiency is ``N h(A)`` with
``h(A) = (1 - 1/A)**(N-1) / A``.  That function of ``A`` peaks at ``A = N``,
so from the last candidate's saturation load on, each size takes the loads
between its crossovers with the next smaller and larger size, found in
closed form and decided exactly (`_tail_runs`), until every efficiency
underflows; the tail costs a few operations per size.  Below it every candidate
is compared at every load, in array passes over blocks of candidates x
loads, by the one batched efficiency evaluator, `contention._efficiency`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from operator import itemgetter
from typing import Sequence

import numpy as np

from .codebook import (
    CodebookSpec, _checked_grid, _smallest_budgets, _whole_loads, codebook_size, whole_number)
from .contention import (
    _efficiency, _singles, _term_table, _TermTable, expanded_efficiency_curve)
from .errors import DomainError

#: Candidate-loads evaluated together in the schedule's dense head: enough to
#: amortise numpy's per-call cost, few enough to stay in cache.
HEAD_CHUNK = 2**15


@dataclass(frozen=True)
class CandidateSet:
    """Codebooks competing over a strictly increasing user-load grid, held as
    `codebook._checked_grid`'s read-only int64 array.  The array makes the
    generated ``==`` raise; nothing compares candidate sets."""

    candidates: tuple[CodebookSpec, ...]
    load_grid: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise DomainError("need at least one candidate codebook")
        object.__setattr__(self, "load_grid", _checked_grid(self.load_grid))


@dataclass(frozen=True)
class ScheduleSegment:
    """One load interval and the codebook chosen throughout it."""

    n_low: int
    n_high: int
    spec: CodebookSpec
    efficiency_low: float
    efficiency_high: float


@dataclass(frozen=True)
class ThresholdSchedule:
    """Contiguous segments covering the load grid, best codebook per segment.

    ``tail_start`` is the first grid load evaluated in the saturated tail, or
    ``None`` when the whole grid lies in the dense head.  ``closed_form_loads``
    counts the head loads at which a candidate's closed form was evaluated,
    summed over the candidates, and ``tail_checks`` the tail loads at which
    an efficiency was compared: those near a crossover, decided exactly, and
    those checked for underflow.
    """

    segments: tuple[ScheduleSegment, ...]
    tail_start: int | None = None
    closed_form_loads: int = 0
    tail_checks: int = 0

    @property
    def thresholds(self) -> tuple[int, ...]:
        """Loads at which the preferred codebook changes (segment starts)."""
        return tuple(seg.n_low for seg in self.segments[1:])

    def spec_at(self, n_users: int) -> CodebookSpec:
        """Codebook chosen for a load inside the grid's span."""
        n_users = whole_number(n_users, "user count")
        lows = [seg.n_low for seg in self.segments]
        pos = bisect_right(lows, n_users) - 1
        if pos < 0 or n_users > self.segments[pos].n_high:
            raise DomainError(f"load {n_users} outside the scheduled grid")
        return self.segments[pos].spec


def _above_reference(length: int, m: int, reference_preambles: int | None
                     ) -> tuple[CodebookSpec, np.ndarray, np.ndarray]:
    """The reference codebook with ``reference_preambles`` (by default ``m``)
    in each of ``length`` sub-frames, the realizable expanded sizes above its
    own, ascending, and their smallest budgets (`codebook._smallest_budgets`)."""
    reference = CodebookSpec.reference(
        reference_preambles if reference_preambles is not None else m, length)
    products, budgets = _smallest_budgets(length, m)
    above = products - 1 > codebook_size(reference)
    return reference, products[above] - 1, budgets[above]


def cardinalities_of_interest(
    length: int, m: int, reference_preambles: int | None = None
) -> list[int]:
    """Realizable codebook sizes that beat the reference scheme's size.

    The baseline is the size of the reference codebook with
    ``reference_preambles`` (by default ``m``, the same preamble count in
    both schemes) in each of ``length`` sub-frames.
    """
    return _above_reference(length, m, reference_preambles)[1].tolist()


def default_candidates(
    length: int,
    m: int,
    load_grid: Sequence[int],
    reference_preambles: int | None = None,
) -> CandidateSet:
    """Reference codebook plus one expanded codebook per interest cardinality.

    Budget vectors realizing the same size can differ in efficiency, so the
    realization matters.  Each size takes its lexicographically smallest
    budgets: they are non-decreasing, and the leading sub-frames stay idle
    (budget 0) wherever the size allows.
    """
    reference, _, budgets = _above_reference(length, m, reference_preambles)
    expanded = tuple(CodebookSpec.expanded(b, m_global=m) for b in budgets.tolist())
    return CandidateSet((reference,) + expanded, load_grid)


def efficiency_curve(
    spec: CodebookSpec, load_grid: Sequence[int]
) -> list[tuple[int, float]]:
    """Contention efficiency at each grid load: expected singles
    ``N (1 - 1/A)^(N-1)`` over the expected perceived count
    ``sum_T (-1)^|T| P_T ((P_T - 1)/A)^N - 1`` (see `codexpand.contention`),
    evaluated over the whole grid at once.  A reference codebook is observed
    like one sub-frame of ``A`` preambles, so it perceives exactly its used
    codewords ``A (1 - (1 - 1/A)^N)``.
    """
    grid = _whole_loads(load_grid)
    return list(zip(grid.tolist(), expanded_efficiency_curve(spec, grid).tolist()))


def crossover_point(
    spec_a: CodebookSpec, spec_b: CodebookSpec, load_grid: Sequence[int]
) -> int | None:
    """Smallest load of a strictly increasing grid where ``spec_b`` is
    strictly more efficient."""
    grid = _checked_grid(load_grid)
    wins = np.flatnonzero(
        expanded_efficiency_curve(spec_b, grid) > expanded_efficiency_curve(spec_a, grid)
    )
    return int(grid[wins[0]]) if wins.size else None


def supported_load(
    spec: CodebookSpec, load_grid: Sequence[int], floor: float = 0.5
) -> int | None:
    """Largest load of a strictly increasing grid at which efficiency still
    reaches ``floor``."""
    grid = _checked_grid(load_grid)
    reached = np.flatnonzero(expanded_efficiency_curve(spec, grid) >= floor)
    return int(grid[reached[-1]]) if reached.size else None


def _dense_best(table: _TermTable, loads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running best over every candidate at every load, in table order: a
    later candidate takes a load only if strictly better.  Candidates are
    compared in blocks of about `HEAD_CHUNK` candidate-loads, the first of a
    block's most efficient (``argmax``) against the earlier blocks' best."""
    best = np.full(loads.size, -np.inf)
    chosen = np.zeros(loads.size, dtype=np.intp)
    step = max(1, HEAD_CHUNK // max(loads.size, 1))
    for lo in range(0, len(table.terms), step):
        block = slice(lo, lo + step)  # of candidates, the table's last axis
        efficiency = _efficiency(
            _TermTable(table.terms[block], *(f[..., block] for f in table[1:])), loads)
        index = efficiency.argmax(axis=0)
        values = efficiency[index, np.arange(loads.size)]
        better = values > best
        best[better] = values[better]
        chosen[better] = index[better] + lo
    return best, chosen


def _beats(a: int, b: int, n: int) -> bool:
    """Whether size ``b`` is strictly more efficient than a smaller size ``a``
    at a saturated load ``n``, exactly: ``h(b) > h(a)`` where
    ``(n - 1) ln(a (b - 1) / ((a - 1) b)) > ln(b / a)``, taken in `decimal`
    at 40 digits; ``h(1)`` is 0 from ``n = 2`` on.  The sides never tie: that
    would need both ``a | b`` and ``(b - 1) | (a - 1)``."""
    if a == 1:
        return n > 1
    with localcontext() as context:
        context.prec = 40
        ln = [Decimal(v).ln() for v in (a * (b - 1), (a - 1) * b, b, a)]
        return (n - 1) * (ln[0] - ln[1]) > ln[2] - ln[3]


def _tail_runs(sizes: Sequence[int], x: np.ndarray, delta: np.ndarray, loads: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """`_dense_best` over saturated loads as runs of one choice, decided from
    the sizes alone; ``sizes`` are the candidates' sizes, sorted, and ``x``
    and ``delta`` their rounded bases.  Returns the runs' first indices into
    ``loads``, the candidates chosen, their efficiencies at each run's first
    and last load, and at how many loads an efficiency was compared."""
    # equal sizes share their tail values: the first in size order stands for all
    sizes, first = np.unique(sizes, return_index=True)
    x, delta = x[first], delta[first]
    # d ln h / dA = (N - A) / (A (A - 1)): h rises below A = N and falls
    # above it.  So size a yields to the next size b at the first load above
    # their crossover c, where (N - 1) slope = ln(b / a), and each size takes
    # the loads between its two crossovers.  Both factors are formed from
    # exact integer differences, so c is good to 10 eps relative:
    #   slope = ln(1 - 1/b) - ln(1 - 1/a) = log1p((b - a) / (b (a - 1))),
    #   c = 1 + log1p((b - a) / a) / slope, inside (a, b); with a = 1, c = 1.
    # Size a leads up to load `last`; a grid load within that error of c
    # (`near`) is decided exactly (`_beats`).
    a, b = sizes[:-1].astype(np.float64), sizes[1:].astype(np.float64)
    with np.errstate(divide="ignore"):
        crossing = 1 + np.log1p((b - a) / a) / np.log1p((b - a) / (b * (a - 1)))
    error = 10 * np.finfo(np.float64).eps * crossing
    last, near = (np.floor(crossing + e).astype(np.int64) for e in (-error, error))
    found = loads[np.minimum(np.searchsorted(loads, near), len(loads) - 1)] == near
    unsure = np.flatnonzero((last < near) & found)
    for i in unsure.tolist():
        last[i] = near[i] - _beats(int(sizes[i]), int(sizes[i + 1]), int(near[i]))
    # Underflow: the largest size's efficiency rounds to 0.0 once x**(N-1)
    # falls below 2**-1075, near N = 1 + 1075 ln 2 / -ln x (of the rounded
    # base itself, so good to a small fraction of a load), and every smaller
    # size's is 0.0 by then; from there the tie goes to the smallest
    # codebook, as in the dense loop.  The first such grid load is found in
    # floats among those within about two loads of that bound and the next.
    with np.errstate(divide="ignore"):  # a largest size of 1: x = 0
        bound = 1 - 1075 * np.log(2) / np.log(x[-1])
    lo, hi = np.searchsorted(loads, np.clip([bound - 2, bound + 2], 0, 2.0**62).astype(np.int64))
    checked = loads[lo:hi + 1].astype(np.float64)
    zero = np.flatnonzero(_singles(checked, x[-1], delta[-1]) == 0.0)
    cut = lo + int(zero[0]) if zero.size else len(loads)
    # each size's run, then index 0's from the cut, the empty ones dropped
    bounds = np.minimum(np.concatenate([[0], np.searchsorted(loads, last, "right"), [cut]]), cut)
    stops = np.append(bounds[1:], len(loads))
    keep = np.flatnonzero(bounds < stops)
    starts, stops, member = bounds[keep], stops[keep], np.where(keep < len(sizes), keep, 0)
    low, high = _singles(loads[[starts, stops - 1]].astype(np.float64), x[member],
                         delta[member]) / sizes[member]
    return starts, first[member], low, high, len(unsure) + len(checked)


def threshold_schedule(candidates: CandidateSet) -> ThresholdSchedule:
    """Pick the most efficient candidate at every grid load.

    Exact efficiency ties go to the smaller codebook, which keeps fewer
    simultaneous preambles on the air.  Contiguous choices merge into
    segments; segment boundaries are the adaptation thresholds.

    Below the tail start, the largest saturation load over the candidates,
    every candidate's efficiency is compared at every load (the dense head,
    `_dense_best`); the terms, rounded bases and saturation loads of all
    candidates are computed once, in one `contention._term_table`.  From the
    tail start on, every candidate perceives exactly its ``A`` codewords in
    floats, so its efficiency is ``N h(A)`` with
    ``h(A) = (1 - 1/A)**(N-1) / A``, the same float as the dense value.
    There (the tail) each size takes the loads between its crossovers with
    its neighbours in size, compared exactly, and the smallest codebook
    every load where all efficiencies are 0.0 (`_tail_runs`); the tail's
    efficiencies are evaluated at its segment edges only.
    """
    grid = candidates.load_grid
    # stable: ties keep input order
    sizes, specs = zip(*sorted(zip(map(codebook_size, candidates.candidates),
                                   candidates.candidates), key=itemgetter(0)))
    table = _term_table(specs)
    tail = bisect_left(grid, table.saturation.max())  # no float copy of the grid
    head_best, head_chosen = _dense_best(table, grid[:tail])
    head = np.flatnonzero(np.diff(head_chosen, prepend=-1))  # where each run starts
    runs = [(head, head_chosen[head], head_best[head], head_best[np.append(head, tail)[1:] - 1])]
    checks = 0
    if tail < grid.size:
        starts, *rest, checks = _tail_runs(sizes, table.x, table.delta, grid[tail:])
        runs.append((starts + tail, *rest))
    starts, chosen, low, high = map(np.concatenate, zip(*runs))
    # the head's last run and the tail's first are one segment if they agree
    first = np.flatnonzero(np.diff(chosen, prepend=-1))
    last = np.append(first[1:], len(chosen)) - 1
    ends = np.append(starts[first[1:]], grid.size) - 1
    return ThresholdSchedule(tuple(
        ScheduleSegment(n_low=n_low, n_high=n_high, spec=specs[index],
                        efficiency_low=e_low, efficiency_high=e_high)
        for n_low, n_high, index, e_low, e_high in zip(
            grid[starts[first]].tolist(), grid[ends].tolist(), chosen[first].tolist(),
            low[first].tolist(), high[last].tolist())
    ), tail_start=int(grid[tail]) if tail < grid.size else None,
        closed_form_loads=int(np.searchsorted(grid[:tail], table.saturation).sum()),
        tail_checks=checks)

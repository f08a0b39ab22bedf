"""Load-adaptive codebook selection.

Small codebooks suffer few phantom codewords but run out of contention room;
large ones invert the trade.  Given the distinct observation cardinalities a
system can realize, the planner builds one candidate codebook per cardinality
worth using (those larger than the baseline), sweeps every candidate's
efficiency over a user-load grid, and reads off the load thresholds at which
the preferred codebook changes.

The sweep has a dense head and a saturated tail.  At high load every preamble
is seen in every sub-frame, so every codeword is perceived: from its
saturation load (`contention._saturation_loads`) a candidate's closed form
rounds to exactly its size ``A``, and its efficiency is ``N h(A)`` with
``h(A) = (1 - 1/A)**(N-1) / A``.  That function of ``A`` peaks at ``A = N``,
so from the last candidate's saturation load on, a load compares only the
few codebook sizes around ``N`` (`TAIL_WINDOW`), and only the loads near
where two sizes' curves cross in closed form, or where the values underflow,
are compared at all (`_tail_checks`); each choice holds up to the next such
load, so the tail costs a few loads per size.  Below it every candidate
is compared at every load, in array passes over blocks of candidates x
loads, each closed form evaluated only below its own saturation load by the
one batched evaluator, `contention._closed_form`; the perceived count is
``float(A)`` from there on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .codebook import CodebookSpec, _smallest_budgets, codebook_size
from .contention import (
    _closed_form, _rounded_base, _saturation_loads, _singles, _term_table, _TermTable,
    _whole_loads)
from .errors import DomainError
from .markov import _alphabet_terms, _checked_grid, expanded_efficiency_curve

#: Distinct codebook sizes compared at each load of the schedule's tail, the
#: two that bracket the load and one more on either side (`threshold_schedule`).
TAIL_WINDOW = 4

#: Candidate-loads evaluated together in the schedule's dense head: enough to
#: amortise numpy's per-call cost, few enough to stay in cache.
HEAD_CHUNK = 2**15


@dataclass(frozen=True)
class CandidateSet:
    """Codebooks competing over a strictly increasing user-load grid, held as
    `markov._checked_grid`'s read-only int64 copy.  The array makes the
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
    the window rule ran.
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
        lows = [seg.n_low for seg in self.segments]
        pos = bisect_right(lows, n_users) - 1
        if pos < 0 or n_users > self.segments[pos].n_high:
            raise DomainError(f"load {n_users} outside the scheduled grid")
        return self.segments[pos].spec


def state_cardinality_values(length: int, m: int) -> list[int]:
    """Distinct observation cardinalities of the full codebook's chain.

    These are the values ``prod(C_j) - 1`` over configurations with
    ``1 <= C_j <= m + 1``, the all-idle one (cardinality 0) excluded: the
    products of `codebook._smallest_budgets`, with no state space built.
    """
    return (_smallest_budgets(length, m)[0][1:] - 1).tolist()


def cardinalities_of_interest(
    length: int, m: int, reference_preambles: int | None = None
) -> list[int]:
    """Realizable codebook sizes that beat the reference scheme's size.

    The baseline is ``reference_preambles * length`` codewords when given,
    otherwise ``m * length`` (same preamble count in both schemes).
    """
    baseline = (reference_preambles if reference_preambles is not None else m) * length
    return [a for a in state_cardinality_values(length, m) if a > baseline]


def spec_for_cardinality(length: int, m: int, target: int) -> CodebookSpec:
    """Expanded codebook of exactly ``target`` codewords.

    Budget vectors realizing the same size can differ in efficiency, so the
    realization matters.  The lexicographically smallest one is used
    (`codebook._smallest_budgets`): its budgets are non-decreasing, and its
    leading sub-frames stay idle (budget 0) wherever the size allows.
    """
    products, budgets = _smallest_budgets(length, m)
    index = np.searchsorted(products, target + 1)
    if index == products.size or products[index] != target + 1:
        raise DomainError(f"no codebook of size {target} with L={length}, M={m}")
    return CodebookSpec.expanded(budgets[index].tolist(), m_global=m)


def default_candidates(
    length: int,
    m: int,
    load_grid: Sequence[int],
    reference_preambles: int | None = None,
) -> CandidateSet:
    """Reference codebook plus one expanded codebook per interest cardinality,
    each realized as in `spec_for_cardinality`."""
    reference = CodebookSpec.reference(
        reference_preambles if reference_preambles is not None else m, length
    )
    products, budgets = _smallest_budgets(length, m)
    expanded = tuple(CodebookSpec.expanded(b, m_global=m)
                     for b in budgets[products - 1 > codebook_size(reference)].tolist())
    return CandidateSet((reference,) + expanded, load_grid)


def efficiency_curve(
    spec: CodebookSpec, load_grid: Sequence[int]
) -> list[tuple[int, float]]:
    """Contention efficiency at each grid load: expected singles
    ``N (1 - 1/A)^(N-1)`` over the expected perceived count
    ``sum_T (-1)^|T| P_T ((P_T - 1)/A)^N - 1`` (see `codexpand.markov`),
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


def _dense_best(table: _TermTable, saturation: np.ndarray, x: np.ndarray, delta: np.ndarray,
                loads: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Running best over every candidate at every load, in table order: a
    later candidate takes a load only if strictly better.  Candidates are
    compared in blocks of about `HEAD_CHUNK` candidate-loads, the first of a
    block's most efficient (``argmax``) against the earlier blocks' best;
    each closed form is evaluated only below its ``saturation`` load; ``x``
    and ``delta`` are the candidates' rounded bases.  Also returns how many
    closed-form loads that is, summed over the candidates."""
    counts = np.searchsorted(loads, saturation)
    x, delta = x[:, None], delta[:, None]
    n = loads.astype(np.float64)
    best = np.full(n.size, -np.inf)
    chosen = np.zeros(n.size, dtype=np.intp)
    step = max(1, HEAD_CHUNK // max(n.size, 1))
    for lo in range(0, len(counts), step):
        block = slice(lo, lo + step)  # of candidates, the table's last axis
        efficiency = _singles(n, x[block], delta[block]) / _closed_form(
            _TermTable(table.terms[block], *(f[..., block] for f in table[1:])), n, counts[block])
        index = efficiency.argmax(axis=0)
        values = efficiency[index, np.arange(n.size)]
        better = values > best
        best[better] = values[better]
        chosen[better] = index[better] + lo
    return best, chosen, int(counts.sum())


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices at which ``values`` differs from the entry before, the first
    included: where each run of equal values starts."""
    changed = np.empty(len(values), dtype=bool)
    changed[:1] = True
    np.not_equal(values[1:], values[:-1], out=changed[1:])
    return np.flatnonzero(changed)


def _window(index: np.ndarray, count: int) -> np.ndarray:
    """The `TAIL_WINDOW` distinct sizes, of ``count``, compared at a load with
    ``index`` sizes below it: the two that bracket the load and one more on
    either side, the window shifted inside the sizes; with fewer sizes than
    the window, the last repeats, which never changes a first maximum."""
    start = np.clip(index - TAIL_WINDOW // 2, 0, max(count - TAIL_WINDOW, 0))
    return np.minimum(start[..., None] + np.arange(TAIL_WINDOW), count - 1)


def _tail_checks(sizes: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Indices of the tail ``loads`` at which the window rule runs, sorted;
    ``sizes`` are distinct and sorted.

    Away from these loads every window value is a normal float within
    rounding of ``N h(A)``, or surely 0.0, and no two compare unlike
    ``N h(A)``.  The rule then picks the best size of all, which changes only
    where consecutive sizes cross, or index 0 where all are 0.0.  So a
    check's choice holds up to the next check.  Checked are the first load,
    the first beyond each size (where the window shifts), and the loads in a
    rounding band around each crossover or where a window value may be
    subnormal, each band with one more load on either side."""
    eps = np.finfo(np.float64).eps
    f = sizes.astype(np.float64)
    count = len(f)
    # Crossovers of sizes a < b at most TAIL_WINDOW - 1 apart in size order
    # (repeated pairs at the end are harmless).  ln h(a) - ln h(b) is
    # slope (c - N) exactly, both factors formed from exact integer
    # differences, so c is good to 10 eps relative:
    #   slope = ln(1 - 1/b) - ln(1 - 1/a) = log1p((b - a) / (b (a - 1))),
    #   c = 1 + log1p((b - a) / a) / slope, inside (a, b).
    # Each float efficiency is within r(N) = 6 eps + ((N - 1) eps)**2 of
    # N h(A), relative: the power within 4 ulps, three products, and the
    # correction (1 + (N-1) delta) with its rounding and its dropped
    # second-order term ((N - 1) delta)**2 / 2, |delta| <= eps/2.  So two of
    # them can compare unlike N h(A) only where slope |N - c| <= 3 r(N):
    # within 3 r(b) / slope, about 3 r a**2 / (b - a) loads, of c.  That is
    # under half a load for a <= 10**7.
    a = f[:-1, None]
    b = f[np.minimum(np.arange(1, count)[:, None] + np.arange(TAIL_WINDOW - 1), count - 1)]
    with np.errstate(divide="ignore"):  # a = 1: h(1) is 0.0 from N = 2 on, c = 1
        slope = np.log1p((b - a) / (b * (a - 1)))
        crossing = 1 + np.log1p((b - a) / a) / slope
        log_x = np.log1p(-1 / f)
    band = 3 * (6 * eps + ((b - 1) * eps) ** 2) / slope + 10 * eps * crossing
    # Underflow.  r(N) holds while the power x**(N-1) is a normal float; the
    # efficiency is about that power or more where N >= A, and above
    # N / (e A) elsewhere.
    # From where the power may fall below e tiny to where it is below
    # 2**-1075 / e, which rounds to 0.0, every load with the size in its
    # window is checked; past them all, every window value is 0.0.
    # the window is fixed for the loads in (bounds[j], bounds[j + 1]]
    window = _window(np.arange(count + 1), count)
    bounds = np.concatenate([[0.0], f, [np.inf]])
    subnormal = np.maximum(1 + (np.log(np.finfo(np.float64).tiny) + 1) / log_x[window],
                           bounds[:-1, None] + 1)
    zero = np.minimum(1 + (-1075 * np.log(2) - 1) / log_x[window], bounds[1:, None])
    some = subnormal <= zero
    low = np.concatenate([(crossing - band).ravel(), subnormal[some]])
    high = np.concatenate([(crossing + band).ravel(), zero[some]])
    bound = float(2**62)
    below = np.searchsorted(loads, np.clip(np.ceil(low), 0, bound).astype(np.int64)) - 1
    above = np.searchsorted(loads, np.clip(np.floor(high), 0, bound).astype(np.int64), "right")
    shifts = np.searchsorted(loads, sizes, "right")
    below = np.clip(np.concatenate([[0], shifts, below]), 0, len(loads) - 1)
    above = np.clip(np.concatenate([[0], shifts, above]), 0, len(loads) - 1)
    counts = above - below + 1
    checks = np.sort(np.repeat(below - np.cumsum(counts) + counts, counts)
                     + np.arange(counts.sum()))
    return checks[_run_starts(checks)]


def _tail_runs(sizes: Sequence[int], x: np.ndarray, delta: np.ndarray, loads: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """`_dense_best` over saturated loads as runs of one choice, comparing only
    the `TAIL_WINDOW` distinct sizes around each load, and only at the
    `_tail_checks`; ``sizes`` are the candidates' sizes, sorted, and ``x``
    and ``delta`` their rounded bases.  Returns the runs' first indices into
    ``loads``, the candidates chosen, their efficiencies at each run's first
    and last load, and how many loads were checked."""
    sizes, first = np.unique(sizes, return_index=True)
    x, delta = x[first], delta[first]
    checks = _tail_checks(sizes, loads)
    n = loads[checks]
    window = _window(np.searchsorted(sizes, n), len(sizes))
    # equal sizes share their tail values: the first in size order stands for all
    values = _singles(n.astype(np.float64)[:, None], x[window], delta[window])
    values /= sizes[window]
    pick = np.arange(len(checks)), values.argmax(axis=1)  # the first of the most efficient
    member = window[pick]
    # where every efficiency has underflowed to 0.0, the tie goes to the
    # smallest codebook, as in the dense loop
    chosen = np.where(values[pick] == 0.0, 0, first[member])
    runs = _run_starts(chosen)
    starts = checks[runs]
    # at every load of a run its first size is the best, or 0.0 like every size
    edges = loads[np.array([starts, np.append(starts[1:], len(loads)) - 1])]
    member = member[runs]
    low, high = _singles(edges.astype(np.float64), x[member], delta[member]) / sizes[member]
    return starts, chosen[runs], low, high, len(checks)


def threshold_schedule(candidates: CandidateSet) -> ThresholdSchedule:
    """Pick the most efficient candidate at every grid load.

    Exact efficiency ties go to the smaller codebook, which keeps fewer
    simultaneous preambles on the air.  Contiguous choices merge into
    segments; segment boundaries are the adaptation thresholds.

    Below the tail start, the largest `contention._saturation_loads` over
    the candidates, every candidate's efficiency is compared at every load
    (the dense head, `_dense_best`), its closed form evaluated only below its
    own saturation load and its perceived count ``float(A)`` from there on,
    the float the closed form gives; the terms and saturation loads of all
    candidates are computed once, in one table.  From the tail start on,
    every candidate perceives exactly its ``A`` codewords in floats, so its
    efficiency is ``N h(A)`` with ``h(A) = (1 - 1/A)**(N-1) / A``, the same
    float as the dense value; only the `TAIL_WINDOW` sizes around ``N`` are
    compared there (the tail), and only at the `_tail_checks`, a few loads
    per size around where two sizes cross, the window shifts or the values
    underflow.  Each choice holds up to the next check, and the tail's
    efficiencies are evaluated at its segment edges only.
    """
    grid = candidates.load_grid
    # stable: ties keep input order
    sizes, specs = zip(*sorted(zip(map(codebook_size, candidates.candidates),
                                   candidates.candidates), key=itemgetter(0)))
    table = _term_table([_alphabet_terms(spec) for spec in specs], sizes)
    x, delta = map(np.array, zip(*map(_rounded_base, sizes)))
    saturation = _saturation_loads(table)
    tail = int(np.searchsorted(grid, saturation.max()))
    # Why the window suffices: d ln h / dA = (N - A) / (A (A - 1)), so h
    # rises below A = N and falls above it, and the best size is one of the
    # two that bracket N, the last below it and the first at or above it.
    # Why 4 and not 2: two is exact in exact arithmetic, but the dense loop
    # compares rounded values.  Near the peak ln h falls off only as
    # (A - N)**2 / (2 N**2), so the bracket's outer neighbours trail it the
    # least: by less than rounding where sizes lie one apart near N of about
    # 10**7.  The window keeps them, so such a near tie is decided as the
    # dense loop decides it.  On the default grids of l4m4, l6m5 and l8m4 the
    # nearest outer size trails the bracket by at least 1.1e-5 relative and
    # the next by 1.5e-4, far above the few ulps of rounding.  The tail's cost
    # grows with the number of sizes, not of loads.
    head_best, head_chosen, closed_form_loads = _dense_best(
        table, saturation, x, delta, grid[:tail])
    del table  # one dict of terms per candidate: freed before the tail's arrays
    head = _run_starts(head_chosen)
    runs = [(head, head_chosen[head], head_best[head], head_best[np.append(head, tail)[1:] - 1])]
    checks = 0
    if tail < grid.size:
        starts, *rest, checks = _tail_runs(sizes, x, delta, grid[tail:])
        runs.append((starts + tail, *rest))
    starts, chosen, low, high = map(np.concatenate, zip(*runs))
    # the head's last run and the tail's first are one segment if they agree
    first = _run_starts(chosen)
    last = np.append(first[1:], len(chosen)) - 1
    ends = np.append(starts[first[1:]], grid.size) - 1
    return ThresholdSchedule(tuple(
        ScheduleSegment(n_low=n_low, n_high=n_high, spec=specs[index],
                        efficiency_low=e_low, efficiency_high=e_high)
        for n_low, n_high, index, e_low, e_high in zip(
            grid[starts[first]].tolist(), grid[ends].tolist(), chosen[first].tolist(),
            low[first].tolist(), high[last].tolist())
    ), tail_start=int(grid[tail]) if tail < grid.size else None,
        closed_form_loads=closed_form_loads, tail_checks=checks)

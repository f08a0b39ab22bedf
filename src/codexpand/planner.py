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
so from the last candidate's saturation load on, each load compares only the
few codebook sizes around ``N`` (`TAIL_WINDOW`).  Below it every candidate
is compared at every load, in array passes over blocks of candidates x
loads, each closed form evaluated only below its own saturation load by the
one batched evaluator, `contention._closed_form`; the perceived count is
``float(A)`` from there on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
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
    summed over the candidates.
    """

    segments: tuple[ScheduleSegment, ...]
    tail_start: int | None = None
    closed_form_loads: int = 0

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


def _dense_best(table: _TermTable, saturation: np.ndarray, loads: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Running best over every candidate at every load, in table order: a
    later candidate takes a load only if strictly better.  Candidates are
    compared in blocks of about `HEAD_CHUNK` candidate-loads, the first of a
    block's most efficient (``argmax``) against the earlier blocks' best;
    each closed form is evaluated only below its ``saturation`` load.  Also
    returns how many closed-form loads that is, summed over the candidates."""
    counts = np.searchsorted(loads, saturation)
    x, delta = (np.array(b)[:, None] for b in zip(*map(_rounded_base, table.exact[-1].tolist())))
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


def _tail_best(specs: Sequence[CodebookSpec], loads: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """`_dense_best` over saturated loads, comparing only the `TAIL_WINDOW`
    distinct sizes around each load; ``specs`` are sorted by size."""
    sizes, first = np.unique([codebook_size(s) for s in specs], return_index=True)
    n = loads.astype(np.float64)
    # the window's first size never decreases with N, so the loads whose
    # window holds size d form one range, found by bisection
    start = np.clip(np.searchsorted(sizes, loads) - TAIL_WINDOW // 2,
                    0, max(len(sizes) - TAIL_WINDOW, 0))
    best = np.full(len(loads), -np.inf)
    chosen = np.zeros(len(loads), dtype=np.intp)
    for d, (size, index) in enumerate(zip(sizes.tolist(), first.tolist())):
        lo = np.searchsorted(start, d - TAIL_WINDOW + 1)
        hi = np.searchsorted(start, d, side="right")
        # equal sizes share their tail values: the first in size order stands for all
        values = _singles(n[lo:hi], *_rounded_base(size)) / size
        better = values > best[lo:hi]
        best[lo:hi][better] = values[better]
        chosen[lo:hi][better] = index
    # where every efficiency has underflowed to 0.0, the tie goes to the
    # smallest codebook, as in the dense loop
    chosen[best == 0.0] = 0
    return best, chosen


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
    compared there (the tail).
    """
    grid = candidates.load_grid
    specs = sorted(candidates.candidates, key=codebook_size)  # stable: ties keep input order
    table = _term_table([_alphabet_terms(spec) for spec in specs], list(map(codebook_size, specs)))
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
    # the next by 1.5e-4, far above the few ulps of rounding.
    head_best, head_chosen, closed_form_loads = _dense_best(table, saturation, grid[:tail])
    tail_best, tail_chosen = _tail_best(specs, grid[tail:])
    best = np.concatenate([head_best, tail_best])
    chosen = np.concatenate([head_chosen, tail_chosen])

    cuts = (np.flatnonzero(np.diff(chosen)) + 1).tolist()
    return ThresholdSchedule(tuple(
        ScheduleSegment(
            n_low=int(grid[lo]),
            n_high=int(grid[stop - 1]),
            spec=specs[chosen[lo]],
            efficiency_low=float(best[lo]),
            efficiency_high=float(best[stop - 1]),
        )
        for lo, stop in zip([0, *cuts], [*cuts, grid.size])
    ), tail_start=int(grid[tail]) if tail < grid.size else None,
        closed_form_loads=closed_form_loads)

"""Load-adaptive codebook selection.

Small codebooks suffer few phantom codewords but run out of contention room;
large ones invert the trade.  Given the distinct observation cardinalities a
system can realize, the planner builds one candidate codebook per cardinality
worth using (those larger than the baseline), sweeps every candidate's
efficiency over a user-load grid, and reads off the load thresholds at which
the preferred codebook changes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codebook import CodebookSpec, _restrictions, codebook_size
from .contention import _whole_loads
from .errors import DomainError
from .markov import _checked_grid, expanded_efficiency_curve


@dataclass(frozen=True)
class CandidateSet:
    """Codebooks competing over a strictly increasing user-load grid."""

    candidates: tuple[CodebookSpec, ...]
    load_grid: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise DomainError("need at least one candidate codebook")
        object.__setattr__(self, "load_grid", tuple(_checked_grid(self.load_grid)))


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
    """Contiguous segments covering the load grid, best codebook per segment."""

    segments: tuple[ScheduleSegment, ...]

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
    ``1 <= C_j <= m + 1``, the all-idle one (cardinality 0) excluded; the set
    of products is grown one sub-frame at a time, with no state space built.
    """
    products = {1}
    for _ in range(length):
        products = {p * c for p in products for c in range(1, m + 2)}
    return sorted(p - 1 for p in products if p > 1)


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
    realization matters.  The lexicographically smallest one is used, the first
    the factorization search yields: its budgets are non-decreasing, and its
    leading sub-frames stay idle (budget 0) wherever the size allows.
    """
    budgets = next(_restrictions(length, m, target + 1), None)
    if budgets is None:
        raise DomainError(f"no codebook of size {target} with L={length}, M={m}")
    return CodebookSpec.expanded(budgets, m_global=m)


def default_candidates(
    length: int,
    m: int,
    load_grid: Sequence[int],
    reference_preambles: int | None = None,
) -> CandidateSet:
    """Reference codebook plus one expanded codebook per interest cardinality."""
    reference = CodebookSpec.reference(
        reference_preambles if reference_preambles is not None else m, length
    )
    interest = cardinalities_of_interest(length, m, reference_preambles)
    expanded = tuple(spec_for_cardinality(length, m, a) for a in interest)
    return CandidateSet((reference,) + expanded, tuple(load_grid))


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
    grid = _whole_loads(load_grid).tolist()
    return list(zip(grid, expanded_efficiency_curve(spec, grid).tolist()))


def crossover_point(
    spec_a: CodebookSpec, spec_b: CodebookSpec, load_grid: Sequence[int]
) -> int | None:
    """Smallest load of a strictly increasing grid where ``spec_b`` is
    strictly more efficient."""
    grid = _checked_grid(load_grid)
    wins = np.flatnonzero(
        expanded_efficiency_curve(spec_b, grid) > expanded_efficiency_curve(spec_a, grid)
    )
    return grid[wins[0]] if wins.size else None


def supported_load(
    spec: CodebookSpec, load_grid: Sequence[int], floor: float = 0.5
) -> int | None:
    """Largest load of a strictly increasing grid at which efficiency still
    reaches ``floor``."""
    grid = _checked_grid(load_grid)
    reached = np.flatnonzero(expanded_efficiency_curve(spec, grid) >= floor)
    return grid[reached[-1]] if reached.size else None


def threshold_schedule(candidates: CandidateSet) -> ThresholdSchedule:
    """Pick the most efficient candidate at every grid load.

    Exact efficiency ties go to the smaller codebook, which keeps fewer
    simultaneous preambles on the air.  Contiguous choices merge into
    segments; segment boundaries are the adaptation thresholds.
    """
    grid = candidates.load_grid
    specs = sorted(candidates.candidates, key=codebook_size)  # stable: ties keep input order
    best = expanded_efficiency_curve(specs[0], grid)
    chosen = np.zeros(len(grid), dtype=np.intp)
    for index, spec in enumerate(specs[1:], start=1):
        values = expanded_efficiency_curve(spec, grid)
        better = values > best
        best[better] = values[better]
        chosen[better] = index

    cuts = (np.flatnonzero(np.diff(chosen)) + 1).tolist()
    return ThresholdSchedule(tuple(
        ScheduleSegment(
            n_low=grid[lo],
            n_high=grid[stop - 1],
            spec=specs[chosen[lo]],
            efficiency_low=float(best[lo]),
            efficiency_high=float(best[stop - 1]),
        )
        for lo, stop in zip([0, *cuts], [*cuts, len(grid)])
    ))

"""Expected perceived codewords: closed form, and the observation chain.

The base station cannot see codewords directly; in each sub-frame ``j`` it
sees some set of preambles.  Writing ``C_j`` for the number of observed
preambles in sub-frame ``j`` *counting idle as always present*, the tuple
``(C_1, ..., C_L)`` -- a configuration -- is everything the observation
reveals.  The codewords consistent with a configuration number
``prod(C_j) - 1`` (the all-idle word never counts), and that cardinality is
exactly how many codewords the base station perceives: singles, collisions,
and phantom codewords no one sent.

Closed form.  ``prod(C_j)`` counts the words ``w`` of the full alphabet
(idle allowed everywhere) whose every non-idle symbol was observed.  By
inclusion-exclusion over the set ``T`` of sub-frames in which such a symbol
goes unobserved::

    E[perceived | N] = sum_T (-1)^|T| * P_T * ((P_T - 1) / A)^N - 1,
    P_T = prod_{j in T} m_j * prod_{j not in T} (m_j + 1),

where ``A`` is the codebook size: ``P_T`` words carry a preamble in every
sub-frame of ``T``, and for each of them ``P_T - 1`` codewords avoid all
those preambles.  Equal products merge, so uniform budgets leave ``L + 1``
terms.  `perceived_curve` evaluates the sum in floats over a whole load grid
and falls back to exact integer arithmetic wherever the terms cancel beyond
float precision.

The chain.  Contenders pick codewords independently and uniformly, so adding
one more contender moves the configuration by keeping each ``C_j`` or raising
it by one, with a probability that depends only on the current configuration
-- never on which codewords produced it.  The number of codewords driving the
move from ``c`` to ``c'`` is::

    prod_j ( C_j           if C'_j == C_j        # symbol already observed
             m_j + 1 - C_j if C'_j == C_j + 1    # symbol new in sub-frame j
             0             otherwise )

minus one for a self-loop, because the all-idle word keeps every coordinate
yet is not in the codebook.  Dividing by the codebook size gives a
row-stochastic transition matrix; the expected perceived count after ``N``
contenders is the cardinality vector averaged over the N-step state
distribution.  Counts are kept as integers so small instances can be checked
in exact rational arithmetic.  The chain is an independent route to the same
numbers and the structure `inspect-chain` prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .codebook import CodebookSpec, Mode, codebook_size
from .contention import LoadPoint, expected_singles, expected_singles_curve
from .errors import DomainError, StateSpaceTooLarge

#: Per-sub-frame observed-preamble counts, idle included (each entry >= 1).
Configuration = tuple[int, ...]

#: Largest state space `build_state_space` will materialize.
STATE_CAP = 10**7


def _check_expanded(spec: CodebookSpec) -> None:
    if spec.mode is not Mode.EXPANDED:
        raise DomainError("observation chains are built for expanded codebooks")


def _validate_configuration(config: Configuration, spec: CodebookSpec) -> None:
    if len(config) != spec.length:
        raise DomainError(f"configuration {config} has wrong length for {spec.describe()}")
    for c, m in zip(config, spec.budgets):
        if not 1 <= c <= m + 1:
            raise DomainError(f"configuration {config} out of range for budgets {spec.budgets}")


def configuration_cardinality(config: Configuration) -> int:
    """Codewords consistent with a configuration: ``prod(C_j) - 1``."""
    return math.prod(config) - 1


@dataclass(frozen=True)
class StateSpace:
    """Indexed set of reachable configurations for an expanded codebook."""

    spec: CodebookSpec
    states: tuple[Configuration, ...]
    cardinalities: np.ndarray
    index: Mapping[Configuration, int]

    def __len__(self) -> int:
        return len(self.states)


def build_state_space(spec: CodebookSpec, cap: int = STATE_CAP) -> StateSpace:
    """Enumerate configurations in lexicographic order.

    The all-ones configuration is excluded: with at least one contender some
    sub-frame always shows a non-idle preamble.

    Raises
    ------
    StateSpaceTooLarge
        When ``prod(m_j + 1)`` exceeds ``cap``; use `perceived_curve` or
        Monte Carlo instead.
    """
    _check_expanded(spec)
    total = math.prod(b + 1 for b in spec.budgets)
    if total > cap:
        raise StateSpaceTooLarge(f"{total - 1} states exceed the cap of {cap}")
    all_ones = (1,) * spec.length
    states = tuple(
        c
        for c in itertools.product(*(range(1, b + 2) for b in spec.budgets))
        if c != all_ones
    )
    cardinalities = np.fromiter(
        (configuration_cardinality(c) for c in states), dtype=np.int64, count=len(states)
    )
    index = {c: i for i, c in enumerate(states)}
    return StateSpace(spec=spec, states=states, cardinalities=cardinalities, index=index)


def transition_count(frm: Configuration, to: Configuration, spec: CodebookSpec) -> int:
    """Number of codewords that move the observation from ``frm`` to ``to``.

    Returns 0 for impossible moves.  Dividing by the codebook size gives the
    transition probability.
    """
    _check_expanded(spec)
    _validate_configuration(frm, spec)
    _validate_configuration(to, spec)
    return dict(_successors(tuple(frm), spec.budgets)).get(tuple(to), 0)


def _successors(
    config: Configuration, budgets: Sequence[int]
) -> Iterable[tuple[Configuration, int]]:
    """Configurations one more contender can lead to, with codeword counts.

    In each sub-frame the new codeword either sends one of the ``C_j``
    symbols already observed, keeping the count, or (below the budget) one of
    the ``m_j + 1 - C_j`` unobserved preambles, raising it by one; the
    self-loop loses the all-idle word.
    """
    moves = [
        ((c, c),) if c > m else ((c, c), (c + 1, m + 1 - c))
        for c, m in zip(config, budgets)
    ]
    for move in itertools.product(*moves):
        succ, factors = zip(*move)
        count = math.prod(factors)
        if succ == config:
            count -= 1  # the all-idle word is not in the codebook
        if count:
            yield succ, count


@dataclass(frozen=True)
class TransitionModel:
    """Observation chain: integer transition counts over the codebook size.

    ``counts[i, j]`` is the number of codewords moving state ``i`` to state
    ``j``; every row sums to ``denominator`` (the codebook size), so
    ``counts / denominator`` is row-stochastic.  ``initial_counts / denominator``
    is the state distribution after the first contender.
    """

    spec: CodebookSpec
    states: tuple[Configuration, ...]
    cardinalities: np.ndarray
    counts: sparse.csr_matrix
    initial_counts: np.ndarray
    denominator: int

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """Row-stochastic transition matrix (float)."""
        return self.counts.astype(np.float64) / self.denominator

    @cached_property
    def matrix_t(self) -> sparse.csr_matrix:
        """Transposed transition matrix, so a step is one CSR product."""
        return self.matrix.T.tocsr()

    @cached_property
    def initial(self) -> np.ndarray:
        """State distribution after the first contender (float)."""
        return self.initial_counts.astype(np.float64) / self.denominator

    def perceived_count(self, n_users: int) -> float:
        """Expected number of codewords the base station perceives.

        Defined as 0 for an empty system; otherwise the cardinality vector
        averaged over the state distribution after ``n_users`` contenders,
        computed with ``n_users - 1`` sparse vector-matrix products.
        """
        if n_users < 0:
            raise DomainError("user count cannot be negative")
        if n_users == 0:
            return 0.0
        dist = self.initial
        for _ in range(n_users - 1):
            dist = self.matrix_t @ dist
        return float(dist @ self.cardinalities)

    def perceived_sweep(self, n_values: Sequence[int]) -> np.ndarray:
        """Perceived counts over an increasing grid of user counts.

        Shares one state-distribution iteration across the whole grid, so a
        sweep up to ``max(n_values)`` costs ``max(n_values) - 1`` products.
        """
        grid = _checked_grid(n_values)
        out = np.empty(len(grid), dtype=np.float64)
        dist = self.initial
        pos = 0
        for n in range(1, grid[-1] + 1):
            if n > 1:
                dist = self.matrix_t @ dist
            while pos < len(grid) and grid[pos] == n:
                out[pos] = float(dist @ self.cardinalities)
                pos += 1
        return out

    def efficiency(self, n_users: int) -> float:
        """Expected singles over expected perceived codewords."""
        if n_users < 1:
            raise DomainError("efficiency is undefined without contenders")
        singles = expected_singles(LoadPoint(n_users, self.denominator))
        return singles / self.perceived_count(n_users)

    def perceived_count_exact(self, n_users: int) -> Fraction:
        """Exact rational perceived count, for golden-value comparisons.

        Practical only for small states and user counts.
        """
        if n_users < 0:
            raise DomainError("user count cannot be negative")
        if n_users == 0:
            return Fraction(0)
        denom = Fraction(self.denominator)
        dist = [Fraction(int(c)) / denom for c in self.initial_counts]
        indptr, indices, data = self.counts.indptr, self.counts.indices, self.counts.data
        for _ in range(n_users - 1):
            nxt = [Fraction(0)] * len(dist)
            for i, p in enumerate(dist):
                if p == 0:
                    continue
                for k in range(indptr[i], indptr[i + 1]):
                    nxt[indices[k]] += p * int(data[k]) / denom
            dist = nxt
        return sum(
            (p * int(a) for p, a in zip(dist, self.cardinalities)), start=Fraction(0)
        )


def _checked_grid(n_values: Sequence[int]) -> list[int]:
    grid = [int(n) for n in n_values]
    if not grid or any(n < 1 for n in grid):
        raise DomainError("grid must be non-empty with positive user counts")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    return grid


def build_transition_model(spec: CodebookSpec, cap: int = STATE_CAP) -> TransitionModel:
    """Build the full observation chain for an expanded codebook."""
    space = build_state_space(spec, cap=cap)
    denom = codebook_size(spec)
    budgets = spec.budgets
    index = space.index

    rows: list[int] = []
    cols: list[int] = []
    data: list[int] = []
    for i, config in enumerate(space.states):
        for succ, count in _successors(config, budgets):
            rows.append(i)
            cols.append(index[succ])
            data.append(count)
    counts = sparse.csr_matrix(
        (np.asarray(data, dtype=np.int64), (rows, cols)),
        shape=(len(space), len(space)),
    )
    counts.sort_indices()
    _check_row_sums(counts, denom)
    initial = np.fromiter(
        (_first_contender_count(c, budgets) for c in space.states),
        dtype=np.int64,
        count=len(space),
    )
    return TransitionModel(
        spec=spec,
        states=space.states,
        cardinalities=space.cardinalities,
        counts=counts,
        initial_counts=initial,
        denominator=denom,
    )


#: Loads whose float closed form may be off by more than this relative error
#: are evaluated exactly.
CLOSED_FORM_RTOL = 1e-12


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


def perceived_count_rational(spec: CodebookSpec, n_users: int) -> Fraction:
    """Exact expected perceived count, ``sum coef*P*(P-1)^N / A^N - 1``."""
    _check_expanded(spec)
    n = int(n_users)
    if n < 0:
        raise DomainError("user count cannot be negative")
    total = sum(c * p * (p - 1) ** n for p, c in perceived_terms(spec.budgets).items())
    return Fraction(total, codebook_size(spec) ** n) - 1


def perceived_curve(spec: CodebookSpec, n_values: Sequence[int]) -> np.ndarray:
    """Expected perceived codewords at every load of a grid (closed form).

    Evaluated in floats for the whole grid at once.  A load where the float
    rounding bound exceeds `CLOSED_FORM_RTOL` of the result -- few contenders
    over many sub-frames, where large terms cancel -- is evaluated exactly.
    """
    _check_expanded(spec)
    loads = np.asarray(n_values, dtype=np.int64)
    if (loads < 0).any():
        raise DomainError("user count cannot be negative")
    size = codebook_size(spec)
    terms = perceived_terms(spec.budgets)
    products = np.array(list(terms), dtype=np.float64)
    weights = np.array([c * p for p, c in terms.items()], dtype=np.float64)
    ratios = (products - 1.0) / size
    n = loads.astype(np.float64)[:, None]
    parts = weights * np.power(ratios, n)
    values = parts.sum(axis=1) - 1.0
    # Each part carries a few roundings, plus about N from raising an inexact
    # ratio to the N-th power; the ratio 1 of the leading term is exact.
    roundings = np.where(ratios < 1.0, n, 0.0) + len(terms)
    bound = np.finfo(np.float64).eps * (np.abs(parts) * roundings).sum(axis=1)
    for i in np.flatnonzero(bound > CLOSED_FORM_RTOL * np.abs(values)):
        values[i] = float(perceived_count_rational(spec, loads[i]))
    return values


def expanded_efficiency_curve(spec: CodebookSpec, n_values: Sequence[int]) -> np.ndarray:
    """Expected singles over expected perceived codewords at every load."""
    loads = np.asarray(n_values, dtype=np.int64)
    if (loads < 1).any():
        raise DomainError("efficiency is undefined without contenders")
    return expected_singles_curve(loads, codebook_size(spec)) / perceived_curve(spec, loads)


def perceived_count(spec: CodebookSpec, n_users: int) -> float:
    """Expected perceived codewords for ``n_users`` contenders (closed form)."""
    return float(perceived_curve(spec, [n_users])[0])


def expanded_efficiency(spec: CodebookSpec, n_users: int) -> float:
    """Expected singles over expected perceived codewords (closed form)."""
    return float(expanded_efficiency_curve(spec, [n_users])[0])


def _first_contender_count(config: Configuration, budgets: tuple[int, ...]) -> int:
    # One codeword yields C_j = 2 where it sent a preamble (m_j candidates)
    # and C_j = 1 where it idled; anything else is unreachable in one step.
    count = 1
    for c, m in zip(config, budgets):
        if c == 1:
            continue
        if c == 2:
            count *= m
        else:
            return 0
    return count


def _check_row_sums(counts: sparse.csr_matrix, denom: int) -> None:
    sums = np.asarray(counts.sum(axis=1)).ravel()
    if not (sums == denom).all():
        raise AssertionError("transition counts do not cover the codebook")

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
-- never on which codewords produced it.  The new contender picks its symbol
in each sub-frame independently, so the codewords driving the move from ``c``
to ``c'`` number::

    prod_j F_j[C_j - 1, C'_j - 1] - [c == c'],
    F_j[C - 1, C - 1] = C,  F_j[C - 1, C] = m_j + 1 - C,  0 otherwise,

where ``F_j`` is sub-frame ``j``'s bidiagonal table: one of the ``C`` symbols
already observed keeps the count, one of the ``m_j + 1 - C`` unobserved
preambles raises it.  The self-loop loses the all-idle word, which keeps every
coordinate yet is not in the codebook.  The whole count table is therefore
the Kronecker product of the ``F_j`` minus the identity.  Configuration ``C``
is numbered like the codeword ``C - 1`` (see `codebook.encode_codewords`): the
all-ones configuration is 0, the point before the first contender, and the
states are ``1..A``.  Dividing by the codebook size ``A`` gives a
row-stochastic transition matrix; the expected perceived count after ``N``
contenders is the cardinality vector averaged over the N-step state
distribution.

A step needs no matrix.  Reshaped to one axis per sub-frame, shape
``(m_1 + 1, ..., m_L + 1)``, a distribution over configurations ``0..A``
advances by applying each ``F_j`` along its own axis and subtracting itself
once for the all-idle word (`_step`).  In Python integers the step is exact,
so small instances are checked in rational arithmetic.  The count table
itself is built only when read, for `inspect-chain` and the chain goldens, as
the ``sparse.kron`` of the per-sub-frame factors.
The chain is an independent route to the closed form's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .codebook import CodebookSpec, Mode, codebook_size, decode_codewords
from .contention import _whole_loads, expected_singles_curve
from .errors import DomainError, StateSpaceTooLarge

#: Per-sub-frame observed-preamble counts, idle included (each entry >= 1).
Configuration = tuple[int, ...]

#: Largest chain `build_transition_model` accepts, in states.
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


def transition_count(frm: Configuration, to: Configuration, spec: CodebookSpec) -> int:
    """Number of codewords that move the observation from ``frm`` to ``to``.

    Returns 0 for impossible moves.  Dividing by the codebook size gives the
    transition probability.
    """
    _check_expanded(spec)
    _validate_configuration(frm, spec)
    _validate_configuration(to, spec)
    # per sub-frame: one of the C observed symbols keeps the count C, one of
    # the m + 1 - C unobserved preambles raises it by one
    count = math.prod(c if t == c else m + 1 - c if t == c + 1 else 0
                      for c, t, m in zip(frm, to, spec.budgets))
    return count - (tuple(frm) == tuple(to))


def _step(dist: np.ndarray, budgets: Sequence[int]) -> np.ndarray:
    """Unnormalised distribution over configurations after one more contender.

    ``dist`` has one axis per sub-frame, index ``C_j - 1`` on axis ``j``, so
    its C-order ravel index is the codeword id.  On axis ``j``, index ``k``
    becomes ``(k + 1) * d[k] + (m_j + 1 - k) * d[k - 1]``: one of the ``k + 1``
    observed symbols keeps the count, one of the ``m_j + 1 - k`` unobserved
    preambles raises it.  The all-idle word keeps every count, so ``dist`` is
    subtracted once.  Only integers multiply, so object arrays of Python ints
    stay exact; the result sums to ``A`` times ``dist``'s sum.
    """
    nxt = dist
    for axis, m in enumerate(budgets):
        d = nxt.reshape(math.prod(dist.shape[:axis]), m + 1, -1)
        k = np.arange(m + 1, dtype=dist.dtype)[:, None]
        nxt = (k + 1) * d
        nxt[:, 1:] += (m + 1 - k[1:]) * d[:, :-1]
    return nxt.reshape(dist.shape) - dist


@dataclass(frozen=True)
class TransitionModel:
    """Observation chain of an expanded codebook, over the states ``1..A``.

    Build it with `build_transition_model`.  The sweeps step the distribution
    with `_step`; the count table is built only when `counts` is read.
    """

    spec: CodebookSpec

    def __len__(self) -> int:
        return self.denominator

    @cached_property
    def denominator(self) -> int:
        """The codebook size ``A``, over which counts become probabilities."""
        return codebook_size(self.spec)

    @cached_property
    def states(self) -> tuple[Configuration, ...]:
        """Configurations in lexicographic order: state ``i`` is codeword ``i + 1``
        plus one in every sub-frame.

        The all-ones configuration is excluded: with at least one contender
        some sub-frame always shows a non-idle preamble.
        """
        configs = decode_codewords(self.spec, np.arange(1, len(self) + 1)) + 1
        return tuple(map(tuple, configs.tolist()))

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Codewords consistent with each state, ``prod(C_j) - 1``."""
        products = np.ones(1, dtype=np.int64)
        for m in self.spec.budgets:
            products = np.multiply.outer(products, np.arange(1, m + 2)).ravel()
        return products[1:] - 1

    @cached_property
    def counts(self):
        """Integer transition counts as a scipy CSR matrix.

        ``counts[i, j]`` is the number of codewords moving state ``i`` to
        state ``j``; every row sums to `denominator`.  The table over
        configurations ``0..A`` is the Kronecker product of each sub-frame's
        bidiagonal factor, the one `_step` applies, minus the identity.
        """
        from scipy import sparse  # only the chain dump and its checks read the table

        table = sparse.identity(1, dtype=np.int64)
        for m in self.spec.budgets:
            k = np.arange(m + 1, dtype=np.int64)
            table = sparse.kron(table, sparse.diags([k + 1, m - k[:-1]], [0, 1], dtype=np.int64))
        # the all-idle word is not in the codebook
        table = table.tocsr() - sparse.identity(table.shape[0], dtype=np.int64)
        _check_row_sums(table, self.denominator)
        counts = table[1:, 1:]
        counts.sort_indices()
        return counts

    @cached_property
    def initial_counts(self) -> np.ndarray:
        """Codewords moving the empty observation to each state: the first
        contender's step."""
        return _step(self._origin(np.int64), self.spec.budgets).ravel()[1:]

    @cached_property
    def matrix(self):
        """Row-stochastic transition matrix (float CSR)."""
        return self.counts.astype(np.float64) / self.denominator

    @cached_property
    def initial(self) -> np.ndarray:
        """State distribution after the first contender (float)."""
        return self.initial_counts / self.denominator

    def _origin(self, dtype) -> np.ndarray:
        """All mass on the all-ones configuration, one axis per sub-frame."""
        dist = np.zeros(tuple(m + 1 for m in self.spec.budgets), dtype=dtype)
        dist.flat[0] = 1
        return dist

    def perceived_count(self, n_users: int) -> float:
        """Expected number of codewords the base station perceives.

        Defined as 0 for an empty system; otherwise the cardinality vector
        averaged over the state distribution after ``n_users`` contenders,
        computed as a one-load `perceived_sweep`.
        """
        if n_users < 0:
            raise DomainError("user count cannot be negative")
        if n_users == 0:
            return 0.0
        return float(self.perceived_sweep([n_users])[0])

    def perceived_sweep(self, n_values: Sequence[int]) -> np.ndarray:
        """Perceived counts over an increasing grid of user counts.

        Shares one state-distribution iteration across the whole grid, so a
        sweep up to ``max(n_values)`` costs ``max(n_values)`` steps.
        """
        grid = _checked_grid(n_values)
        out: list[float] = []
        dist = self._origin(np.float64)
        for n in range(1, grid[-1] + 1):
            dist = _step(dist, self.spec.budgets) / self.denominator
            if n == grid[len(out)]:
                out.append(float(dist.ravel()[1:] @ self.cardinalities))
        return np.array(out)

    def perceived_count_exact(self, n_users: int) -> Fraction:
        """Exact rational perceived count, for golden-value comparisons.

        Practical only for small states and user counts.  The distribution
        after ``k`` contenders is carried as Python-int numerators over ``A**k``.
        """
        n = int(_whole_loads(n_users))
        if n < 0:
            raise DomainError("user count cannot be negative")
        dist = self._origin(object)
        for _ in range(n):
            dist = _step(dist, self.spec.budgets)
        return Fraction(int(dist.ravel()[1:] @ self.cardinalities), self.denominator**n)


def _checked_grid(n_values: Sequence[int]) -> list[int]:
    grid = _whole_loads(n_values).tolist()
    if not grid or any(n < 1 for n in grid):
        raise DomainError("grid must be non-empty with positive user counts")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    return grid


def build_transition_model(spec: CodebookSpec, cap: int = STATE_CAP) -> TransitionModel:
    """The observation chain of an expanded codebook, with its ``A`` states.

    Checks the codebook and the state count only; every table is built when
    first read.

    Raises
    ------
    DomainError
        For a reference codebook, whose observations are unambiguous.
    StateSpaceTooLarge
        When the ``A`` states exceed ``cap``; use `perceived_curve` or Monte
        Carlo instead.
    """
    _check_expanded(spec)
    size = codebook_size(spec)
    if size > cap:
        raise StateSpaceTooLarge(f"{size} states exceed the cap of {cap}")
    return TransitionModel(spec)


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
    n = int(_whole_loads(n_users))
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
    loads = _whole_loads(n_values)
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
    loads = _whole_loads(n_values)
    if (loads < 1).any():
        raise DomainError("efficiency is undefined without contenders")
    return expected_singles_curve(loads, codebook_size(spec)) / perceived_curve(spec, loads)


def perceived_count(spec: CodebookSpec, n_users: int) -> float:
    """Expected perceived codewords for ``n_users`` contenders (closed form)."""
    return float(perceived_curve(spec, [n_users])[0])


def expanded_efficiency(spec: CodebookSpec, n_users: int) -> float:
    """Expected singles over expected perceived codewords (closed form)."""
    return float(expanded_efficiency_curve(spec, [n_users])[0])


def _check_row_sums(counts, denom: int) -> None:
    sums = np.asarray(counts.sum(axis=1)).ravel()
    if not (sums == denom).all():
        raise AssertionError("transition counts do not cover the codebook")

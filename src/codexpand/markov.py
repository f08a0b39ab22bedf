"""The observation chain: expected perceived codewords, one contender at a time.

A configuration ``(C_1, ..., C_L)`` counts the preambles observed in each
sub-frame, idle included; its ``prod(C_j) - 1`` consistent codewords are the
ones the base station perceives (`codexpand.contention`, which holds the
perceived count's closed form).  Contenders pick codewords independently and
uniformly, so adding one more contender moves the configuration by keeping
each ``C_j`` or raising it by one, with a probability that depends only on
the current configuration -- never on which codewords produced it.  The new
contender picks its symbol in each sub-frame independently, so the codewords
driving the move from ``c`` to ``c'`` number::

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

from .codebook import (
    CodebookSpec, Mode, _checked_grid, _whole_loads, codebook_size, decode_codewords, whole_number)
from .errors import DomainError, StateSpaceTooLarge

#: Largest chain `build_transition_model` accepts, in states.
STATE_CAP = 10**7


def _check_expanded(spec: CodebookSpec) -> None:
    if spec.mode is not Mode.EXPANDED:
        raise DomainError("observation chains are built for expanded codebooks")


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
    def states(self) -> tuple[tuple[int, ...], ...]:
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
        n = int(_whole_loads(n_users))
        return float(self.perceived_sweep([n])[0]) if n else 0.0

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
        dist = self._origin(object)
        for _ in range(n):
            dist = _step(dist, self.spec.budgets)
        return Fraction(int(dist.ravel()[1:] @ self.cardinalities), self.denominator**n)


def build_transition_model(spec: CodebookSpec, cap: int = STATE_CAP) -> TransitionModel:
    """The observation chain of an expanded codebook, with its ``A`` states.

    Checks the codebook and the state count only; every table is built when
    first read.

    Raises
    ------
    DomainError
        For a reference codebook, whose observations are unambiguous.
    StateSpaceTooLarge
        When the ``A`` states exceed ``cap``; use `contention.perceived_curve`
        or Monte Carlo instead.
    """
    _check_expanded(spec)
    cap = whole_number(cap, "cap", 0)
    size = codebook_size(spec)
    if size > cap:
        raise StateSpaceTooLarge(f"{size} states exceed the cap of {cap}")
    return TransitionModel(spec)


def _check_row_sums(counts, denom: int) -> None:
    sums = np.asarray(counts.sum(axis=1)).ravel()
    if not (sums == denom).all():
        raise AssertionError("transition counts do not cover the codebook")

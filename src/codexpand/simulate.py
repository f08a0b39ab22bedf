"""Monte Carlo contention trials and an exact brute-force oracle.

Both exist to cross-check the closed forms and the observation chain by a
route that shares none of their machinery: trials draw codewords and count
what a base station would see; the oracle enumerates every equally likely
assignment of codeword ids to contenders and averages exactly.

Reproducibility contract: a batch's trials fall into blocks of
``max(1, BLOCK_CODEWORDS // N)`` trials, whose size depends only on the
contender count ``N``.  Block ``b`` draws all its codeword ids at once from
the counter-based Philox stream keyed by the master seed with ``b`` in the
highest counter word, so streams never overlap and no block depends on how
many others ran before it.  A batch is summarised by an exact integer
histogram of per-trial (singles, distinct, perceived) counts, which merges by
addition, so a batch result is byte-identical no matter how blocks are
scheduled across workers.

Kernel: `observe_codes` sorts each block's ids once for singles and distinct.
For expanded codebooks it takes each sub-frame's symbols from the ids'
mixed-radix digits; a sub-frame of fewer than 64 preambles ORs one bit per
symbol into a word per trial and popcounts it, a wider one counts the runs of
its sorted symbols.  Means and variances are exact rationals from integer
power sums over the histogram; floats are taken only at the end.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .codebook import CodebookSpec, Mode, codebook_size, codeword_id_stop, encode_codewords
from .contention import _whole_loads
from .errors import DomainError, EnumerationTooLarge

#: Largest number of ordered codeword assignments `brute_force_expected` will visit.
BRUTE_FORCE_CAP = 10**7

#: Codewords per block of Monte Carlo trials (and per chunk of the oracle);
#: fixes the block layout, and with it the random streams, of every batch.
BLOCK_CODEWORDS = 2**14


def _whole(value, name: str) -> int:
    """``value`` as a Python int; a fraction or a bool raises `DomainError`
    instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        try:
            _whole_loads(value)
        except DomainError:
            raise DomainError(f"{name} must be a whole number, got {value!r}") from None
    return int(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo scenario: a codebook under a fixed contender count."""

    spec: CodebookSpec
    n_users: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        for name in ("n_users", "trials", "master_seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.n_users < 1:
            raise DomainError("a scenario needs at least one contender")
        if self.trials < 1:
            raise DomainError("a scenario needs at least one trial")
        if not 0 <= self.master_seed < 2**64:
            raise DomainError("master seed must fit in 64 bits")


@dataclass(frozen=True)
class TrialOutcome:
    """What the base station sees after one contention round.

    ``perceived`` counts every codeword consistent with the observation; the
    excess over ``distinct_used`` is the phantom count.  Reference codewords
    are unambiguous, so there ``perceived == distinct_used``.
    """

    singles: int
    collided_codewords: int
    distinct_used: int
    perceived: int
    phantoms: int


class Estimate(NamedTuple):
    """A sample mean with its standard error (``None`` below two trials)."""

    mean: float
    se: float | None


@dataclass(frozen=True)
class AggregateStats:
    """Batch statistics over independent trials.

    ``efficiency`` is the ratio of means mean(singles)/mean(perceived) with a
    delta-method standard error, matching the analytic ratio of expectations.
    """

    scenario: ScenarioConfig
    trials: int
    singles: Estimate
    collided_codewords: Estimate
    distinct_used: Estimate
    perceived: Estimate
    phantoms: Estimate
    efficiency: Estimate


def observe_codes(
    spec: CodebookSpec, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singles, distinct and perceived counts of each row of codeword ids.

    ``codes`` is a ``(B, N)`` integer array of ids in ``1..A`` (see
    `codebook.encode_codewords`), one row per contention round.  Each row is
    sorted once: runs of equal ids are the used codewords, and runs of length
    one are the singles.  Reference observations are unambiguous, so there
    perceived is distinct.  In an expanded row, sub-frame ``j`` lights the
    ``lit_j`` distinct preambles of its ids' symbols (see `_perceived`), and
    every codeword built from lit preambles or idle symbols is perceived:
    ``perceived = prod_j (lit_j + 1) - 1``.

    Raises
    ------
    DomainError
        If an id lies outside ``1..A``.
    """
    codes = np.sort(codes, axis=1)
    stop = codeword_id_stop(spec)
    if codes.size and (codes[:, 0].min() < 1 or codes[:, -1].max() >= stop):
        raise DomainError(f"codeword ids of {spec.describe()} must lie in 1..{stop - 1}")
    # edges[:, i] marks a boundary before sorted position i (and after the last)
    edges = np.ones((codes.shape[0], codes.shape[1] + 1), dtype=bool)
    edges[:, 1:-1] = codes[:, 1:] != codes[:, :-1]
    singles = np.count_nonzero(edges[:, :-1] & edges[:, 1:], axis=1)
    distinct = np.count_nonzero(edges[:, :-1], axis=1)
    if spec.mode is Mode.REFERENCE:
        return singles, distinct, distinct
    return singles, distinct, _perceived(spec.budgets, codes)


def _perceived(budgets: tuple[int, ...], codes: np.ndarray) -> np.ndarray:
    """``prod_j (lit_j + 1) - 1`` of each row of expanded codeword ids.

    Symbol ``s_j`` is digit ``j`` of an id in mixed radix ``m_j + 1``, as in
    `codebook.decode_codewords`; ``lit_j`` is the number of distinct non-idle
    symbols in a row.
    """
    perceived = np.ones(len(codes), dtype=np.int64)
    ids = codes.astype(np.uint64)
    for m in reversed(budgets):
        quotient = ids // (m + 1)  # twice as fast as np.divmod here
        perceived *= _lit(m, ids - quotient * (m + 1)) + 1
        ids = quotient
    return perceived - 1


def _lit(m: int, symbols: np.ndarray) -> np.ndarray:
    """Distinct non-idle symbols in each row of one sub-frame's ``(B, N)``
    symbols ``0..m``."""
    if m < 64:
        # symbol s sets bit s of the row's word; bit 0, the idle symbol, is shifted out
        seen = np.bitwise_or.reduce(np.left_shift(np.uint64(1), symbols), axis=1)
        return np.bitwise_count(seen >> np.uint64(1))
    # too wide for a word: count the runs of non-idle symbols in the sorted row
    symbols = np.sort(symbols, axis=1)
    fresh = symbols != 0
    fresh[:, 1:] &= symbols[:, 1:] != symbols[:, :-1]
    return np.count_nonzero(fresh, axis=1)


def _outcome_fields(singles, distinct, perceived) -> tuple:
    """The `TrialOutcome` fields, in order, from the kernel's three counts."""
    return singles, distinct - singles, distinct, perceived, perceived - distinct


def observe(spec: CodebookSpec, codewords: Iterable[Sequence[int]]) -> TrialOutcome:
    """Reduce the transmitted codewords to what the base station perceives."""
    counts = observe_codes(spec, encode_codewords(spec, codewords)[None, :])
    return TrialOutcome(*_outcome_fields(*(int(x[0]) for x in counts)))


def block_rng(master_seed: int, block_index: int) -> np.random.Generator:
    """Independent stream for one block of trials, derived in counter mode.

    The block index occupies the highest counter word, giving each block a
    disjoint 2**192-long stretch of the keyed Philox sequence.
    """
    bits = np.random.Philox(key=master_seed, counter=[0, 0, 0, block_index])
    return np.random.Generator(bits)


#: Histogram of per-trial ``(singles, distinct, perceived)`` counts.
Histogram = Counter[tuple[int, int, int]]


def _block_rows(n_users: int) -> int:
    return max(1, BLOCK_CODEWORDS // n_users)


def _histogram(config: ScenarioConfig, first: int, stop: int) -> Histogram:
    """Histogram of the trials in blocks ``first..stop-1``."""
    rows = _block_rows(config.n_users)
    id_stop = codeword_id_stop(config.spec)
    hist: Histogram = Counter()
    for b in range(first, stop):
        shape = (min(rows, config.trials - b * rows), config.n_users)
        codes = block_rng(config.master_seed, b).integers(1, id_stop, size=shape)
        hist.update(zip(*(x.tolist() for x in observe_codes(config.spec, codes))))
    return hist


def _estimate(s1: int | Fraction, s2: int | Fraction, n: int) -> Estimate:
    """Mean and standard error of a per-trial quantity ``v`` over ``n`` trials,
    from its exact power sums ``s1 = sum v`` and ``s2 = sum v**2``."""
    mean = Fraction(s1, n)
    if n < 2:
        return Estimate(float(mean), None)
    # sum (v - mean)**2 == s2 - 2*mean*s1 + n*mean**2 == s2 - s1*mean
    return Estimate(float(mean), sqrt((s2 - s1 * mean) / (n - 1) / n))


def _power_sums(counts: list[int], values: list[int]) -> tuple[int, int]:
    """``sum c*v`` and ``sum c*v*v`` over histogram counts ``c``, in Python ints."""
    weighted = list(map(operator.mul, counts, values))
    return sum(weighted), sum(map(operator.mul, weighted, values))


def _summarise(hist: Histogram, n: int) -> list[Estimate]:
    """Estimates of ``n`` trials, in `AggregateStats` order: the five
    `TrialOutcome` fields and the ratio of means."""
    counts = list(hist.values())
    keys = np.array(list(hist), dtype=np.int64).reshape(-1, 3)
    sums = [_power_sums(counts, v.tolist()) for v in _outcome_fields(*keys.T)]
    singles, _, perceived = keys.T.tolist()
    (s_x, s_xx), (s_y, s_yy) = sums[0], sums[3]
    s_xy = sum(map(operator.mul, map(operator.mul, counts, singles), perceived))
    # Delta method around (mean singles, mean perceived): the standard error
    # of the mean of x - r*y, which is 0 at the ratio r, over mean perceived.
    r = Fraction(s_x, s_y)
    residual = _estimate(0, s_xx - 2 * r * s_xy + r * r * s_yy, n)
    ratio = Estimate(s_x / s_y, None if residual.se is None else residual.se * n / s_y)
    return [*(_estimate(s1, s2, n) for s1, s2 in sums), ratio]


def run_batch(config: ScenarioConfig, workers: int = 1) -> AggregateStats:
    """Run the scenario's trials and aggregate them exactly.

    ``workers`` > 1 spreads whole blocks over processes when there are at
    least two blocks per worker; results are byte-identical for any worker
    count because the histogram is an exact sum.
    """
    if workers < 1:
        raise DomainError("need at least one worker")
    trials = config.trials
    blocks = -(-trials // _block_rows(config.n_users))
    if workers == 1 or blocks < 2 * workers:
        hist = _histogram(config, 0, blocks)
    else:
        bounds = np.linspace(0, blocks, workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_histogram, itertools.repeat(config), bounds[:-1], bounds[1:])
            hist = sum(parts, Counter())
    return AggregateStats(config, trials, *_summarise(hist, trials))


@dataclass(frozen=True)
class ExpectedOutcome:
    """Exact expectations of the trial fields, as rationals."""

    singles: Fraction
    collided_codewords: Fraction
    distinct_used: Fraction
    perceived: Fraction
    phantoms: Fraction

    def efficiency(self) -> Fraction:
        """Ratio of expectations E[singles] / E[perceived]."""
        return self.singles / self.perceived


def brute_force_expected(
    spec: CodebookSpec, n_users: int, cap: int = BRUTE_FORCE_CAP
) -> ExpectedOutcome:
    """Average the observation over every ordered assignment of codeword ids.

    All ``A**n_users`` assignments are equally likely because contenders pick
    independently and uniformly, so the unweighted average is the exact
    expectation.

    Raises
    ------
    EnumerationTooLarge
        When ``A**n_users`` exceeds ``cap``.
    """
    n_users = _whole(n_users, "user count")
    if n_users < 0:
        raise DomainError("user count cannot be negative")
    size = codebook_size(spec)
    total = size**n_users
    if total > cap:
        raise EnumerationTooLarge(f"{size}**{n_users} assignments exceed the cap of {cap}")
    # Assignment r gives contender k the id 1 + digit k of r in base A.
    places = size ** np.arange(n_users, dtype=np.int64)
    rows = _block_rows(max(n_users, 1))
    sums = [0, 0, 0]
    for lo in range(0, total, rows):
        index = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        counts = observe_codes(spec, index[:, None] // places % size + 1)
        sums = [t + int(x.sum()) for t, x in zip(sums, counts)]
    return ExpectedOutcome(*(Fraction(v, total) for v in _outcome_fields(*sums)))

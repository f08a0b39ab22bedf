"""Monte Carlo contention trials and an exact brute-force oracle.

Both exist to cross-check the closed forms and the observation chain by a
route that shares none of their machinery: trials draw codewords and count
what a base station would see; the oracle enumerates every equally likely
codeword assignment and averages exactly.

Reproducibility contract: a batch's trials fall into blocks of
``max(1, BLOCK_CODEWORDS // N)`` trials, whose size depends only on the
contender count ``N``.  Block ``b`` draws all its codeword ids at once from
the counter-based Philox stream keyed by the master seed with ``b`` in the
highest counter word, so streams never overlap and no block depends on how
many others ran before it.  A batch is summarised by an exact integer
histogram of per-trial (singles, distinct, perceived) counts, which merges by
addition, so a batch result is byte-identical no matter how blocks are
scheduled across workers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .codebook import (
    CodebookSpec,
    Mode,
    codeword_id_stop,
    decode_codewords,
    encode_codewords,
    enumerate_codewords,
    sample_codewords,
)
from .errors import DomainError, EnumerationTooLarge

#: Largest number of ordered codeword assignments `brute_force_expected` will visit.
BRUTE_FORCE_CAP = 10**7

#: Codewords per block of Monte Carlo trials (and per chunk of the oracle);
#: fixes the block layout, and with it the random streams, of every batch.
BLOCK_CODEWORDS = 2**14


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo scenario: a codebook under a fixed contender count."""

    spec: CodebookSpec
    n_users: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
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
    ``efficiency_per_trial`` averages the per-trial ratio instead; it is
    reported alongside because either reading of "simulated efficiency" is
    defensible.
    """

    scenario: ScenarioConfig
    trials: int
    singles: Estimate
    collided_codewords: Estimate
    distinct_used: Estimate
    perceived: Estimate
    phantoms: Estimate
    efficiency: Estimate
    efficiency_per_trial: Estimate


def observe_codes(
    spec: CodebookSpec, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singles, distinct and perceived counts of each row of codeword ids.

    ``codes`` is a ``(B, N)`` integer array of ids in ``1..A`` (see
    `codebook.encode_codewords`), one row per contention round.  Each row is
    sorted once: runs of equal ids are the used codewords, and runs of length
    one are the singles.  Expanded observations light the distinct non-idle
    symbols of every sub-frame, so ``perceived = prod_j (lit_j + 1) - 1``;
    reference observations are unambiguous, so there perceived is distinct.
    """
    codes = np.sort(codes, axis=1)
    starts = np.ones(codes.shape, dtype=bool)
    starts[:, 1:] = codes[:, 1:] != codes[:, :-1]
    ends = np.ones(codes.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    singles = (starts & ends).sum(axis=1)
    distinct = starts.sum(axis=1)
    if spec.mode is Mode.REFERENCE:
        return singles, distinct, distinct
    symbols = np.sort(decode_codewords(spec, codes), axis=1)
    fresh = symbols != 0
    fresh[:, 1:] &= symbols[:, 1:] != symbols[:, :-1]
    perceived = np.prod(fresh.sum(axis=1) + 1, axis=1) - 1
    return singles, distinct, perceived


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


def run_trial(spec: CodebookSpec, n_users: int, rng: np.random.Generator) -> TrialOutcome:
    """One contention round: sample codewords uniformly, observe the result."""
    return observe(spec, sample_codewords(spec, n_users, rng))


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


def _mean_se(hist: Histogram, n: int, value: Callable[[int, int, int], int | Fraction]) -> Estimate:
    """Mean and standard error of a per-trial quantity, summed exactly."""
    mean = Fraction(sum(c * value(*k) for k, c in hist.items()), n)
    if n < 2:
        return Estimate(float(mean), None)
    spread = sum(c * (value(*k) - mean) ** 2 for k, c in hist.items())
    return Estimate(float(mean), sqrt(spread / (n - 1) / n))


def _ratio_of_means(hist: Histogram, n: int) -> Estimate:
    s_x = sum(c * s for (s, _, _), c in hist.items())
    s_y = sum(c * p for (_, _, p), c in hist.items())
    # Delta method around (mean singles, mean perceived): the standard error
    # of the mean of x - r*y, which is 0 at the ratio r, over mean perceived.
    ratio = Fraction(s_x, s_y)
    residual = _mean_se(hist, n, lambda s, d, p: s - ratio * p)
    return Estimate(s_x / s_y, None if residual.se is None else residual.se * n / s_y)


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
    fields = [_mean_se(hist, trials, lambda *k, i=i: _outcome_fields(*k)[i]) for i in range(5)]
    return AggregateStats(
        config, trials, *fields,
        efficiency=_ratio_of_means(hist, trials),
        efficiency_per_trial=_mean_se(hist, trials, lambda s, d, p: Fraction(s, p)),
    )


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
    """Average the observation over every ordered codeword assignment.

    All ``A**n_users`` assignments are equally likely because contenders pick
    independently and uniformly, so the unweighted average is the exact
    expectation.

    Raises
    ------
    EnumerationTooLarge
        When ``A**n_users`` exceeds ``cap``.
    """
    if n_users < 0:
        raise DomainError("user count cannot be negative")
    ids = encode_codewords(spec, enumerate_codewords(spec))
    size = len(ids)
    total = size**n_users
    if total > cap:
        raise EnumerationTooLarge(f"{size}**{n_users} assignments exceed the cap of {cap}")
    # Assignment r gives contender k the codeword with index digit k of r in base A.
    places = size ** np.arange(n_users, dtype=np.int64)
    rows = _block_rows(max(n_users, 1))
    sums = [0, 0, 0]
    for lo in range(0, total, rows):
        index = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        counts = observe_codes(spec, ids[index[:, None] // places % size])
        sums = [t + int(x.sum()) for t, x in zip(sums, counts)]
    return ExpectedOutcome(*(Fraction(v, total) for v in _outcome_fields(*sums)))

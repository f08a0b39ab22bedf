"""Monte Carlo contention trials and an exact brute-force oracle.

Both exist to cross-check the closed forms and the observation chain by a
route that shares none of their machinery: trials draw codewords and count
what a base station would see; the oracle averages exactly over every
equally likely assignment of codeword ids to contenders.  What is seen
depends only on the multiset of ids picked, so the oracle observes each
multiset once, as a sorted row, weighted by its number of orderings.

Reproducibility contract: a batch's trials fall into blocks of
``max(1, BLOCK_CODEWORDS // N)`` trials, whose size depends only on the
contender count ``N``.  Block ``b`` draws all its codeword ids at once from
the counter-based Philox stream keyed by the master seed with ``b`` in the
highest counter word, so streams never overlap and no block depends on how
many others ran before it.  One generator serves all the blocks a call
runs: `_seek` sets its counter to each block's start, the one definition of
the stream that `block_rng` also goes through.  A batch is summarised by an
exact integer histogram of per-trial (singles, distinct, perceived) counts,
which merges by addition, so a batch result is byte-identical no matter how
blocks are scheduled across workers.

Kernel: `observe_codes` checks a block's ids against ``1..A``, casts them once
to the narrowest unsigned type of at least 16 bits that holds ``A + 1`` (16
bits for every codebook of the paper), and sorts each row once; the oracle's
int64 rows come sorted and skip both.  `_observe_sorted` counts singles and
distinct from the run edges of the raveled block, summed per row with
``np.add.reduceat``; the oracle's weights come from the same edges.  For
expanded codebooks, consecutive sub-frames of fewer than 64 preambles form
digit groups of at most 2**16 values and 64 bits (`_digit_groups`, cached per
budget tuple): each group's digit indexes a table of lit words, one bit per
preamble its symbols light, ORed per row and popcounted per sub-frame field;
for (3, 3, 3, 3) the digit is the id itself.  A sub-frame of 64 or more
preambles counts the runs of its sorted symbols instead.  Every count is at
most ``A``, so the counts stay in the id type too.  Means and variances are
exact rationals from integer power sums over the histogram; floats are taken
only at the end.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .codebook import (
    CodebookSpec, Mode, codebook_size, codeword_id_stop, encode_codewords, whole_number)
from .errors import DomainError, EnumerationTooLarge

#: Largest number ``A**N`` of ordered codeword assignments that
#: `brute_force_expected` will average over; it observes only the
#: ``C(A+N-1, N)`` multisets among them, each weighted by its orderings.
BRUTE_FORCE_CAP = 10**7

#: Codewords per block of Monte Carlo trials (and at most per block of the
#: oracle); fixes the block layout, and with it the random streams, of every
#: batch.
BLOCK_CODEWORDS = 2**14


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo scenario: a codebook under a fixed contender count."""

    spec: CodebookSpec
    n_users: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        for name, least in (("n_users", 1), ("trials", 1), ("master_seed", 0)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, least))
        if self.master_seed >= 2**64:
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
    one are the singles.  Both are counted on the raveled block, where a run
    also starts at each row start, and summed per row by one
    ``np.add.reduceat`` at the row starts.  Reference observations are
    unambiguous, so there perceived is distinct.  In an expanded row,
    sub-frame ``j`` lights the ``lit_j`` distinct preambles of its ids'
    symbols (see `_perceived`), and every codeword built from lit preambles
    or idle symbols is perceived: ``perceived = prod_j (lit_j + 1) - 1``.

    The ids are checked, then cast once to the narrowest unsigned type of at
    least 16 bits that holds ``A + 1``; the sort, the neighbour compares and
    the digit split run in that type.  The three counts, each at most ``A``,
    are returned in it, whatever the type of ``codes``, which is left as it
    is.

    Raises
    ------
    DomainError
        If an id lies outside ``1..A``.
    """
    codes = np.asarray(codes)
    # check before narrowing, so that no out-of-range id wraps into range
    stop = _id_stop(spec, codes)
    # narrowest to hold A + 1, the largest digit radix; 16 bits at least: 8-bit rows sort slower
    codes = codes.astype(np.promote_types(np.uint16, np.min_scalar_type(stop)))
    if codes.size == 0:  # no rows, or rows of no contender
        return (np.zeros(len(codes), dtype=codes.dtype),) * 3
    codes.sort(axis=1)
    return _observe_sorted(spec, codes)[1:]


def _id_stop(spec: CodebookSpec, codes: np.ndarray) -> int:
    """``A + 1``, once every id in ``codes`` is checked to lie in ``1..A``."""
    stop = codeword_id_stop(spec)
    if codes.size and (codes.min() < 1 or codes.max() >= stop):
        raise DomainError(f"codeword ids of {spec.describe()} must lie in 1..{stop - 1}")
    return stop


def _observe_sorted(spec: CodebookSpec, codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The `_run_edges` of sorted rows of ``N >= 1`` ids, then `observe_codes`'s counts."""
    starts = np.arange(0, codes.size, codes.shape[1])
    # perceived first, so that its lit words never share the peak with the edges
    perceived = None if spec.mode is Mode.REFERENCE else _perceived(spec.budgets, codes, starts)
    edges = _run_edges(codes.ravel(), starts)
    singles = np.add.reduceat(edges[:-1] & edges[1:], starts, dtype=codes.dtype)
    distinct = np.add.reduceat(edges[:-1], starts, dtype=codes.dtype)
    return edges, singles, distinct, distinct if perceived is None else perceived


def _run_edges(flat: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Where runs of equal values begin in raveled sorted rows that begin at
    ``starts``: ``edges[i]`` marks a boundary before position ``i``, at a
    change of value or a row start, and ``edges[-1]`` the end of the last."""
    edges = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edges[1:-1])
    edges[starts] = True
    edges[-1] = True
    return edges


#: Largest product of radices ``m_j + 1`` read as one digit, i.e. entries of a
#: lit-word table.
LIT_TABLE_ENTRIES = 2**16

#: Bits of a lit word: one per preamble of the sub-frames it covers.
LIT_WORD_BITS = 64


class _DigitGroup(NamedTuple):
    """Consecutive sub-frames whose symbols are read together, as one digit
    of the ids in radix ``radix``, the product of theirs.

    For sub-frames of fewer than 64 preambles, ``table[d]`` is the lit word
    of group digit ``d``: one bit per preamble that its symbols light, each
    sub-frame in its own field of bits ``masks``.  A sub-frame of 64 or more
    preambles stands alone, with no table.
    """

    radix: int
    table: np.ndarray | None
    masks: tuple[np.unsignedinteger, ...]


@functools.lru_cache(maxsize=32)
def _digit_groups(budgets: tuple[int, ...]) -> tuple[_DigitGroup, ...]:
    """The digit groups of an expanded codebook, least significant first.

    Consecutive sub-frames of fewer than 64 preambles share a group while
    its table stays within `LIT_TABLE_ENTRIES` entries and its word within
    `LIT_WORD_BITS` bits.  Sub-frames of no preamble have radix 1 and light
    nothing, so they are left out.
    """
    groups: list[_DigitGroup] = []
    narrow: list[int] = []  # the open group's budgets, least significant first
    for m in reversed(budgets):
        if narrow and (m >= LIT_WORD_BITS or sum(narrow) + m > LIT_WORD_BITS
                       or math.prod(k + 1 for k in narrow) * (m + 1) > LIT_TABLE_ENTRIES):
            groups.append(_lit_table(narrow))
            narrow = []
        if m >= LIT_WORD_BITS:
            groups.append(_DigitGroup(m + 1, None, ()))
        elif m:
            narrow.append(m)
    if narrow:
        groups.append(_lit_table(narrow))
    return tuple(groups)


def _lit_table(budgets: list[int]) -> _DigitGroup:
    """The group of sub-frames with ``budgets`` (least significant first,
    each under 64 preambles) and the lit word of each of its digits, in the
    narrowest unsigned type that holds their bits."""
    radix = math.prod(m + 1 for m in budgets)
    digits = np.arange(radix)
    words = np.zeros(radix, dtype=np.uint64)
    masks = []
    offset = 0
    for m in budgets:
        digits, symbols = np.divmod(digits, m + 1)
        # symbol s > 0 lights preamble s, bit offset + s - 1; the idle symbol 0 lights none
        shifts = np.maximum(offset + symbols - 1, 0).astype(np.uint64)
        words |= np.where(symbols > 0, np.uint64(1) << shifts, np.uint64(0))
        masks.append(((1 << m) - 1) << offset)
        offset += m
    table = words.astype(np.min_scalar_type((1 << offset) - 1))
    table.flags.writeable = False
    return _DigitGroup(radix, table, tuple(table.dtype.type(mask) for mask in masks))


def _perceived(budgets: tuple[int, ...], codes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``prod_j (lit_j + 1) - 1`` of each row of expanded codeword ids, in
    their type, with the rows sorted and beginning at ``starts`` when raveled.

    Symbol ``s_j`` is digit ``j`` of an id in mixed radix ``m_j + 1``, as in
    `codebook.decode_codewords`; ``lit_j`` is the number of distinct non-idle
    symbols in a row.  Each group of `_digit_groups` is one digit of the ids:
    its lit words are looked up, ORed per row, and each sub-frame's field
    popcounted; a sub-frame of 64 or more preambles counts the runs of its
    sorted symbols instead.
    """
    # every partial product is at most prod_j (m_j + 1) = A + 1: it fits the ids' type
    perceived = np.ones(len(codes), dtype=codes.dtype)
    groups = _digit_groups(budgets)
    for i, group in enumerate(groups):
        digits = codes
        if i + 1 < len(groups):  # the most significant group's digit is what is left
            codes = digits // group.radix  # twice as fast as np.divmod here
            digits = digits - codes * group.radix
        if group.table is None:
            symbols = np.sort(digits, axis=1).ravel()
            fresh = _run_edges(symbols, starts)[:-1] & (symbols != 0)
            perceived *= np.add.reduceat(fresh, starts, dtype=perceived.dtype) + 1
        else:
            seen = np.bitwise_or.reduceat(np.take(group.table, digits).ravel(), starts)
            for mask in group.masks:
                perceived *= np.bitwise_count(seen & mask) + 1
    return perceived - 1


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
    master_seed = whole_number(master_seed, "master seed", 0)
    block_index = whole_number(block_index, "block index", 0)
    # the new Philox's own seed is overwritten at once
    return _seek(np.random.Generator(np.random.Philox()), master_seed, block_index)


def _seek(rng: np.random.Generator, master_seed: int, block_index: int) -> np.random.Generator:
    """Set ``rng``'s Philox to the start of block ``block_index``'s stream:
    the state of ``Philox(key=master_seed, counter=[0, 0, 0, block_index])``,
    with nothing buffered, set without building a generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, 0, 0, block_index], dtype=np.uint64),
            # an integer key fills the two 64-bit key words low word first
            "key": np.array([master_seed & (2**64 - 1), master_seed >> 64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


#: Histogram of per-trial ``(singles, distinct, perceived)`` counts.
Histogram = Counter[tuple[int, int, int]]


def _block_rows(n_users: int) -> int:
    return max(1, BLOCK_CODEWORDS // n_users)


def block_count(config: ScenarioConfig) -> int:
    """Number of blocks the scenario's trials fall into."""
    return -(-config.trials // _block_rows(config.n_users))


def _histogram(config: ScenarioConfig, first: int, stop: int) -> Histogram:
    """Histogram of the trials in blocks ``first..stop-1``.

    The blocks' counts are gathered into one array of three rows and a
    column per trial, whose columns are sorted by one `np.lexsort`; each run
    of equal columns is one histogram entry, counted from the run starts.
    """
    rows = _block_rows(config.n_users)
    id_stop = codeword_id_stop(config.spec)
    rng = block_rng(config.master_seed, first)
    blocks = []
    for b in range(first, stop):
        shape = (min(rows, config.trials - b * rows), config.n_users)
        codes = _seek(rng, config.master_seed, b).integers(1, id_stop, size=shape)
        blocks.append(observe_codes(config.spec, codes))
    keys = np.concatenate([np.stack(counts) for counts in blocks], axis=1)
    keys = keys.take(np.lexsort(keys), axis=1)
    first_of_run = np.ones(keys.shape[1], dtype=bool)
    first_of_run[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first_of_run)
    sizes = np.diff(starts, append=keys.shape[1])
    return Counter(dict(zip(map(tuple, keys[:, starts].T.tolist()), sizes.tolist())))


def _estimate(s1: int | Fraction, s2: int | Fraction, n: int) -> Estimate:
    """Mean and standard error of a per-trial quantity ``v`` over ``n`` trials,
    from its exact power sums ``s1 = sum v`` and ``s2 = sum v**2``."""
    mean = Fraction(s1, n)
    if n < 2:
        return Estimate(float(mean), None)
    # sum (v - mean)**2 == s2 - 2*mean*s1 + n*mean**2 == s2 - s1*mean
    return Estimate(float(mean), math.sqrt((s2 - s1 * mean) / (n - 1) / n))


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


def run_batch(config: ScenarioConfig, workers: int = 1, pool=None) -> AggregateStats:
    """Run the scenario's trials and aggregate them exactly.

    ``workers`` > 1 spreads whole blocks over processes when there are at
    least two blocks per worker: over ``pool``, an executor of ``workers``
    processes, or else over a pool opened for this batch.  Results are
    byte-identical for any worker count because the histogram is an exact sum.
    """
    workers = whole_number(workers, "workers", 1)
    trials = config.trials
    blocks = block_count(config)
    if workers == 1 or blocks < 2 * workers:
        hist = _histogram(config, 0, blocks)
    elif pool is None:
        from concurrent.futures import ProcessPoolExecutor  # costs ~15 ms to import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return run_batch(config, workers, pool)
    else:
        bounds = np.linspace(0, blocks, workers + 1, dtype=int).tolist()
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


def _exceeds(base: int, exponent: int, cap: int) -> bool:
    """Whether ``base**exponent > cap`` for ``base >= 1`` and ``cap >= 0``:
    from ``cap``'s bit length on, every power of a base of at least 2 exceeds
    it, so no larger power is formed."""
    return base ** min(exponent, cap.bit_length()) > cap


def brute_force_expected(spec: CodebookSpec, n_users: int) -> ExpectedOutcome:
    """Average the observation over every assignment of codeword ids.

    All ``A**n_users`` ordered assignments are equally likely, as contenders
    pick independently and uniformly.  The observation depends only on the
    multiset of picked ids, so each multiset is observed once, as a sorted
    row from `_multisets` that skips the kernel's cast and sort, weighted by
    its orderings from the kernel's run edges (`_weights`): the weighted sums
    are exact integers, their averages over ``A**n_users`` the expectations.

    Raises
    ------
    EnumerationTooLarge
        When ``A**n_users`` exceeds `BRUTE_FORCE_CAP`, or when its weighted
        sums could overflow 64-bit integers.
    """
    n_users = whole_number(n_users, "user count", 0)
    size = codebook_size(spec)
    # weighted sums stay in int64: the weights add up to A**N and each count,
    # in the rows' int64, is at most A, so A**(N+1) fitting int64 bounds them
    limit = min(BRUTE_FORCE_CAP, np.iinfo(np.int64).max // size)
    if _exceeds(size, n_users, limit):
        raise EnumerationTooLarge(f"{size}**{n_users} assignments exceed the cap of {limit}")
    if n_users == 0:
        return ExpectedOutcome(*[Fraction(0)] * 5)
    # the limit keeps N <= 61 from A = 2 on; a size-1 codebook's one row weighs 1
    upto = range(n_users + 1)
    binomials = np.array([[math.comb(i, k) for k in upto] for i in upto]) if size > 1 else None
    sums = [0, 0, 0]
    for codes in _multisets(size, n_users):
        _id_stop(spec, codes)
        edges, *counts = _observe_sorted(spec, codes)
        weights = np.ones(1, dtype=np.int64) if binomials is None else _weights(edges, binomials)
        sums = [t + int(weights @ x) for t, x in zip(sums, counts)]
    return ExpectedOutcome(*(Fraction(v, size**n_users) for v in _outcome_fields(*sums)))


def _weights(edges: np.ndarray, binomials: np.ndarray) -> np.ndarray:
    """Orderings ``N!/prod_j c_j!`` of sorted rows of ``N`` ids, from their run
    edges and ``binomials[i, k] = C(i, k)``: the product over a row's runs of
    C(run end in row, run length).  Each partial product is the orderings of
    a row prefix, so none exceeds the row's."""
    n = len(binomials) - 1
    bounds = np.flatnonzero(edges)  # each run's start, then the end of the last
    lengths = np.diff(bounds)
    place = bounds[:-1] % n  # where each run starts in its row
    terms = binomials.take((place + lengths) * (n + 1) + lengths)  # faster than 2-d indexing
    return np.multiply.reduceat(terms, np.flatnonzero(place == 0))


def _multisets(size: int, n: int, prefix: tuple[int, ...] = ()) -> Iterator[np.ndarray]:
    """Every non-decreasing row of ``n`` ids in ``1..size`` that starts with
    ``prefix``, in lexicographic order, in blocks of at most `_block_rows` rows.

    A block holds the rows of a range of next ids.  Its bounds come from the
    count ``C(size - v + k, k)`` of rows whose ``k`` free ids are all at
    least ``v``; a next id whose rows alone overflow a block becomes part of
    the prefix instead.
    """
    free = n - len(prefix)
    rows = _block_rows(n)

    def at_least(v: int) -> int:
        return math.comb(size - v + free, free)

    v = prefix[-1] if prefix else 1
    while v <= size:
        above = at_least(v)
        # each next id starts a row, so a block spans at most `rows` of them
        stops = range(v, min(v + rows, size + 1) + 1)
        stop = v - 1 + bisect.bisect_right(stops, rows, key=lambda w: above - at_least(w))
        if stop == v:
            yield from _multisets(size, n, prefix + (v,))
            stop += 1
        else:
            head = np.broadcast_to(np.array(prefix, dtype=np.int64), (stop - v, len(prefix)))
            yield _extend(np.hstack((head, np.arange(v, stop, dtype=np.int64)[:, None])), size, n)
        v = stop


def _extend(codes: np.ndarray, size: int, n: int) -> np.ndarray:
    """Every non-decreasing extension to ``n`` ids in ``1..size`` of each
    sorted row of ``codes``, in lexicographic order."""
    while codes.shape[1] < n:
        last = codes[:, -1]
        if last.min() == size:  # only ``size`` can follow any row
            return np.pad(codes, ((0, 0), (0, n - codes.shape[1])), constant_values=size)
        # row i is followed by each of the ids last_i..size in turn
        fan = size + 1 - last
        start = np.cumsum(fan) - fan
        following = np.arange(start[-1] + fan[-1]) - np.repeat(start - last, fan)
        codes = np.column_stack((np.repeat(codes, fan, axis=0), following))
    return codes

"""Codeword alphabets for contention over virtual frames.

A virtual frame groups ``L`` random access sub-frames.  In sub-frame ``j`` a
contender either transmits one of ``m_j`` non-idle preambles or stays idle;
idle is encoded as symbol 0 in every sub-frame.  A codeword is the length-L
vector of per-sub-frame symbols.  Two codeword alphabets are supported:

* reference -- exactly one non-idle symbol per virtual frame (one preamble
  sent in one sub-frame), giving ``sum(m_j)`` codewords;
* expanded -- any symbol per sub-frame with the all-idle word excluded,
  giving ``prod(m_j + 1) - 1`` codewords.

Per-sub-frame budgets may differ, which is how restricted sub-codebooks of a
given cardinality are realized.  Whether a restriction should also pin the
identity of the usable preambles (rather than just their count) is left open
here: budgets are counts, and preamble identity is positional.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeExceedsCap

#: A codeword: one symbol per sub-frame, 0 meaning idle.
Codeword = tuple[int, ...]

#: Largest codebook `enumerate_codewords` will materialize.
ENUMERATION_CAP = 10**6


def whole_number(value, name: str, least: int | None = None) -> int:
    """``value`` as a Python int, by the package's one rule for counts:
    integers and integral floats are taken; bools, fractional values,
    non-numbers and values below ``least`` raise `DomainError` instead of
    being truncated or clamped."""
    if type(value) is int:
        number = value
    elif isinstance(value, (float, np.floating)) and value.is_integer():
        number = int(value)
    elif isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    else:
        number = int(value)
    if least is not None and number < least:
        raise DomainError(f"{name} must be at least {least}, got {number}")
    return number


def _whole_loads(n_values, least: int = 0) -> np.ndarray:
    """User counts, a scalar or a grid, as a read-only int64 copy, by
    `whole_number`'s rule applied to the array's type: integer arrays, and
    float arrays of whole values inside the int64 range; bool and other
    arrays raise, and so do loads below ``least`` (1 where efficiency is taken).
    A read-only int64 array that owns its data is checked and returned as is."""
    loads = np.asarray(n_values)
    if loads.dtype.kind == "f" and (np.abs(loads) < 2.0**63).all():
        fractional = loads[loads != np.trunc(loads)]
        if fractional.size:
            raise DomainError(f"user counts must be whole numbers, got {fractional[0]:g}")
    elif loads.dtype.kind not in "iu":
        raise DomainError(f"user counts must be whole numbers, got {n_values!r}")
    if not (loads.dtype == np.int64 and loads.flags.owndata and not loads.flags.writeable):
        loads = loads.astype(np.int64)
    if (loads < least).any():
        raise DomainError("efficiency is undefined without contenders" if least
                          else "user count cannot be negative")
    loads.flags.writeable = False
    return loads


def _checked_grid(n_values: Sequence[int]) -> np.ndarray:
    """The one grid format, checked once: `_whole_loads`' read-only int64
    array, one-dimensional, non-empty, positive and strictly increasing."""
    loads = _whole_loads(n_values)
    if loads.ndim != 1 or not loads.size or (loads < 1).any():
        raise DomainError("grid must be non-empty with positive user counts")
    if (loads[1:] <= loads[:-1]).any():
        raise DomainError("grid must be strictly increasing")
    return loads


class Mode(Enum):
    """Codeword alphabet in use."""

    REFERENCE = "reference"
    EXPANDED = "expanded"


@dataclass(frozen=True)
class CodebookSpec:
    """Parameters of a codeword alphabet.

    Parameters
    ----------
    budgets :
        Non-idle preambles usable in each sub-frame, one entry per sub-frame.
    mode :
        Reference or expanded alphabet.
    m_global :
        Preambles provisioned by the system; every budget must fit in it.
        Defaults to ``max(budgets)``.

    Every count is taken by `whole_number`'s rule.
    """

    budgets: tuple[int, ...]
    mode: Mode
    m_global: int = 0

    def __post_init__(self) -> None:
        budgets = tuple(whole_number(b, "preamble budget", 0) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        if len(budgets) < 1:
            raise DomainError("a virtual frame needs at least one sub-frame")
        if all(b == 0 for b in budgets):
            raise DomainError("empty codebook: every sub-frame budget is zero")
        m_global = whole_number(self.m_global, "provisioned preamble count") or max(budgets)
        object.__setattr__(self, "m_global", m_global)
        if max(budgets) > m_global:
            raise DomainError(
                f"budget {max(budgets)} exceeds the {m_global} provisioned preambles"
            )
        if self.mode is Mode.REFERENCE and len(set(budgets)) != 1:
            raise DomainError("reference mode uses one uniform preamble budget")

    @classmethod
    def reference(cls, m: int, length: int, m_global: int | None = None) -> "CodebookSpec":
        """Reference alphabet with ``m`` preambles in each of ``length`` sub-frames."""
        return cls((m,) * whole_number(length, "sub-frame count"), Mode.REFERENCE,
                   0 if m_global is None else m_global)

    @classmethod
    def expanded(cls, budgets: Sequence[int], m_global: int | None = None) -> "CodebookSpec":
        """Expanded alphabet with the given per-sub-frame budgets."""
        return cls(tuple(budgets), Mode.EXPANDED, 0 if m_global is None else m_global)

    @property
    def length(self) -> int:
        """Sub-frames per virtual frame."""
        return len(self.budgets)

    @property
    def size(self) -> int:
        return codebook_size(self)

    def describe(self) -> str:
        budgets = ",".join(str(b) for b in self.budgets)
        text = f"L={self.length},m={budgets},mode={self.mode.value}"
        if self.m_global != max(self.budgets):
            text += f",M={self.m_global}"
        return text


def codebook_size(spec: CodebookSpec) -> int:
    """Number of codewords in the alphabet.

    Reference: ``sum(m_j)`` (equals ``M * L`` for a uniform budget).
    Expanded: ``prod(m_j + 1) - 1``, the all-idle word being excluded.
    """
    if spec.mode is Mode.REFERENCE:
        return sum(spec.budgets)
    return math.prod(b + 1 for b in spec.budgets) - 1


def enumerate_codewords(spec: CodebookSpec) -> list[Codeword]:
    """All codewords in lexicographic order of their symbol vectors.

    Raises
    ------
    SizeExceedsCap
        If the codebook holds more than `ENUMERATION_CAP` codewords.
    """
    size = codebook_size(spec)
    if size > ENUMERATION_CAP:
        raise SizeExceedsCap(f"{size} codewords exceed the enumeration cap of {ENUMERATION_CAP}")
    return sorted(map(tuple, decode_codewords(spec, np.arange(1, size + 1)).tolist()))


def codeword_id_stop(spec: CodebookSpec) -> int:
    """One past the largest codeword id: ids run over ``1..A``.

    Raises
    ------
    DomainError
        If the ids do not fit in 64-bit integers.
    """
    stop = codebook_size(spec) + 1
    if stop > 2**63 - 1:
        raise DomainError(f"{spec.describe()} has too many codewords for 64-bit ids")
    return stop


def encode_codewords(spec: CodebookSpec, words) -> np.ndarray:
    """Codeword ids ``1..A`` of the given symbol vectors, one per row.

    An expanded id is the symbol vector read as a mixed-radix number, with
    radix ``m_j + 1`` in sub-frame ``j`` and the first sub-frame most
    significant, so ids count the codewords in `enumerate_codewords` order
    and the all-idle word would be 0.  A reference codeword with preamble
    ``p`` in sub-frame ``j`` has id ``m_0 + ... + m_(j-1) + p``.

    Raises
    ------
    DomainError
        If a row is not a codeword of ``spec``.
    """
    try:
        arr = np.asarray(words if isinstance(words, np.ndarray) else list(words),
                         dtype=np.int64)
    except ValueError as exc:
        raise DomainError(f"codewords of unequal length for {spec.describe()}") from exc
    if arr.size == 0:
        arr = arr.reshape(0, spec.length)
    if arr.ndim != 2 or arr.shape[1] != spec.length:
        raise DomainError(f"codewords need {spec.length} symbols for {spec.describe()}")
    budgets = np.asarray(spec.budgets, dtype=np.int64)
    active = arr != 0
    valid = ((arr >= 0) & (arr <= budgets)).all(axis=1) & active.any(axis=1)
    if spec.mode is Mode.REFERENCE:
        valid &= active.sum(axis=1) == 1
    if not valid.all():
        word = arr[np.argmin(valid)].tolist()
        raise DomainError(f"{word} is not a codeword of {spec.describe()}")
    if spec.mode is Mode.REFERENCE:
        offsets = np.cumsum(budgets) - budgets
        return (offsets * active).sum(axis=1) + arr.sum(axis=1)
    codeword_id_stop(spec)  # refuses codebooks whose ids overflow int64
    ids = np.zeros(len(arr), dtype=np.int64)
    for j, m in enumerate(spec.budgets):
        ids = ids * (m + 1) + arr[:, j]
    return ids


def decode_codewords(spec: CodebookSpec, ids: np.ndarray) -> np.ndarray:
    """Symbol vectors of codeword ids, as an array of shape ``ids.shape + (L,)``.

    The inverse of `encode_codewords`: expanded symbol ``j`` is digit ``j`` of
    the id in mixed radix ``m_j + 1``, the first sub-frame most significant.
    """
    ids = np.asarray(ids, dtype=np.int64)
    out = np.zeros(ids.shape + (spec.length,), dtype=np.int64)
    if spec.mode is Mode.EXPANDED:
        for j in reversed(range(spec.length)):
            ids, out[..., j] = np.divmod(ids, spec.budgets[j] + 1)
        return out
    offsets = np.cumsum([0, *spec.budgets])
    slots = np.searchsorted(offsets, ids - 1, side="right") - 1
    np.put_along_axis(out, slots[..., None], (ids - offsets[slots])[..., None], axis=-1)
    return out


def min_expanded_preambles(m_reference: int, length: int) -> int:
    """Smallest per-sub-frame budget whose expanded codebook can match the
    reference one: ``ceil((m_reference * length + 1) ** (1 / length) - 1)``.

    At exact equality of codebook sizes the bound is attained but not
    exceeded.
    """
    m_reference = whole_number(m_reference, "reference preamble count", 1)
    length = whole_number(length, "sub-frame count", 1)
    target = m_reference * length + 1
    x = max(1, math.ceil(target ** (1.0 / length) - 1) - 2)
    while (x + 1) ** length < target:
        x += 1
    return x


def _smallest_budgets(length: int, m_global: int) -> tuple[np.ndarray, np.ndarray]:
    """Every product ``prod(b_j + 1)`` of ``length`` budgets of at most
    ``m_global``, ascending, with its lexicographically smallest budgets, in
    one pass over the sub-frames from the last: the smallest vector has the
    smallest first budget and, after it, the smallest suffix for the rest of
    the product, so the first factor to make a product keeps its vector."""
    length = whole_number(length, "sub-frame count", 1)
    m_global = whole_number(m_global, "provisioned preamble count", 1)
    products = np.ones(1, dtype=np.int64 if (m_global + 1) ** length < 2**63 else object)
    budgets = np.zeros((1, 0), dtype=np.int64)
    for _ in range(length):
        grown = np.multiply.outer(np.arange(1, m_global + 2).astype(products.dtype), products)
        products, first = np.unique(grown.ravel(), return_index=True)
        factor, suffix = np.divmod(first, budgets.shape[0])
        budgets = np.column_stack([factor, budgets[suffix]])
    return products, budgets

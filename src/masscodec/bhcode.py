"""Multiset-sum codebooks built from parity-check matrices.

A codebook has the order-h distinct-sums property when any two different
subsets of at most h codestrings have different coordinate-wise sums over
the integers.  Columns of a parity-check matrix of a binary code with
minimum distance >= 2h+1 always qualify: two subsets of size <= h whose
indicator vectors differ in a pattern of weight <= 2h < d must have
different syndromes, hence different sums mod 2, hence different integer
sums.  That mod-2 separation is also exactly what lets a mixture decoder
recover the subset from the mod-2 reduction of the pooled sum.

That recovery is syndrome decoding: the mod-2 sum of hbar columns is the
syndrome of a weight-hbar pattern.  One search, ``XorIndex.matches``, serves
both inverses, the code decoder ``LinearCode.decode_errors`` and the
redundancy-free witness search, which masks the strings to the known sum
positions.  It finds every hbar-subset of a list of ints with a given XOR by
meet-in-the-middle, in O(|C|^ceil(hbar/2)) rather than O(|C|^hbar), for
explicit codebooks too; ``invert_sum`` keeps the matches whose integer sum
is its target.  The halves come from an index cached on the codebook (or the
code), built once per subset size k: every k-subset of indices with the XOR
of its values, sorted by that XOR.  A cached subset costs k bytes of indices
(uint8 up to 256 columns) plus 8 bytes of XOR, so the 96-column order-3
benchmark codebook holds about 46 KB.  A lookup's budget bounds each index
it builds, and the cache as a whole by dropping the sizes it does not use.

``bundled_spec`` builds a named matrix of ``gf2m.TABLES`` in process; it
serves as a codebook source or, through ``linearcode.bundled_code``, as a
code.  Any other matrix is read from a plain-text ``.pcm`` file: a
``d=<int>`` header, then one 0/1 row per line.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .core import BitString, real_sum
from .errors import (
    AmbiguousSolution,
    ConfigError,
    DistanceTooSmall,
    DuplicateString,
    LengthMismatch,
    NoSolution,
    SearchSpaceTooLarge,
)
from .gf2m import TABLES

DEFAULT_BUDGET = 2**22


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """A 2-D array-like of ints (a numpy array, nested lists) as a tuple of tuples."""
    if getattr(rows, "ndim", 2) != 2:
        raise ConfigError(f"a parity-check matrix is 2-D, not {rows.ndim}-D")
    if hasattr(rows, "tolist"):
        if rows.dtype.kind not in "biu":
            raise ConfigError("a parity-check matrix is a 2-D array of 0/1 ints")
        return tuple(map(tuple, rows.astype(int, copy=False).tolist()))
    try:
        return tuple(tuple(map(operator.index, row)) for row in rows)
    except TypeError:
        raise ConfigError("a parity-check matrix is a 2-D array of 0/1 ints") from None


@dataclass(frozen=True)
class ParityCheckSpec:
    """A binary parity-check matrix with a declared minimum distance.

    ``rows`` may be any 2-D array-like of 0/1 ints; it is kept as a tuple of
    tuples of ints, so the spec is hashable.  A tuple of tuples is kept as given.
    """

    rows: tuple[tuple[int, ...], ...]
    d: int

    def __post_init__(self):
        if type(self.rows) is not tuple or any(type(row) is not tuple for row in self.rows):
            object.__setattr__(self, "rows", _int_rows(self.rows))
        if not self.rows or not self.rows[0]:
            raise ConfigError("empty parity-check matrix")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ConfigError("ragged parity-check matrix")
        try:
            binary = set().union(*self.rows) <= {0, 1}
        except TypeError:  # an unhashable entry: rows of rows, not a 2-D matrix
            binary = False
        if not binary:
            raise ConfigError("parity-check entries must be 0/1")
        if self.d < 1:
            raise ConfigError("distance must be positive")
        cols = list(zip(*self.rows))
        if not all(any(c) for c in cols):
            raise ConfigError("parity-check columns must be nonzero")
        if len(set(cols)) != len(cols):
            raise ConfigError("parity-check columns must be pairwise distinct")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def columns(self) -> tuple[BitString, ...]:
        return tuple(BitString(column) for column in zip(*self.rows))

    @classmethod
    def from_text(cls, text: str) -> "ParityCheckSpec":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("d="):
            raise ConfigError("matrix file must start with a 'd=<int>' header")
        try:
            d = int(lines[0][2:])
        except ValueError as exc:
            raise ConfigError(f"bad distance header {lines[0]!r}") from exc
        rows = []
        for ln in lines[1:]:
            if not set(ln) <= {"0", "1"}:
                raise ConfigError(f"bad matrix row {ln!r}")
            rows.append(tuple(map(int, ln)))
        return cls(tuple(rows), d)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ParityCheckSpec":
        return cls.from_text(Path(path).read_text())


def bundled_spec(name: str) -> ParityCheckSpec:
    """Build one of the package's named matrices (e.g. ``bch_15_7``)."""
    try:
        build, d = TABLES[name]
    except KeyError:
        raise ConfigError(f"no bundled matrix named {name!r}") from None
    return ParityCheckSpec(build(), d)


def require_order(h: int) -> None:
    """Refuse a multiplicity h < 1 with a ConfigError, before any search."""
    if h < 1:
        raise ConfigError(f"a codebook needs h >= 1, got {h}")


@dataclass(frozen=True)
class BhCodebook:
    """An ordered set of equal-length strings with distinct subset sums."""

    n: int
    h: int
    strings: tuple[BitString, ...]
    source: Optional[ParityCheckSpec] = None

    def __post_init__(self):
        require_order(self.h)
        if any(len(s) != self.n for s in self.strings):
            raise LengthMismatch("codebook strings must all have the declared length")
        if len(set(self.strings)) != len(self.strings):
            raise DuplicateString("codebook strings must be pairwise distinct")
        if not self.strings:
            raise ConfigError("a codebook needs at least one string")

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self):
        return iter(self.strings)

    @cached_property
    def _xor_index(self) -> "XorIndex":
        return XorIndex([s.as_int for s in self.strings])

    @classmethod
    def explicit(cls, strings: Iterable, h: int) -> "BhCodebook":
        bs = tuple(BitString(s) for s in strings)
        if not bs:
            raise ConfigError("an explicit codebook needs at least one string")
        return cls(n=len(bs[0]), h=h, strings=bs, source=None)


def build_bh_codebook(h: int, spec: ParityCheckSpec) -> BhCodebook:
    """Codebook whose strings are the matrix columns; needs d >= 2h+1."""
    if spec.d < 2 * h + 1:
        raise DistanceTooSmall(
            f"distance {spec.d} < {2 * h + 1} required for multiplicity {h}"
        )
    return BhCodebook(n=spec.n_rows, h=h, strings=spec.columns(), source=spec)


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    witness: Optional[tuple[tuple[BitString, ...], tuple[BitString, ...], tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.valid


def _subset_budget(size: int, h: int, budget: int) -> int:
    total = sum(math.comb(size, k) for k in range(1, h + 1))
    if total > budget:
        raise SearchSpaceTooLarge(
            f"{total} subsets of size <= {h} exceed the budget {budget}"
        )
    return total


def verify_bh(
    codebook: Union[BhCodebook, Sequence[BitString]],
    h: int,
    budget: int = DEFAULT_BUDGET,
) -> VerificationResult:
    """Exhaustively check distinct integer sums over all subsets of size <= h.

    Two subsets of different sizes can share a sum (a string plus the
    all-zero string, say), so every pair of sizes is compared.  Returns the
    lexicographically first collision as a witness.
    """
    require_order(h)
    strings = tuple(codebook.strings if isinstance(codebook, BhCodebook) else codebook)
    _subset_budget(len(strings), h, budget)
    seen: dict[tuple[int, ...], tuple[BitString, ...]] = {}
    for k in range(1, h + 1):
        for subset in itertools.combinations(strings, k):
            key = real_sum(subset)
            if key in seen and set(seen[key]) != set(subset):
                return VerificationResult(False, (seen[key], subset, key))
            seen.setdefault(key, subset)
    return VerificationResult(True)


def invert_sum(
    codebook: BhCodebook,
    target: Sequence[int],
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[BitString, ...]:
    """The unique hbar-subset whose integer sum equals the target.

    The matches of the target reduced mod 2 whose integer sum is the
    target; ambiguity means the codebook does not have the distinct-sums
    property at this order, and the AmbiguousSolution carries the matches.
    """
    target = tuple(int(v) for v in target)
    if len(target) != codebook.n:
        raise LengthMismatch(f"target length {len(target)} != {codebook.n}")
    parity = BitString(tuple(v % 2 for v in target))
    found = tuple(m for m in _mod2_matches(codebook, parity, hbar, budget) if real_sum(m) == target)
    if not found:
        raise NoSolution("no codebook subset matches the target sum")
    if len(found) > 1:
        raise AmbiguousSolution(f"both {found[0]} and {found[1]} sum to the target", found)
    return found[0]


def invert_mod2_sum(
    codebook: BhCodebook,
    target: BitString,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[BitString, ...]:
    """The unique hbar-subset whose mod-2 sum equals the target.

    For a parity-check-backed codebook this is syndrome decoding: the
    target is the syndrome of a weight-hbar error pattern, unique because
    d >= 2h+1.  Explicit codebooks can have two subsets that share the
    target, which is reported, with every match, rather than resolved here.
    """
    found = _mod2_matches(codebook, target, hbar, budget)
    if not found:
        raise NoSolution("no codebook subset matches the target mod-2 sum")
    if len(found) > 1:
        raise AmbiguousSolution(f"both {found[0]} and {found[1]} reduce to the target mod 2", found)
    return found[0]


def _mod2_matches(
    codebook: BhCodebook, target: BitString, hbar: int, budget: int
) -> tuple[tuple[BitString, ...], ...]:
    """Every hbar-subset with the target mod-2 sum, lexicographic, by ``XorIndex.matches``."""
    if len(target) != codebook.n:
        raise LengthMismatch(f"target length {len(target)} != {codebook.n}")
    found = codebook._xor_index.matches(target.as_int, hbar, budget)
    return tuple(tuple(codebook.strings[i] for i in subset) for subset in found)


_WORD = (1 << 64) - 1


def _fold64(value: int) -> int:
    """XOR of the 64-bit words of value; linear over GF(2), like XOR itself."""
    folded = 0
    while value:
        folded ^= value & _WORD
        value >>= 64
    return folded


class XorIndex:
    """Every k-subset of a list of ints, sorted by the XOR of its members.

    ``subsets(k, sizes, budget)`` returns the subsets as a (C(n, k), k)
    array of ascending indices and, row for row, the XORs of their folded
    values as ``uint64``, sorted by XOR.  Rows with equal XORs stay in
    lexicographic order.  Each size is built on first use and kept, but a
    build that would take the cached subsets past the caller's budget first
    drops every size the caller (which uses ``sizes``) does not.
    """

    def __init__(self, values: Sequence[int]):
        self.values = list(values)
        self._by_size: dict = {}

    def matches(self, target: int, k: int, budget: int) -> list[list[int]]:
        """Every k-subset (k >= 1) whose XOR is target, as sorted index lists.

        A meet-in-the-middle (Horowitz & Sahni, JACM 1974): with lo = k // 2
        and hi = k - lo, the XOR of the target with every lo-subset is
        searched for among the hi-subset XORs.  A match counts only when the
        low half's last index precedes the high half's first, so each
        k-subset is found through exactly one split.  Values longer than 64
        bits are keyed by a 64-bit fold, so every match is confirmed on the
        full values.  The lists come in lexicographic order.  ``budget``
        bounds the half-subsets, C(n, hi) + C(n, lo), which also bounds the
        indexes built and cached, and the candidate pairs whose folds match;
        a search past either raises ``SearchSpaceTooLarge``.
        """
        import numpy as np

        if k < 1:
            raise ConfigError(f"a subset lookup needs hbar >= 1, got {k}")
        lo, hi = k // 2, k - k // 2
        enumerated = math.comb(len(self.values), hi) + math.comb(len(self.values), lo)
        if enumerated > budget:
            raise SearchSpaceTooLarge(f"{enumerated} half-subsets exceed the budget {budget}")
        low_subsets, low_xors = self.subsets(lo, (lo, hi), budget)
        high_subsets, high_xors = self.subsets(hi, (lo, hi), budget)
        queries = low_xors ^ np.uint64(_fold64(target))
        first = high_xors.searchsorted(queries, "left")
        stop = high_xors.searchsorted(queries, "right")
        candidates = stop - first
        if lo == hi and not _fold64(target):
            # each low subset meets itself, a pair the order rule rejects
            candidates -= 1
        if (pairs := int(candidates.sum())) > budget:
            raise SearchSpaceTooLarge(f"{pairs} candidate pairs exceed the budget {budget}")
        found = []
        for q in (candidates > 0).nonzero()[0].tolist():
            low = low_subsets[q].tolist()
            for high in high_subsets[first[q] : stop[q]].tolist():
                if low and low[-1] >= high[0]:
                    continue
                acc = target
                for i in low + high:
                    acc ^= self.values[i]
                if not acc:  # the folds agree and so do the values
                    found.append(low + high)
        return sorted(found)

    def subsets(self, k: int, sizes: Sequence[int], budget: int):
        if k not in self._by_size:
            cached = sum(len(combos) for combos, _ in self._by_size.values())
            if cached + math.comb(len(self.values), k) > budget:
                for unused in set(self._by_size) - set(sizes):
                    del self._by_size[unused]
            self._by_size[k] = self._build(k)
        return self._by_size[k]

    def _build(self, k: int):
        import numpy as np

        size = len(self.values)
        dtype = np.uint8 if size <= 2**8 else np.uint16 if size <= 2**16 else np.uint32
        # extend every j-subset by each index that still leaves room for
        # the k - j - 1 indices after it; rows come out in lexicographic order
        combos = np.zeros((1, 0), dtype=dtype)
        for j in range(k):
            start = combos[:, -1].astype(np.intp) + 1 if j else np.zeros(1, np.intp)
            counts = np.maximum(size - k + j + 1 - start, 0)
            rows = np.repeat(np.arange(len(combos)), counts)
            offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
            added = (start[rows] + offsets).astype(dtype)
            combos = np.concatenate([combos[rows], added[:, None]], axis=1)
            # freed before the next, larger step allocates its own
            del start, counts, rows, offsets, added
        folded = np.array([_fold64(v) for v in self.values], dtype=np.uint64)
        xors = np.zeros(len(combos), dtype=np.uint64)
        for j in range(k):
            xors ^= folded[combos[:, j]]
        # stable keeps equal XORs in lexicographic order, and it maps fewer
        # pages of numpy code into memory than the default sort (peak RSS)
        order = np.argsort(xors, kind="stable")
        return np.take(combos, order, axis=0), xors[order]


def codebook_rate(codebook: Union[BhCodebook, tuple[int, int]]) -> float:
    """log2(size) / length, in bits per symbol."""
    if isinstance(codebook, BhCodebook):
        size, length = len(codebook), codebook.n
    else:
        size, length = codebook
    if size < 1 or length < 1:
        raise ValueError("rate needs a nonempty codebook and positive length")
    return math.log2(size) / length

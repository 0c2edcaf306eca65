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
syndrome of a weight-hbar pattern.  ``invert_mod2_sum`` finds the pattern
by meet-in-the-middle, matching the XORs of half-size subsets against the
target XORed with the other half, so a lookup costs O(|C|^ceil(hbar/2))
rather than O(|C|^hbar) and works for explicit codebooks too.  The halves
come from an index cached on the codebook and built once per subset size
k: every k-subset of column indices with the XOR of its columns, sorted by
that XOR, in numpy arrays.  A cached subset costs k bytes of indices
(uint8 up to 256 columns, uint16 beyond) plus 8 bytes of XOR, so the
96-column order-3 benchmark codebook holds about 46 KB, and a lookup's
budget, which counts the half-subsets, also bounds each index it builds.

Small parity-check matrices ship as plain-text data files (one 0/1 row
per line, ``d=<int>`` header); anything with a verified distance can be
loaded the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
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

DEFAULT_BUDGET = 2**22


@dataclass(frozen=True)
class ParityCheckSpec:
    """A binary parity-check matrix with a declared minimum distance."""

    rows: tuple[tuple[int, ...], ...]
    d: int

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ConfigError("empty parity-check matrix")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ConfigError("ragged parity-check matrix")
        if any(b not in (0, 1) for r in self.rows for b in r):
            raise ConfigError("parity-check entries must be 0/1")
        if self.d < 1:
            raise ConfigError("distance must be positive")
        cols = self.columns()
        if any(c.weight() == 0 for c in cols):
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
        return tuple(
            BitString(tuple(row[j] for row in self.rows))
            for j in range(self.n_cols)
        )

    def to_text(self) -> str:
        lines = [f"d={self.d}"]
        lines.extend("".join(str(b) for b in row) for row in self.rows)
        return "\n".join(lines) + "\n"

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
            if not all(c in "01" for c in ln):
                raise ConfigError(f"bad matrix row {ln!r}")
            rows.append(tuple(int(c) for c in ln))
        return cls(tuple(rows), d)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ParityCheckSpec":
        return cls.from_text(Path(path).read_text())


def bundled_spec(name: str) -> ParityCheckSpec:
    """Load one of the matrices shipped with the package (e.g. ``bch_15_7``)."""
    res = resources.files("masscodec").joinpath("data", f"{name}.pcm")
    try:
        return ParityCheckSpec.from_text(res.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"no bundled matrix named {name!r}") from exc


@dataclass(frozen=True)
class BhCodebook:
    """An ordered set of equal-length strings with distinct subset sums."""

    n: int
    h: int
    strings: tuple[BitString, ...]
    source: Optional[ParityCheckSpec] = None

    def __post_init__(self):
        if any(len(s) != self.n for s in self.strings):
            raise LengthMismatch("codebook strings must all have the declared length")
        if len(set(self.strings)) != len(self.strings):
            raise DuplicateString("codebook strings must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self):
        return iter(self.strings)

    @cached_property
    def _xor_index(self) -> "_XorIndex":
        return _XorIndex(self.strings)

    @property
    def parity_check_backed(self) -> bool:
        return self.source is not None

    @classmethod
    def explicit(cls, strings: Iterable, h: int) -> "BhCodebook":
        bs = tuple(BitString(s) for s in strings)
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

    Exhaustive subset search; ambiguity means the codebook does not have
    the distinct-sums property at this order.
    """
    target = tuple(int(v) for v in target)
    if len(target) != codebook.n:
        raise LengthMismatch(f"target length {len(target)} != {codebook.n}")
    if math.comb(len(codebook), hbar) > budget:
        raise SearchSpaceTooLarge(
            f"{math.comb(len(codebook), hbar)} subsets exceed the budget {budget}"
        )
    found: Optional[tuple[BitString, ...]] = None
    for subset in itertools.combinations(codebook.strings, hbar):
        if real_sum(subset) == target:
            if found is not None:
                raise AmbiguousSolution(
                    f"both {found} and {subset} sum to the target"
                )
            found = subset
    if found is None:
        raise NoSolution("no codebook subset matches the target sum")
    return found


def invert_mod2_sum(
    codebook: BhCodebook,
    target: BitString,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[BitString, ...]:
    """The unique hbar-subset whose mod-2 sum equals the target.

    For a parity-check-backed codebook this is syndrome decoding: the
    target is the syndrome of a weight-hbar error pattern, unique because
    d >= 2h+1.  The search is a meet-in-the-middle (Horowitz & Sahni,
    JACM 1974): with lo = hbar // 2 and hi = hbar - lo, the XOR of the
    target with every lo-subset is searched for in the codebook's sorted
    index of hi-subset XORs (see ``_XorIndex``).  A match counts only when
    the low half's last index precedes the high half's first, so each
    hbar-subset is found through exactly one split; a second match means
    two subsets share the target, which explicit codebooks can do, and is
    reported rather than silently resolved.  The index keys strings longer
    than 64 bits by a 64-bit fold, so every match is confirmed on the full
    strings before it counts.

    ``budget`` bounds the subsets enumerated, C(|C|, hi) + C(|C|, lo),
    and with them the size of the indexes a lookup builds and caches.
    """
    if len(target) != codebook.n:
        raise LengthMismatch(f"target length {len(target)} != {codebook.n}")
    size = len(codebook)
    lo = hbar // 2
    hi = hbar - lo
    enumerated = math.comb(size, hi) + math.comb(size, lo)
    if enumerated > budget:
        raise SearchSpaceTooLarge(
            f"{enumerated} half-subsets exceed the budget {budget}"
        )
    import numpy as np

    index = codebook._xor_index
    values = index.values
    wanted = target.as_int
    low_subsets, low_xors = index.subsets(lo)
    high_subsets, high_xors = index.subsets(hi)
    queries = low_xors ^ np.uint64(_fold64(wanted))
    first = high_xors.searchsorted(queries, "left")
    stop = high_xors.searchsorted(queries, "right")
    found: Optional[list[int]] = None
    for q in (stop > first).nonzero()[0].tolist():
        low = low_subsets[q].tolist()
        for high in high_subsets[first[q] : stop[q]].tolist():
            if low and low[-1] >= high[0]:
                continue
            acc = wanted
            for i in low + high:
                acc ^= values[i]
            if acc:  # the folds agree but the strings do not
                continue
            if found is not None:
                raise AmbiguousSolution(
                    f"both {_pick(codebook, found)} and "
                    f"{_pick(codebook, low + high)} reduce to the target mod 2"
                )
            found = low + high
    if found is None:
        raise NoSolution("no codebook subset matches the target mod-2 sum")
    return _pick(codebook, found)


_WORD = (1 << 64) - 1


def _fold64(value: int) -> int:
    """XOR of the 64-bit words of value; linear over GF(2), like XOR itself."""
    folded = 0
    while value:
        folded ^= value & _WORD
        value >>= 64
    return folded


class _XorIndex:
    """Every k-subset of a codebook's strings, sorted by the XOR of its members.

    ``subsets(k)`` returns the subsets as a (C(|C|, k), k) array of
    ascending column indices and, row for row, the XORs of their folded
    strings as ``uint64``, sorted by XOR.  Each size is built on first use
    and kept.  Rows with equal XORs stay in lexicographic order.
    """

    def __init__(self, strings: Sequence[BitString]):
        self.values = [s.as_int for s in strings]
        self._by_size: dict = {}

    def subsets(self, k: int):
        if k not in self._by_size:
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


def _pick(codebook: BhCodebook, subset: Sequence[int]) -> tuple[BitString, ...]:
    return tuple(codebook.strings[i] for i in subset)


def codebook_rate(codebook: Union[BhCodebook, tuple[int, int]]) -> float:
    """log2(size) / length, in bits per symbol."""
    if isinstance(codebook, BhCodebook):
        size, length = len(codebook), codebook.n
    else:
        size, length = codebook
    if size < 1 or length < 1:
        raise ValueError("rate needs a nonempty codebook and positive length")
    return math.log2(size) / length

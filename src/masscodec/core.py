"""Binary strings, fragment compositions, and composition multisets.

A mass readout of a binary polymer reports, for every fragment, only how
many 0-symbols and 1-symbols it contains -- its *composition* -- not their
order.  Reading a string s of length n from both ends yields one prefix
fragment and one suffix fragment of each length i in [1, n]; the multiset
of their compositions (the full-length composition appears twice) is the
abstraction of the instrument output that every other module consumes.

A composition is fixed by its length and its number of ones, so a pool is
stored as a dense table of counts ``C[length, ones]``
(:class:`CompositionMultiset`).  A string's prefix weights are one
cumulative sum of its bits and its suffix weights one more, pooling is a
scatter-add of those weights into the table, union is an addition and
removing a fragment is a decrement.  :class:`Composition` objects are made
only where a pool is listed, printed or written as JSON.  numpy is imported
where the first table is built, so importing the package does not load it
(numpy alone adds over 10 MB of resident memory to the interpreter).

Conventions used throughout the package:

* Strings are read left to right; a prefix is a run of leading symbols.
* A composition with a zeros and b ones prints as ``0^a 1^b`` with zero
  exponents omitted and exponent one left implicit (``01^2`` means one 0
  and two 1s).
* The running digital sum R(s)_i = 2*wt(s_1..s_i) - i tracks the
  1s-vs-0s discrepancy of prefixes; a balanced string ends at R = 0.
* A string of even length N is a *Dyck string* when wt(s) = N/2 and every
  proper prefix of length i holds at least ceil(i/2) ones.  Dyck strings
  make prefix and suffix fragments separable by weight alone.

All values here are immutable (a pool's count table is a read-only
array) and safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union
)

if TYPE_CHECKING:
    import numpy as np

from .errors import Conflict, DuplicateString, LengthMismatch, OddLength, json_field

BitsLike = Union[str, Sequence[int], "BitString"]
_T = TypeVar("_T")

ERASED = None  # erased symbol marker in partial sum strings
_ERASED_CHAR = "ε"  # printed as the Greek epsilon


class BitString:
    """An immutable binary string of length >= 1."""

    __slots__ = ("bits", "_int", "_hash")

    def __init__(self, bits: BitsLike):
        if isinstance(bits, BitString):
            values = bits.bits
        elif isinstance(bits, str):
            if not all(c in "01" for c in bits):
                raise ValueError(f"not a binary string: {bits!r}")
            values = tuple(1 if c == "1" else 0 for c in bits)
        else:
            values = tuple(int(b) for b in bits)
            if not all(b in (0, 1) for b in values):
                raise ValueError(f"bits must be 0/1, got {values!r}")
        if not values:
            raise ValueError("empty bit string")
        object.__setattr__(self, "bits", values)
        key = 0
        for b in values:
            key = (key << 1) | b
        object.__setattr__(self, "_int", key)
        object.__setattr__(self, "_hash", hash((len(values), key)))

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = self.bits[i]
            if not part:
                raise IndexError("empty slice of a BitString")
            return BitString(part)
        return self.bits[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and len(self.bits) == len(other.bits)
            and self._int == other._int
        )

    def __lt__(self, other: "BitString") -> bool:
        return self.bits < other.bits

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    def __add__(self, other: BitsLike) -> "BitString":
        other = BitString(other)
        return BitString(self.bits + other.bits)

    def __xor__(self, other: "BitString") -> "BitString":
        if len(other) != len(self):
            raise LengthMismatch(f"xor of lengths {len(self)} and {len(other)}")
        return BitString(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    @property
    def as_int(self) -> int:
        """The string read as a big-endian integer (first symbol is the MSB)."""
        return self._int

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        return cls(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls((0,) * n)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls((1,) * n)

    @classmethod
    def random(cls, n: int, rng) -> "BitString":
        return cls(tuple(rng.randrange(2) for _ in range(n)))

    def weight(self) -> int:
        return sum(self.bits)

    def prefix(self, i: int) -> "BitString":
        if not 1 <= i <= len(self):
            raise ValueError(f"prefix length {i} out of range")
        return BitString(self.bits[:i])

    def suffix(self, i: int) -> "BitString":
        if not 1 <= i <= len(self):
            raise ValueError(f"suffix length {i} out of range")
        return BitString(self.bits[len(self) - i :])

    def complement(self) -> "BitString":
        return BitString(tuple(1 - b for b in self.bits))

    def rds(self, i: Optional[int] = None) -> int:
        """Running digital sum 2*wt(s_1..s_i) - i; full-string value if i is None."""
        if i is None:
            i = len(self)
        if not 1 <= i <= len(self):
            raise ValueError(f"rds index {i} out of range")
        return 2 * sum(self.bits[:i]) - i

    def rds_profile(self) -> tuple[int, ...]:
        """R(s)_i for every i in [n]."""
        out = []
        r = 0
        for b in self.bits:
            r += 1 if b else -1
            out.append(r)
        return tuple(out)

    def blocks(self, size: int) -> tuple["BitString", ...]:
        if len(self) % size:
            raise ValueError(f"length {len(self)} not divisible by block size {size}")
        return tuple(
            BitString(self.bits[j : j + size]) for j in range(0, len(self), size)
        )

    def real_sum_with(self, *others: "BitString") -> tuple[int, ...]:
        """Coordinate-wise sum over the integers with the given strings."""
        for o in others:
            if len(o) != len(self):
                raise LengthMismatch("real sum of unequal lengths")
        return tuple(sum(bits) for bits in zip(self.bits, *(o.bits for o in others)))


def real_sum(strings: Iterable[BitString]) -> tuple[int, ...]:
    strings = list(strings)
    first, rest = strings[0], strings[1:]
    return first.real_sum_with(*rest)


def mod2_sum(strings: Iterable[BitString]) -> BitString:
    strings = list(strings)
    out = strings[0]
    for s in strings[1:]:
        out = out ^ s
    return out


class Composition:
    """An unordered fragment content: a count of zeros and a count of ones."""

    __slots__ = ("zeros", "ones")

    def __init__(self, zeros: int, ones: int):
        if zeros < 0 or ones < 0 or zeros + ones < 1:
            raise ValueError(f"bad composition ({zeros}, {ones})")
        object.__setattr__(self, "zeros", int(zeros))
        object.__setattr__(self, "ones", int(ones))

    def __setattr__(self, name, value):
        raise AttributeError("Composition is immutable")

    @property
    def length(self) -> int:
        return self.zeros + self.ones

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Composition)
            and self.zeros == other.zeros
            and self.ones == other.ones
        )

    def __hash__(self) -> int:
        return hash((self.zeros, self.ones))

    def __lt__(self, other: "Composition") -> bool:
        return (self.length, self.ones) < (other.length, other.ones)

    def __str__(self) -> str:
        parts = []
        for sym, count in (("0", self.zeros), ("1", self.ones)):
            if count == 1:
                parts.append(sym)
            elif count > 1:
                parts.append(f"{sym}^{count}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Composition(zeros={self.zeros}, ones={self.ones})"

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the ``0^a 1^b`` notation (spaces optional, exponent 1 implicit).

        Strings like ``0^21^3`` are read as the zeros part followed by the
        ones part (0^2 then 1^3): after ``0^`` the shortest digit run that
        leaves a parseable ones part wins, matching how the notation is
        written.
        """
        text = text.replace(" ", "")

        def parse_ones(rest: str) -> Optional[int]:
            if not rest:
                return 0
            if rest[0] != "1":
                return None
            if len(rest) == 1:
                return 1
            if rest[1] != "^" or not rest[2:].isdigit():
                return None
            return int(rest[2:])

        if text.startswith("0"):
            if text[1:2] == "^":
                digits = 2
                while digits < len(text) and text[digits].isdigit():
                    digits += 1
                if digits == 2:
                    raise ValueError(f"bad exponent in {text!r}")
                for end in range(3, digits + 1):
                    ones = parse_ones(text[end:])
                    if ones is not None:
                        return cls(int(text[2:end]), ones)
                raise ValueError(f"bad composition text {text!r}")
            ones = parse_ones(text[1:])
            if ones is None:
                raise ValueError(f"bad composition text {text!r}")
            return cls(1, ones)
        ones = parse_ones(text)
        if ones is None or ones == 0:
            raise ValueError(f"bad composition text {text!r}")
        return cls(0, ones)

    def to_json_obj(self, mult: int = 1) -> dict:
        return {"zeros": self.zeros, "ones": self.ones, "mult": mult}


def composition(s: BitsLike) -> Composition:
    """The composition of a string: (number of 0s, number of 1s)."""
    s = BitString(s)
    w = s.weight()
    return Composition(len(s) - w, w)


class CompositionMultiset:
    """An immutable multiset of fragment compositions, held as dense counts.

    ``counts[length, ones]`` is the multiplicity of the composition with
    ``ones`` ones among ``length`` symbols.  The array is square, its row 0
    and every cell with ``ones > length`` are zero, and it may carry zero
    rows past the longest fragment; equality, hashing and submultiset tests
    ignore that padding.  Pooling is a scatter-add, union an addition, and
    removal a decrement of a copy, so no operation builds a
    :class:`Composition` per fragment.  Compositions appear only where
    entries are listed: ``entries``, ``elements``, printing and JSON, all in
    the canonical order (fragment length, ones) ascending.  One slot keeps
    the last value derived from the counts (see :meth:`memo`).
    """

    __slots__ = ("_counts", "_total", "_memo")

    def __init__(self, items: Union[Mapping[Composition, int], Iterable[Composition], None] = None):
        if isinstance(items, Mapping):
            if any(mult < 0 for mult in items.values()):
                raise ValueError("negative multiplicity")
            entries = [(comp, int(mult)) for comp, mult in items.items()]
        else:
            entries = [(comp, 1) for comp in items or ()]
        counts = _blank(1 + max((comp.length for comp, _ in entries), default=0))
        for comp, mult in entries:
            counts[comp.length, comp.ones] += mult
        self._own(counts)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "CompositionMultiset":
        """Wrap a square integer ``counts[length, ones]`` array, which becomes read-only."""
        counts = counts.astype("int64", copy=False)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be a square matrix, got shape {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("negative multiplicity")
        out = cls.__new__(cls)
        out._own(counts)
        return out

    def _own(self, counts: np.ndarray) -> None:
        counts.flags.writeable = False
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_total", int(counts.sum()))
        object.__setattr__(self, "_memo", None)

    def memo(self, key, build: Callable[[], _T]) -> _T:
        """``build()``, kept under ``key`` until a call with another key replaces it.

        The counts never change, so a value derived from them and the key
        alone stays valid for the multiset's life.  Threads racing on one
        multiset at most build the value twice.
        """
        slot = self._memo
        if slot is None or slot[0] != key:
            slot = (key, build())
            object.__setattr__(self, "_memo", slot)
        return slot[1]

    def __setattr__(self, name, value):
        raise AttributeError("CompositionMultiset is immutable")

    @property
    def counts(self) -> np.ndarray:
        """The read-only ``counts[length, ones]`` matrix."""
        return self._counts

    @property
    def total(self) -> int:
        """Number of fragments counted with multiplicity."""
        return self._total

    def __len__(self) -> int:
        return self._total

    def __contains__(self, comp: Composition) -> bool:
        return self.count(comp) > 0

    def count(self, comp: Composition) -> int:
        if comp.length >= len(self._counts):
            return 0
        return int(self._counts[comp.length, comp.ones])

    def _trimmed(self) -> np.ndarray:
        """The counts without zero rows (and columns) past the longest fragment."""
        rows = self._counts.any(axis=1).nonzero()[0]
        size = int(rows[-1]) + 1 if rows.size else 0
        return self._counts[:size, :size]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompositionMultiset):
            return False
        mine, theirs = self._trimmed(), other._trimmed()
        return mine.shape == theirs.shape and bool((mine == theirs).all())

    def __hash__(self) -> int:
        trimmed = self._trimmed()
        return hash((len(trimmed), trimmed.tobytes()))

    def entries(self) -> tuple[tuple[Composition, int], ...]:
        """(composition, multiplicity) pairs in canonical order."""
        lengths, ones = self._counts.nonzero()
        mults = self._counts[lengths, ones]
        return tuple(
            (Composition(n - w, w), m)
            for n, w, m in zip(lengths.tolist(), ones.tolist(), mults.tolist())
        )

    def elements(self) -> Iterator[Composition]:
        for comp, mult in self.entries():
            for _ in range(mult):
                yield comp

    def lengths(self) -> tuple[int, ...]:
        return tuple(self._counts.any(axis=1).nonzero()[0].tolist())

    def count_at_length(self, length: int) -> int:
        if not 0 <= length < len(self._counts):
            return 0
        return int(self._counts[length].sum())

    def ones_at_length(self, length: int) -> tuple[int, ...]:
        """Sorted ones-counts of all fragments of the given length."""
        if not 0 <= length < len(self._counts):
            return ()
        row = self._counts[length]
        ones = row.nonzero()[0]
        return tuple(ones.repeat(row[ones]).tolist())

    def union(self, *others: "CompositionMultiset") -> "CompositionMultiset":
        parts = (self, *others)
        counts = _blank(max(len(p._counts) for p in parts))
        for p in parts:
            size = len(p._counts)
            counts[:size, :size] += p._counts
        return CompositionMultiset.from_counts(counts)

    def add(self, comp: Composition, mult: int = 1) -> "CompositionMultiset":
        return self.union(CompositionMultiset({comp: mult}))

    def remove(self, comp: Composition, mult: int = 1) -> "CompositionMultiset":
        held = self.count(comp)
        if held < mult:
            raise KeyError(f"multiset holds {held} of {comp}, need {mult}")
        counts = self._counts.copy()
        counts[comp.length, comp.ones] -= mult
        return CompositionMultiset.from_counts(counts)

    def is_submultiset(self, other: "CompositionMultiset") -> bool:
        mine = self._trimmed()
        size = len(mine)
        if size > len(other._counts):
            return False
        return bool((mine <= other._counts[:size, :size]).all())

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self.elements()) + "}"

    def to_json_obj(self) -> list[dict]:
        return [comp.to_json_obj(mult) for comp, mult in self.entries()]

    @classmethod
    def from_json_obj(cls, obj: Iterable[dict]) -> "CompositionMultiset":
        counts: Counter = Counter()
        for entry in obj:
            zeros, ones = (json_field(entry, key, "a fragment", int) for key in ("zeros", "ones"))
            comp = Composition(zeros, ones)
            counts[comp] += int(entry.get("mult", 1))
        return cls(counts)

    @classmethod
    def parse(cls, text: str) -> "CompositionMultiset":
        """Parse ``{0, 01, 0^2 1^3, ...}`` listings (for tests and fixtures)."""
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        items = [t for t in (part.strip() for part in text.split(",")) if t]
        return cls(Composition.parse(t) for t in items)


def _blank(size: int) -> np.ndarray:
    import numpy as np

    return np.zeros((size, size), dtype=np.int64)


def _read_fragments(
    strings: Sequence[BitString], prefixes: bool = True, suffixes: bool = True
) -> CompositionMultiset:
    """Counts of the prefix and/or suffix compositions of equal-length strings.

    Each read is one cumulative sum of the bits, and all reads land in the
    count matrix through one scatter-add on the flat index
    ``length * (n + 1) + ones``.
    """
    import numpy as np

    bits = np.array([s.bits for s in strings], dtype=np.int64)
    n = bits.shape[1]
    reads = [bits] if prefixes else []
    if suffixes:
        reads.append(bits[:, ::-1])
    ones = np.cumsum(np.concatenate(reads), axis=1)
    flat = ones + (n + 1) * np.arange(1, n + 1)
    counts = np.bincount(flat.ravel(), minlength=(n + 1) ** 2)
    return CompositionMultiset.from_counts(counts.reshape(n + 1, n + 1))


def prefix_multiset(s: BitsLike) -> CompositionMultiset:
    """Compositions of all prefixes s_1..s_i, i in [n]."""
    return _read_fragments([BitString(s)], suffixes=False)


def suffix_multiset(s: BitsLike) -> CompositionMultiset:
    """Compositions of all suffixes s_i..s_n, i in [n]."""
    return _read_fragments([BitString(s)], prefixes=False)


def full_multiset(s: BitsLike) -> CompositionMultiset:
    """Prefix and suffix compositions together; the full length appears twice."""
    return _read_fragments([BitString(s)])


def pool(strings: Iterable[BitsLike]) -> CompositionMultiset:
    """Union of the full multisets of pairwise distinct, equal-length strings."""
    bs = [s if isinstance(s, BitString) else BitString(s) for s in strings]
    if not bs:
        return CompositionMultiset()
    n = len(bs[0])
    for s in bs[1:]:
        if len(s) != n:
            raise LengthMismatch(f"pooled strings must share length {n}, got {len(s)}")
    if len(set(bs)) != len(bs):
        raise DuplicateString("pooled strings must be pairwise distinct")
    return _read_fragments(bs)


def is_dyck(s: BitsLike) -> bool:
    """True when wt(s) = N/2 and every prefix of length i has >= ceil(i/2) ones."""
    s = BitString(s)
    n = len(s)
    if n % 2:
        raise OddLength(f"Dyck property needs even length, got {n}")
    if s.weight() != n // 2:
        return False
    w = 0
    for i, b in enumerate(s.bits[:-1], start=1):
        w += b
        if w < (i + 1) // 2:
            return False
    return True


def all_dyck_strings(n: int) -> tuple[BitString, ...]:
    """All Dyck strings of even length n, in ascending lexicographic order."""
    if n % 2:
        raise OddLength(f"no Dyck strings of odd length {n}")
    found = [
        s
        for s in (BitString.from_int(v, n) for v in range(2**n))
        if is_dyck(s)
    ]
    return tuple(found)


class PartialSumString:
    """A length-indexed sum of a string mixture with possible erasures.

    Symbols live in {0, ..., hbar} or are erased (None).  The string is the
    coordinate-wise integer sum of ``hbar`` binary strings, reconstructed
    from a (possibly incomplete) one-sided fragment pool.
    """

    __slots__ = ("symbols", "hbar")

    def __init__(self, symbols: Iterable[Optional[int]], hbar: int):
        syms = tuple(None if v is None else int(v) for v in symbols)
        if hbar < 1:
            raise ValueError("hbar must be positive")
        for v in syms:
            if v is not None and not 0 <= v <= hbar:
                raise ValueError(f"symbol {v} outside 0..{hbar}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "hbar", hbar)

    def __setattr__(self, name, value):
        raise AttributeError("PartialSumString is immutable")

    @classmethod
    def parse(cls, text: str, hbar: int) -> "PartialSumString":
        """Parse digit strings with epsilon (or '?') marking erased symbols."""
        syms: list[Optional[int]] = []
        for c in text:
            if c in (_ERASED_CHAR, "e", "?"):
                syms.append(None)
            else:
                syms.append(int(c))
        return cls(syms, hbar)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialSumString)
            and self.symbols == other.symbols
            and self.hbar == other.hbar
        )

    def __hash__(self) -> int:
        return hash((self.symbols, self.hbar))

    def __str__(self) -> str:
        return "".join(_ERASED_CHAR if v is None else str(v) for v in self.symbols)

    def __repr__(self) -> str:
        return f"PartialSumString({str(self)!r}, hbar={self.hbar})"

    @property
    def complete(self) -> bool:
        return all(v is not None for v in self.symbols)

    def as_tuple(self) -> tuple[int, ...]:
        if not self.complete:
            raise ValueError("partial sum still has erasures")
        return self.symbols  # type: ignore[return-value]

    def to_bitstring(self) -> BitString:
        """Interpret as a binary string (valid for hbar-free 0/1 content)."""
        vals = self.as_tuple()
        if any(v not in (0, 1) for v in vals):
            raise ValueError("sum symbols exceed 1; not a single string")
        return BitString(vals)

    def erased_positions(self) -> tuple[int, ...]:
        """1-based positions of erased symbols."""
        return tuple(i for i, v in enumerate(self.symbols, start=1) if v is None)

    def bursts(self) -> tuple[tuple[int, int], ...]:
        """Maximal runs of erased symbols as (start, length), 1-based."""
        out = []
        start = None
        for i, v in enumerate(self.symbols, start=1):
            if v is None:
                if start is None:
                    start = i
            elif start is not None:
                out.append((start, i - start))
                start = None
        if start is not None:
            out.append((start, len(self.symbols) - start + 1))
        return tuple(out)

    def known_weight(self) -> int:
        return sum(v for v in self.symbols if v is not None)

    def reversed_(self) -> "PartialSumString":
        return PartialSumString(tuple(reversed(self.symbols)), self.hbar)

    def merge(self, other: "PartialSumString") -> "PartialSumString":
        """Coordinate-wise combine; known symbols must agree where both exist."""
        if len(other) != len(self) or other.hbar != self.hbar:
            raise LengthMismatch("cannot merge partial sums of different shape")
        merged: list[Optional[int]] = []
        clashes = []
        for i, (a, b) in enumerate(zip(self.symbols, other.symbols), start=1):
            if a is None:
                merged.append(b)
            elif b is None or a == b:
                merged.append(a)
            else:
                clashes.append((i, a, b))
        if clashes:
            raise Conflict(f"disagreeing sum symbols at {clashes}")
        return PartialSumString(merged, self.hbar)

    def fill_from_weight(self, total_weight: int) -> "PartialSumString":
        """Resolve erasures pinned by the known total weight.

        Three sound rules: a lone erasure takes the whole deficit; a zero
        deficit zeroes every erasure; a deficit of hbar per erasure maxes
        every erasure.  Anything else is left erased.
        """
        erased = [i for i, v in enumerate(self.symbols) if v is None]
        if not erased:
            if self.known_weight() != total_weight:
                raise Conflict(
                    f"sum weight {self.known_weight()} != expected {total_weight}"
                )
            return self
        deficit = total_weight - self.known_weight()
        if deficit < 0 or deficit > len(erased) * self.hbar:
            raise Conflict(f"weight deficit {deficit} unreachable")
        fill: Optional[int] = None
        if deficit == 0:
            fill = 0
        elif deficit == len(erased) * self.hbar:
            fill = self.hbar
        elif len(erased) == 1:
            fill = deficit
        if fill is None:
            return self
        syms = list(self.symbols)
        for i in erased:
            syms[i] = fill
        return PartialSumString(syms, self.hbar)

"""Binary strings, fragment compositions, and composition multisets.

A mass readout of a binary polymer reports, for every fragment, only how
many 0-symbols and 1-symbols it contains -- its *composition* -- not their
order.  Reading a string s of length n from both ends yields one prefix
fragment and one suffix fragment of each length i in [1, n]; the multiset
of their compositions (the full-length composition appears twice) is the
abstraction of the instrument output that every other module consumes.

A :class:`BitString` is one integer and its length: the symbols read as a
big-endian integer.  Construction checks and reads its input in C calls
(``str.strip``, ``int(s, 2)``, ``bytes``), and XOR, concatenation, prefixes
and suffixes are integer operations, so the encoders that build codewords
work on integers too.  Nothing else is stored: the few set-up readers that
walk the symbols one by one get a 0/1 tuple derived from the text.

A composition is fixed by its length and its number of ones, so a pool is
stored as a dense int32 table of counts ``C[length, ones]``
(:class:`CompositionMultiset`), built here by every producer.  A string's
prefix weights are one cumulative sum of its bits and its suffix weights one
more, pooling is a scatter-add of those weights into the table (``tally``),
union is an addition and removing a fragment is a decrement.
:class:`Composition` objects are made only where a pool is listed, printed
or written as JSON.  numpy is imported where the first table is built, so
importing the package does not load it (numpy alone adds over 10 MB of
resident memory to the interpreter).

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

import re
from collections import Counter
from operator import index
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union
)

if TYPE_CHECKING:
    import numpy as np

from .errors import DuplicateString, LengthMismatch, OddLength, json_field, json_int

BitsLike = Union[str, Sequence[int], "BitString"]
_T = TypeVar("_T")

_ERASED_CHAR = "ε"  # printed as the Greek epsilon
# the one dtype of every count table, named as a string so that importing the
# package loads no numpy; at int32 a table at N = 142 (80 KiB) stays under glibc's
# 128 KiB mmap threshold, so a fresh pool reuses heap pages instead of faulting
COUNT_DTYPE = "int32"
# fragments a multiset may hold: no cell exceeds the total, so int32 stays exact
MAX_FRAGMENTS = 2**31 - 1
# 0^a 1^b with optional parts and exponents; the lazy zeros exponent leaves
# the shortest digit run that lets the ones part match
_COMPOSITION_TEXT = re.compile(r"(0(?:\^(\d+?))?)?(1(?:\^(\d+))?)?")


# bytes.translate tables between the ASCII digits 0/1 and the byte values 0/1
FROM_ASCII = bytes.maketrans(b"01", b"\0\1")
_TO_ASCII = bytes.maketrans(b"\0\1", b"01")


class BitString:
    """An immutable binary string of length >= 1.

    It stores its length and its integer (``as_int``: the symbols read as a
    big-endian integer), which fix equality and the hash,
    ``hash((len, as_int))``.  The order is that of the text, so strings of
    any lengths sort as their symbol tuples do; ``bits``, iteration and
    indexing derive the symbols from the text at each read.  A ``str`` is
    checked by one ``strip`` and read by ``int(s, 2)``; any other sequence
    is checked by turning it into ``bytes``.  Values that ``bytes`` refuses
    (floats, digit strings, numpy bools) go through ``int()`` one by one, so
    ``BitString([1.0, "0"])`` is ``10``.  ``from_int``, ``^``, ``+``,
    ``prefix`` and ``suffix`` work on the integer and check nothing again.
    """

    __slots__ = ("_len", "_int", "_hash")

    def __init__(self, bits: BitsLike):
        if isinstance(bits, BitString):
            self._own(bits._len, bits._int)
            return
        if isinstance(bits, str):
            if bits.strip("01"):
                raise ValueError(f"not a binary string: {bits!r}")
            if not bits:
                raise ValueError("empty bit string")
            self._own(len(bits), int(bits, 2))
            return
        values = tuple(bits)
        try:
            data = bytes(values)
        except (TypeError, ValueError):  # not all ints in range(256)
            data = None
        if data is None or data.strip(b"\0\1"):
            values = tuple(int(b) for b in values)
            if not all(b in (0, 1) for b in values):
                raise ValueError(f"bits must be 0/1, got {values!r}")
            data = bytes(values)
        if not data:
            raise ValueError("empty bit string")
        self._own(len(data), int(data.translate(_TO_ASCII), 2))

    def _own(self, length: int, key: int) -> None:
        object.__setattr__(self, "_len", length)
        object.__setattr__(self, "_int", key)
        object.__setattr__(self, "_hash", hash((length, key)))

    @classmethod
    def _of(cls, length: int, key: int) -> "BitString":
        """The string of this length whose integer is key, in 0..2^length - 1 (not checked)."""
        out = cls.__new__(cls)
        out._own(length, key)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @property
    def bits(self) -> tuple[int, ...]:
        """The 0/1 symbols, derived from the text at each read."""
        return tuple(str(self).encode().translate(FROM_ASCII))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = str(self)[i]
            if not part:
                raise IndexError("empty slice of a BitString")
            return BitString(part)
        return self.bits[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self._len == other._len
            and self._int == other._int
        )

    def __lt__(self, other: "BitString") -> bool:
        return str(self) < str(other)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return bin(self._int)[2:].zfill(self._len)

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    def __add__(self, other: BitsLike) -> "BitString":
        other = BitString(other)
        return BitString._of(self._len + other._len, self._int << other._len | other._int)

    def __xor__(self, other: "BitString") -> "BitString":
        if other._len != self._len:
            raise LengthMismatch(f"xor of lengths {self._len} and {other._len}")
        return BitString._of(self._len, self._int ^ other._int)

    @property
    def as_int(self) -> int:
        """The string read as a big-endian integer (first symbol is the MSB)."""
        return self._int

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """The low ``length`` bits of value, most significant first."""
        if length < 1:
            raise ValueError("empty bit string")
        return cls._of(length, index(value) & ((1 << length) - 1))

    @classmethod
    def random(cls, n: int, rng) -> "BitString":
        return cls(tuple(rng.randrange(2) for _ in range(n)))

    def weight(self) -> int:
        return self._int.bit_count()

    def prefix(self, i: int) -> "BitString":
        if not 1 <= i <= len(self):
            raise ValueError(f"prefix length {i} out of range")
        return BitString._of(i, self._int >> (self._len - i))

    def suffix(self, i: int) -> "BitString":
        if not 1 <= i <= len(self):
            raise ValueError(f"suffix length {i} out of range")
        return BitString._of(i, self._int & ((1 << i) - 1))

    def rds_profile(self) -> tuple[int, ...]:
        """R(s)_i for every i in [n]."""
        out = []
        r = 0
        for b in self.bits:
            r += 1 if b else -1
            out.append(r)
        return tuple(out)


def real_sum(strings: Iterable[BitString]) -> tuple[int, ...]:
    """Coordinate-wise sum over the integers of equal-length strings."""
    strings = list(strings)
    n = len(strings[0])
    if any(len(s) != n for s in strings):
        raise LengthMismatch("real sum of unequal lengths")
    return tuple(map(sum, zip(*(s.bits for s in strings))))


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
        match = _COMPOSITION_TEXT.fullmatch(text.replace(" ", ""))
        if match is None or not match.group(0):
            raise ValueError(f"bad composition text {text!r}")
        zeros, zeros_exp, ones, ones_exp = match.groups()
        return cls(int(zeros_exp or 1) if zeros else 0, int(ones_exp or 1) if ones else 0)

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
    rows past the longest fragment; equality and hashing ignore that
    padding.  Every table is int32 (``COUNT_DTYPE``), whichever producer
    built it, so equal multisets hash equal, and a multiset holds at most
    2**31 - 1 fragments (``MAX_FRAGMENTS``), so no cell overflows: the
    constructors that take outside counts and ``union`` refuse a larger
    total, and every other producer keeps its input's.  Multiplicities are
    ints (bools and numpy integers too); a float or a negative one is a
    ValueError.  Pooling is a scatter-add, union an addition, and
    removal a decrement of a copy, so no operation builds a
    :class:`Composition` per fragment.  Compositions appear only where
    entries are listed: ``entries``, ``elements``, printing and JSON, all in
    the canonical order (fragment length, ones) ascending.  One slot keeps
    the last value derived from the counts (see :meth:`memo`).
    """

    __slots__ = ("_counts", "_total", "_memo")

    def __init__(self, items: Union[Mapping[Composition, int], Iterable[Composition], None] = None):
        if isinstance(items, Mapping):
            entries = [(comp, _multiplicity(mult)) for comp, mult in items.items()]
        else:
            entries = [(comp, 1) for comp in items or ()]
        total = _checked_total(sum(mult for _, mult in entries))
        counts = _blank(1 + max((comp.length for comp, _ in entries), default=0))
        for comp, mult in entries:
            counts[comp.length, comp.ones] += mult
        self._own(counts, total)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "CompositionMultiset":
        """Check a square ``counts[length, ones]`` array of bools or integers and wrap
        it as int32, a copy unless it is int32 already; the table becomes read-only."""
        import numpy as np

        counts = np.asarray(counts)
        if counts.dtype.kind not in "biu":
            raise ValueError(f"counts must be integers, got {counts.dtype}")
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"counts must be a square matrix, got shape {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("negative multiplicity")
        if counts[:1].any() or np.triu(counts, 1).any():
            raise ValueError("counts hold a fragment of length 0 or with more ones than symbols")
        # a cell within the limit keeps the int64 sum of any table that fits in memory exact
        _checked_total(int(counts.max(initial=0)))
        total = _checked_total(int(counts.sum(dtype=np.int64)))
        return cls._of(counts.astype(COUNT_DTYPE, copy=False), total)

    @classmethod
    def _of(cls, counts: np.ndarray, total: int) -> "CompositionMultiset":
        """Own a valid table of ``COUNT_DTYPE`` (see :meth:`from_counts`) and its sum,
        neither checked."""
        out = cls.__new__(cls)
        out._own(counts, total)
        return out

    def _own(self, counts: np.ndarray, total: int) -> None:
        counts.flags.writeable = False
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_total", total)
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

    def __reduce__(self):
        # pickle and copy rebuild from the counts alone, with an empty memo
        return type(self).from_counts, (self._counts,)

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
        mine, theirs = self._counts, other._counts
        # padding is zero, so tables of one shape compare cell by cell
        if mine.shape != theirs.shape:
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

    def ones_at_length(self, length: int) -> tuple[int, ...]:
        """Sorted ones-counts of all fragments of the given length."""
        if not 0 <= length < len(self._counts):
            return ()
        row = self._counts[length]
        ones = row.nonzero()[0]
        return tuple(ones.repeat(row[ones]).tolist())

    def union(self, *others: "CompositionMultiset") -> "CompositionMultiset":
        parts = (self, *others)
        total = _checked_total(sum(p._total for p in parts))
        counts = _blank(max(len(p._counts) for p in parts))
        for p in parts:
            size = len(p._counts)
            counts[:size, :size] += p._counts
        return CompositionMultiset._of(counts, total)

    def add(self, comp: Composition, mult: int = 1) -> "CompositionMultiset":
        return self.union(CompositionMultiset({comp: mult}))

    def remove(self, comp: Composition, mult: int = 1) -> "CompositionMultiset":
        mult = _multiplicity(mult)
        held = self.count(comp)
        if held < mult:
            raise KeyError(f"multiset holds {held} of {comp}, need {mult}")
        counts = self._counts.copy()
        counts[comp.length, comp.ones] -= mult
        return CompositionMultiset._of(counts, self._total - mult)

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
            counts[comp] += json_int(entry, "mult", "a fragment", default=1)
        return cls(counts)

    @classmethod
    def parse(cls, text: str) -> "CompositionMultiset":
        """Parse ``{0, 01, 0^2 1^3, ...}`` listings (for tests and fixtures)."""
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        items = [t for t in (part.strip() for part in text.split(",")) if t]
        return cls(Composition.parse(t) for t in items)


def _multiplicity(mult) -> int:
    """A multiplicity as a Python int: an int, a bool or a numpy integer, not negative."""
    try:
        mult = index(mult)
    except TypeError:
        raise ValueError(f"multiplicity must be an integer, got {mult!r}") from None
    if mult < 0:
        raise ValueError("negative multiplicity")
    return mult


def _checked_total(total: int) -> int:
    if total > MAX_FRAGMENTS:
        raise ValueError(f"{total} fragments exceed the limit of {MAX_FRAGMENTS}")
    return total


def _blank(size: int) -> np.ndarray:
    import numpy as np

    return np.zeros((size, size), dtype=COUNT_DTYPE)


def tally(size: int, cells: np.ndarray) -> CompositionMultiset:
    """The multiset with one fragment per listed flat cell ``length * size + ones``
    of a size x size table, a cell as often as it is listed; the cells, read off
    strings of length size - 1, are not checked.  One ``np.add.at`` of int32
    ones fills the int32 table, with no wider temporary."""
    import numpy as np

    counts = np.zeros(size * size, dtype=COUNT_DTYPE)
    np.add.at(counts, cells, counts.dtype.type(1))
    return CompositionMultiset._of(counts.reshape(size, size), cells.size)


def scatter(
    size: int, length: np.ndarray, ones: np.ndarray, mults: Sequence[np.ndarray],
    totals: Sequence[int],
) -> tuple[CompositionMultiset, ...]:
    """One multiset of a size x size table per row of ``mults``, holding
    ``mults[k][j]`` fragments at the distinct cell ``(length[j], ones[j])``,
    all from one int32 array and one assignment.  Nothing is checked: the cells
    and multiplicities are read off a valid table, and ``totals[k]`` is the sum
    of ``mults[k]``."""
    import numpy as np

    counts = np.zeros((len(mults), size, size), dtype=COUNT_DTYPE)
    counts[:, length, ones] = mults
    return tuple(CompositionMultiset._of(counts[k], total) for k, total in enumerate(totals))


def bit_matrix(strings: Sequence[BitString]) -> np.ndarray:
    """Equal-length strings as one read-only (len(strings), n) uint8 array of 0/1,
    one byte per symbol, read by C calls rather than an int conversion each."""
    import numpy as np

    n = len(strings[0])
    if any(len(s) != n for s in strings):
        raise LengthMismatch(f"strings of one array must share length {n}")
    symbols = "".join(map(str, strings)).encode().translate(FROM_ASCII)
    return np.frombuffer(symbols, np.uint8).reshape(len(strings), n)


def bit_rows(bits: np.ndarray) -> list[BitString]:
    """Each row of a 2-D 0/1 array as a BitString: one text for the whole
    array, then one ``int(text, 2)`` per row."""
    import numpy as np

    rows, n = bits.shape
    text = np.ascontiguousarray(bits, dtype=np.uint8).tobytes().translate(_TO_ASCII)
    return [BitString._of(n, int(text[i : i + n], 2)) for i in range(0, rows * n, n)]


def fragment_cells(
    strings: Sequence[BitString], prefixes: bool = True, suffixes: bool = True
) -> np.ndarray:
    """The flat cell ``length * (n + 1) + ones`` of every read of equal-length
    strings: one row of n per read, all prefix reads first, each one cumulative sum."""
    import numpy as np

    n = len(strings[0])
    bits = bit_matrix(strings)
    reads = ([bits] if prefixes else []) + ([bits[:, ::-1]] if suffixes else [])
    cumulative = np.cumsum(np.concatenate(reads), axis=1, dtype=np.int64)
    return cumulative + (n + 1) * np.arange(1, n + 1)


def _read_fragments(strings: Sequence[BitString], **reads: bool) -> CompositionMultiset:
    """The count table of the reads, by one scatter-add of their cells."""
    return tally(len(strings[0]) + 1, fragment_cells(strings, **reads).ravel())


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


def all_dyck_strings(
    n: int, known: Optional[Sequence[Optional[int]]] = None
) -> tuple[BitString, ...]:
    """All Dyck strings of even length n, in ascending lexicographic order,
    or those whose symbol i is ``known[i]`` wherever that is not None.

    Prefixes grow depth first, 0 before 1, so the strings come out in that
    order; a prefix of length i is dropped as soon as it holds fewer than
    ceil(i/2) ones or more than n/2, so with nothing known every prefix kept
    ends in a string.
    """
    if n % 2:
        raise OddLength(f"no Dyck strings of odd length {n}")
    if n < 1:
        raise ValueError("empty bit string")
    found = []
    known = known or (None,) * n

    def grow(value: int, length: int, ones: int) -> None:
        if length == n:
            found.append(BitString._of(n, value))
            return
        for bit in (0, 1) if known[length] is None else (known[length],):
            if (length + 2) // 2 <= ones + bit <= n // 2:
                grow(value << 1 | bit, length + 1, ones + bit)

    grow(0, 0, 0)
    return tuple(found)


class PartialSumString:
    """A length-indexed sum of a string mixture with possible erasures.

    Symbols live in {0, ..., hbar} or are erased (None).  The string is the
    coordinate-wise integer sum of ``hbar`` binary strings, reconstructed
    from a (possibly incomplete) one-sided fragment pool.  The constructor
    checks every symbol; ``_of`` checks only hbar, for readers whose
    symbols are already known to be ints in 0..hbar or None.
    """

    __slots__ = ("symbols", "hbar")

    def __init__(self, symbols: Iterable[Optional[int]], hbar: int):
        syms = tuple(symbols)
        known = [v for v in syms if v is not None]
        if set(map(type, known)) - {int}:
            # numpy ints, bools, floats and digit strings go through int()
            syms = tuple(None if v is None else int(v) for v in syms)
            known = [v for v in syms if v is not None]
        if hbar < 1:
            raise ValueError("hbar must be positive")
        if known and (min(known) < 0 or max(known) > hbar):
            v = next(v for v in known if not 0 <= v <= hbar)
            raise ValueError(f"symbol {v} outside 0..{hbar}")
        self._own(syms, hbar)

    def _own(self, symbols: tuple, hbar: int) -> None:
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "hbar", hbar)

    @classmethod
    def _of(cls, symbols: tuple, hbar: int) -> "PartialSumString":
        """The sum with these symbols, each an int in 0..hbar or None (not checked)."""
        if hbar < 1:
            raise ValueError("hbar must be positive")
        out = cls.__new__(cls)
        out._own(symbols, hbar)
        return out

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
        return None not in self.symbols

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

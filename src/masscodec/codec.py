"""Block balancing and the Dyck mixture codec.

Encoding turns a codebook string s of length n into a longer string whose
prefix fragments always carry at least as many 1s as 0s (and suffixes the
reverse), so that a pooled readout of several codewords can be split into
its prefix half and suffix half by weight alone.  The pipeline:

1.  Left-pad s with zeros to the next perfect square m, and parse it into
    sqrt(m) blocks of sqrt(m) symbols.
2.  Rebuild the string block by block: whenever the running digital sum
    so far and the next block's digital sum have the same sign, append the
    block complemented, otherwise append it unchanged (a block-level
    variant of Knuth balancing).  The flag string r records which blocks
    were complemented; the result u has every prefix RDS within
    (3/2)sqrt(m) of zero and block-boundary RDS within sqrt(m).
3.  Emit  1^ceil((5/2)sqrt(m)) . r . u . 1^a . 0^b  with the tail run
    lengths chosen to make the string balanced of even length
    N = m + ceil((17/2)sqrt(m)), rounded up to even.  The leading run
    keeps the RDS strictly positive throughout the data segments, and the
    whole codeword satisfies the Dyck prefix-weight property.

A book is framed in one pass (``frame``): its words are one (|C|, n) 0/1
array, padded to m and balanced together, with one loop over the sqrt(m)
blocks (``balance_blocks``); the flags, any z and the data are laid into
one (|C|, N) array, the tails fill each row (``append_tails``), and each
row is read out as a BitString once.  ``encode`` frames any number of
strings of one length, so a book's encoder calls it once, and a single
string is a list of one.

Decoding a pooled readout of hbar <= h codewords inverts each step: split
the pool by weight, rebuild the coordinate-wise integer sum of the
codewords from the prefix side, read the mod-2 sum of the original
strings off the flag and data sums with ``unflip`` (each data sum plus
its block's flag sum, mod 2), and look the mod-2 sum up in the codebook.
Strings that are already Dyck can be their own codewords (the scheme RAW,
``raw_codebook``), and then the integer sum itself is looked up.

The lookup is the answer step of every decoder, plain and coded alike:
``settle_target``.  A parity-check-backed codebook gives distinct subsets
of size <= h distinct sums; an explicit codebook may not, and then the one
of the lookup's matches whose pool holds the readout is the answer, or the
shared target is reported as AmbiguousSolution.  The merge of the two
side readings decodes any plain readout, clean or not
(``reconstruct_redundancy_free``, the CLI's plain decode): a complete
merged sum goes through ``plain_sources`` as a clean one does; an
incomplete one comes back with its witnesses from ``held_subsets``: the
subset search over a book's codewords, masked to the sum's known positions.
The answer step, ``plain_sources`` and ``held_subsets`` each keep an answer
only when its pool ``explains`` the readout: the one readout check.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .bhcode import DEFAULT_BUDGET, BhCodebook, XorIndex, invert_mod2_sum, invert_sum
from .channel import (
    erase,
    hold_length_totals,
    increments,
    length_totals,
    merged_sums,
    sample_erasure_pattern,
    side_sums,
    sided_cells,
)
from .core import (
    BitString,
    BitsLike,
    CompositionMultiset,
    PartialSumString,
    all_dyck_strings,
    bit_matrix,
    bit_rows,
    fragment_cells,
    is_dyck,
    scatter,
    tally,
)
from .errors import (
    AmbiguousSolution,
    ConfigError,
    Conflict,
    CountMismatch,
    DecodeFailure,
    DuplicateString,
    InconsistentPoolSize,
    LengthMismatch,
    MasscodecError,
    OddLength,
    SearchSpaceTooLarge,
    UnsupportedCodebook,
)

if TYPE_CHECKING:
    import numpy as np

    from .ecc import IntegralLayout
    from .linearcode import LinearCode, ModpCode

PLAIN = "plain"
RAW = "raw"  # a base of Dyck strings, each its own codeword


def next_square(n: int) -> tuple[int, int]:
    """Smallest perfect square >= n and its root."""
    root = math.isqrt(n)
    if root * root < n:
        root += 1
    return root * root, root


@dataclass(frozen=True)
class BalancedPair:
    """An approximately balanced string u and its block-complement flags r."""

    u: BitString
    r: BitString

    def __post_init__(self):
        if len(self.r) ** 2 != len(self.u):
            raise ValueError("flag length squared must equal the data length")


def balance_blocks(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flags r and the balanced data u of every row of a (rows, m) 0/1 array.

    Each row is rebuilt block by block so its running digital sum stays
    near zero: the first block is kept, and each later block is complemented
    exactly when its digital sum has the same sign (zero counts as
    positive) as the digital sum accumulated so far.  Either way the block
    then moves a sum >= 0 down by its size |rds_j| and a sum < 0 up by it,
    so one loop over the sqrt(m) blocks runs the sums of every row at once,
    and the flags are read off them after it.  Returns r as (rows, sqrt(m))
    and u as (rows, m), both uint8.
    """
    import numpy as np

    rows, m = padded.shape
    root = math.isqrt(m)
    if root * root != m:
        raise ValueError(f"length {m} is not a perfect square; pad first")
    blocks = padded.reshape(rows, root, root)
    rds = 2 * blocks.sum(axis=2, dtype=np.int64) - root
    size = np.abs(rds)
    acc = np.empty((rows, root), dtype=np.int64)
    acc[:, 0] = rds[:, 0]
    for j in range(1, root):
        prev = acc[:, j - 1]
        np.subtract(prev, np.where(prev >= 0, size[:, j], -size[:, j]), out=acc[:, j])
    flags = np.zeros((rows, root), dtype=np.uint8)
    flags[:, 1:] = (acc[:, :-1] >= 0) == (rds[:, 1:] >= 0)
    return flags, (blocks ^ flags[:, :, None]).reshape(rows, m)


def block_balance(s: BitsLike) -> BalancedPair:
    """``balance_blocks`` of the one string s, whose length must be a square."""
    s = BitString(s)
    r, u = balance_blocks(bit_matrix([s]))
    return BalancedPair(u=bit_rows(u)[0], r=bit_rows(r)[0])


def unbalance(u: BitsLike, r: BitsLike) -> BitString:
    """Undo block complementation: flip block j exactly when r_j = 1.

    Exact inverse of block_balance on a single string (``unflip`` on bits).
    """
    return BitString(unflip(BitString(u).bits, BitString(r).bits))


def unflip(
    data: Sequence[Optional[int]], flags: Sequence[Optional[int]], pad: int = 0
) -> list[Optional[int]]:
    """Each data symbol of block j plus flag j, mod 2, less the first ``pad``.

    The one reading of a balanced payload: data and flags may be bits or
    integer sums, so block j is complemented exactly where its flag sum is
    odd, and pooled sums give the mod-2 sum of the sources, because
    complementing a block is an XOR with the all-ones block.  A symbol is
    erased (None) where it or its block's flag is.  The dropped padding
    is zero in every source, so its mod-2 sum needs no recovery.
    """
    root = len(flags)
    if root * root != len(data):
        raise ValueError("flag length squared must equal the data length")
    return [
        None if flag is None or b is None else (b + flag) % 2
        for j, flag in enumerate(flags)
        for b in data[j * root : (j + 1) * root]
    ][pad:]


@dataclass(frozen=True)
class McLayout:
    """Segment table of a book's codewords: offsets are fixed by (n, z_len) alone."""

    n: int  # source string length before padding
    m: int  # padded length (perfect square)
    root: int  # sqrt(m)
    pad: int
    lead: int  # length of the leading 1-run
    z_len: int  # auxiliary balanced segment between r and u (0 when unused)
    N: int  # total codeword length

    @property
    def r_start(self) -> int:
        return self.lead

    @property
    def z_start(self) -> int:
        return self.lead + self.root

    @property
    def u_start(self) -> int:
        return self.z_start + self.z_len

    @property
    def tail_start(self) -> int:
        return self.u_start + self.m

    def to_json_obj(self) -> dict:
        segments = {
            "r": [self.r_start, self.root],
            "z": [self.z_start, self.z_len],
            "u": [self.u_start, self.m],
            "tail": [self.tail_start, self.N - self.tail_start],
        }
        return {**asdict(self), "segments": segments}


@functools.cache  # bounds.construction_rate asks once per rate
def plain_layout(n: int) -> McLayout:
    m, root = next_square(n)
    lead = math.ceil(5 * root / 2)
    N = m + math.ceil(17 * root / 2)
    if N % 2:
        N += 1
    return McLayout(n=n, m=m, root=root, pad=m - n, lead=lead, z_len=0, N=N)


@dataclass(frozen=True)
class McCodeword:
    """A Dyck codeword and its source string; the segment table is its book's."""

    bits: BitString
    origin: BitString


def append_tails(words: np.ndarray, lead: int, start: int) -> list[BitString]:
    """Each row of the (rows, N) array words as a balanced codeword: its
    columns below lead become the leading 1-run and its columns from start
    on the 1-run and then the 0-run that balance the row.  The columns
    between hold the row's parts, 0/1, already in place."""
    import numpy as np

    N = words.shape[1]
    words[:, :lead] = 1
    ones_tail = N // 2 - words[:, :start].sum(axis=1, dtype=np.int64)
    if (ones_tail < 0).any() or (ones_tail > N - start).any():
        raise ValueError("balancing tails would be negative; layout broken")
    words[:, start:] = np.arange(N - start) < ones_tail[:, None]
    return bit_rows(words)


def frame(
    layout: McLayout,
    words: np.ndarray,
    z_of: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> list[BitString]:
    """The one codeword frame, over a whole book: the codeword of every row of
    the (rows, layout.n) 0/1 array words.

    Each row is left-padded to the layout's m and balanced (``balance_blocks``);
    its flags r, then z, then its data u go behind the leading run, and the
    tails follow (``append_tails``).  ``z_of(r, u)`` gives the bits that z
    carries, one row per word, each followed by its complement so z stays
    balanced; only a layout with an empty z may go without it.
    """
    import numpy as np

    rows, n = words.shape
    if n != layout.n or (z_of is None and layout.z_len):
        raise ValueError(f"words of length {n} do not fit the layout {layout}")
    padded = np.zeros((rows, layout.m), dtype=np.uint8)
    padded[:, layout.pad :] = words
    r, u = balance_blocks(padded)
    out = np.empty((rows, layout.N), dtype=np.uint8)
    out[:, layout.r_start : layout.z_start] = r
    if z_of is not None:
        z = z_of(r, u)
        out[:, layout.z_start : layout.u_start : 2] = z
        out[:, layout.z_start + 1 : layout.u_start : 2] = 1 - z
    out[:, layout.u_start : layout.tail_start] = u
    return append_tails(out, layout.lead, layout.tail_start)


def encode(strings: Sequence[BitsLike]) -> tuple[McCodeword, ...]:
    """The codewords of equal-length strings under ``plain_layout`` of their
    length: one ``frame`` of all of them."""
    if isinstance(strings, (str, BitString)):
        raise TypeError("encode takes a sequence of strings; pass one string as [s]")
    strings = [s if isinstance(s, BitString) else BitString(s) for s in strings]
    if not strings:
        return ()
    bits = frame(plain_layout(len(strings[0])), bit_matrix(strings))
    return tuple(map(McCodeword, bits, strings))


@dataclass(frozen=True)
class RawLayout:
    """A RAW book's layout: its codewords are its source strings, so only N."""

    N: int

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McCodebook:
    """All codewords of a source codebook under one scheme and its one layout.

    Every codeword shares the book's segment table, so the layout is the
    book's, computed once when the book is built.  The plain codec is the
    scheme PLAIN with t = 0 and no codes, or RAW for Dyck strings that are
    their own codewords; the correction schemes of ``ecc`` build the same
    type around their codes.
    """

    base: BhCodebook
    codewords: tuple[McCodeword, ...]
    layout: Union[McLayout, IntegralLayout, RawLayout]
    scheme: str = PLAIN
    t: int = 0
    code_data: Union[LinearCode, ModpCode, None] = None
    code_flag: Optional[LinearCode] = None

    @property
    def N(self) -> int:
        return self.layout.N

    @property
    def h(self) -> int:
        return self.base.h

    def __len__(self) -> int:
        return len(self.codewords)

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """One row of 2N fragment cells per codeword, prefix reads then suffix reads."""
        import numpy as np

        return np.hstack(np.split(fragment_cells([cw.bits for cw in self.codewords]), 2))

    @functools.cached_property
    def _row_of(self) -> dict[BitString, int]:
        return {cw.origin: row for row, cw in enumerate(self.codewords)}

    def _rows(self, sources: Sequence[BitString]) -> list[int]:
        try:
            return [self._row_of[s] for s in sources]
        except KeyError as exc:
            raise KeyError(f"{exc.args[0]} is not in the codebook") from None

    def bits_for(self, source: BitString) -> BitString:
        return self.codewords[self._rows([source])[0]].bits

    def pool_of(self, sources) -> CompositionMultiset:
        """Pooled readout of the codewords of the given source strings: their rows
        of ``cells``, tallied by ``core.tally``."""
        rows = self._rows([s if isinstance(s, BitString) else BitString(s) for s in sources])
        if len(set(rows)) != len(rows):
            raise DuplicateString("pooled strings must be pairwise distinct")
        return tally(self.N + 1, self.cells.take(rows, axis=0).ravel())


def encode_codebook(base: BhCodebook) -> McCodebook:
    return McCodebook(base, encode(base.strings), plain_layout(base.n))


def raw_codebook(base: BhCodebook) -> McCodebook:
    """The RAW book of a base of Dyck strings: each string is its own codeword."""
    import numpy as np

    N = base.n
    if N % 2:
        raise OddLength(f"Dyck property needs even length, got {N}")
    book = McCodebook(base, tuple(McCodeword(s, s) for s in base.strings), RawLayout(N), RAW)
    # a Dyck string's prefix of length i holds at least i/2 ones, and N/2 at i = N
    length, ones = np.divmod(book.cells[:, :N], N + 1)
    if (2 * ones < length).any() or (2 * ones[:, -1] != N).any():
        raise ConfigError("raw codebooks must consist of Dyck strings")
    return book


def require_plain(codebook: McCodebook) -> None:
    """Refuse a coded book: its payload is not the mod-2 sum of the sources."""
    if codebook.scheme not in (PLAIN, RAW):
        raise UnsupportedCodebook(
            f"a {codebook.scheme} codebook carries a coded payload; "
            "decode it with ecc.scheme_decode"
        )


def separate_pool(
    pool: CompositionMultiset, N: int, hbar: int
) -> tuple[CompositionMultiset, CompositionMultiset]:
    """Split a complete pooled readout into prefix and suffix multisets.

    Fragments of length i with more than i/2 ones must be prefixes and
    with fewer must be suffixes; at even i a fragment with exactly i/2
    ones can sit on either side, and since all such ties are the identical
    composition the split is unique once each side is filled to hbar.

    The pool's ``side_sums`` makes that split: its ``fragments`` check that
    every length splits hbar + hbar, and ``core.scatter`` writes both shares
    of ``sided_cells``, the one listing of the reading's cells, into the two
    count tables at once.  The prefix side keeps the reading's prefix totals
    as its ``length_totals``.
    """
    sums = side_sums(pool, N, hbar)
    # a length splits exactly when tie filling leaves hbar on each side
    unsplit = sums.fragments != hbar
    if unsplit.any():
        length = int(unsplit.any(axis=0).argmax()) + 1
        ones_list = pool.ones_at_length(length)
        if len(ones_list) != 2 * hbar:
            raise CountMismatch(
                f"length {length}: {len(ones_list)} fragments, expected {2 * hbar}"
            )
        raise CountMismatch(f"length {length}: cannot split {ones_list} into {hbar}+{hbar}")
    length, ones, *shares = sided_cells(sums)
    # each of the N lengths holds hbar fragments per side, as just checked
    prefixes, suffixes = scatter(N + 1, length, ones, shares, (hbar * N, hbar * N))
    hold_length_totals(prefixes, N, sums.fragments[0], sums.ones[0])
    return prefixes, suffixes


def sum_from_prefixes(
    prefix_pool: CompositionMultiset, N: int, hbar: int
) -> PartialSumString:
    """Coordinate-wise integer sum of the mixture from a complete prefix pool.

    With n_i the total ones over the hbar length-i fragments, position i of
    the sum is n_i - n_{i-1}.  The totals are ``length_totals``, which the
    prefix side of ``separate_pool`` already holds.
    """
    per_length, cumulative = length_totals(prefix_pool, N)
    full = per_length == hbar
    short = (~full).nonzero()[0]
    # lengths are checked in order, so a bad symbol before a short length wins
    end = int(short[0]) if short.size else N
    symbols, _ = increments(cumulative[:end], full[:end], hbar, strict=True)
    if short.size:
        raise CountMismatch(f"length {end + 1}: {per_length[end]} prefixes, expected {hbar}")
    return PartialSumString._of(tuple(symbols), hbar)


def mixture_mod2_target(
    total: PartialSumString, layout: McLayout
) -> BitString:
    """The mod-2 sum of the source strings, read off a complete codeword sum."""
    syms = total.as_tuple()
    lead = syms[: layout.lead]
    if lead.count(total.hbar) != len(lead):
        raise DecodeFailure("leading-run sums are not all hbar; pool inconsistent")
    flags = syms[layout.r_start : layout.r_start + layout.root]
    return BitString(unflip(syms[layout.u_start : layout.u_start + layout.m], flags, layout.pad))


def decode_mixture(
    pool: CompositionMultiset,
    codebook: McCodebook,
    hbar: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[BitString]:
    """Recover the source strings of a clean pooled readout.

    hbar defaults to |pool| / (2N).  The prefix side alone fixes the answer,
    so ``plain_sources`` certifies it against the readout.
    """
    require_plain(codebook)  # before the pool is read
    N = codebook.N
    if hbar is None:
        if pool.total == 0 or pool.total % (2 * N):
            raise InconsistentPoolSize(
                f"pool of {pool.total} fragments is not a multiple of 2N={2 * N}"
            )
        hbar = pool.total // (2 * N)
    if not 1 <= hbar <= codebook.h:
        raise InconsistentPoolSize(f"hbar={hbar} outside 1..{codebook.h}")
    prefixes, _ = separate_pool(pool, N, hbar)
    total = sum_from_prefixes(prefixes, N, hbar)
    return plain_sources(pool, codebook, total, hbar, budget)


def explains(
    readout: CompositionMultiset, held: CompositionMultiset, lighter: bool = False
) -> bool:
    """Whether the pool held explains the readout: each fragment read pairs
    with its own fragment of held of the same length and as many ones, or
    with ``lighter`` at least as many.  So without ``lighter`` a readout of
    held's size is explained exactly when it is held; with it, at each
    length and for every w, held has at least as many fragments with w or
    more ones as the readout (Hall's condition for this nested matching)."""
    import numpy as np

    mine, theirs = readout.counts, held.counts
    # padding is zero, so tables of one shape compare cell by cell
    if mine.shape != theirs.shape:
        size = min(len(mine), len(theirs))
        if mine[size:].any():  # a fragment longer than any held
            return False
        mine, theirs = mine[:size, :size], theirs[:size, :size]
    if lighter:
        # held's heavy-end sums less the readout's, summed from the one difference;
        # each lies within +-(2**31 - 1), a table's most fragments, so int32 is exact
        spare = (theirs - mine)[:, ::-1]
        return bool((np.cumsum(spare, axis=1, dtype=spare.dtype) >= 0).all())
    return bool((mine <= theirs).all())


def plain_sources(
    pool: CompositionMultiset, codebook: McCodebook, total: PartialSumString, hbar: int, budget: int
) -> frozenset[BitString]:
    """The sources of a plain readout whose codeword sum is complete: a RAW
    book's integer sum, or an encoded book's mod-2 target read off the sum,
    settled by ``settle_target``.  The answer stands once its pool
    ``explains`` the readout, with lighter readings below clean size, 2N*hbar
    fragments; DecodeFailure otherwise."""
    raw = codebook.scheme == RAW
    target = total.as_tuple() if raw else mixture_mod2_target(total, codebook.layout)
    answer = settle_target(pool, codebook, target, hbar, budget)
    clean = 2 * codebook.N * hbar
    if not explains(pool, codebook.pool_of(answer), lighter=pool.total < clean):
        fails = "is not" if pool.total == clean else "does not explain"
        raise DecodeFailure(f"the pool of the decoded set {fails} the readout")
    return answer


def settle_target(
    pool: CompositionMultiset, book: McCodebook, target: BitsLike, hbar: int, budget: int
) -> frozenset[BitString]:
    """The answer step of every decoder: the book's hbar-subset with the target sum.

    A RAW book's target is the integer sum (``invert_sum``), any other's the
    mod-2 sum of the sources (``invert_mod2_sum``).  An explicit book, even a
    B_h one, can give two hbar-subsets one target while their pools differ,
    so a shared target is settled among the lookup's own matches: the one
    whose pool ``explains`` the readout is the answer.  With none or more
    than one, the lookup's ``AmbiguousSolution`` stands.
    """
    lookup = invert_sum if book.scheme == RAW else invert_mod2_sum
    try:
        return frozenset(lookup(book.base, target, hbar, budget))
    except AmbiguousSolution as shared:
        held = [sub for sub in shared.matches if explains(pool, book.pool_of(sub))]
        if len(held) != 1:
            raise
        return frozenset(held[0])


@dataclass(frozen=True)
class Recovered:
    """Successful redundancy-free reconstruction."""

    sum: PartialSumString
    strings: Optional[frozenset[BitString]] = None


@dataclass(frozen=True)
class Ambiguous:
    """The pool is consistent with more than one explanation.  ``witnesses``
    is None when no book was searched or the search went over its budget."""

    partial: PartialSumString
    witnesses: Optional[tuple[frozenset[BitString], ...]] = None


def reconstruct_redundancy_free(
    pool: CompositionMultiset,
    N: int,
    hbar: int,
    codebook: Union[McCodebook, BhCodebook, None] = None,
    budget: int = DEFAULT_BUDGET,
) -> Union[Recovered, Ambiguous]:
    """Reconstruct a mixture sum from an erased pool without coding redundancy.

    The two-sided merge always succeeds when the erasure bursts of the two
    sides do not overlap, or overlap once in a single position; the weight
    anchor can settle a little more (all-zero and all-max deficits).  A
    complete sum's sources come from ``plain_sources``, certified as
    ``decode_mixture``'s are; an incomplete sum's witnesses are the book's
    subsets whose pool ``explains`` the readout, and with no book and hbar 1
    the book is the RAW book of the Dyck strings of length N that agree
    with the sum's known symbols, while 2^N is within the budget.

    A ``BhCodebook`` of Dyck strings is read as its RAW book; a book of a
    correction scheme raises UnsupportedCodebook, and an N other than the
    book's LengthMismatch, before the pool is read.  A witness search past
    its budget leaves the witnesses None; on a complete sum,
    ``plain_sources`` lets its SearchSpaceTooLarge through.
    """
    if isinstance(codebook, BhCodebook):
        codebook = raw_codebook(codebook)
    if codebook is not None:
        require_plain(codebook)
        if N != codebook.N:
            raise LengthMismatch(f"N={N}, but the codebook's codewords have N={codebook.N}")
    merged = merged_sums(pool, N, hbar)
    if merged.complete:
        if codebook is None:
            return Recovered(merged, frozenset({merged.to_bitstring()}) if hbar == 1 else None)
        return Recovered(merged, plain_sources(pool, codebook, merged, hbar, budget))
    if codebook is None and hbar == 1 and 2**N <= budget:
        # only the Dyck strings that agree with every known symbol can explain it
        strings = all_dyck_strings(N, merged.symbols)
        if not strings:
            return Ambiguous(merged, ())
        codebook = raw_codebook(BhCodebook(N, 1, strings))
    witnesses = None
    if codebook is not None:
        try:
            witnesses = held_subsets(pool, merged, hbar, codebook, budget)
        except SearchSpaceTooLarge:
            pass
    return Ambiguous(merged, witnesses)


def held_subsets(
    pool: CompositionMultiset, merged: PartialSumString, hbar: int, book: McCodebook, budget: int
) -> tuple[frozenset[BitString], ...]:
    """The book's hbar-subsets whose pool holds the readout, found by the one
    subset search over the codewords masked to the known positions of the
    merged codeword sum, and checked by ``explains`` against ``pool_of``.  A
    search past its budget raises SearchSpaceTooLarge."""
    # codewords in the order of their text, which orders the subsets found
    words = sorted(book.codewords, key=lambda cw: str(cw.bits))
    # hbar codewords whose pool holds the readout sum to every known symbol, so none is missed
    known = [(len(merged) - 1 - i, v) for i, v in enumerate(merged.symbols) if v is not None]
    mask, parity = sum(1 << b for b, _ in known), sum((v & 1) << b for b, v in known)
    found = XorIndex([cw.bits.as_int & mask for cw in words]).matches(parity, hbar, budget)
    subsets = ([words[i].origin for i in sub] for sub in found)
    return tuple(frozenset(sub) for sub in subsets if explains(pool, book.pool_of(sub)))


def run_erasure_experiment(
    codebook: BhCodebook,
    hbar: int,
    t: int,
    trials: int,
    seed: int,
    placement: str = "uniform",
    budget: int = DEFAULT_BUDGET,
) -> list[dict]:
    """Monte-Carlo erasure trials; one outcome row per trial.

    A codebook of Dyck strings is run as its RAW book, and any other through
    the mixture encoder (weight separation is meaningless otherwise).
    Outcomes: ``exact`` (recovered and equal to the truth), ``ambiguous``
    (an incomplete sum, or a complete one that more than one subset
    explains), ``conflict`` (side disagreement), ``error`` (any other
    typed decoder error; the row's ``reason`` holds its class name), and
    ``wrong`` (recovered but not the truth -- must never happen; kept so
    silence cannot hide it).  ``ConfigError`` refuses an hbar outside
    1..|C|, a t outside 0..2N*hbar, the size of the pool, and a negative
    trial count.
    """
    if not 1 <= hbar <= len(codebook):
        raise ConfigError(f"an experiment needs 1 <= hbar <= {len(codebook)}, got hbar={hbar}")
    if trials < 0:
        raise ConfigError(f"an experiment needs trials >= 0, got trials={trials}")
    try:
        book = raw_codebook(codebook)
    except (ConfigError, OddLength):  # strings that are not Dyck are encoded first
        book = encode_codebook(codebook)
    N = book.N
    if not 0 <= t <= 2 * N * hbar:
        raise ConfigError(f"an experiment needs 0 <= t <= {2 * N * hbar}, got t={t}")
    rows = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        subset = tuple(sorted(rng.sample(list(codebook.strings), hbar)))
        words = [book.bits_for(s) for s in subset]
        pattern = sample_erasure_pattern(words, t, rng, placement)
        erased = erase(book.pool_of(subset), pattern, rng=rng)
        row = {"seed": seed, "trial": trial, "n": N, "hbar": hbar, "t": t}
        try:
            result = reconstruct_redundancy_free(erased, N, hbar, book, budget)
        except Conflict:
            row["outcome"] = "conflict"
        except AmbiguousSolution:
            row["outcome"] = "ambiguous"
        except MasscodecError as exc:
            row.update(outcome="error", reason=type(exc).__name__)
        else:
            if isinstance(result, Ambiguous):
                row["outcome"] = "ambiguous"
            else:
                row["outcome"] = "exact" if result.strings == frozenset(subset) else "wrong"
        rows.append(row)
    return rows


@dataclass(frozen=True)
class BalanceReport:
    """Measured balancing statistics of one codeword (for invariant checks)."""

    root: int
    boundary_rds_max: int  # max |RDS| at block boundaries of u
    u_rds_max: int  # max |RDS| anywhere in u
    v_rds_min: int  # min RDS over the structured head
    v_rds_max: int  # max RDS over the structured head
    dyck: bool


def balance_report(s: BitsLike) -> BalanceReport:
    (cw,) = encode([s])
    lay = plain_layout(len(cw.origin))
    profile = cw.bits[lay.u_start : lay.tail_start].rds_profile()
    boundary = max(
        abs(profile[j * lay.root - 1]) for j in range(1, lay.root + 1)
    )
    head = cw.bits.prefix(lay.tail_start)
    head_profile = head.rds_profile()
    return BalanceReport(
        root=lay.root,
        boundary_rds_max=boundary,
        u_rds_max=max(abs(v) for v in profile),
        v_rds_min=min(head_profile),
        v_rds_max=max(head_profile),
        dyck=is_dyck(cw.bits),
    )

"""Readout error models: missing fragments and mass-reducing substitutions.

A missing fragment of length i removes one composition from the pool; on
the affected side the mixture-sum symbols i and i+1 both become unknown,
so j consecutive missing lengths erase a contiguous burst of j+1 sum
symbols.  Prefix and suffix fragments describe the same sum string from
opposite ends, which gives a free layer of protection: a position is lost
only where erasure bursts from the two sides overlap, and a single lost
position can still be pinned through the known total weight.
``merged_sums`` is the one two-sided reading: it merges the sides and
applies that weight anchor, and every erasure decoder and the
redundancy-free path read a pool through it (``merged_counts`` too).

A mass-reducing substitution instead reports a fragment lighter than it
was.  Counts per length stay intact when the corrupted fragment stays on
its side of the weight split and shift across sides when it does not;
either way the corruption shows up as out-of-range sum increments, as
per-length count surpluses/deficits, or as prefix/suffix fragments whose
weights cannot be complementary.  Detection is always possible, pinning
the correction is not, and the report below keeps those outcomes apart.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from . import oracle
from .bhcode import BhCodebook, DEFAULT_BUDGET, invert_sum
from .core import (
    BitString,
    Composition,
    CompositionMultiset,
    PartialSumString,
    all_dyck_strings,
    is_dyck,
    pool as make_pool,
)
from .errors import (
    ConfigError,
    Conflict,
    LengthMismatch,
    MasscodecError,
    NegativeIncrement,
    NotMassReducing,
    PatternNotPresent,
    SearchSpaceTooLarge,
    json_field,
)

if TYPE_CHECKING:
    import numpy as np

PREFIX = "prefix"
SUFFIX = "suffix"


# ---------------------------------------------------------------------------
# corruption patterns


@dataclass(frozen=True)
class Removal:
    side: str
    length: int
    count: int = 1
    ones: Optional[int] = None  # pin the victim when lengths mix compositions

    def __post_init__(self):
        _check_side(self.side)
        if self.length < 1 or self.count < 1:
            raise ValueError("length and count must be positive")


@dataclass(frozen=True)
class ErasurePattern:
    removals: tuple[Removal, ...]

    @property
    def total(self) -> int:
        return sum(r.count for r in self.removals)

    def to_json_obj(self) -> dict:
        out = []
        for r in self.removals:
            entry = {"side": r.side, "len": r.length, "count": r.count}
            if r.ones is not None:
                entry["ones"] = r.ones
            out.append(entry)
        return {"erase": out}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ErasurePattern":
        what = "an erase entry"
        return cls(
            tuple(
                Removal(
                    json_field(e, "side", what),
                    json_field(e, "len", what, int),
                    json_field(e, "count", what, int, default=1),
                    json_field(e, "ones", what, int, default=None),
                )
                for e in json_field(obj, "erase", "a pattern", list, default=[])
            )
        )


def _check_side(side: str) -> None:
    if side not in (PREFIX, SUFFIX):
        raise ValueError(f"side must be prefix/suffix, got {side!r}")


def _side_eligible(side: str, length: int, ones: int) -> bool:
    # prefixes of Dyck codewords carry at least ceil(i/2) ones, suffixes at
    # most floor(i/2); ties at even lengths are eligible for both sides
    if side == PREFIX:
        return 2 * ones >= length
    return 2 * ones <= length


def _resolve_victim(
    counts: np.ndarray,
    side: str,
    length: int,
    ones: Optional[int],
    rng=None,
) -> int:
    """The ones-count of the fragment a removal or substitution hits."""
    if ones is not None:
        if not 0 <= ones <= length:
            raise ValueError(f"a {side} fragment of length {length} cannot hold {ones} ones")
        comp = Composition(length - ones, ones)
        if length >= len(counts) or not counts[length, ones]:
            raise PatternNotPresent(f"no fragment {comp} of length {length} in pool")
        if not _side_eligible(side, length, ones):
            raise PatternNotPresent(f"{comp} cannot be a {side} fragment")
        return ones
    eligible = []
    if 0 <= length < len(counts):
        row = counts[length]
        present = row.nonzero()[0]
        # sorted with multiplicity, so a seeded rng.choice picks a fixed victim
        eligible = [
            o
            for o in present.repeat(row[present]).tolist()
            if _side_eligible(side, length, o)
        ]
    if not eligible:
        raise PatternNotPresent(f"no {side}-eligible fragment of length {length}")
    if len(set(eligible)) == 1:
        return eligible[0]
    if rng is None:
        raise PatternNotPresent(
            f"{side} fragments of length {length} are mixed "
            f"({sorted(set(eligible))} ones); pin the victim or pass an rng"
        )
    return rng.choice(eligible)


def erase(
    pool: CompositionMultiset,
    pattern: Union[ErasurePattern, Iterable[Removal]],
    rng=None,
) -> CompositionMultiset:
    """Remove the fragments named by the pattern from the pool."""
    removals = pattern.removals if isinstance(pattern, ErasurePattern) else tuple(pattern)
    counts = pool.counts.copy()
    for r in removals:
        for _ in range(r.count):
            counts[r.length, _resolve_victim(counts, r.side, r.length, r.ones, rng)] -= 1
    return CompositionMultiset.from_counts(counts)


def substitute_mass_reducing(
    pool: CompositionMultiset,
    side: str,
    length: int,
    new_ones: int,
    ones: Optional[int] = None,
    rng=None,
) -> CompositionMultiset:
    """Replace one fragment by a strictly lighter one of the same length."""
    _check_side(side)
    counts = pool.counts.copy()
    victim = _resolve_victim(counts, side, length, ones, rng)
    if new_ones >= victim:
        raise NotMassReducing(
            f"{Composition(length - victim, victim)} -> {new_ones} ones does not reduce the mass"
        )
    if new_ones < 0:
        raise ValueError("new_ones must be nonnegative")
    counts[length, victim] -= 1
    counts[length, new_ones] += 1
    return CompositionMultiset.from_counts(counts)


# ---------------------------------------------------------------------------
# one-sided partial sums


@dataclass(frozen=True)
class SideSums:
    """A pool read length by length and split into its two sides.

    Arrays are indexed by length - 1 (the sum position) and, where they
    have a leading axis of two, by side: 0 prefix, 1 suffix.  A fragment
    of length i with more than i/2 ones is a prefix and one with fewer a
    suffix; the balanced ones (ties) fill the prefix side up to hbar and
    the rest go to the suffix side.  ``certain`` marks the lengths where
    every assignment of the ties that respects the hbar cap on the other
    side gives the side exactly hbar fragments.

    ``cells`` lists the fragments themselves, for substitution detection;
    ``codec.separate_pool`` does not need it, since it splits the count
    table by a mask and reads only ``fragments`` and ``fill``.
    """

    # (4, K): length, ones, multiplicity and class (0 prefix, 1 tie, 2 suffix)
    # of the pool's nonzero cells up to length N, in (length, ones) order
    cells: np.ndarray
    fill: np.ndarray  # (2, N) ties given to each side
    fragments: np.ndarray  # (2, N) fragments per side after tie filling
    ones: np.ndarray  # (2, N) ones totals per side after tie filling
    certain: np.ndarray  # (2, N) bool


def side_sums(pool: CompositionMultiset, N: int, hbar: int) -> SideSums:
    """Per-length, per-side fragment counts, ones totals and certainty.

    This is the one reading of counts into sums.  Its readers are the
    two-sided partial sums (``partial_sum_strings``, so ``merged_sums``),
    the raw side sums, substitution detection and the codec's clean-pool
    split (``codec.separate_pool``).  The one-sided sums of an attributed
    pool read ``length_totals`` instead.
    Lengths past N are ignored.  After one scan of the count table for its
    nonzero cells, the work is proportional to the number of distinct
    fragments.

    The pool keeps its last reading in its one memo slot: a second call
    with the same N and hbar returns the same object, and one with another
    N or hbar reads the pool again and replaces it.  So that no consumer
    can change another's reading, every array of a reading is read-only.
    """
    return pool.memo((N, hbar), lambda: _read_sides(pool, N, hbar))


def _read_sides(pool: CompositionMultiset, N: int, hbar: int) -> SideSums:
    import numpy as np

    table = np.ascontiguousarray(pool.counts[1 : N + 1, : N + 1])
    flat = (table != 0).ravel().nonzero()[0]
    rows, ones = divmod(flat, table.shape[1])
    mult = table.ravel()[flat]
    kind = np.sign(rows + 1 - 2 * ones) + 1  # 0 prefix, 1 tie, 2 suffix
    slot = N * kind + rows

    def per_length(weights: np.ndarray) -> np.ndarray:
        # (3, N): totals of the prefix, tie and suffix cells at each length
        return np.bincount(slot, weights, 3 * N).astype(np.int64).reshape(3, N)

    counted = per_length(mult)
    ties = counted[1]
    unbalanced = counted[::2]  # prefix-only and suffix-only fragments
    # the prefix side takes the ties it has room for, the suffix side the rest
    fill = np.empty_like(unbalanced)
    to_prefix = fill[0]
    np.subtract(hbar, unbalanced[0], out=to_prefix)
    np.maximum(to_prefix, 0, out=to_prefix)
    np.minimum(to_prefix, ties, out=to_prefix)
    np.subtract(ties, to_prefix, out=fill[1])
    fragments = unbalanced + fill
    sums = per_length(mult * ones)[::2] + fill * (np.arange(1, N + 1) // 2)
    # a side is certain when even its fewest fragments, with the other side
    # taking every tie it has room for, reach hbar
    room = np.maximum(0, hbar - unbalanced[::-1])
    certain = unbalanced + np.maximum(0, ties - room) == hbar
    cells = np.array([rows + 1, ones, mult, kind])
    for array in (cells, fill, fragments, sums, certain):
        array.flags.writeable = False
    return SideSums(cells, fill, fragments, sums, certain)


def length_totals(pool: CompositionMultiset, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Fragments and their ones total at each length 1..N, both sides together.

    Read straight off the count table; lengths past its end hold nothing.
    """
    import numpy as np

    rows = pool.counts[1 : N + 1, : N + 1]
    fragments, ones = np.zeros((2, N), dtype=np.int64)
    fragments[: len(rows)] = rows.sum(axis=1)
    ones[: len(rows)] = rows @ np.arange(rows.shape[1])
    return fragments, ones


def mixture_order(pool: CompositionMultiset, N: int) -> int:
    """hbar read off a readout: the most fragments any length 1..N holds, halved and
    rounded up.  Each string gives each length two fragments, and a lighter reading
    keeps its length, so this is exact while some length lost at most one fragment."""
    return -(-int(pool.counts[1 : N + 1].sum(axis=1).max(initial=0)) // 2)


def increments(
    cumulative: np.ndarray, known: np.ndarray, hbar: int, strict: bool
) -> list[Optional[int]]:
    """Sum symbols n_i - n_{i-1} (n_0 = 0); None where either count is unknown.

    With ``strict`` a known symbol outside 0..hbar raises NegativeIncrement.
    """
    steps = cumulative.copy()
    steps[1:] -= cumulative[:-1]
    ok = known.copy()
    ok[1:] &= known[:-1]
    if strict:
        # cast unsigned, a negative step is past hbar too: one test finds both ends
        bad = (ok & (steps.astype("u8") > hbar)).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            raise NegativeIncrement(f"sum symbol {steps[i]} at position {i + 1}")
    symbols = steps.tolist()
    for i in (~ok).nonzero()[0].tolist():
        symbols[i] = None
    return symbols


def partial_sum_strings(
    pool: CompositionMultiset, N: int, hbar: int
) -> tuple[PartialSumString, PartialSumString]:
    """Per-side mixture sums with erasures, both in prefix orientation.

    A length whose fragments cannot be attributed completely to a side
    erases that side's cumulative count, and each unknown count erases the
    two adjacent sum symbols it supports.  Out-of-range increments raise
    (pure fragment loss cannot produce them; substitutions can).
    """
    sums = side_sums(pool, N, hbar)
    p_syms, s_syms = (increments(sums.ones[k], sums.certain[k], hbar, True) for k in (0, 1))
    return PartialSumString(p_syms, hbar), PartialSumString(s_syms[::-1], hbar)


def one_sided_sum(
    side_pool: CompositionMultiset, N: int, hbar: int, side: str = PREFIX
) -> PartialSumString:
    """Mixture sum from one side's multiset alone (already attributed).

    For readouts that tag fragments with their end, no weight separation
    is involved: a length with fewer than hbar fragments is simply erased.
    The result is returned in prefix orientation either way.
    """
    fragments, ones = length_totals(side_pool, N)
    syms = increments(ones, fragments == hbar, hbar, strict=True)
    return PartialSumString(syms if side == PREFIX else syms[::-1], hbar)


def raw_side_sums(
    pool: CompositionMultiset, N: int, hbar: int
) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Like partial_sum_strings but keeping out-of-range symbols as read.

    For corrupted pools the raw increments are what carry the corruption
    signal; both lists come back in prefix orientation.
    """
    sums = side_sums(pool, N, hbar)
    p_syms, s_syms = (increments(sums.ones[k], sums.certain[k], hbar, False) for k in (0, 1))
    return p_syms, s_syms[::-1]


# ---------------------------------------------------------------------------
# bursts, overlaps, and redundancy-free reconstruction


@dataclass(frozen=True)
class BurstReport:
    prefix_bursts: tuple[tuple[int, int], ...]
    suffix_bursts: tuple[tuple[int, int], ...]
    overlaps: tuple[int, ...]  # intersection length of every overlapping pair

    @property
    def recoverable_by_inspection(self) -> bool:
        """No overlap, or a single overlap of unit length."""
        return not self.overlaps or self.overlaps == (1,)


def burst_report(p: PartialSumString, s: PartialSumString) -> BurstReport:
    """Erasure bursts of the two partial sums and their pairwise overlaps.

    Both arguments are in prefix orientation.  An overlap is a nonempty
    intersection of a prefix-side burst with a suffix-side burst; its
    length is the size of the intersection (a burst containing another
    counts in full).
    """
    pb, sb = p.bursts(), s.bursts()
    overlaps = []
    for ip, jp in pb:
        for isuf, jsuf in sb:
            lo = max(ip, isuf)
            hi = min(ip + jp, isuf + jsuf)
            if hi > lo:
                overlaps.append(hi - lo)
    return BurstReport(pb, sb, tuple(overlaps))


@dataclass(frozen=True)
class Recovered:
    """Successful redundancy-free reconstruction."""

    sum: PartialSumString
    strings: Optional[frozenset[BitString]] = None


@dataclass(frozen=True)
class Ambiguous:
    """The pool is consistent with more than one explanation."""

    partial: PartialSumString
    witnesses: Optional[tuple[frozenset[BitString], ...]] = None


def merge_partials(
    p: PartialSumString,
    s_rev: PartialSumString,
    total_weight: int,
) -> PartialSumString:
    """Combine the two sides and settle what the total weight still pins.

    Disagreement at a known position raises Conflict (an erasure cannot
    cause it; a substitution can), and so does a total weight the merged
    symbols cannot reach.  Erasures surviving the merge are filled only
    when the weight equation forces them, by three sound rules: a zero
    deficit zeroes every erasure, a deficit of hbar per erasure maxes
    every erasure, and a lone erasure takes the whole deficit.  Anything
    else stays erased; ``complete`` on the result tells.
    """
    hbar = p.hbar
    if len(s_rev) != len(p) or s_rev.hbar != hbar:
        raise LengthMismatch("cannot merge partial sums of different shape")
    merged: list[Optional[int]] = []
    clashes = []
    for i, (a, b) in enumerate(zip(p.symbols, s_rev.symbols), start=1):
        if a is None:
            merged.append(b)
        elif b is None or a == b:
            merged.append(a)
        else:
            clashes.append((i, a, b))
    if clashes:
        raise Conflict(f"disagreeing sum symbols at {clashes}")
    erased = [i for i, v in enumerate(merged) if v is None]
    known = sum(v for v in merged if v is not None)
    deficit = total_weight - known
    if not erased:
        if deficit:
            raise Conflict(f"sum weight {known} != expected {total_weight}")
    elif deficit < 0 or deficit > len(erased) * hbar:
        raise Conflict(f"weight deficit {deficit} unreachable")
    elif deficit == 0 or deficit == len(erased) * hbar or len(erased) == 1:
        # each rule gives every erasure the same share of the deficit
        for i in erased:
            merged[i] = deficit // len(erased)
    return PartialSumString(merged, hbar)


def merged_sums(pool: CompositionMultiset, N: int, hbar: int) -> PartialSumString:
    """The mixture sum read from both sides of the pool and weight-anchored.

    This is the one two-sided reading: every erasure decoder and the
    redundancy-free path read a pool through it.  Every codeword is a Dyck
    string of length N, so it holds N/2 ones and a mixture of hbar of them
    weighs hbar*N/2; that is the total weight the merge fills from.
    """
    return merge_partials(*partial_sum_strings(pool, N, hbar), hbar * N // 2)


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return None if a is None or b is None else a + b


def merged_counts(pool: CompositionMultiset, N: int, hbar: int) -> list[Optional[int]]:
    """Cumulative prefix-ones counts n_1..n_N merged from both sides.

    Built from the merged (and weight-anchored) position sums: n_i is the
    forward cumulative when every symbol up to i is known, or the backward
    complement against the total weight when the tail is known.
    """
    symbols = merged_sums(pool, N, hbar).symbols
    total = hbar * N // 2
    # tails[i] is the sum of the symbols after position i + 1
    tails = list(accumulate(reversed(symbols[1:]), _add, initial=0))[::-1]
    return [
        total - tail if head is None and tail is not None else head
        for head, tail in zip(accumulate(symbols, _add), tails)
    ]


def reconstruct_redundancy_free(
    pool: CompositionMultiset,
    N: int,
    hbar: int,
    codebook=None,
    budget: int = DEFAULT_BUDGET,
) -> Union[Recovered, Ambiguous]:
    """Reconstruct a mixture sum from an erased pool without coding redundancy.

    The two-sided merge always succeeds when the erasure bursts of the two
    sides do not overlap, or overlap once in a single position; the weight
    anchor can settle a little more (all-zero and all-max deficits).  On
    ambiguity the consistent codebook subsets are enumerated as witnesses
    (over all Dyck strings when no codebook is given and hbar is 1).

    The codebook may be a plain distinct-sums codebook of Dyck strings
    (sources are found by inverting the integer sum) or a plain mixture
    codebook (sources come from the balanced mod-2 pipeline); a book of a
    correction scheme raises UnsupportedCodebook.
    """
    merged = merged_sums(pool, N, hbar)
    if not merged.complete:
        witnesses = _consistency_witnesses(pool, N, hbar, codebook, budget)
        return Ambiguous(partial=merged, witnesses=witnesses)
    strings: Optional[frozenset[BitString]] = None
    if codebook is not None:
        strings = _invert_recovered(pool, merged, codebook, hbar, budget)
    elif hbar == 1:
        strings = frozenset({merged.to_bitstring()})
    return Recovered(sum=merged, strings=strings)


def _invert_recovered(
    pool: CompositionMultiset, total: PartialSumString, codebook, hbar: int, budget: int
) -> frozenset[BitString]:
    from .codec import McCodebook, invert_plain, mixture_mod2_target, require_plain

    if isinstance(codebook, McCodebook):
        require_plain(codebook)
        target = mixture_mod2_target(total, codebook.layout)
        return invert_plain(pool, codebook, target, hbar, budget)
    return frozenset(invert_sum(codebook, total.as_tuple(), hbar, budget))


def _consistency_witnesses(
    pool: CompositionMultiset,
    N: int,
    hbar: int,
    codebook,
    budget: int,
) -> Optional[tuple[frozenset[BitString], ...]]:
    from .codec import McCodebook, require_plain

    # each string of the universe, mapped to the source string it encodes
    if isinstance(codebook, McCodebook):
        require_plain(codebook)
        origin_of = {cw.bits: cw.origin for cw in codebook.codewords}
    elif codebook is not None:
        origin_of = {s: s for s in codebook.strings}
    elif hbar == 1 and 2**N <= budget:
        # the codeword universe of this model
        origin_of = {s: s for s in all_dyck_strings(N)}
    else:
        return None
    removals = 2 * N * hbar - pool.total
    try:
        hits = oracle.brute_decode(pool, tuple(origin_of), hbar, removals, budget)
    except SearchSpaceTooLarge:
        return None
    return tuple(frozenset(origin_of[b] for b in sub) for sub in hits)


# ---------------------------------------------------------------------------
# substitution detection


@dataclass(frozen=True)
class Correction:
    """Replace one observed fragment with what it must have been."""

    side: str
    length: int
    observed: Composition
    restored: Composition


@dataclass(frozen=True)
class DetectionReport:
    hbar: int
    prefix_count_dev: tuple[tuple[int, int], ...]  # (length, count - hbar)
    suffix_count_dev: tuple[tuple[int, int], ...]
    prefix_bad_increments: tuple[tuple[int, int], ...]  # (position, value)
    suffix_bad_increments: tuple[tuple[int, int], ...]
    incompatible_lengths: tuple[int, ...]
    prefix_sum: Optional[PartialSumString]
    suffix_sum: Optional[PartialSumString]  # prefix orientation
    recovered_sum: Optional[PartialSumString]
    candidate_sums: tuple[PartialSumString, ...]
    corrections: tuple[Correction, ...]  # ascending observed ones (detect_substitution)

    @property
    def is_clean(self) -> bool:
        return not (
            self.prefix_count_dev
            or self.suffix_count_dev
            or self.prefix_bad_increments
            or self.suffix_bad_increments
            or self.incompatible_lengths
        )

    @property
    def unique_correction(self) -> Optional[Correction]:
        return self.corrections[0] if len(self.corrections) == 1 else None


def apply_correction(
    pool: CompositionMultiset, correction: Correction
) -> CompositionMultiset:
    return pool.remove(correction.observed).add(correction.restored)


def detect_substitution(
    pool: CompositionMultiset, N: int, hbar: int
) -> DetectionReport:
    """Flag count anomalies, out-of-range increments, and incompatibilities.

    Every field is read off the side reading, both sides at once.  A count
    deviation is a side's length without hbar fragments.  The sum symbols
    are the steps of each side's ones totals, read where both lengths hold
    a fragment; a bad increment is one outside 0..hbar, and a side with
    neither anomaly gives its sum.  With w0 the common weight of the
    full-length fragments, a prefix of length L with o ones completes a
    suffix of length N - L with w0 - o ones.  So the prefix side's cells
    and the suffix side's, mirrored to (N - length, w0 - ones), become
    integer keys of (length, ones, multiplicity), a tie cell counting the
    ties its side took.  A length whose keys differ is incompatible when it
    and its mirror both hold hbar fragments.

    Under a single-error assumption a fragment read lighter that crossed
    the weight split leaves exactly two count deviations: side X one short
    and side Y one over, at the same length L.  The repair reads both sides
    at L and at M = N - L.  Each distinct ones value b of Y's length-L
    fragments is tried, in ascending order, as the lighter reading.  It is
    skipped when X holds hbar fragments at M whose mirrors account for
    every copy of b.  Otherwise Y's length-M values, less one copy of b when
    M = L, must number hbar, and their mirrors must leave exactly one value
    v that X's length-L fragments do not cover.  The repair b -> v on side
    X is listed when v > b, so the corrections come out in ascending order
    of the observed ones, and exactly one candidate means the error is
    correctable.
    """
    import numpy as np

    sums = side_sums(pool, N, hbar)
    fragments, ones = sums.fragments, sums.ones
    off = fragments != hbar
    devs: tuple[list, list] = ([], [])
    if off.any():
        side, at = off.nonzero()
        for k, i, d in zip(side.tolist(), at.tolist(), (fragments[off] - hbar).tolist()):
            devs[k].append((i + 1, d))
    steps = ones.copy()
    steps[:, 1:] -= ones[:, :-1]
    # a length counts when it holds any fragment, and every length does at hbar = 0
    known = fragments > 0 if hbar else fragments >= 0
    read = known.copy()
    read[:, 1:] &= known[:, :-1]
    # as unsigned, a negative step is past hbar too: one test finds both ends
    out_of_range = read & (steps.view(np.uint64) > hbar)
    bad: tuple[list, list] = ([], [])
    if out_of_range.any():
        side, at = out_of_range.nonzero()
        for k, i, v in zip(side.tolist(), at.tolist(), steps[out_of_range].tolist()):
            # suffix-side positions in prefix orientation
            bad[k].append((N - i if k else i + 1, v))
    # a side without deviations reads every length; the suffix sum is read backwards
    prefix_sum, suffix_sum = (
        None if devs[k] or bad[k] else PartialSumString(steps[k, :: 1 - 2 * k].tolist(), hbar)
        for k in (0, 1)
    )

    # the cells are in (length, ones) order, so the full-length ones come last
    last_lengths, last_ones = sums.cells[:2, -2:].tolist()
    w0 = last_ones[-1] if last_lengths.count(N) == 1 else None
    incompatible = []
    if w0 is not None:
        # one int per (length, ones, mult); ones are offset by N since a
        # mirrored w0 - o can be negative, and mult runs up to pool.total
        width = pool.total + 1
        span = (2 * N + 1) * width
        length, cell_ones, mult, kind = sums.cells
        key = length * span + cell_ones * width
        # a tie cell counts the ties its side took: all of them less the other side's
        ties = sums.fill.take(length - 1, axis=1) * (kind == 1)
        on_prefix = mult * (kind < 2) - ties[1]
        on_suffix = mult * (kind > 0) - ties[0]
        prefix = (key + on_prefix)[on_prefix > 0] + N * width
        # cells come in (length, ones) order, so keys do too, the mirrored ones reversed
        mirrored = ((N * span + (w0 + N) * width) - key + on_suffix)[on_suffix > 0][::-1]
        # the lengths of the keys without a twin on the other side
        differ = {
            k // span
            for keys, other in ((prefix, mirrored), (mirrored, prefix))
            for k in keys[other.searchsorted(keys, "right") == other.searchsorted(keys)].tolist()
        }
        incompatible = [
            ln for ln in sorted(differ) if 0 < ln < N and not (off[0, ln - 1] or off[1, N - ln - 1])
        ]

    candidates = tuple(dict.fromkeys(ps for ps in (prefix_sum, suffix_sum) if ps is not None))
    recovered = candidates[0] if len(candidates) == 1 and not incompatible else None

    corrections = _single_error_corrections(sums, N, hbar, w0, *devs)
    return DetectionReport(
        hbar=hbar,
        prefix_count_dev=tuple(devs[0]),
        suffix_count_dev=tuple(devs[1]),
        prefix_bad_increments=tuple(bad[0]),
        suffix_bad_increments=tuple(bad[1]),
        incompatible_lengths=tuple(incompatible),
        prefix_sum=prefix_sum,
        suffix_sum=suffix_sum,
        recovered_sum=recovered,
        candidate_sums=candidates,
        corrections=corrections,
    )


def _side_ones(sums: SideSums, length: int) -> tuple[Counter, Counter]:
    """The ones of the prefix side's and the suffix side's fragments at a length."""
    sides: tuple[Counter, Counter] = (Counter(), Counter())
    lo, hi = sums.cells[0].searchsorted([length, length + 1]).tolist()  # cells in length order
    for ones, mult, kind in zip(*sums.cells[1:, lo:hi].tolist()):
        if kind == 1:  # the ties, shared out as the reading shared them
            for side, ties in zip(sides, sums.fill[:, length - 1].tolist()):
                if ties:
                    side[ones] = ties
        else:
            sides[kind // 2][ones] = mult
    return sides


def _single_error_corrections(
    sums: SideSums, N: int, hbar: int, w0: Optional[int], p_dev: list, s_dev: list
) -> tuple[Correction, ...]:
    """Repairs for one fragment that was read lighter and switched sides."""
    devs = sorted([(d, ln, 0) for ln, d in p_dev] + [(d, ln, 1) for ln, d in s_dev])
    if w0 is None or [d for d, _, _ in devs] != [-1, 1] or devs[0][1] != devs[1][1]:
        return ()
    (_, length, x), (_, _, y) = devs  # side x lost the fragment, side y gained it
    at_length, at_mirror = _side_ones(sums, length), _side_ones(sums, N - length)
    # hbar - 1 genuine values on side x; hbar + 1 on side y, one of them bogus
    short, long = at_length[x], at_length[y]
    # the mirrors w0 - o of each side's fragments at N - L
    x_mirrors, y_mirrors = (
        Counter({w0 - o: m for o, m in at_mirror[side].items()}) for side in (x, y)
    )
    corrections = []
    # with hbar fragments at N - L, side x mirrors every genuine copy
    for bogus in sorted(long - x_mirrors if x_mirrors.total() == hbar else long):
        # at the middle length the bogus fragment sits among its own mirrors
        complements = y_mirrors - Counter({w0 - bogus: 1}) if 2 * length == N else y_mirrors
        rest = complements - short  # short holds hbar - 1 values: one is left if short fits
        if complements.total() == hbar and rest.total() == 1:
            (restored,) = rest
            if bogus < restored <= length:
                observed, fixed = (Composition(length - o, o) for o in (bogus, restored))
                corrections.append(Correction((PREFIX, SUFFIX)[x], length, observed, fixed))
    return tuple(corrections)


# ---------------------------------------------------------------------------
# correctable-pattern counting


def count_correctable_single(n: int, t: int) -> int:
    """Patterns of t missing fragments a single string survives unaided.

    Choose i missing prefix lengths, then t-i missing suffix lengths among
    the n-i lengths whose complementary prefix is still present.
    """
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    return sum(math.comb(n, i) * math.comb(n - i, t - i) for i in range(t + 1))


def count_correctable_multi(n: int, t: int, h: int) -> int:
    """Missing-fragment patterns a mixture of up to h strings survives.

    Erasures spread over j distinct lengths, each length losing between 1
    and h fragments on one side: sum_j C(n,j) C(t-1,t-j) 2^j, valid for
    t <= h.
    """
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    if t > h:
        raise ValueError(f"the count is valid for t <= h, got t={t}, h={h}")
    if t == 0:
        return 1
    return sum(
        math.comb(n, j) * math.comb(t - 1, t - j) * 2**j
        for j in range(t + 1)
        if t - j <= t - 1
    )


# ---------------------------------------------------------------------------
# seeded experiments


def sample_erasure_pattern(
    strings: Sequence[BitString],
    t: int,
    rng,
    placement: str = "uniform",
) -> ErasurePattern:
    """Draw t fragment removals from the true pool of the given strings.

    ``uniform`` removes fragments uniformly at random; ``adversarial``
    pairs prefix and suffix removals at mirrored lengths so their erasure
    bursts collide as often as the pattern size allows.
    """
    n = len(strings[0])
    # (side, length, ones) of every read: a string's prefixes, then its suffixes
    fragments = [
        (side, length, ones)
        for s in strings
        for side, bits in ((PREFIX, s.bits), (SUFFIX, s.bits[::-1]))
        for length, ones in enumerate(accumulate(bits), start=1)
    ]
    if placement == "uniform":
        picks = rng.sample(fragments, t)
    elif placement == "adversarial":
        taken: set[int] = set()

        def free_at(side: str, length: int) -> list[int]:
            return [
                i
                for i, f in enumerate(fragments)
                if i not in taken and f[0] == side and f[1] == length
            ]

        lengths = list(range(2, n))
        rng.shuffle(lengths)
        for ln in lengths:
            if len(taken) + 2 > t:
                break
            pre, suf = free_at(PREFIX, ln), free_at(SUFFIX, n - ln)
            if pre and suf:
                taken.add(rng.choice(pre))
                taken.add(rng.choice(suf))
        while len(taken) < t:
            free = [i for i in range(len(fragments)) if i not in taken]
            taken.add(rng.choice(free))
        picks = [fragments[i] for i in sorted(taken)]
    else:
        raise ValueError(f"unknown placement {placement!r}")
    return ErasurePattern(
        tuple(Removal(side, length, 1, ones) for side, length, ones in picks)
    )


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

    Codebooks whose strings are not already Dyck are run through the
    mixture encoder first (weight separation is meaningless otherwise).
    Outcomes: ``exact`` (recovered and equal to the truth), ``ambiguous``,
    ``conflict`` (side disagreement), ``error`` (any other typed decoder
    error; the row's ``reason`` holds its class name), and ``wrong``
    (recovered but not the truth -- must never happen; kept so silence
    cannot hide it).  ``ConfigError`` refuses an hbar outside 1..|C|, a t
    outside 0..2N*hbar, the size of the pool, and a negative trial count.
    """
    if not 1 <= hbar <= len(codebook):
        raise ConfigError(f"an experiment needs 1 <= hbar <= {len(codebook)}, got hbar={hbar}")
    if trials < 0:
        raise ConfigError(f"an experiment needs trials >= 0, got trials={trials}")
    raw = all(len(s) % 2 == 0 and is_dyck(s) for s in codebook.strings)
    if raw:
        decode_book = codebook
        word_of = {s: s for s in codebook.strings}
        N = codebook.n
    else:
        from .codec import encode_codebook

        decode_book = encode_codebook(codebook)
        word_of = {cw.origin: cw.bits for cw in decode_book.codewords}
        N = decode_book.N
    if not 0 <= t <= 2 * N * hbar:
        raise ConfigError(f"an experiment needs 0 <= t <= {2 * N * hbar}, got t={t}")
    rows = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        subset = tuple(sorted(rng.sample(list(codebook.strings), hbar)))
        words = [word_of[s] for s in subset]
        clean = make_pool(words)
        pattern = sample_erasure_pattern(words, t, rng, placement)
        erased = erase(clean, pattern, rng=rng)
        row = {"seed": seed, "trial": trial, "n": N, "hbar": hbar, "t": t}
        try:
            result = reconstruct_redundancy_free(
                erased, N, hbar, codebook=decode_book, budget=budget
            )
        except Conflict:
            row["outcome"] = "conflict"
        except MasscodecError as exc:
            row.update(outcome="error", reason=type(exc).__name__)
        else:
            if isinstance(result, Ambiguous):
                row["outcome"] = "ambiguous"
            elif result.strings == frozenset(subset):
                row["outcome"] = "exact"
            else:
                row["outcome"] = "wrong"
        rows.append(row)
    return rows

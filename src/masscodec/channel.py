"""Readout error models: missing fragments and mass-reducing substitutions.

A missing fragment of length i removes one composition from the pool; on
the affected side the mixture-sum symbols i and i+1 both become unknown,
so j consecutive missing lengths erase a contiguous burst of j+1 sum
symbols.  Prefix and suffix fragments describe the same sum string from
opposite ends, which gives a free layer of protection: a position is lost
only where erasure bursts from the two sides overlap, and a single lost
position can still be pinned through the known total weight.
``merged_sums`` is the one two-sided reading: it merges the sides and
applies that weight anchor, and every erasure decoder reads a pool
through it (``merged_counts`` too).

A mass-reducing substitution instead reports a fragment lighter than it
was.  Counts per length stay intact when the corrupted fragment stays on
its side of the weight split and shift across sides when it does not;
either way the corruption shows up as out-of-range sum increments, as
per-length count surpluses/deficits, or as prefix/suffix fragments whose
weights cannot be complementary.  Detection is always possible, pinning
the correction is not, and the report below keeps those outcomes apart.

This module is the readout model alone.  Turning a reading into sources is
the decoders' work, ``codec`` for plain books (clean or erased) and ``ecc``
for the correction schemes, and this module imports neither.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .core import BitString, Composition, CompositionMultiset, PartialSumString
from .errors import (
    Conflict,
    InconsistentPoolSize,
    LengthMismatch,
    NegativeIncrement,
    NotMassReducing,
    PatternNotPresent,
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
        present = length < len(counts) and counts[length, ones]
        if not present or not _side_eligible(side, length, ones):
            # the composition is built only to name it in the refusal
            comp = Composition(length - ones, ones)
            raise PatternNotPresent(
                f"{comp} cannot be a {side} fragment" if present
                else f"no fragment {comp} of length {length} in pool"
            )
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
    # each decrement hit a fragment that was there, so no count went negative
    return CompositionMultiset._of(counts, pool.total - sum(r.count for r in removals))


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
    return CompositionMultiset._of(counts, pool.total)


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

    ``scan`` is what the reading gathered from the count table, and the
    one listing of its cells is ``sided_cells``, derived from it: how many
    fragments of each cell sit on each side.  ``codec.separate_pool`` and
    substitution detection read that listing, and every reader of sum
    symbols takes them from ``increments``.
    """

    # three (K,) arrays over the pool's nonzero cells of lengths 1..N, in
    # (length, ones) order: slot N * class + length - 1, ones and multiplicity
    scan: tuple[np.ndarray, ...]
    fill: np.ndarray  # (2, N) ties given to each side
    fragments: np.ndarray  # (2, N) fragments per side after tie filling
    ones: np.ndarray  # (2, N) ones totals per side after tie filling
    certain: np.ndarray  # (2, N) bool


def side_sums(pool: CompositionMultiset, N: int, hbar: int) -> SideSums:
    """Per-length, per-side fragment counts, ones totals and certainty.

    This is the one reading of counts into sums.  Its readers are the
    two-sided partial sums (``partial_sum_strings``, so ``merged_sums`` and
    every decoder of an erased pool), the raw side sums, and through
    ``sided_cells``, the one listing of its cells, substitution detection
    and the codec's clean-pool split (``codec.separate_pool``); all of them
    that want sum symbols take them from ``increments``.  The one-sided
    sums of an attributed pool read ``length_totals`` instead, and the
    split hands its prefix side the prefix rows of ``fragments`` and
    ``ones`` as that side's ``length_totals`` (``hold_length_totals``), so
    the codec's prefix sum reads no table again.  Lengths past N are ignored.  The count table is
    scanned once, in place, for its nonzero cells, and a plan cached per
    table size and N gives each cell's slot; after that the work is
    proportional to the number of distinct fragments.

    The pool keeps its last reading in its one memo slot: a second call
    with the same N and hbar returns the same object, and one with another
    N or hbar reads the pool again and replaces it.  So that no consumer
    can change another's reading, every array of a reading is read-only.
    """
    return pool.memo((N, hbar), lambda: _read_sides(pool, N, hbar))


# a plan holds side * N small ints; a handful of sizes are in use at once
@functools.lru_cache(maxsize=16)
def _reading_plan(side: int, N: int) -> np.ndarray:
    """The slot N * class + length - 1 of each flat cell of lengths 1..N of a
    side x side count table (class 0 prefix, 1 tie, 2 suffix), in the
    narrowest signed ints that hold 3N, so a reading's gather stays small."""
    import numpy as np

    length, ones = np.arange(1, min(side - 1, N) + 1)[:, None], np.arange(side)
    slot = N * (np.sign(length - 2 * ones) + 1) + length - 1
    plan = slot.astype(np.min_scalar_type(-1 - 3 * N)).ravel()
    plan.flags.writeable = False
    return plan


def _read_sides(pool: CompositionMultiset, N: int, hbar: int) -> SideSums:
    import numpy as np

    table = pool.counts[1 : N + 1]  # lengths 1..N: a view, not a copy
    side = table.shape[1]
    flat = (table != 0).ravel().nonzero()[0]
    slot = _reading_plan(side, N).take(flat)
    ones = flat % side
    mult = table.take(flat)

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
    scan = (slot, ones, mult)
    for array in (*scan, fill, fragments, sums, certain):
        array.flags.writeable = False
    return SideSums(scan, fill, fragments, sums, certain)


def sided_cells(sums: SideSums) -> tuple[np.ndarray, ...]:
    """Length, ones, and the fragments on the prefix and on the suffix side,
    of each cell of a reading, in (length, ones) order: the one listing of a
    reading's cells.  A length's one tie cell splits as ``fill`` does; every
    other cell lies wholly on its side.  The four int64 arrays are derived
    from ``scan`` at each call and belong to the caller.  They stay int64,
    wider than the plan's small ints and the count table's int32, because
    detection packs each cell's length, ones and share (up to
    ``pool.total``) into one int key, which outgrows both; so the slots and
    the multiplicities are widened once, here, and the keys are built with
    no mixed-dtype arithmetic."""
    import numpy as np

    slot, ones, mult = sums.scan
    mult = mult.astype(np.int64)
    kind, length = np.divmod(slot.astype(np.int64), sums.fill.shape[1])
    length += 1
    on_prefix = mult * (kind == 0)
    tie = kind == 1
    on_prefix[tie] = sums.fill[0, length[tie] - 1]
    return length, ones.copy(), on_prefix, mult - on_prefix


def length_totals(pool: CompositionMultiset, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Fragments and their ones total at each length 1..N, both sides together.

    Its readers are the one-sided sums of an attributed pool
    (``one_sided_sum``) and of a split's prefix side
    (``codec.sum_from_prefixes``).  Read straight off the count table;
    lengths past its end hold nothing.  The pool keeps the two read-only
    arrays in its memo slot, where ``hold_length_totals`` may have left
    them already.
    """
    import numpy as np

    def read() -> tuple[np.ndarray, np.ndarray]:
        rows = pool.counts[1 : N + 1, : N + 1]
        totals = np.zeros((2, N), dtype=np.int64)
        totals[0, : len(rows)] = rows.sum(axis=1)
        totals[1, : len(rows)] = rows @ np.arange(rows.shape[1])
        totals.flags.writeable = False
        return totals[0], totals[1]

    return pool.memo(("totals", N), read)


def hold_length_totals(
    pool: CompositionMultiset, N: int, fragments: np.ndarray, ones: np.ndarray
) -> None:
    """Leave read-only totals of the pool, read elsewhere, for ``length_totals``
    to return: ``codec.separate_pool`` hands its prefix side the prefix
    rows of its ``side_sums`` reading, so they are not summed again."""
    pool.memo(("totals", N), lambda: (fragments, ones))


def mixture_order(pool: CompositionMultiset, N: int) -> int:
    """hbar read off a readout: the most fragments any length 1..N holds, halved and
    rounded up.  Each string gives each length two fragments, and a lighter reading
    keeps its length, so this is exact while some length lost at most one fragment."""
    return -(-int(pool.counts[1 : N + 1].sum(axis=1).max(initial=0)) // 2)


def increments(
    cumulative: np.ndarray, known: np.ndarray, hbar: int, strict: bool
) -> tuple[list, list]:
    """Sum symbols n_i - n_{i-1} (n_0 = 0) along the last axis; None where either
    count is unknown.  A row gives a list, a (2, N) pair of rows a list of two.
    Beside them come the known symbols outside 0..hbar, as (row, position,
    symbol) in row order, the position 1-based in the row.

    This is the one step rule: every reading of sum symbols goes through it.
    With ``strict`` the first symbol out of range raises NegativeIncrement.
    """
    steps = cumulative.copy()
    steps[..., 1:] -= cumulative[..., :-1]
    ok = known.copy()
    ok[..., 1:] &= known[..., :-1]
    # flat indices run in row order; as unsigned, a negative step is past hbar
    # too, so one test finds both ends
    width = steps.shape[-1]
    bad = (ok & (steps.view("u8") > hbar)).ravel().nonzero()[0]
    stray = []
    if bad.size:
        values = steps.take(bad).tolist()
        stray = [(i // width, i % width + 1, v) for i, v in zip(bad.tolist(), values)]
        if strict:
            _, at, v = stray[0]
            raise NegativeIncrement(f"sum symbol {v} at position {at}")
    symbols = steps.tolist()
    rows = symbols if steps.ndim > 1 else [symbols]
    for i in (~ok).ravel().nonzero()[0].tolist():
        rows[i // width][i % width] = None
    return symbols, stray


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
    (p_syms, s_syms), _ = increments(sums.ones, sums.certain, hbar, True)
    # the strict increments checked every symbol
    p_sum = PartialSumString._of(tuple(p_syms), hbar)
    return p_sum, PartialSumString._of(tuple(s_syms[::-1]), hbar)


def one_sided_sum(
    side_pool: CompositionMultiset, N: int, hbar: int, side: str = PREFIX
) -> PartialSumString:
    """Mixture sum from one side's multiset alone (already attributed).

    For readouts that tag fragments with their end, no weight separation
    is involved: a length with fewer than hbar fragments is simply erased.
    The result is returned in prefix orientation either way.
    """
    fragments, ones = length_totals(side_pool, N)
    syms, _ = increments(ones, fragments == hbar, hbar, strict=True)
    return PartialSumString._of(tuple(syms if side == PREFIX else syms[::-1]), hbar)


def _require_mixture(hbar: int) -> None:
    """Refuse a mixture order below 1, the typed error of every decoder."""
    if hbar < 1:
        raise InconsistentPoolSize(f"a mixture needs hbar >= 1, got hbar={hbar}")


def raw_side_sums(
    pool: CompositionMultiset, N: int, hbar: int
) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Like partial_sum_strings but keeping out-of-range symbols as read.

    For corrupted pools the raw increments are what carry the corruption
    signal; both lists come back in prefix orientation.  An hbar below 1
    raises InconsistentPoolSize before the pool is read.
    """
    _require_mixture(hbar)
    sums = side_sums(pool, N, hbar)
    (p_syms, s_syms), _ = increments(sums.ones, sums.certain, hbar, False)
    return p_syms, s_syms[::-1]


# ---------------------------------------------------------------------------
# bursts, overlaps, and the two-sided merge


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


def _erased(symbols: tuple) -> list[int]:
    """The positions of the None symbols, ascending.  ``tuple.index`` scans in
    C, so a few erasures cost far less than a Python pass over every symbol."""
    found = [-1]
    try:
        while True:
            found.append(symbols.index(None, found[-1] + 1))
    except ValueError:
        return found[1:]


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
    ps, ss = p.symbols, s_rev.symbols
    p_erased, s_erased = _erased(ps), _erased(ss)
    # each side, with the other's symbols where it has none; the two differ
    # only where both sides know and disagree
    merged, by_s = list(ps), list(ss)
    for i in p_erased:
        merged[i] = ss[i]
    for i in s_erased:
        by_s[i] = ps[i]
    if merged != by_s:
        pairs = enumerate(zip(ps, ss), start=1)
        clashes = [(i, a, b) for i, (a, b) in pairs if a != b and None not in (a, b)]
        raise Conflict(f"disagreeing sum symbols at {clashes}")
    erased = [i for i in p_erased if merged[i] is None]
    known = sum(filter(None, merged))
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
    return PartialSumString._of(tuple(merged), hbar)


def merged_sums(pool: CompositionMultiset, N: int, hbar: int) -> PartialSumString:
    """The mixture sum read from both sides of the pool and weight-anchored.

    This is the one two-sided reading.  Its readers are the erasure decoders
    of ``ecc`` (integral through ``merged_counts``) and the codec's erased
    plain decode, ``codec.reconstruct_redundancy_free``.  Every codeword is
    a Dyck string of length N, so it holds N/2 ones and a mixture of hbar of
    them weighs hbar*N/2; that is the total weight the merge fills from.
    An hbar below 1 raises InconsistentPoolSize before the pool is read.
    """
    _require_mixture(hbar)
    return merge_partials(*partial_sum_strings(pool, N, hbar), hbar * N // 2)


def merged_counts(pool: CompositionMultiset, N: int, hbar: int) -> list[Optional[int]]:
    """Cumulative prefix-ones counts n_1..n_N merged from both sides.

    Built from the merged (and weight-anchored) position sums: n_i is the
    forward cumulative when every symbol up to i is known, or the backward
    complement against the total weight when the tail is known.
    """
    symbols = merged_sums(pool, N, hbar).symbols
    if None not in symbols:
        return list(accumulate(symbols))
    # n_i is read forward before the first erasure and backward from the last one on
    first, last = symbols.index(None), len(symbols) - symbols[::-1].index(None)
    total = hbar * N // 2
    # tails[j] is the sum of the last j symbols
    tails = list(accumulate(reversed(symbols[last:]), initial=0))
    return [
        *accumulate(symbols[:first]),
        *[None] * (last - 1 - first),
        *(total - tail for tail in reversed(tails)),
    ]


# ---------------------------------------------------------------------------
# substitution detection


@dataclass(frozen=True)
class Correction:
    """Replace one observed fragment with what it must have been."""

    side: str
    length: int
    observed: Composition
    restored: Composition

    def to_json_obj(self) -> dict:
        observed, restored = str(self.observed), str(self.restored)
        return {"side": self.side, "len": self.length, "observed": observed, "restored": restored}


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

    def to_json_obj(self) -> dict:
        """The report's anomalies, candidate sums and repairs; the per-side sums
        and the recovered sum are left out."""
        return {
            "clean": self.is_clean,
            "prefix_count_dev": list(self.prefix_count_dev),
            "suffix_count_dev": list(self.suffix_count_dev),
            "prefix_bad_increments": list(self.prefix_bad_increments),
            "suffix_bad_increments": list(self.suffix_bad_increments),
            "incompatible_lengths": list(self.incompatible_lengths),
            "candidate_sums": [str(s) for s in self.candidate_sums],
            "corrections": [c.to_json_obj() for c in self.corrections],
        }


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
    are the steps ``increments`` reads off each side's ones totals, where
    both lengths hold a fragment; a bad increment is one outside 0..hbar,
    and a side with neither anomaly gives its sum.  w0, the common weight
    of the full-length fragments, is read off row N of the count table (one
    distinct weight there, or none).  A prefix of length L with o ones
    completes a suffix of length N - L with w0 - o ones.  So the prefix
    side's cells and the suffix side's, mirrored to (N - length, w0 - ones),
    become integer keys of (length, ones, multiplicity), each cell counting
    the fragments ``sided_cells``, the one listing of the cells, puts on its
    side.  A length whose keys differ is incompatible when it and its
    mirror both hold hbar fragments.

    A fragment read lighter that crossed the weight split leaves exactly two
    count deviations, side X one short and side Y one over, at one length L.
    A repair b -> r > b on side X is listed, in ascending b, when it alone
    makes row L of the count table the mirror of row N - L again.
    """
    import numpy as np

    sums = side_sums(pool, N, hbar)
    fragments = sums.fragments
    off = fragments != hbar
    devs: tuple[list, list] = ([], [])
    if off.any():
        side, at = off.nonzero()
        for k, i, d in zip(side.tolist(), at.tolist(), (fragments[off] - hbar).tolist()):
            devs[k].append((i + 1, d))
    # a length counts when it holds any fragment, and every length does at hbar = 0
    known = fragments > 0 if hbar else fragments >= 0
    symbols, stray = increments(sums.ones, known, hbar, False)
    bad: tuple[list, list] = ([], [])
    for k, i, v in stray:
        # suffix-side positions in prefix orientation
        bad[k].append((N + 1 - i if k else i, v))
    # a side without deviations reads every length, each step in range; the
    # suffix sum is read backwards
    prefix_sum, suffix_sum = (
        None if devs[k] or bad[k] else PartialSumString._of(tuple(row[:: 1 - 2 * k]), hbar)
        for k, row in enumerate(symbols)
    )

    weights = set(pool.ones_at_length(N))
    w0 = weights.pop() if len(weights) == 1 else None
    incompatible = []
    if w0 is not None:
        # one int per (length, ones, mult); ones are offset by N since a
        # mirrored w0 - o can be negative, and mult runs up to pool.total
        width = pool.total + 1
        span = (2 * N + 1) * width
        length, cell_ones, on_prefix, on_suffix = sided_cells(sums)
        key = length * span + cell_ones * width
        prefix = (key + on_prefix)[on_prefix > 0] + N * width
        mirrored = ((N * span + (w0 + N) * width) - key + on_suffix)[on_suffix > 0]
        # each side keys a cell once, so the keys without a twin are the symmetric
        # difference; their lengths come out ascending
        differ = np.setxor1d(prefix, mirrored, assume_unique=True) // span
        incompatible = [
            ln
            for ln in dict.fromkeys(differ.tolist())
            if 0 < ln < N and not (off[0, ln - 1] or off[1, N - ln - 1])
        ]

    candidates =tuple(dict.fromkeys(ps for ps in (prefix_sum, suffix_sum) if ps is not None))
    recovered = candidates[0] if len(candidates) == 1 and not incompatible else None

    corrections = _single_error_corrections(pool.counts, N, w0, *devs)
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


def _single_error_corrections(
    counts: np.ndarray, N: int, w0: Optional[int], p_dev: list, s_dev: list
) -> tuple[Correction, ...]:
    """Repairs for one fragment that was read lighter and switched sides."""
    devs = sorted([(d, ln, 0) for ln, d in p_dev] + [(d, ln, 1) for ln, d in s_dev])
    if w0 is None or [d for d, _, _ in devs] != [-1, 1] or devs[0][1] != devs[1][1]:
        return ()
    (_, length, x), _ = devs  # side x lost the fragment
    # rows of lengths 1..N only, as the side reading has them; zero past the table
    row, mirror = (
        counts[ln].tolist() if 0 < ln < len(counts) else [] for ln in (length, N - length)
    )
    row += [0] * (length + 1 - len(row))
    # C[N - L, w0 - o] for o = 0..L, padded so that every w0 - o has a slot
    mirror = ([0] * length + mirror + [0] * (w0 + 1))[w0 : w0 + length + 1][::-1]
    dev = {o: a - b for o, (a, b) in enumerate(zip(row, mirror)) if a != b}
    # at the middle length the repair moves the row's own mirror too
    signs = (1, -1, -1, 1) if 2 * length == N else (1, -1)
    corrections = []
    for b in (o for o, d in dev.items() if d > 0):
        for r in (o for o, d in dev.items() if d < 0 and o > b):
            want: dict = {}
            for o, sign in zip((b, r, w0 - b, w0 - r), signs):
                if 0 <= o <= length:
                    want[o] = want.get(o, 0) + sign
            if dev == {o: d for o, d in want.items() if d}:
                observed, fixed = (Composition(length - o, o) for o in (b, r))
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
# seeded erasure sampler


def sample_erasure_pattern(
    strings: Sequence[BitString],
    t: int,
    rng,
    placement: str = "uniform",
) -> ErasurePattern:
    """Draw t fragment removals from the true pool of the given strings.

    ``uniform`` removes fragments uniformly at random; ``adversarial``
    pairs prefix and suffix removals at mirrored lengths so their erasure
    bursts collide as often as the pattern size allows.  The draws index
    the 2n reads of each string, its prefixes and then its suffixes: read
    i is a fragment of string i // 2n, so no list of reads is built.  A t
    outside 0..2n*|strings| raises ValueError before any draw; with no
    strings there are no reads, so only t = 0 draws, the empty pattern.
    """
    n = len(strings[0]) if strings else 0
    reads = 2 * n * len(strings)
    if not 0 <= t <= reads:
        raise ValueError(f"t={t} removals outside 0..{reads}, the number of reads")
    if placement == "uniform":
        picks = rng.sample(range(reads), t)
    elif placement == "adversarial":
        taken: set[int] = set()
        lengths = list(range(2, n))
        rng.shuffle(lengths)
        for ln in lengths:
            if len(taken) + 2 > t:
                break
            # one string's prefix of length ln and one's suffix of length n - ln;
            # the lengths differ from those taken before, so all are free
            taken.add(rng.choice(range(ln - 1, reads, 2 * n)))
            taken.add(rng.choice(range(2 * n - ln - 1, reads, 2 * n)))
        if len(taken) < t:  # past the pairs, the rest are drawn from every free read
            free = [i for i in range(reads) if i not in taken]
            while len(taken) < t:
                i = rng.choice(free)
                free.remove(i)
                taken.add(i)
        picks = sorted(taken)
    else:
        raise ValueError(f"unknown placement {placement!r}")

    def removal(i: int) -> Removal:
        s, at = strings[i // (2 * n)], i % (2 * n)
        if at < n:
            return Removal(PREFIX, at + 1, 1, s.prefix(at + 1).weight())
        return Removal(SUFFIX, at - n + 1, 1, s.suffix(at - n + 1).weight())

    return ErasurePattern(tuple(map(removal, picks)))

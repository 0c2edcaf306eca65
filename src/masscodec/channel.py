"""Readout error models: missing fragments and mass-reducing substitutions.

A missing fragment of length i removes one composition from the pool; on
the affected side the mixture-sum symbols i and i+1 both become unknown,
so j consecutive missing lengths erase a contiguous burst of j+1 sum
symbols.  Prefix and suffix fragments describe the same sum string from
opposite ends, which gives a free layer of protection: a position is lost
only where erasure bursts from the two sides overlap, and a single lost
position can still be pinned through the known total weight.

A mass-reducing substitution instead reports a fragment lighter than it
was.  Counts per length stay intact when the corrupted fragment stays on
its side of the weight split and shift across sides when it does not;
either way the corruption shows up as out-of-range sum increments, as
per-length count surpluses/deficits, or as prefix/suffix fragments whose
weights cannot be complementary.  Detection is always possible, pinning
the correction is not, and the report below keeps those outcomes apart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from . import oracle
from .bhcode import BhCodebook, DEFAULT_BUDGET, invert_sum
from .core import (
    BitString,
    Composition,
    CompositionMultiset,
    PartialSumString,
)
from .errors import (
    Conflict,
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
        if self.side not in (PREFIX, SUFFIX):
            raise ValueError(f"side must be prefix/suffix, got {self.side!r}")
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
                for e in obj.get("erase", [])
            )
        )


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
    """

    # (4, K): length, ones, multiplicity and class (0 prefix, 1 tie, 2 suffix)
    # of the pool's nonzero cells up to length N, in (length, ones) order
    cells: np.ndarray
    fill: np.ndarray  # (2, N) ties given to each side
    fragments: np.ndarray  # (2, N) fragments per side after tie filling
    ones: np.ndarray  # (2, N) ones totals per side after tie filling
    certain: np.ndarray  # (2, N) bool

    @functools.cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        out = []
        for side, fill in enumerate(self.fill):
            at = fill.nonzero()[0] + 1
            cells = self.cells[:3, self.cells[3] == 2 * side]
            both = np.concatenate([cells, np.stack([at, at // 2, fill[at - 1]])], axis=1)
            both.flags.writeable = False
            out.append(both)
        return out[0], out[1]

    def entries(self, side: int) -> np.ndarray:
        """(3, K) length, ones and multiplicity of the fragments of side 0 or 1.

        The side's unbalanced cells come first, in (length, ones) order,
        then one cell per length for the ties the side received.  Both
        sides are built on the first call and shared, read-only, after it.
        """
        return self._entries[side]

    def ones_list(self, side: int, length: int) -> list[int]:
        """Ones of the side's fragments at a length: non-ties ascending, then ties."""
        lengths, ones, mult = self.entries(side)
        at = lengths == length
        return ones[at].repeat(mult[at]).tolist()


def side_sums(pool: CompositionMultiset, N: int, hbar: int) -> SideSums:
    """Per-length, per-side fragment counts, ones totals and certainty.

    This is the one reading of counts into sums: the two-sided partial
    sums, the raw side sums, the one-sided sums, the clean-pool split of
    the codec and substitution detection all read its arrays.  Lengths
    past N are ignored.  After one scan of the count table for its nonzero
    cells, the work is proportional to the number of distinct fragments.

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
    length = rows + 1
    kind = np.sign(length - 2 * ones) + 1  # 0 prefix, 1 tie, 2 suffix
    slot = 3 * rows + kind

    def per_length(weights: np.ndarray) -> np.ndarray:
        # (3, N): totals of the prefix, tie and suffix cells at each length
        totals = np.bincount(slot, weights=weights, minlength=3 * N)
        return totals.astype(np.int64).reshape(N, 3).T

    counted = per_length(mult)
    ties = counted[1]
    unbalanced = counted[::2]  # prefix-only and suffix-only fragments
    to_prefix = np.clip(hbar - unbalanced[0], 0, ties)
    fill = np.stack([to_prefix, ties - to_prefix])
    fragments = unbalanced + fill
    sums = per_length(mult * ones)[::2] + fill * (np.arange(1, N + 1) // 2)
    # a side is certain when even its fewest fragments, with the other side
    # taking every tie it has room for, reach hbar
    room = np.maximum(0, hbar - unbalanced[::-1])
    certain = unbalanced + np.maximum(0, ties - room) == hbar
    cells = np.stack([length, ones, mult, kind])
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
        bad = (ok & ((steps < 0) | (steps > hbar))).nonzero()[0]
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
    pss = PartialSumString(syms, hbar)
    return pss if side == PREFIX else pss.reversed_()


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
) -> Union[PartialSumString, Ambiguous]:
    """Combine the two sides and settle what the total weight still pins.

    Disagreement at a known position raises Conflict (an erasure cannot
    cause it; a substitution can).  Erasures surviving the merge are
    filled only when the weight equation forces them.
    """
    merged = p.merge(s_rev).fill_from_weight(total_weight)
    if merged.complete:
        return merged
    return Ambiguous(partial=merged)


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
    p, s = partial_sum_strings(pool, N, hbar)
    outcome = merge_partials(p, s, hbar * N // 2)  # Dyck codewords are balanced
    if isinstance(outcome, PartialSumString):
        strings: Optional[frozenset[BitString]] = None
        if codebook is not None:
            strings = _invert_recovered(outcome, codebook, hbar, budget)
        elif hbar == 1:
            strings = frozenset({outcome.to_bitstring()})
        return Recovered(sum=outcome, strings=strings)
    witnesses = _consistency_witnesses(pool, N, hbar, codebook, budget)
    return Ambiguous(partial=outcome.partial, witnesses=witnesses)


def _invert_recovered(
    total: PartialSumString, codebook, hbar: int, budget: int
) -> frozenset[BitString]:
    from .codec import McCodebook, mixture_mod2_target, require_plain

    if isinstance(codebook, McCodebook):
        require_plain(codebook)
        from .bhcode import invert_mod2_sum

        target = mixture_mod2_target(total, codebook.layout)
        return frozenset(invert_mod2_sum(codebook.base, target, hbar, budget))
    return frozenset(invert_sum(codebook, total.as_tuple(), hbar, budget))


def _consistency_witnesses(
    pool: CompositionMultiset,
    N: int,
    hbar: int,
    codebook,
    budget: int,
) -> Optional[tuple[frozenset[BitString], ...]]:
    from .codec import McCodebook, require_plain

    origin_of = None
    if isinstance(codebook, McCodebook):
        require_plain(codebook)
        origin_of = {cw.bits: cw.origin for cw in codebook.codewords}
        universe: Sequence[BitString] = tuple(origin_of)
    elif codebook is not None:
        universe = codebook.strings
    elif hbar == 1 and 2**N <= budget:
        from .core import all_dyck_strings

        universe = all_dyck_strings(N)  # the codeword universe of this model
    else:
        return None
    removals = 2 * N * hbar - pool.total
    try:
        hits = oracle.brute_decode(pool, universe, hbar, removals, budget)
    except SearchSpaceTooLarge:
        return None
    if origin_of is not None:
        return tuple(frozenset(origin_of[b] for b in sub) for sub in hits)
    return tuple(frozenset(sub) for sub in hits)


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


def _string_weight(pool: CompositionMultiset, N: int) -> Optional[int]:
    """Common per-string weight, read off the full-length fragments."""
    ones = pool.ones_at_length(N)
    if ones and len(set(ones)) == 1:
        return ones[0]
    return None


def detect_substitution(
    pool: CompositionMultiset, N: int, hbar: int
) -> DetectionReport:
    """Flag count anomalies, out-of-range increments, and incompatibilities.

    Under a single-error assumption a fragment read lighter that crossed
    the weight split leaves exactly two count deviations: side X one short
    and side Y one over, at the same length L.  With w0 the common weight
    of the full-length fragments and M = N - L, a fragment of length L
    with o ones mirrors one of length M with w0 - o ones.  Each distinct
    ones value b of Y's length-L fragments is tried, in ascending order,
    as the lighter reading.  It is skipped when X holds hbar fragments at
    M whose mirrors account for every copy of b.  Otherwise Y's length-M
    values, less one copy of b when M = L, must number hbar, and their
    mirrors must leave exactly one value v that X's length-L fragments do
    not cover.  The repair b -> v on side X is listed when v > b, so the
    corrections come out in ascending order of the observed ones, and
    exactly one candidate means the error is correctable.
    """
    sums = side_sums(pool, N, hbar)
    p_dev, s_dev = (
        [(i, d) for i, d in enumerate(devs, start=1) if d]
        for devs in (sums.fragments - hbar).tolist()
    )

    # every length holding any fragment counts, however many it holds
    known = (sums.fragments > 0) | (hbar == 0)
    p_naive, s_naive = (increments(sums.ones[k], known[k], hbar, False) for k in (0, 1))
    p_bad, s_bad = (
        [(i, v) for i, v in enumerate(symbols, start=1) if v is not None and not 0 <= v <= hbar]
        for symbols in (p_naive, s_naive)
    )
    # suffix-side positions and symbols in prefix orientation
    s_naive_rev = list(reversed(s_naive))
    s_bad_rev = [(N - i + 1, v) for i, v in s_bad]

    w0 = _string_weight(pool, N)
    incompatible = []
    if w0 is not None:
        # a prefix of length L with o ones completes a suffix of length N - L
        # with w0 - o ones, so the prefix side must mirror the suffix side
        # one int per (length, ones, mult) cell; ones are offset by N since a
        # mirrored w0 - o can be negative, and mult runs up to pool.total
        width = pool.total + 1
        span = (2 * N + 1) * width
        length, ones, mult = sums.entries(0)
        prefix = set((length * span + (ones + N) * width + mult).tolist())
        length, ones, mult = sums.entries(1)
        mirrored = set(((N - length) * span + (w0 - ones + N) * width + mult).tolist())
        full = (
            (sums.fragments[0, : N - 1] == hbar) & (sums.fragments[1, N - 2 :: -1] == hbar)
        ).tolist()
        differ = {key // span for key in prefix ^ mirrored}
        incompatible = [ln for ln in sorted(differ) if 1 <= ln < N and full[ln - 1]]

    def clean_sum(symbols: list, devs: list, bad: list) -> Optional[PartialSumString]:
        if devs or bad or None in symbols:
            return None
        return PartialSumString(symbols, hbar)

    prefix_sum = clean_sum(p_naive, p_dev, p_bad)
    suffix_sum = clean_sum(s_naive_rev, s_dev, s_bad_rev)
    candidates = []
    for ps in (prefix_sum, suffix_sum):
        if ps is not None and ps not in candidates:
            candidates.append(ps)
    recovered = None
    if len(candidates) == 1 and not incompatible:
        recovered = candidates[0]

    corrections = _single_error_corrections(sums, N, hbar, w0, p_dev, s_dev)
    return DetectionReport(
        hbar=hbar,
        prefix_count_dev=tuple(p_dev),
        suffix_count_dev=tuple(s_dev),
        prefix_bad_increments=tuple(p_bad),
        suffix_bad_increments=tuple(s_bad_rev),
        incompatible_lengths=tuple(incompatible),
        prefix_sum=prefix_sum,
        suffix_sum=suffix_sum,
        recovered_sum=recovered,
        candidate_sums=tuple(candidates),
        corrections=corrections,
    )


def _single_error_corrections(
    sums: SideSums, N: int, hbar: int, w0: Optional[int], p_dev: list, s_dev: list
) -> tuple[Correction, ...]:
    """Repairs for one fragment that was read lighter and switched sides."""
    devs = sorted([(d, ln, 0) for ln, d in p_dev] + [(d, ln, 1) for ln, d in s_dev])
    if w0 is None or [d for d, _, _ in devs] != [-1, 1] or devs[0][1] != devs[1][1]:
        return ()
    (_, length, x), (_, _, y) = devs  # side x lost the fragment, side y gained it
    comp_len = N - length
    short = sums.ones_list(x, length)  # hbar - 1 genuine values
    long = sums.ones_list(y, length)  # hbar + 1 values, one of them bogus
    mirrors = sums.ones_list(x, comp_len)
    unmirrored = list(long)
    for o in mirrors:
        if w0 - o in unmirrored:
            unmirrored.remove(w0 - o)
    complements = sums.ones_list(y, comp_len)
    corrections = []
    for bogus in sorted(set(long)):
        if len(mirrors) == hbar and bogus not in unmirrored:
            continue  # every copy mirrors a genuine fragment of side x
        comp = list(complements)
        if 2 * length == N:
            comp.remove(bogus)  # the bogus fragment sits among its own mirrors
        if len(comp) != hbar:
            continue
        restored = _multiset_diff(sorted(w0 - o for o in comp), short)
        if restored is not None and bogus < restored <= length:
            observed = Composition(length - bogus, bogus)
            fixed = Composition(length - restored, restored)
            corrections.append(Correction((PREFIX, SUFFIX)[x], length, observed, fixed))
    return tuple(corrections)


def _multiset_diff(expect: list, observed: list) -> Optional[int]:
    """The single element of ``expect`` not covered by ``observed``."""
    rest = list(expect)
    for o in observed:
        if o in rest:
            rest.remove(o)
        else:
            return None
    if len(rest) != 1:
        return None
    return rest[0]


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
    fragments = []
    for s in strings:
        w = 0
        for i, b in enumerate(s.bits, start=1):
            w += b
            fragments.append((PREFIX, i, w))
        w = 0
        for i, b in enumerate(reversed(s.bits), start=1):
            w += b
            fragments.append((SUFFIX, i, w))
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
    cannot hide it).
    """
    import random

    from .core import is_dyck, pool as make_pool

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
    rows = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        subset = tuple(sorted(rng.sample(list(codebook.strings), hbar)))
        words = [word_of[s] for s in subset]
        clean = make_pool(words)
        pattern = sample_erasure_pattern(words, t, rng, placement)
        erased = erase(clean, pattern, rng=rng)
        try:
            result = reconstruct_redundancy_free(
                erased, N, hbar, codebook=decode_book, budget=budget
            )
        except Conflict:
            rows.append(_row(seed, trial, N, hbar, t, "conflict"))
            continue
        except MasscodecError as exc:
            row = _row(seed, trial, N, hbar, t, "error")
            rows.append({**row, "reason": type(exc).__name__})
            continue
        if isinstance(result, Ambiguous):
            outcome = "ambiguous"
        elif result.strings == frozenset(subset):
            outcome = "exact"
        else:
            outcome = "wrong"
        rows.append(_row(seed, trial, N, hbar, t, outcome))
    return rows


def _row(seed, trial, n, hbar, t, outcome) -> dict:
    return {
        "seed": seed,
        "trial": trial,
        "n": n,
        "hbar": hbar,
        "t": t,
        "outcome": outcome,
    }

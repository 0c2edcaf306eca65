import functools
import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masscodec import ecc
from masscodec.bhcode import BhCodebook
from masscodec.channel import (
    PREFIX,
    SUFFIX,
    Ambiguous,
    Correction,
    ErasurePattern,
    Recovered,
    Removal,
    apply_correction,
    burst_report,
    count_correctable_multi,
    count_correctable_single,
    detect_substitution,
    erase,
    increments,
    length_totals,
    mixture_order,
    merge_partials,
    merged_counts,
    merged_sums,
    one_sided_sum,
    partial_sum_strings,
    raw_side_sums,
    reconstruct_redundancy_free,
    run_erasure_experiment,
    sample_erasure_pattern,
    side_sums,
    sided_cells,
    substitute_mass_reducing,
)
from masscodec.channel import _single_error_corrections
from masscodec.codec import decode_mixture, encode_codebook, separate_pool, sum_from_prefixes
from masscodec.core import (
    BitString,
    Composition,
    CompositionMultiset,
    PartialSumString,
    all_dyck_strings,
    full_multiset,
    pool,
)
from masscodec.errors import (
    ConfigError,
    Conflict,
    CountMismatch,
    LengthMismatch,
    MasscodecError,
    NegativeIncrement,
    NotMassReducing,
    PatternNotPresent,
    TooManyErasures,
    UnsupportedCodebook,
)

PSS = PartialSumString.parse

DYCK_TRIPLE = ["110100", "101010", "110010"]


# ---------------------------------------------------------------------------
# erase / substitute


def test_erase_single_prefix_fragment():
    erased = erase(full_multiset("111000"), [Removal("prefix", 2)])
    expected = CompositionMultiset.parse(
        "{1, 1^3, 01^3, 0^21^3, 0^31^3, 0^31^3, 0^31^2, 0^31, 0^3, 0^2, 0}"
    )
    assert erased == expected
    assert erased.total == 11


def test_erase_empty_and_counting():
    p = pool(["110100", "101010"])
    assert erase(p, []) == p
    erased = erase(
        p,
        [Removal("prefix", 3), Removal("prefix", 4, ones=3),
         Removal("suffix", 2, ones=0), Removal("suffix", 5)],
    )
    assert erased.total == 20


def test_erase_pattern_errors():
    p = pool(["110100", "101010"])
    with pytest.raises(PatternNotPresent):
        erase(p, [Removal("prefix", 2, ones=0)])  # 0^2 cannot be a prefix
    with pytest.raises(PatternNotPresent):
        erase(p, [Removal("prefix", 4)])  # mixed fragments need pinning
    with pytest.raises(PatternNotPresent):
        erase(p, [Removal("prefix", 1, count=3)])


def test_erasure_pattern_json_round_trip():
    pat = ErasurePattern(
        (Removal("prefix", 3), Removal("suffix", 5, count=2, ones=2))
    )
    assert ErasurePattern.from_json_obj(pat.to_json_obj()) == pat


def test_substitute_mass_reducing():
    p = pool(["111000", "110100"])
    corrupted = substitute_mass_reducing(p, "prefix", 2, 0)
    assert corrupted.count(Composition(2, 0)) == 3
    assert corrupted.count(Composition(0, 2)) == 1
    with pytest.raises(NotMassReducing):
        substitute_mass_reducing(p, "prefix", 2, 2)


def test_erase_and_substitution_tables_pass_the_checked_wrap(b2_n16_codebook):
    # pool, pool_of, erase and the substitution wrap their tables unchecked;
    # the checked wrap must agree
    book = encode_codebook(b2_n16_codebook)
    rng = random.Random(12)
    edited = []
    for _ in range(40):
        sources = rng.sample(list(book.base.strings), 2)
        words = [book.bits_for(s) for s in sources]
        clean = pool(words)
        edited += [clean, book.pool_of(sources)]
        t = rng.randint(0, 4)
        edited.append(erase(clean, sample_erasure_pattern(words, t, rng, "uniform")))
        sides = [rng.choice((PREFIX, SUFFIX)) for _ in range(t)]
        edited.append(erase(clean, [Removal(side, rng.randint(1, book.N)) for side in sides], rng))
        side, length = rng.choice((PREFIX, SUFFIX)), rng.randint(1, book.N)
        try:
            edited.append(substitute_mass_reducing(clean, side, length, 0, rng=rng))
        except (PatternNotPresent, NotMassReducing):
            continue
    assert len(edited) > 180
    for got in edited:
        checked = CompositionMultiset.from_counts(got.counts.copy())
        assert np.array_equal(got.counts, checked.counts) and got.total == checked.total
        assert got == checked and not got.counts.flags.writeable


def test_substitution_checks_its_side_as_a_removal_does():
    for bad in ("banana", "Prefix", ""):
        with pytest.raises(ValueError, match="side must be prefix/suffix"):
            substitute_mass_reducing(pool(["1010"]), bad, 2, 0)
        with pytest.raises(ValueError, match="side must be prefix/suffix"):
            Removal(bad, 2)


# ---------------------------------------------------------------------------
# partial sums, bursts, merging


def test_partial_sums_one_missing_prefix():
    erased = erase(pool(["110100", "101010"]), [Removal("prefix", 3)])
    p, s = partial_sum_strings(erased, 6, 2)
    assert str(p) == "21εε10"
    assert str(s) == "211110"


def test_partial_sums_two_sided():
    erased = erase(
        pool(["110100", "101010"]), [Removal("prefix", 3), Removal("suffix", 5)]
    )
    p, s = partial_sum_strings(erased, 6, 2)
    assert (str(p), str(s)) == ("21εε10", "εε1110")
    assert str(merge_partials(p, s, 6)) == "211110"


def test_partial_sums_four_removals_and_weight_anchor():
    erased = erase(
        pool(["110100", "101010"]),
        [Removal("prefix", 3), Removal("prefix", 4, ones=3),
         Removal("suffix", 4, ones=1), Removal("suffix", 5)],
    )
    p, s = partial_sum_strings(erased, 6, 2)
    assert (str(p), str(s)) == ("21εεε0", "εεε110")
    assert str(merge_partials(p, s, 6)) == "211110"


def test_partial_sums_no_erasures():
    p, s = partial_sum_strings(pool(["110100", "101010"]), 6, 2)
    assert str(p) == str(s) == "211110"


def test_merge_ambiguous_when_aligned():
    erased = erase(
        pool(["110100", "101010"]), [Removal("prefix", 3), Removal("suffix", 3)]
    )
    p, s = partial_sum_strings(erased, 6, 2)
    assert str(p) == str(s) == "21εε10"
    out = merge_partials(p, s, 6)
    assert not out.complete
    assert str(out) == "21εε10"


def test_merge_conflict():
    with pytest.raises(Conflict):
        merge_partials(PSS("20", 2), PSS("21", 2), 3)


def _referee_merge(p: PartialSumString, s: PartialSumString) -> PartialSumString:
    """The side merge as it stood on PartialSumString, kept as a referee."""
    if len(s) != len(p) or s.hbar != p.hbar:
        raise LengthMismatch("cannot merge partial sums of different shape")
    merged: list = []
    clashes = []
    for i, (a, b) in enumerate(zip(p.symbols, s.symbols), start=1):
        if a is None:
            merged.append(b)
        elif b is None or a == b:
            merged.append(a)
        else:
            clashes.append((i, a, b))
    if clashes:
        raise Conflict(f"disagreeing sum symbols at {clashes}")
    return PartialSumString(merged, p.hbar)


def _referee_fill(ps: PartialSumString, total_weight: int) -> PartialSumString:
    """The weight fill as it stood on PartialSumString, kept as a referee."""
    erased = [i for i, v in enumerate(ps.symbols) if v is None]
    known_weight = sum(v for v in ps.symbols if v is not None)
    if not erased:
        if known_weight != total_weight:
            raise Conflict(f"sum weight {known_weight} != expected {total_weight}")
        return ps
    deficit = total_weight - known_weight
    if deficit < 0 or deficit > len(erased) * ps.hbar:
        raise Conflict(f"weight deficit {deficit} unreachable")
    fill = None
    if deficit == 0:
        fill = 0
    elif deficit == len(erased) * ps.hbar:
        fill = ps.hbar
    elif len(erased) == 1:
        fill = deficit
    if fill is None:
        return ps
    syms = list(ps.symbols)
    for i in erased:
        syms[i] = fill
    return PartialSumString(syms, ps.hbar)


def _merge_outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except MasscodecError as exc:
        return ("raise", type(exc), str(exc))


@pytest.mark.parametrize("hbar, longest", [(1, 4), (2, 3)])
def test_merge_partials_matches_the_two_step_referee(hbar, longest):
    # every pair of symbol strings over {0..hbar, erased} up to the longest
    # length, at every total weight from -1 to hbar * length + 1
    alphabet = [None, *range(hbar + 1)]
    strings = [
        PartialSumString(symbols, hbar)
        for length in range(1, longest + 1)
        for symbols in itertools.product(alphabet, repeat=length)
    ]
    outcomes = Counter()
    for p, s in itertools.product(strings, repeat=2):
        weights = range(-1, hbar * len(p) + 2) if len(p) == len(s) else [0]
        for w in weights:
            want = _merge_outcome(lambda: _referee_fill(_referee_merge(p, s), w))
            got = _merge_outcome(merge_partials, p, s, w)
            assert got == want, (str(p), str(s), w)
            outcomes[want[0] if want[0] == "raise" else want[1].complete] += 1
    other = PartialSumString([None] * 2, hbar + 1)
    for p in strings[:3]:
        assert _merge_outcome(merge_partials, p, other, 0)[1] is LengthMismatch
    # the sweep reaches complete, open and refused merges
    assert outcomes[True] and outcomes[False] and outcomes["raise"]


def test_burst_report_examples():
    rep = burst_report(PSS("110εε0", 1), PSS("11εε00", 1))
    assert rep.prefix_bursts == ((4, 2),)
    assert rep.suffix_bursts == ((3, 2),)
    assert rep.overlaps == (1,)
    assert rep.recoverable_by_inspection

    rep = burst_report(PSS("11εεε0", 1), PSS("1εεε00", 1))
    assert rep.overlaps == (2,)
    assert not rep.recoverable_by_inspection

    rep = burst_report(PSS("111000", 1), PSS("111000", 1))
    assert rep.prefix_bursts == () and rep.overlaps == ()
    assert rep.recoverable_by_inspection


def test_burst_containment_counts_as_overlap():
    rep = burst_report(PSS("1εεεε0", 1), PSS("11εε00", 1))
    assert rep.overlaps == (2,)


# ---------------------------------------------------------------------------
# redundancy-free reconstruction: the four single-string cases


def test_single_string_case_one_missing():
    erased = erase(full_multiset("111000"), [Removal("prefix", 2)])
    out = reconstruct_redundancy_free(erased, 6, 1)
    assert isinstance(out, Recovered)
    assert out.strings == frozenset({BitString("111000")})


def test_single_string_case_two_missing_pinned_by_range():
    erased = erase(
        full_multiset("111000"), [Removal("prefix", 2), Removal("suffix", 4)]
    )
    out = reconstruct_redundancy_free(erased, 6, 1)
    assert isinstance(out, Recovered)
    assert out.strings == frozenset({BitString("111000")})


def test_single_string_case_unit_overlap():
    erased = erase(
        full_multiset("110100"), [Removal("prefix", 4), Removal("suffix", 3)]
    )
    out = reconstruct_redundancy_free(erased, 6, 1)
    assert isinstance(out, Recovered)
    assert out.strings == frozenset({BitString("110100")})


def test_single_string_case_ambiguous():
    erased = erase(
        full_multiset("111000"), [Removal("prefix", 3), Removal("suffix", 3)]
    )
    out = reconstruct_redundancy_free(erased, 6, 1)
    assert isinstance(out, Ambiguous)
    assert set(out.witnesses) == {
        frozenset({BitString("111000")}),
        frozenset({BitString("110100")}),
    }


def test_mixture_ambiguous_with_witness_pairs():
    erased = erase(
        pool(["110100", "101010"]), [Removal("prefix", 3), Removal("suffix", 3)]
    )
    cb = BhCodebook.explicit(DYCK_TRIPLE + ["111000"], 2)
    out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
    assert isinstance(out, Ambiguous)
    assert set(out.witnesses) == {
        frozenset({BitString("110100"), BitString("101010")}),
        frozenset({BitString("111000"), BitString("101010")}),
    }


def test_zero_erasures_always_succeed():
    cb = BhCodebook.explicit(DYCK_TRIPLE, 2)
    for pair in itertools.combinations(DYCK_TRIPLE, 2):
        out = reconstruct_redundancy_free(pool(pair), 6, 2, codebook=cb)
        assert isinstance(out, Recovered)
        assert out.strings == frozenset(BitString(s) for s in pair)


def test_coded_codebook_is_refused_by_the_plain_pipeline(b2_n16_codebook):
    # the payload of a coded book is not the mod-2 sum of its sources
    book = ecc.one_step_codebook(b2_n16_codebook, 2)
    clean = book.pool_of(b2_n16_codebook.strings[:2])
    cut = 30
    erased = erase(
        clean,
        [Removal("prefix", cut), Removal("suffix", book.N - cut)],
        rng=random.Random(0),
    )
    p, s = partial_sum_strings(erased, book.N, 2)
    assert not merge_partials(p, s, book.N).complete  # weight hbar * N / 2
    # a complete merge reaches the inversion, an ambiguous one the witnesses
    for readout in (clean, erased):
        with pytest.raises(UnsupportedCodebook):
            reconstruct_redundancy_free(readout, book.N, 2, codebook=book)


# ---------------------------------------------------------------------------
# exhaustive single-removal sweeps


def _sides_of(s: BitString):
    n = len(s)
    for i in range(1, n + 1):
        yield "prefix", i, s.prefix(i).weight()
    for i in range(1, n + 1):
        yield "suffix", i, s.suffix(i).weight()


def test_every_single_removal_is_corrected_for_all_length6_strings():
    # side-attributed readouts: one missing fragment always leaves one side
    # complete, and the weight anchor settles the rest
    for v in range(64):
        s = BitString.from_int(v, 6)
        for side, length, ones in _sides_of(s):
            sides = {
                "prefix": list(_sides_of(s))[:6],
                "suffix": list(_sides_of(s))[6:],
            }
            kept = [
                (sd, ln, w)
                for sd, ln, w in sides["prefix"] + sides["suffix"]
                if not (sd == side and ln == length)
            ]
            p_pool = CompositionMultiset(
                Composition(ln - w, w) for sd, ln, w in kept if sd == "prefix"
            )
            s_pool = CompositionMultiset(
                Composition(ln - w, w) for sd, ln, w in kept if sd == "suffix"
            )
            p = one_sided_sum(p_pool, 6, 1, "prefix")
            srev = one_sided_sum(s_pool, 6, 1, "suffix")
            merged = merge_partials(p, srev, s.weight())
            assert merged.complete, (str(s), side, length)
            assert merged.to_bitstring() == s


def test_every_single_removal_is_corrected_for_dyck_pairs():
    cb = BhCodebook.explicit(DYCK_TRIPLE, 2)
    for pair in itertools.combinations(DYCK_TRIPLE, 2):
        clean = pool(pair)
        for comp, mult in clean.entries():
            for side in ("prefix", "suffix"):
                if not 2 * comp.ones >= comp.length and side == "prefix":
                    continue
                if not 2 * comp.ones <= comp.length and side == "suffix":
                    continue
                try:
                    erased = erase(clean, [Removal(side, comp.length, ones=comp.ones)])
                except PatternNotPresent:
                    continue
                out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
                assert isinstance(out, Recovered), (pair, str(comp), side)
                assert out.strings == frozenset(BitString(s) for s in pair)


def test_success_implies_brute_force_uniqueness():
    # whenever the merge succeeds the answer matches the enumeration oracle;
    # patterns are exhaustive over two removals on a fixed pair
    from masscodec.oracle import brute_decode

    pair = ("110100", "101010")
    clean = pool(pair)
    cb = BhCodebook.explicit(DYCK_TRIPLE + ["111000"], 2)
    fragments = sorted(
        {(c.length, c.ones) for c, _ in clean.entries()}
    )
    checked = recovered = 0
    for (l1, o1), (l2, o2) in itertools.combinations(fragments, 2):
        for s1 in ("prefix", "suffix"):
            for s2 in ("prefix", "suffix"):
                try:
                    erased = erase(
                        clean,
                        [Removal(s1, l1, ones=o1), Removal(s2, l2, ones=o2)],
                    )
                except PatternNotPresent:
                    continue
                checked += 1
                out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
                if isinstance(out, Recovered):
                    recovered += 1
                    hits = brute_decode(erased, cb, 2, removals=2)
                    assert hits == (tuple(sorted(out.strings)),)
    assert checked > 100 and recovered > 0


def test_burst_conditions_imply_success():
    # no overlap, or one unit overlap => the merge recovers the sum
    rng = random.Random(4)
    pair = [BitString(s) for s in ("110100", "110010")]
    clean = pool(pair)
    cb = BhCodebook.explicit(DYCK_TRIPLE, 2)
    for _ in range(300):
        t = rng.randint(1, 4)
        pat = sample_erasure_pattern(pair, t, rng)
        erased = erase(clean, pat, rng=rng)
        p, s = partial_sum_strings(erased, 6, 2)
        rep = burst_report(p, s)
        if rep.recoverable_by_inspection:
            out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
            assert isinstance(out, Recovered)
            assert out.strings == frozenset(pair)


# ---------------------------------------------------------------------------
# differential test: the witness search against the brute-force referee it
# replaced, oracle.brute_decode over every hbar-subset of the universe

# 12 Dyck strings of length 10 with distinct sums of pairs (greedy B_2)
RAW_DYCK_BOOK = (
    "1010101010", "1010101100", "1010110010", "1010111000", "1011001010", "1011010100",
    "1011100010", "1100101010", "1101011000", "1101100100", "1101101000", "1110001010",
)


def _erased_readouts(words, hbars, trials, seed):
    """Seeded readouts of hbar drawn words that lost 1-32 fragments, placed
    uniformly or adversarially, with the drawn words."""
    for trial in range(trials):
        rng = random.Random(seed + trial)
        hbar = rng.choice(hbars)
        chosen = rng.sample(words, hbar)
        clean = pool(chosen)
        t = min(rng.randint(1, 32), clean.total)
        placement = rng.choice(("uniform", "adversarial"))
        yield erase(clean, sample_erasure_pattern(chosen, t, rng, placement), rng=rng), hbar, chosen


def test_witnesses_match_the_brute_force_referee(mc_codebook, mc3_codebook):
    from masscodec.oracle import brute_decode

    raw = BhCodebook.explicit(RAW_DYCK_BOOK, 2)
    universes = [
        (mc_codebook, (1, 2), {cw.bits: cw.origin for cw in mc_codebook.codewords}),
        (mc3_codebook, (1, 2, 3), {cw.bits: cw.origin for cw in mc3_codebook.codewords}),
        (raw, (1, 2), {s: s for s in raw.strings}),
        (None, (1,), {s: s for s in all_dyck_strings(10)}),
    ]
    compared = []
    for seed, (book, hbars, origin_of) in enumerate(universes):
        words = list(origin_of)
        N = len(words[0])
        compared.append(0)
        for erased, hbar, chosen in _erased_readouts(words, hbars, 100, 1000 * seed):
            out = reconstruct_redundancy_free(erased, N, hbar, codebook=book)
            if isinstance(out, Recovered):
                continue
            hits = brute_decode(erased, words, hbar, 2 * N * hbar - erased.total)
            assert out.witnesses == tuple(frozenset(origin_of[w] for w in sub) for sub in hits)
            assert frozenset(origin_of[w] for w in chosen) in out.witnesses
            compared[-1] += 1
    assert min(compared) >= 60 and sum(compared) >= 300, compared


def test_witnesses_past_64_bits_hold_the_true_set(lookup_h3_book):
    # N = 68, so the search keys on 64-bit folds of the masked codewords
    book = lookup_h3_book
    for trial in range(10):
        rng = random.Random(trial)
        sources = rng.sample(book.base.strings, 3)
        words = [book.bits_for(s) for s in sources]
        pattern = sample_erasure_pattern(words, 8, rng, "adversarial")
        erased = erase(book.pool_of(sources), pattern, rng=rng)
        out = reconstruct_redundancy_free(erased, book.N, 3, book)
        assert isinstance(out, Ambiguous)
        assert frozenset(sources) in out.witnesses


# ---------------------------------------------------------------------------
# substitution detection


def test_detection_negative_increment():
    erased = erase(pool(["110100", "101010"]), [Removal("prefix", 3)])
    rep = detect_substitution(erased, 6, 2)
    assert (3, -1) in rep.prefix_bad_increments
    assert rep.suffix_bad_increments == ()
    assert rep.suffix_count_dev == ()
    assert str(rep.recovered_sum) == "211110"


def test_detection_clean_pool():
    rep = detect_substitution(pool(["110100", "101010"]), 6, 2)
    assert rep.is_clean
    assert str(rep.recovered_sum) == "211110"
    assert rep.corrections == ()


def test_detection_unique_correction():
    p = pool(["111000", "110100"])
    corrupted = substitute_mass_reducing(p, "prefix", 2, 0)
    rep = detect_substitution(corrupted, 6, 2)
    fix = rep.unique_correction
    assert fix == Correction("prefix", 2, Composition(2, 0), Composition(0, 2))
    repaired = apply_correction(corrupted, fix)
    assert repaired == p
    assert str(detect_substitution(repaired, 6, 2).recovered_sum) == "221100"


def test_detection_two_candidate_ambiguity():
    corrupted = substitute_mass_reducing(
        pool(["110100", "110010"]), "prefix", 3, 0
    )
    rep = detect_substitution(corrupted, 6, 2)
    assert rep.unique_correction is None
    # candidates come out in ascending order of the observed ones
    assert rep.corrections == (
        Correction("prefix", 3, Composition(3, 0), Composition(1, 2)),
        Correction("prefix", 3, Composition(2, 1), Composition(0, 3)),
    )


def test_detection_incompatible_sides():
    corrupted = substitute_mass_reducing(
        pool(["110100", "110010"]), "prefix", 2, 1, ones=2
    )
    rep = detect_substitution(corrupted, 6, 2)
    assert rep.incompatible_lengths == (2,)
    assert [str(x) for x in rep.candidate_sums] == ["211110", "220110"]
    assert rep.recovered_sum is None


def test_detection_count_deviation_at_full_length():
    # both full-length fragments of 110 are heavy, so the suffix side is one
    # short at length N, which has no complementary length to repair from
    rep = detect_substitution(pool(["110"]), 3, 1)
    assert rep.prefix_count_dev == ((3, 1),) and rep.suffix_count_dev == ((3, -1),)
    assert rep.corrections == ()


# ---------------------------------------------------------------------------
# counting formulas


def brute_count_single(n, t):
    """Oracle: patterns (P, S) of missing prefix/suffix lengths, |P|+|S|=t,
    where no missing prefix length pairs with a missing complementary
    suffix.  The full-length prefix pairs with the full-length suffix
    (both read the whole string)."""

    def partner(j):
        return n - j if j < n else n

    total = 0
    for i in range(t + 1):
        for P in itertools.combinations(range(1, n + 1), i):
            allowed = [j for j in range(1, n + 1) if partner(j) not in P]
            total += math.comb(len(allowed), t - i)
    return total


def test_count_single_matches_formula_and_oracle():
    assert count_correctable_single(6, 2) == 60
    for n in (4, 5, 6, 7):
        for t in range(0, 4):
            assert count_correctable_single(n, t) == brute_count_single(n, t)


def test_count_multi_values():
    assert count_correctable_multi(6, 2, 2) == 72
    assert count_correctable_single(6, 0) == 1
    assert count_correctable_multi(6, 0, 3) == 1
    with pytest.raises(ValueError):
        count_correctable_multi(6, 3, 2)


def test_count_lower_bound_inequality():
    for n in range(1, 13):
        for t in range(0, min(n, 4) + 1):
            lower = math.comb(n, t // 2) * math.comb(n - t // 2, (t + 1) // 2)
            assert lower <= count_correctable_single(n, t), (n, t)


# ---------------------------------------------------------------------------
# experiments


def test_experiment_determinism_and_exactness_at_t1(b2_codebook):
    rows1 = run_erasure_experiment(b2_codebook, 2, 1, 10, seed=3)
    rows2 = run_erasure_experiment(b2_codebook, 2, 1, 10, seed=3)
    assert rows1 == rows2
    assert all(r["outcome"] == "exact" for r in rows1)


def test_experiment_refuses_a_negative_trial_count_and_runs_none_at_zero(b2_codebook):
    with pytest.raises(ConfigError, match="got trials=-3"):
        run_erasure_experiment(b2_codebook, 2, 1, -3, seed=3)
    assert run_erasure_experiment(b2_codebook, 2, 1, 0, seed=3) == []


def test_experiment_never_silently_wrong(b2_codebook):
    for placement in ("uniform", "adversarial"):
        rows = run_erasure_experiment(
            b2_codebook, 2, 3, 40, seed=9, placement=placement
        )
        assert all(r["outcome"] in ("exact", "ambiguous", "conflict") for r in rows)


def test_experiment_records_other_decoder_errors_as_rows(b2_codebook, monkeypatch):
    import masscodec.channel as channel_mod

    real = channel_mod.reconstruct_redundancy_free
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise TooManyErasures("planted")
        return real(*args, **kwargs)

    monkeypatch.setattr(channel_mod, "reconstruct_redundancy_free", fails_once)
    rows = run_erasure_experiment(b2_codebook, 2, 1, 5, seed=3)
    assert len(rows) == 5
    assert rows[0]["outcome"] == "error" and rows[0]["reason"] == "TooManyErasures"
    assert all(r["outcome"] == "exact" and "reason" not in r for r in rows[1:])


# ---------------------------------------------------------------------------
# differential test: the dense pool and side_sums against the slow paths they
# replaced -- a Counter of (length, ones) read off the bits, and the
# per-length attribution loop


def _slow_pool(strings) -> Counter:
    out: Counter = Counter()
    for s in strings:
        for bits in (s.bits, s.bits[::-1]):
            for i in range(1, len(bits) + 1):
                out[i, sum(bits[:i])] += 1
    return out


def _as_counter(multiset) -> Counter:
    return Counter({(c.length, c.ones): m for c, m in multiset.entries()})


def _side_entries(sums, side: int) -> np.ndarray:
    """(3, K) length, ones and multiplicity of the fragments of side 0 or 1,
    in (length, ones) order, as ``sided_cells`` lists them."""
    length, ones, *shares = sided_cells(sums)
    on_side = shares[side]
    held = on_side > 0
    return np.stack([length[held], ones[held], on_side[held]])


def _ones_list(sums, side: int, length: int) -> list:
    """Ones of the side's fragments at a length: non-ties ascending, then ties."""
    lengths, ones, mult = _side_entries(sums, side)
    at = lengths == length
    # a stable sort keeps the non-ties ascending and moves the ties last
    return sorted(ones[at].repeat(mult[at]).tolist(), key=lambda o: 2 * o == length)


def _full_weight(readout, N: int):
    """Common per-string weight, read off the full-length fragments."""
    ones = readout.ones_at_length(N)
    return ones[0] if ones and len(set(ones)) == 1 else None


def _slow_ones(counts: Counter, length: int) -> list:
    return sorted(o for (ln, o), m in counts.items() if ln == length for _ in range(m))


def _slow_attribution(counts: Counter, N: int, hbar: int) -> dict:
    out = {}
    for length in range(1, N + 1):
        ones_list = _slow_ones(counts, length)
        p_only = [o for o in ones_list if 2 * o > length]
        s_only = [o for o in ones_list if 2 * o < length]
        ties = len(ones_list) - len(p_only) - len(s_only)
        to_prefix = min(ties, max(0, hbar - len(p_only)))
        tie_ones = length // 2
        p_min = len(p_only) + max(0, ties - max(0, hbar - len(s_only)))
        p_max = min(hbar, len(p_only) + ties) if len(p_only) <= hbar else len(p_only)
        s_min = len(s_only) + max(0, ties - max(0, hbar - len(p_only)))
        s_max = min(hbar, len(s_only) + ties) if len(s_only) <= hbar else len(s_only)
        out[length] = {
            "prefix": p_only + [tie_ones] * to_prefix,
            "suffix": s_only + [tie_ones] * (ties - to_prefix),
            "prefix_certain": p_min == p_max == hbar,
            "suffix_certain": s_min == s_max == hbar,
        }
    return out


def _slow_increments(cumulative, hbar, strict):
    if cumulative and isinstance(cumulative[0], list):
        # one row per side, checked in order
        return [_slow_increments(row, hbar, strict) for row in cumulative]
    symbols, prev = [], 0
    for i, n_i in enumerate(cumulative, start=1):
        if n_i is None or prev is None:
            symbols.append(None)
        else:
            t = n_i - prev
            if strict and not 0 <= t <= hbar:
                raise NegativeIncrement(f"sum symbol {t} at position {i}")
            symbols.append(t)
        prev = n_i
    return symbols


def _slow_certain_sides(att, N, hbar, strict):
    return tuple(
        _slow_increments(
            [sum(att[ln][side]) if att[ln][side + "_certain"] else None for ln in range(1, N + 1)],
            hbar,
            strict,
        )
        for side in ("prefix", "suffix")
    )


def _slow_separate(counts, N, hbar):
    sides = (Counter(), Counter())
    for length in range(1, N + 1):
        ones_list = _slow_ones(counts, length)
        if len(ones_list) != 2 * hbar:
            raise CountMismatch(f"length {length}")
        pref = [o for o in ones_list if 2 * o > length]
        suff = [o for o in ones_list if 2 * o < length]
        ties = len(ones_list) - len(pref) - len(suff)
        to_prefix = hbar - len(pref)
        if to_prefix < 0 or len(suff) > hbar or to_prefix > ties:
            raise CountMismatch(f"length {length}")
        for o in pref + [length // 2] * to_prefix:
            sides[0][length, o] += 1
        for o in suff + [length // 2] * (ties - to_prefix):
            sides[1][length, o] += 1
    prefix_sums = []
    for length in range(1, N + 1):
        ones = _slow_ones(sides[0], length)
        prefix_sums.append(sum(ones))
    symbols = _slow_increments(prefix_sums, hbar, strict=True)
    return sides, "".join(map(str, symbols))


def _slow_detection(counts, N, hbar) -> dict:
    att = _slow_attribution(counts, N, hbar)
    out = {}
    naive = {}
    for side in ("prefix", "suffix"):
        out[side + "_count_dev"] = tuple(
            (ln, len(att[ln][side]) - hbar)
            for ln in range(1, N + 1)
            if len(att[ln][side]) != hbar
        )
        cumulative = [sum(att[ln][side]) if att[ln][side] else None for ln in range(1, N + 1)]
        naive[side] = _slow_increments(cumulative, hbar, strict=False)
        bad = [
            (i, v) for i, v in enumerate(naive[side], 1) if v is not None and not 0 <= v <= hbar
        ]
        if side == "suffix":
            naive[side] = naive[side][::-1]
            bad = [(N - i + 1, v) for i, v in bad]
        out[side + "_bad_increments"] = tuple(bad)
    full = _slow_ones(counts, N)
    w0 = full[0] if full and len(set(full)) == 1 else None
    out["incompatible_lengths"] = tuple(
        ln
        for ln in range(1, N)
        if w0 is not None
        and len(att[ln]["prefix"]) == hbar
        and len(att[N - ln]["suffix"]) == hbar
        and sorted(w0 - o for o in att[N - ln]["suffix"]) != sorted(att[ln]["prefix"])
    )
    for side in ("prefix", "suffix"):
        clean = not (out[side + "_count_dev"] or out[side + "_bad_increments"])
        clean = clean and None not in naive[side]
        out[side + "_sum"] = "".join(map(str, naive[side])) if clean else None
    return out


def _outcome(fn):
    try:
        return fn()
    except MasscodecError as exc:
        return type(exc).__name__


def _fast_separate(readout, N: int, hbar: int):
    prefixes, suffixes = separate_pool(readout, N, hbar)
    total = str(sum_from_prefixes(prefixes, N, hbar))
    return (_as_counter(prefixes), _as_counter(suffixes)), total


def _check_against_slow(readout, counts: Counter, N: int, hbar: int) -> None:
    assert _as_counter(readout) == +counts
    assert readout.total == sum(counts.values())
    att = _slow_attribution(counts, N, hbar)
    sums = side_sums(readout, N, hbar)
    for length in range(1, N + 1):
        for k, side in enumerate(("prefix", "suffix")):
            want = att[length][side]
            assert _ones_list(sums, k, length) == want, (side, length)
            assert sums.fragments[k, length - 1] == len(want)
            assert sums.ones[k, length - 1] == sum(want)
            assert sums.certain[k, length - 1] == att[length][side + "_certain"]

    def fast_partial():
        return tuple(str(x) for x in partial_sum_strings(readout, N, hbar))

    def slow_partial():
        p, s = _slow_certain_sides(att, N, hbar, strict=True)
        return (str(PartialSumString(p, hbar)), str(PartialSumString(s[::-1], hbar)))

    assert _outcome(fast_partial) == _outcome(slow_partial)
    p, s = _slow_certain_sides(att, N, hbar, strict=False)
    assert raw_side_sums(readout, N, hbar) == (p, s[::-1])

    fast_separate = _outcome(lambda: _fast_separate(readout, N, hbar))
    assert fast_separate == _outcome(lambda: _slow_separate(counts, N, hbar))

    report = detect_substitution(readout, N, hbar)
    fast = {
        field: getattr(report, field)
        for field in (
            "prefix_count_dev",
            "suffix_count_dev",
            "prefix_bad_increments",
            "suffix_bad_increments",
            "incompatible_lengths",
        )
    }
    fast["prefix_sum"] = None if report.prefix_sum is None else str(report.prefix_sum)
    fast["suffix_sum"] = None if report.suffix_sum is None else str(report.suffix_sum)
    assert fast == _slow_detection(counts, N, hbar)


def _corrupted_readouts(words, N, rng):
    """(readout, slow counts) for the clean pool, erasures and a substitution."""
    clean = pool(words)
    counts = _slow_pool(words)
    yield clean, counts
    for t in (1, 2, 3):
        for placement in ("uniform", "adversarial"):
            pattern = sample_erasure_pattern(words, t, rng, placement)
            erased = counts.copy()
            for r in pattern.removals:
                erased[r.length, r.ones] -= r.count
            yield erase(clean, pattern), erased
    fragments = [
        (side, length, ones)
        for side, bits in (("prefix", w.bits) for w in words)
        for length in range(1, N + 1)
        for ones in [sum(bits[:length])]
    ] + [
        ("suffix", length, sum(w.bits[N - length :]))
        for w in words
        for length in range(1, N + 1)
    ]
    side, length, ones = rng.choice([f for f in fragments if f[2] > 0])
    lighter = rng.randrange(ones)
    changed = counts.copy()
    changed[length, ones] -= 1
    changed[length, lighter] += 1
    yield substitute_mass_reducing(clean, side, length, lighter, ones=ones), changed


@pytest.fixture(scope="module")
def scheme_books(b2_n16_codebook):
    return [
        ecc.scheme_codebook(scheme, b2_n16_codebook, 2)
        for scheme in (ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP)
    ]


def test_dense_pool_and_side_sums_match_slow_paths_on_scheme_codewords(scheme_books):
    rng = random.Random(2024)
    for book in scheme_books:
        for hbar in (1, 2):
            for _ in range(2):
                sources = sorted(rng.sample(list(book.base.strings), hbar))
                words = [book.bits_for(s) for s in sources]
                for readout, counts in _corrupted_readouts(words, book.N, rng):
                    _check_against_slow(readout, counts, book.N, hbar)


def _referee_sample_erasure_pattern(strings, t, rng, placement="uniform"):
    # the sampler as it was: a list of every read, rescanned per length
    n = len(strings[0])
    fragments = [
        (side, length, ones)
        for s in strings
        for side, bits in ((PREFIX, s.bits), (SUFFIX, s.bits[::-1]))
        for length, ones in enumerate(itertools.accumulate(bits), start=1)
    ]
    if placement == "uniform":
        picks = rng.sample(fragments, t)
    else:
        taken = set()

        def free_at(side, length):
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
    return ErasurePattern(
        tuple(Removal(side, length, 1, ones) for side, length, ones in picks)
    )


def test_erasure_sampler_matches_the_list_referee(scheme_books):
    # same removals and the same next draw, so the rng moved alike
    cases = 0
    codewords = [cw.bits for cw in scheme_books[1].codewords]
    for words, seeds in ((codewords, 3), (all_dyck_strings(8), 25)):
        for hbar, seed in itertools.product((1, 2, 3), range(seeds)):
            picked = random.Random(seed).sample(words, hbar)
            reads = 2 * len(words[0]) * hbar
            for t in sorted({0, 1, 2, 3, 5, reads // 2, reads - 1, reads}):
                for placement in ("uniform", "adversarial"):
                    fast, slow = random.Random(seed), random.Random(seed)
                    assert sample_erasure_pattern(
                        picked, t, fast, placement
                    ) == _referee_sample_erasure_pattern(picked, t, slow, placement)
                    assert fast.random() == slow.random()
                    cases += 1
    assert cases == 3 * (3 + 25) * 8 * 2


@functools.lru_cache(maxsize=None)
def _dyck(n: int) -> tuple:
    return all_dyck_strings(n)


dyck_mixtures = st.integers(1, 5).flatmap(
    lambda half: st.lists(st.sampled_from(_dyck(2 * half)), min_size=1, max_size=3, unique=True)
)


@settings(max_examples=60, deadline=None)
@given(dyck_mixtures, st.integers(0, 2**32 - 1))
def test_dense_pool_and_side_sums_match_slow_paths_on_dyck_mixtures(words, seed):
    rng = random.Random(seed)
    N = len(words[0])
    for readout, counts in _corrupted_readouts(words, N, rng):
        _check_against_slow(readout, counts, N, len(words))


def test_length_totals_match_side_sums_totals(scheme_books):
    """The direct per-length read equals the two sides of side_sums added up."""
    rng = random.Random(77)
    cases = []
    for book in scheme_books:
        for hbar in (1, 2):
            words = [book.bits_for(s) for s in rng.sample(list(book.base.strings), hbar)]
            readouts = _corrupted_readouts(words, book.N, rng)
            cases += [(readout, book.N, hbar) for readout, _ in readouts]
    for words in itertools.combinations(_dyck(6), 3):
        cases += [(readout, 6, 3) for readout, _ in _corrupted_readouts(list(words), 6, rng)]
    # a table shorter than N reads as zeros past its end; one longer is cut at N
    cases += [(pool(["1100"]), 6, 1), (pool(["110100"]), 4, 1), (CompositionMultiset(), 3, 1)]
    for readout, N, hbar in cases:
        sums = side_sums(readout, N, hbar)
        fragments, ones = length_totals(readout, N)
        assert fragments.tolist() == sums.fragments.sum(axis=0).tolist()
        assert ones.tolist() == sums.ones.sum(axis=0).tolist()


def _with_message(fn):
    try:
        return fn()
    except MasscodecError as exc:
        return type(exc).__name__, str(exc)


def _split_outcomes(book, trials: int, seed: int) -> list:
    """separate_pool and decode_mixture outcomes on seeded clean, erased and
    one-lighter readouts of a plain book, and separate_pool on the clean
    readout cut at the odd length N - 1.  Each split, with the sum of its
    prefix side, is checked against the slow referee on the way."""
    rng = random.Random(seed)
    N = book.N
    out = []
    for _ in range(trials):
        hbar = rng.randint(1, book.h)
        sources = rng.sample(book.base.strings, hbar)
        words = [book.bits_for(s) for s in sources]
        clean = book.pool_of(sources)
        readouts = [clean] + [
            erase(clean, sample_erasure_pattern(words, t, rng, placement))
            for t in (1, 2)
            for placement in ("uniform", "adversarial")
        ]
        counts = clean.counts.copy()
        length, ones = rng.choice([cell for cell in zip(*counts.nonzero()) if cell[1]])
        counts[length, ones] -= 1
        counts[length, rng.randrange(ones)] += 1
        readouts.append(CompositionMultiset.from_counts(counts))
        for readout, n in [(r, N) for r in readouts] + [(clean, N - 1)]:
            slow = _outcome(lambda: _slow_separate(_as_counter(readout), n, hbar))
            assert _outcome(lambda: _fast_separate(readout, n, hbar)) == slow
            sides = _with_message(lambda: separate_pool(readout, n, hbar))
            if not isinstance(sides[0], str):
                # the split's trusted totals: hbar fragments per side at each of n lengths
                assert all(len(side) == side.counts.sum() == hbar * n for side in sides)
                sides = [side.to_json_obj() for side in sides]
            out.append(sides)
            if n == N:
                decoded = _with_message(lambda: decode_mixture(readout, book, hbar))
                out.append(sorted(map(str, decoded)) if isinstance(decoded, frozenset) else decoded)
    return out


# sha256 over _split_outcomes, recorded before separate_pool split the count
# table by one mask
SPLIT_DIGESTS = {
    "lookup-h3": "0793d757aa87f6232475a51e3c8061d2d6e9835d63568aa3edc20bcff5821da4",
    "bch_255_cols20": "c1b4db8b5ccb75242dcadb487dd2c2c2097e6073374354e384d561b824116a00",
}


def test_separate_pool_and_decode_outcomes_are_pinned(lookup_h3_book, b2_n16_codebook):
    books = {"lookup-h3": lookup_h3_book, "bch_255_cols20": encode_codebook(b2_n16_codebook)}
    for (name, book), seed in zip(books.items(), (19, 20)):
        outcomes = repr(_split_outcomes(book, 25, seed))
        assert hashlib.sha256(outcomes.encode()).hexdigest() == SPLIT_DIGESTS[name], name
    # hbar = 0 splits only a pool without fragments up to N, whose table may be
    # shorter than N
    empty = (CompositionMultiset(), CompositionMultiset())
    assert separate_pool(CompositionMultiset(), 6, 0) == empty
    with pytest.raises(CountMismatch, match="length 1: 2 fragments, expected 0"):
        separate_pool(pool(["1100"]), 6, 0)


def test_mixture_order_reads_hbar_while_some_length_lost_at_most_one(scheme_books):
    rng = random.Random(16)
    for book in scheme_books:
        N = book.N
        for hbar in (1, 2):
            clean = pool([book.bits_for(s) for s in rng.sample(list(book.base.strings), hbar)])
            assert mixture_order(clean, N) == hbar
            # a lighter reading keeps its length
            lighter = substitute_mass_reducing(clean, PREFIX, N // 2, 0, rng=rng)
            assert mixture_order(lighter, N) == hbar
            # one lost fragment at every length leaves 2 * hbar - 1, still read as hbar
            sides = [rng.choice((PREFIX, SUFFIX)) for _ in range(N)]
            erased = erase(clean, [Removal(side, ln) for ln, side in enumerate(sides, 1)], rng=rng)
            assert mixture_order(erased, N) == hbar
            # a second one at every length, from the other side, reads one short
            other = {PREFIX: SUFFIX, SUFFIX: PREFIX}
            removals = [Removal(other[side], ln) for ln, side in enumerate(sides, 1)]
            assert mixture_order(erase(erased, removals, rng=rng), N) == hbar - 1
    assert mixture_order(CompositionMultiset(), 6) == 0
    # lengths past N are not read
    assert mixture_order(pool(["110100", "101010"]), 2) == 2


SIDE_SUMS_ARRAYS = ("fill", "fragments", "ones", "certain")


def _reading(sums) -> dict:
    out = {name: getattr(sums, name).tolist() for name in SIDE_SUMS_ARRAYS}
    out["cells"] = [column.tolist() for column in sided_cells(sums)]
    out["entries"] = [_side_entries(sums, side).tolist() for side in (0, 1)]
    return out


def test_side_sums_memo_is_keyed_by_n_and_hbar():
    readout = substitute_mass_reducing(pool(DYCK_TRIPLE), PREFIX, 3, 1, ones=2)

    def fresh(N, hbar):
        return _reading(side_sums(CompositionMultiset.from_counts(readout.counts), N, hbar))

    keys = [(6, 3), (6, 2), (4, 2), (6, 3)]
    # consecutive keys read differently, so a memo that ignored its key would show
    assert all(fresh(*a) != fresh(*b) for a, b in zip(keys, keys[1:]))
    for N, hbar in keys:
        first = side_sums(readout, N, hbar)
        assert _reading(first) == fresh(N, hbar), (N, hbar)
        assert side_sums(readout, N, hbar) is first


def test_side_sums_arrays_are_read_only():
    sums = side_sums(pool(DYCK_TRIPLE), 6, 3)
    arrays = [getattr(sums, name) for name in SIDE_SUMS_ARRAYS]
    # and so are the three columns of the scan, which sided_cells reads
    assert len(sums.scan) == 3
    for array in arrays + list(sums.scan):
        with pytest.raises(ValueError):
            array[0] = 0


def test_sided_cells_belong_to_their_caller():
    # editing what one call returns changes neither the reading nor the next call
    readout = substitute_mass_reducing(pool(DYCK_TRIPLE), PREFIX, 3, 1, ones=2)
    sums = side_sums(readout, 6, 3)
    before = _reading(sums)
    scan = [column.tolist() for column in sums.scan]
    first = sided_cells(sums)
    assert len(first) == 4
    for column in first:
        column += 7
    assert _reading(sums) == before
    assert [column.tolist() for column in sums.scan] == scan
    assert [column.tolist() for column in sided_cells(sums)] == before["cells"]


def _assert_mirrors_itself(clean: CompositionMultiset, N: int) -> None:
    """C[L, o] = C[N - L, w0 - o] for 1 <= L <= N - 1: a prefix of length L with
    o ones completes a suffix of length N - L with w0 - o ones, and back."""
    counts = clean.counts
    (w0,) = counts[N].nonzero()[0].tolist()
    # ones j of the padded table sit in column N + j, so w0 - o < 0 reads 0
    padded = np.hstack([np.zeros((N + 1, N), dtype=counts.dtype), counts[: N + 1, : N + 1]])
    mirrored = padded[::-1, w0 : w0 + N + 1][:, ::-1]  # [L, o] = C[N - L, w0 - o]
    assert np.array_equal(counts[1:N, : N + 1], mirrored[1:N]), clean


def test_clean_pools_mirror_themselves(scheme_books):
    # the invariant the single-substitution repair rule reads a readout against
    pools = 0
    for N in range(2, 9, 2):
        for hbar in (1, 2, 3):
            for words in itertools.combinations(_dyck(N), hbar):
                _assert_mirrors_itself(pool(words), N)
                pools += 1
    for book in scheme_books:
        for hbar in (1, 2):
            for sources in itertools.combinations(book.base.strings, hbar):
                _assert_mirrors_itself(book.pool_of(sources), book.N)
                pools += 1
    assert pools == 4 * (20 + 190) + sum(
        math.comb(len(_dyck(N)), hbar) for N in range(2, 9, 2) for hbar in (1, 2, 3)
    )


# ---------------------------------------------------------------------------
# differential test: the single-substitution repair rule against the
# two-branch function it replaced


def _multiset_diff(expect: list, observed: list):
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


def _referee_corrections(sums, N, hbar, w0, p_dev, s_dev):
    if w0 is None:
        return ()
    # exactly one deficit/surplus pair at a common length
    deficits = [(ln, PREFIX) for ln, d in p_dev if d == -1] + [
        (ln, SUFFIX) for ln, d in s_dev if d == -1
    ]
    surpluses = {(ln, PREFIX) for ln, d in p_dev if d == 1} | {
        (ln, SUFFIX) for ln, d in s_dev if d == 1
    }
    if len(p_dev) + len(s_dev) != 2 or len(deficits) != 1:
        return ()
    length, side = deficits[0]
    other = SUFFIX if side == PREFIX else PREFIX
    if (length, other) not in surpluses:
        return ()
    index = {PREFIX: 0, SUFFIX: 1}
    observed_short = _ones_list(sums, index[side], length)  # hbar - 1 genuine values
    observed_long = _ones_list(sums, index[other], length)  # hbar + 1 values, one bogus
    comp_len = N - length
    candidates = []
    if comp_len == length:
        # the complementary fragments live at the same length as the surplus,
        # so each choice of the bogus fragment implies its own repair
        pool_vals = observed_long
        for idx in range(len(pool_vals)):
            bogus = pool_vals[idx]
            rest = pool_vals[:idx] + pool_vals[idx + 1 :]
            expect = sorted(w0 - o for o in rest)
            missing = _multiset_diff(expect, observed_short)
            if missing is None:
                continue
            restored_ones = missing
            if restored_ones <= bogus:
                continue  # not mass reducing
            cand = Correction(
                side=side,
                length=length,
                observed=Composition(length - bogus, bogus),
                restored=Composition(length - restored_ones, restored_ones),
            )
            if cand not in candidates:
                candidates.append(cand)
    else:
        comp_vals = _ones_list(sums, index[other], comp_len) if comp_len >= 1 else []
        if len(comp_vals) != hbar:
            return ()
        expect = sorted(w0 - o for o in comp_vals)
        missing = _multiset_diff(expect, observed_short)
        if missing is None:
            return ()
        expect_other = None
        # the bogus fragment is whatever the surplus side holds beyond its
        # own complementary expectation
        own_comp = _ones_list(sums, index[side], N - length) if N - length >= 1 else []
        if len(own_comp) == hbar:
            expect_other = sorted(w0 - o for o in own_comp)
        bogus_pool = list(observed_long)
        if expect_other is not None:
            for o in expect_other:
                if o in bogus_pool:
                    bogus_pool.remove(o)
        for bogus in sorted(set(bogus_pool)):
            if missing > bogus:
                cand = Correction(
                    side=side,
                    length=length,
                    observed=Composition(length - bogus, bogus),
                    restored=Composition(length - missing, missing),
                )
                if cand not in candidates:
                    candidates.append(cand)
    return tuple(candidates)


def _substituted_pools(words, N, heavier: bool):
    """The words' pool with one fragment read lighter, or also heavier."""
    clean = pool(words)
    for length in range(1, N + 1):
        for ones in clean.counts[length].nonzero()[0].tolist():
            for reading in range(length + 1 if heavier else ones):
                if reading != ones:
                    counts = clean.counts.copy()
                    counts[length, ones] -= 1
                    counts[length, reading] += 1
                    yield CompositionMultiset.from_counts(counts)


def _referee_incompatible_lengths(sums, N, hbar, w0) -> tuple:
    """The mirror check on sets of (length, ones, mult) tuples, before integer keys."""
    if w0 is None:
        return ()
    prefix = set(map(tuple, _side_entries(sums, 0).T.tolist()))
    length, ones, mult = _side_entries(sums, 1)
    mirrored = set(zip((N - length).tolist(), (w0 - ones).tolist(), mult.tolist()))
    full = (
        (sums.fragments[0, : N - 1] == hbar) & (sums.fragments[1, N - 2 :: -1] == hbar)
    ).tolist()
    differ = {cell[0] for cell in prefix ^ mirrored}
    return tuple(ln for ln in sorted(differ) if 1 <= ln < N and full[ln - 1])


def _compare_repair_rules(readout, N, hbar, reports: Counter) -> None:
    """Assert both repair rules and both mirror checks agree, order included.

    Counts the reports by their number of candidates, and those with an
    incompatible length under "incompatible".
    """
    sums = side_sums(readout, N, hbar)
    p_dev, s_dev = (
        [(i, d) for i, d in enumerate(devs, start=1) if d]
        for devs in (sums.fragments - hbar).tolist()
    )
    w0 = _full_weight(readout, N)
    got = _single_error_corrections(readout.counts, N, w0, p_dev, s_dev)
    assert got == _referee_corrections(sums, N, hbar, w0, p_dev, s_dev), (N, hbar, readout)
    incompatible = detect_substitution(readout, N, hbar).incompatible_lengths
    assert incompatible == _referee_incompatible_lengths(sums, N, hbar, w0), (N, hbar, readout)
    reports[len(got)] += 1
    reports["incompatible"] += bool(incompatible)


def test_single_error_corrections_match_the_two_branch_referee(scheme_books):
    reports = Counter()
    # every single mass-reducing substitution of every Dyck mixture of length
    # <= 8 and hbar <= 3; up to length 6 also every heavier reading, the only
    # kind whose repairs the v > b guard turns down
    for N in (2, 4, 6, 8):
        for hbar in range(1, 4):
            for words in itertools.combinations(_dyck(N), hbar):
                for readout in _substituted_pools(words, N, heavier=N <= 6):
                    _compare_repair_rules(readout, N, hbar, reports)
    # seeded substitutions on the scheme books: a prefix fragment read lighter
    # until it crosses the weight split, mostly at the middle length, where
    # the lighter reading hides among its own mirrors and repairs multiply
    rng = random.Random(7)
    for book in scheme_books:
        N = book.N
        for _ in range(300):
            hbar = rng.choice((1, 2))
            clean = book.pool_of(rng.sample(list(book.base.strings), hbar))
            length = N // 2 if rng.random() < 0.75 else rng.randrange(1, N + 1)
            ones = rng.choice(clean.ones_at_length(length)[hbar:])
            if ones == 0:
                continue
            lighter = rng.randrange(min(ones, (length + 1) // 2))
            readout = substitute_mass_reducing(clean, PREFIX, length, lighter, ones=ones)
            _compare_repair_rules(readout, N, hbar, reports)
    assert reports[2] >= 1000 and reports[1] >= 1000, reports
    assert reports["incompatible"] >= 10_000, reports


def test_mirror_check_matches_the_tuple_referee_on_unbalanced_pools():
    # strings of any common weight, one fragment read lighter or heavier: a
    # suffix-side fragment can then outweigh the strings, so its mirror w0 - o
    # is negative, and a repair can come out heavier than its length allows
    found = 0
    for N in (4, 5):
        strings = [BitString(bits) for bits in itertools.product((0, 1), repeat=N)]
        for hbar in (1, 2):
            for words in itertools.combinations(strings, hbar):
                if len({w.weight() for w in words}) > 1:
                    continue
                for readout in _substituted_pools(words, N, heavier=True):
                    sums = side_sums(readout, N, hbar)
                    w0 = _full_weight(readout, N)
                    got = detect_substitution(readout, N, hbar).incompatible_lengths
                    assert got == _referee_incompatible_lengths(sums, N, hbar, w0), readout
                    found += bool(got)
    assert found >= 900, found


def _detection_cases(substitution_book, scheme_books):
    """(readout, N, hbar) for the report pin, drawn from a fixed seed."""
    rng = random.Random(21)
    # substitution-t1 draws: any real fragment with a 1 in it, read with fewer ones
    book, N = substitution_book, substitution_book.N
    for _ in range(600):
        hbar = rng.choice((1, 2))
        words = [book.bits_for(s) for s in sorted(rng.sample(list(book.base.strings), hbar))]
        fragments = [
            (side, length, sum(bits[:length]))
            for w in words
            for side, bits in ((PREFIX, w.bits), (SUFFIX, w.bits[::-1]))
            for length in range(1, N + 1)
        ]
        side, length, ones = rng.choice([f for f in fragments if f[2] > 0])
        lighter = substitute_mass_reducing(pool(words), side, length, rng.randrange(ones), ones)
        yield lighter, N, hbar
    # the t = 2 scheme books, clean and erased
    for book in scheme_books:
        for hbar in (1, 2):
            for _ in range(3):
                words = [book.bits_for(s) for s in rng.sample(list(book.base.strings), hbar)]
                clean = pool(words)
                yield clean, book.N, hbar
                for t in (1, 2, 3):
                    for placement in ("uniform", "adversarial"):
                        pattern = sample_erasure_pattern(words, t, rng, placement)
                        yield erase(clean, pattern), book.N, hbar
    # Dyck mixtures, each fragment read lighter and heavier
    for N in (2, 4, 6, 8):
        for hbar in (1, 2, 3):
            mixtures = list(itertools.combinations(_dyck(N), hbar))
            for words in rng.sample(mixtures, min(len(mixtures), 30)):
                for readout in _substituted_pools(words, N, heavier=True):
                    yield readout, N, hbar
    # one string of weight w0 != N/2, each fragment read lighter; then a Dyck
    # string whose two full-length fragments both read lighter, so w0 < N/2
    for N in (5, 6):
        for bits in itertools.product((0, 1), repeat=N):
            if 2 * sum(bits) != N:
                for readout in _substituted_pools([BitString(bits)], N, heavier=False):
                    yield readout, N, 1
    for word in _dyck(8):
        for ones in range(4):
            counts = pool([word]).counts.copy()
            counts[8] = 0
            counts[8, ones] = 2
            yield CompositionMultiset.from_counts(counts), 8, 1
    # tables shorter than N + 1, an empty pool, N = 0 and an hbar below 1
    for readout, N, hbar in [
        (pool(["1100"]), 6, 1),
        (pool(["1100", "1010"]), 5, 2),
        (pool(["110100"]), 4, 1),
        (CompositionMultiset(), 3, 1),
        (CompositionMultiset(), 3, 0),
        (pool(["1100"]), 0, 1),
        (pool(["110100", "101010"]), 6, 0),
        (pool(["110100", "101010"]), 6, -1),
    ]:
        yield readout, N, hbar


# sha256 over the reprs of detect_substitution on _detection_cases, recorded
# before the report was read straight off the side reading
DETECTION_DIGEST = "407f8c7beb80e1ffa224a79fedde0a2195c7297e1097aaefbe76f19ae01ad926"


def _report_or_error(readout, N: int, hbar: int) -> str:
    try:
        return repr(detect_substitution(readout, N, hbar))
    except (MasscodecError, ValueError) as exc:  # hbar = 0 has no sum to report
        return f"{type(exc).__name__}: {exc}"


def test_detection_reports_are_pinned(b2_n16_codebook, scheme_books):
    book = ecc.two_step_codebook(b2_n16_codebook, 1, substitutions=True)
    reports = [
        _report_or_error(readout, N, hbar)
        for readout, N, hbar in _detection_cases(book, scheme_books)
    ]
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == DETECTION_DIGEST


# ---------------------------------------------------------------------------
# the sum readings, pinned


def _reading_cases(substitution_book, scheme_books):
    """(readout, N, hbar) for the reading pin, drawn from a fixed seed: clean
    pools of the t = 2 scheme books and the t = 1 substitution book, each with
    1 to 4 fragments lost (uniform and adversarial) and four times with one
    fragment read lighter."""
    rng = random.Random(23)
    for book in [*scheme_books, substitution_book]:
        for hbar in (1, 2):
            for _ in range(3):
                words = [book.bits_for(s) for s in rng.sample(list(book.base.strings), hbar)]
                clean = pool(words)
                yield clean, book.N, hbar
                for t in (1, 2, 3, 4):
                    for placement in ("uniform", "adversarial"):
                        pattern = sample_erasure_pattern(words, t, rng, placement)
                        yield erase(clean, pattern), book.N, hbar
                for lighter in range(4):
                    counts = clean.counts.copy()
                    length, ones = rng.choice([c for c in zip(*counts.nonzero()) if c[1]])
                    counts[length, ones] -= 1
                    # one fewer one often keeps every step in range, so the sides clash
                    counts[length, rng.randrange(ones) if lighter % 2 else ones - 1] += 1
                    yield CompositionMultiset.from_counts(counts), book.N, hbar


def _readings(readout, N: int, hbar: int) -> tuple[list, list]:
    """Every sum reading of a readout, as symbols or (error class, message),
    and the PartialSumStrings they returned.  The one-sided readers get the
    readout's strictly prefix-like and suffix-like cells and, where the
    split succeeds, the two sides of ``separate_pool``."""
    returned = []

    def shown(value):
        if isinstance(value, PartialSumString):
            returned.append(value)
            return value.hbar, value.symbols
        if isinstance(value, tuple):
            return tuple(map(shown, value))
        return value

    length, ones = np.indices(readout.counts.shape)
    by_weight = [
        CompositionMultiset.from_counts(readout.counts * (2 * ones > length)),
        CompositionMultiset.from_counts(readout.counts * (2 * ones < length)),
    ]
    separated = _with_message(lambda: separate_pool(readout, N, hbar))
    calls = [
        functools.partial(reader, readout, N, hbar)
        for reader in (partial_sum_strings, merged_sums, merged_counts, raw_side_sums)
    ]
    for prefixes, suffixes in [by_weight] + ([] if isinstance(separated[0], str) else [separated]):
        calls += [
            functools.partial(one_sided_sum, prefixes, N, hbar),
            functools.partial(one_sided_sum, suffixes, N, hbar, SUFFIX),
            functools.partial(sum_from_prefixes, prefixes, N, hbar),
        ]
    outputs = []
    for call in calls:
        try:
            outputs.append(shown(call()))
        except (MasscodecError, ValueError) as exc:
            outputs.append(("raise", type(exc).__name__, str(exc)))
    return outputs, returned


# sha256 over the _readings outputs on _reading_cases, recorded before the
# readings built their sums with the trusted constructor
READING_DIGEST = "10cbc279df26f2ab5ee60c93ef012837b3594ac5cb5c45b725e0eea5cf8eaa27"


@pytest.fixture(scope="module")
def reading_cases(b2_n16_codebook, scheme_books):
    book = ecc.two_step_codebook(b2_n16_codebook, 1, substitutions=True)
    return list(_reading_cases(book, scheme_books))


@pytest.fixture(scope="module")
def readings(reading_cases):
    return [_readings(*case) for case in reading_cases]


def test_sided_cells_add_up_to_the_reading(reading_cases):
    for readout, N, hbar in reading_cases:
        sums = side_sums(readout, N, hbar)
        length, ones, *shares = sided_cells(sums)
        # the two shares of a cell are its multiplicity
        assert np.array_equal(shares[0] + shares[1], sums.scan[2])
        for side, share in enumerate(shares):
            assert share.min(initial=0) >= 0
            assert np.array_equal(np.bincount(length - 1, share, N), sums.fragments[side])
            assert np.array_equal(np.bincount(length - 1, ones * share, N), sums.ones[side])


def test_sum_readings_are_pinned(readings):
    outputs = [shown for shown, _ in readings]
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == READING_DIGEST
    # the corpus reaches every refusal of the readings, and values too
    raised = Counter(out[1] for row in outputs for out in row if out[0] == "raise")
    assert {"NegativeIncrement", "Conflict", "CountMismatch"} <= set(raised), raised
    assert sum(map(len, outputs)) > 2 * sum(raised.values())


def test_readings_return_what_the_checking_constructor_builds(reading_cases, readings):
    # the readings build their sums unchecked; each must be one the checking
    # constructor accepts as it is, with plain ints for symbols
    sums = []
    for case, (_, returned) in zip(reading_cases, readings):
        sums += returned
        report = detect_substitution(*case)
        sums += [x for x in (report.prefix_sum, report.suffix_sum) if x is not None]
    assert len(sums) > len(reading_cases)
    for x in sums:
        assert PartialSumString(x.symbols, x.hbar) == x
        assert all(v is None or type(v) is int for v in x.symbols), x


# ---------------------------------------------------------------------------
# the side reading against the one it replaced


def _referee_read_sides(pool, N: int, hbar: int) -> dict:
    """channel._read_sides as it stood before it read the count table in place:
    lengths 1..N copied out of the table, and each cell's length, class and
    slot worked out from its flat index at every reading."""
    table = np.ascontiguousarray(pool.counts[1 : N + 1, : N + 1])
    flat = (table != 0).ravel().nonzero()[0]
    rows, ones = divmod(flat, table.shape[1])
    mult = table.ravel()[flat]
    kind = np.sign(rows + 1 - 2 * ones) + 1
    slot = N * kind + rows

    def per_length(weights):
        return np.bincount(slot, weights, 3 * N).astype(np.int64).reshape(3, N)

    counted = per_length(mult)
    ties = counted[1]
    unbalanced = counted[::2]
    fill = np.empty_like(unbalanced)
    to_prefix = fill[0]
    np.subtract(hbar, unbalanced[0], out=to_prefix)
    np.maximum(to_prefix, 0, out=to_prefix)
    np.minimum(to_prefix, ties, out=to_prefix)
    np.subtract(ties, to_prefix, out=fill[1])
    fragments = unbalanced + fill
    sums = per_length(mult * ones)[::2] + fill * (np.arange(1, N + 1) // 2)
    room = np.maximum(0, hbar - unbalanced[::-1])
    certain = unbalanced + np.maximum(0, ties - room) == hbar
    # the one tie cell of a length splits as the fill does
    on_prefix = np.where(kind == 1, fill[0, rows], mult * (kind == 0))
    cells = (rows + 1, ones, on_prefix, mult - on_prefix)
    return {"fill": fill, "fragments": fragments, "ones": sums, "certain": certain, "cells": cells}


def _assert_reads_as_the_referee(readout, N: int, hbar: int) -> None:
    sums = side_sums(readout, N, hbar)
    want = _referee_read_sides(readout, N, hbar)
    pairs = [(name, getattr(sums, name), want[name]) for name in SIDE_SUMS_ARRAYS]
    for name, a, b in pairs:
        assert not a.flags.writeable, (N, hbar, name)
    cells = sided_cells(sums)
    assert len(cells) == 4
    pairs += [(f"cells[{i}]", a, b) for i, (a, b) in enumerate(zip(cells, want["cells"]))]
    for name, a, b in pairs:
        where = (N, hbar, name)
        # the cells come in (length, ones) order, so equal columns mean equal order
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert np.array_equal(a, b), where


def test_side_reading_matches_the_referee(reading_cases):
    for readout, N, hbar in reading_cases:
        for h in sorted({hbar, 0, 1, 2, 3}):
            _assert_reads_as_the_referee(readout, N, h)
        # a table wider than N + 1 (read at a smaller N) and one narrower
        for n in (N // 2, N - 1, N + 3):
            _assert_reads_as_the_referee(readout, n, hbar)


def test_side_reading_of_an_empty_pool_matches_the_referee():
    for N in (0, 1, 6):
        for hbar in range(4):
            _assert_reads_as_the_referee(CompositionMultiset(), N, hbar)


def _referee_merged_counts(symbols, total: int) -> list:
    """merged_counts as it stood, carrying None through both accumulations."""

    def add(a, b):
        return None if a is None or b is None else a + b

    tails = list(itertools.accumulate(reversed(symbols[1:]), add, initial=0))[::-1]
    return [
        total - tail if head is None and tail is not None else head
        for head, tail in zip(itertools.accumulate(symbols, add), tails)
    ]


def test_merged_counts_match_the_none_carrying_referee(reading_cases, monkeypatch):
    read = 0
    for readout, N, hbar in reading_cases:
        try:
            symbols = merged_sums(readout, N, hbar).symbols
        except MasscodecError:
            continue
        read += 1
        assert merged_counts(readout, N, hbar) == _referee_merged_counts(symbols, hbar * N // 2)
    assert read > len(reading_cases) // 2
    # random partial sums, with no, some and only erasures, stand in for the merge
    from masscodec import channel

    rng = random.Random(11)
    for _ in range(3000):
        N, hbar, erased = rng.randint(0, 12), rng.randint(1, 3), rng.choice((0, 0.15, 0.5, 1))
        symbols = [None if rng.random() < erased else rng.randint(0, hbar) for _ in range(N)]
        merged = PartialSumString(symbols, hbar)
        monkeypatch.setattr(channel, "merged_sums", lambda *_: merged)
        want = _referee_merged_counts(merged.symbols, hbar * N // 2)
        assert merged_counts(None, N, hbar) == want, merged


def test_two_row_increments_equal_two_one_row_calls():
    rng = np.random.default_rng(9)
    both_refused = checked_stray = 0
    for trial in range(600):
        N, hbar, strict = int(rng.integers(0, 9)), int(rng.integers(1, 4)), bool(trial % 2)
        # mostly steps in range, sometimes one past either end
        steps = np.where(rng.random((2, N)) < 0.9, rng.integers(0, hbar + 1, (2, N)), -1)
        steps[rng.random((2, N)) < 0.05] = hbar + 1
        cumulative = steps.cumsum(axis=1)
        known = rng.random((2, N)) < rng.choice((0.6, 0.9, 1.0))
        rows = [
            _with_message(lambda k=k: increments(cumulative[k], known[k], hbar, strict)[0])
            for k in (0, 1)
        ]
        # the first row's refusal wins, then the second row's
        want = next((row for row in rows if isinstance(row, tuple)), rows)
        both_refused += all(isinstance(row, tuple) for row in rows)
        assert _with_message(lambda: increments(cumulative, known, hbar, strict)[0]) == want
        slow = [[int(n) if k else None for n, k in zip(*row)] for row in zip(cumulative, known)]
        assert _with_message(lambda: _slow_increments(slow, hbar, strict)) == want
        if isinstance(want, tuple):
            continue
        # beside the symbols, the known ones out of range, row by row and 1-based
        _, stray = increments(cumulative, known, hbar, strict)
        assert stray == [
            (k, i, v)
            for k, row in enumerate(want)
            for i, v in enumerate(row, 1)
            if v is not None and not 0 <= v <= hbar
        ]
        assert stray == [
            (k, i, v)
            for k in (0, 1)
            for _, i, v in increments(cumulative[k], known[k], hbar, strict)[1]
        ]
        checked_stray += bool(stray)
    assert both_refused >= 20, both_refused
    assert checked_stray >= 20, checked_stray

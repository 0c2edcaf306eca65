"""Acceptance gate: every shipped guarantee, exercised at its tolerance.

Each criterion is one test (criterion 3 carries a separate expected-failure
twin for a published claim that is false as literally stated; see below).
A summary hook in conftest prints one PASS/FAIL line per criterion at the
end of the run.
"""

import itertools
import json
import math
import random
import time

import pytest

from masscodec import ecc
from masscodec.bhcode import BhCodebook, verify_bh
from masscodec.bounds import (
    B2_RATE_UPPER,
    bh_upper_even,
    bounds_table,
    construction_rate,
    mc_upper,
    naive_bh_upper,
)
from masscodec.channel import (
    Correction,
    Removal,
    apply_correction,
    count_correctable_multi,
    count_correctable_single,
    detect_substitution,
    erase,
    merge_partials,
    one_sided_sum,
    partial_sum_strings,
    sample_erasure_pattern,
    substitute_mass_reducing,
)
from masscodec.codec import (
    Ambiguous,
    Recovered,
    balance_report,
    decode_mixture,
    reconstruct_redundancy_free,
)
from masscodec.core import (
    BitString,
    Composition,
    full_multiset,
    pool,
    prefix_multiset,
    suffix_multiset,
)
from masscodec.oracle import brute_decode, check_prefix_code_cycles, verify_hmc

DYCK_TRIPLE = ("110100", "101010", "110010")


def canon(multiset) -> str:
    return json.dumps(multiset.to_json_obj(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# 1. worked-example fidelity


def test_criterion_1_worked_examples():
    start = time.monotonic()
    assert canon(prefix_multiset("01101")) == (
        '[{"zeros":1,"ones":0,"mult":1},{"zeros":1,"ones":1,"mult":1},'
        '{"zeros":1,"ones":2,"mult":1},{"zeros":2,"ones":2,"mult":1},'
        '{"zeros":2,"ones":3,"mult":1}]'
    )
    assert canon(suffix_multiset("01101")) == (
        '[{"zeros":0,"ones":1,"mult":1},{"zeros":1,"ones":1,"mult":1},'
        '{"zeros":1,"ones":2,"mult":1},{"zeros":1,"ones":3,"mult":1},'
        '{"zeros":2,"ones":3,"mult":1}]'
    )
    assert canon(full_multiset("01101")) == (
        '[{"zeros":1,"ones":0,"mult":1},{"zeros":0,"ones":1,"mult":1},'
        '{"zeros":1,"ones":1,"mult":2},{"zeros":1,"ones":2,"mult":2},'
        '{"zeros":2,"ones":2,"mult":1},{"zeros":1,"ones":3,"mult":1},'
        '{"zeros":2,"ones":3,"mult":2}]'
    )

    # the mixture sum 211110 from the pooled prefixes
    from masscodec.codec import separate_pool, sum_from_prefixes

    two = pool(["110100", "101010"])
    assert two.total == 24
    prefixes, _ = separate_pool(two, 6, 2)
    assert prefixes.total == 12
    assert prefixes == prefix_multiset("110100").union(prefix_multiset("101010"))
    assert str(sum_from_prefixes(prefixes, 6, 2)) == "211110"

    # order-2 validity of the reference triple, and the exact collision
    assert verify_bh(BhCodebook.explicit(DYCK_TRIPLE, 2), 2).valid
    res = verify_bh(BhCodebook.explicit(DYCK_TRIPLE + ("101100",), 2), 2)
    assert not res.valid
    a, b, total = res.witness
    assert {frozenset(map(str, a)), frozenset(map(str, b))} == {
        frozenset({"110100", "101010"}),
        frozenset({"110010", "101100"}),
    }
    assert total == (2, 1, 1, 1, 1, 0)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. the round-trip theorem at desk scale


def test_criterion_2_round_trip(mc_codebook, mc3_codebook):
    start = time.monotonic()
    base = mc_codebook.base
    count = 0
    for k in (1, 2):
        for subset in itertools.combinations(base.strings, k):
            got = decode_mixture(mc_codebook.pool_of(subset), mc_codebook)
            assert got == frozenset(subset)
            count += 1
    assert count == 120

    rng = random.Random(2024)
    for _ in range(50):
        subset = tuple(rng.sample(list(mc3_codebook.base.strings), 3))
        got = decode_mixture(mc3_codebook.pool_of(subset), mc3_codebook)
        assert got == frozenset(subset)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 3. balancing invariants


def _invariant_strings():
    yield 4, [BitString.from_int(v, 4) for v in range(16)]
    rng = random.Random(36)
    for n in (16, 36):
        yield n, [BitString.random(n, rng) for _ in range(10_000)]


def test_criterion_3_balancing_invariants():
    for n, strings in _invariant_strings():
        root = math.isqrt(n)
        for s in strings:
            rep = balance_report(s)
            assert rep.boundary_rds_max <= root
            assert rep.u_rds_max <= (3 * root) // 2
            assert rep.v_rds_min >= 0
            assert rep.v_rds_max <= 5 * root
            assert rep.dyck


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the strict head-positivity claim is false as stated: 0001 balances "
        "to u=0001 with flags 00, and the head 11111.00.0001 has running "
        "digital sum exactly 0 at position 10 (an even offset, so the "
        "codeword is still a Dyck string); the all-zero-flag drop and the "
        "maximal data dip are attained simultaneously"
    ),
)
def test_criterion_3_strict_head_positivity_as_stated():
    for n, strings in _invariant_strings():
        for s in strings:
            assert balance_report(s).v_rds_min > 0


# ---------------------------------------------------------------------------
# 4. the bounds table


def test_criterion_4_bounds_table():
    start = time.monotonic()
    assert naive_bh_upper(4) == pytest.approx(0.5118, abs=5e-4)
    assert naive_bh_upper(6) == pytest.approx(0.3899, abs=5e-4)
    assert naive_bh_upper(8) == pytest.approx(0.3184, abs=5e-4)
    assert bh_upper_even(4) == pytest.approx(0.4406, abs=5e-4)
    assert bh_upper_even(6) == pytest.approx(0.3433, abs=5e-4)
    assert bh_upper_even(8) == pytest.approx(0.2837, abs=5e-4)

    from fractions import Fraction

    assert mc_upper(2) == Fraction(2, 3)
    assert mc_upper(3) == Fraction(2, 3)
    assert mc_upper(4) == Fraction(3, 5)

    gaps = {r.h: r for r in bounds_table([2, 4, 6, 8])}
    assert gaps[2].achievable == B2_RATE_UPPER
    assert gaps[2].gap >= 0.09
    assert gaps[4].gap == pytest.approx(0.0882, abs=5e-4)
    assert gaps[6].gap == pytest.approx(0.1815, abs=5e-4)
    assert gaps[8].gap == pytest.approx(0.2372, abs=5e-4)

    assert bh_upper_even(4, "exact") == pytest.approx(0.4313, abs=5e-4)
    assert abs(bh_upper_even(4, "exact") - bh_upper_even(4, "gaussian")) > 5e-3

    # measured construction rate climbs toward 1/2 with the payload length
    rates = [construction_rate(n, 2) for n in (16, 64, 256)]
    assert rates == sorted(rates) and rates[-1] < 0.5
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 5. the erasure model


def test_criterion_5_single_removals_all_length6_strings():
    # side-attributed readouts: one missing fragment always leaves one side
    # complete and the weight anchor does the rest, Dyck or not
    for v in range(64):
        s = BitString.from_int(v, 6)
        p_full = prefix_multiset(s)
        s_full = suffix_multiset(s)
        for side, source in (("prefix", p_full), ("suffix", s_full)):
            for comp, _ in source.entries():
                erased_side = source.remove(comp)
                if side == "prefix":
                    p = one_sided_sum(erased_side, 6, 1, "prefix")
                    srev = one_sided_sum(s_full, 6, 1, "suffix")
                else:
                    p = one_sided_sum(p_full, 6, 1, "prefix")
                    srev = one_sided_sum(erased_side, 6, 1, "suffix")
                merged = merge_partials(p, srev, s.weight())
                assert merged.complete, (str(s), side, str(comp))
                assert merged.to_bitstring() == s


def test_criterion_5_single_removals_dyck_pairs():
    cb = BhCodebook.explicit(DYCK_TRIPLE, 2)
    for pair in itertools.combinations(DYCK_TRIPLE, 2):
        clean = pool(pair)
        tried = set()
        for comp, mult in clean.entries():
            for side in ("prefix", "suffix"):
                eligible = (
                    2 * comp.ones >= comp.length
                    if side == "prefix"
                    else 2 * comp.ones <= comp.length
                )
                if not eligible:
                    continue
                erased = erase(clean, [Removal(side, comp.length, ones=comp.ones)])
                out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
                assert isinstance(out, Recovered), (pair, str(comp), side)
                assert out.strings == frozenset(BitString(x) for x in pair)
                tried.add((side, comp.length, comp.ones))
        # fragments of equal composition share one removal, so the check is
        # that the removals tried cover every one of the pair's 24 fragments
        fragments = [
            (side, k, (w.prefix(k) if side == "prefix" else w.suffix(k)).weight())
            for w in map(BitString, pair)
            for k in range(1, 7)
            for side in ("prefix", "suffix")
        ]
        assert len(fragments) == clean.total == 24
        assert set(fragments) <= tried


def test_criterion_5_single_string_cases():
    m = full_multiset("111000")

    out = reconstruct_redundancy_free(erase(m, [Removal("prefix", 2)]), 6, 1)
    assert out.strings == frozenset({BitString("111000")})

    out = reconstruct_redundancy_free(
        erase(m, [Removal("prefix", 2), Removal("suffix", 4)]), 6, 1
    )
    assert out.strings == frozenset({BitString("111000")})

    m2 = full_multiset("110100")
    out = reconstruct_redundancy_free(
        erase(m2, [Removal("prefix", 4), Removal("suffix", 3)]), 6, 1
    )
    assert out.strings == frozenset({BitString("110100")})

    out = reconstruct_redundancy_free(
        erase(m, [Removal("prefix", 3), Removal("suffix", 3)]), 6, 1
    )
    assert isinstance(out, Ambiguous)
    assert set(out.witnesses) == {
        frozenset({BitString("111000")}),
        frozenset({BitString("110100")}),
    }


def test_criterion_5_mixture_cases():
    clean = pool(["110100", "101010"])
    cb = BhCodebook.explicit(DYCK_TRIPLE + ("111000",), 2)

    erased = erase(clean, [Removal("prefix", 3)])
    p, s = partial_sum_strings(erased, 6, 2)
    assert str(p) == "21εε10" and str(s) == "211110"
    out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
    assert out.strings == {BitString("110100"), BitString("101010")}

    erased = erase(clean, [Removal("prefix", 3), Removal("suffix", 5)])
    p, s = partial_sum_strings(erased, 6, 2)
    assert (str(p), str(s)) == ("21εε10", "εε1110")
    assert str(merge_partials(p, s, 6)) == "211110"

    erased = erase(
        clean,
        [Removal("prefix", 3), Removal("prefix", 4, ones=3),
         Removal("suffix", 4, ones=1), Removal("suffix", 5)],
    )
    p, s = partial_sum_strings(erased, 6, 2)
    assert (str(p), str(s)) == ("21εεε0", "εεε110")
    assert str(merge_partials(p, s, 6)) == "211110"

    erased = erase(clean, [Removal("prefix", 3), Removal("suffix", 3)])
    out = reconstruct_redundancy_free(erased, 6, 2, codebook=cb)
    assert isinstance(out, Ambiguous)
    assert set(out.witnesses) == {
        frozenset({BitString("110100"), BitString("101010")}),
        frozenset({BitString("111000"), BitString("101010")}),
    }


def test_criterion_5_counting():
    assert count_correctable_single(6, 2) == 60
    assert count_correctable_multi(6, 2, 2) == 72
    for n in range(1, 13):
        for t in range(0, min(n, 4) + 1):
            lower = math.comb(n, t // 2) * math.comb(n - t // 2, (t + 1) // 2)
            assert lower <= count_correctable_single(n, t)


# ---------------------------------------------------------------------------
# 6. the correction schemes


def _exhaustive_t1(book, decode):
    for hbar in (1, 2):
        subset = tuple(sorted(book.base.strings[:hbar]))
        words = [book.bits_for(s) for s in subset]
        clean = pool(words)
        for comp, mult in clean.entries():
            for side in ("prefix", "suffix"):
                eligible = (
                    2 * comp.ones >= comp.length
                    if side == "prefix"
                    else 2 * comp.ones <= comp.length
                )
                if not eligible:
                    continue
                erased = erase(clean, [Removal(side, comp.length, ones=comp.ones)])
                got = decode(erased, book, hbar)
                assert got == frozenset(subset), (book.scheme, str(comp), side)


def _randomized_t2(book, decode, trials, seed):
    rng = random.Random(seed)
    sources = list(book.base.strings)
    per_subset = 125
    done = 0
    while done < trials:
        hbar = rng.choice((1, 2))
        subset = tuple(sorted(rng.sample(sources, hbar)))
        words = [book.bits_for(s) for s in subset]
        clean = pool(words)
        for _ in range(min(per_subset, trials - done)):
            placement = rng.choice(("uniform", "adversarial"))
            pat = sample_erasure_pattern(words, 2, rng, placement)
            erased = erase(clean, pat, rng=rng)
            got = decode(erased, book, hbar)
            assert got == frozenset(subset), (book.scheme, pat)
            done += 1


def test_criterion_6_one_step(b2_n16_codebook):
    _exhaustive_t1(ecc.one_step_codebook(b2_n16_codebook, 1), ecc.one_step_decode)
    _randomized_t2(
        ecc.one_step_codebook(b2_n16_codebook, 2), ecc.one_step_decode, 10_000, 61
    )


def test_criterion_6_two_step(b2_n16_codebook):
    book1 = ecc.two_step_codebook(b2_n16_codebook, 1)
    _exhaustive_t1(book1, ecc.two_step_decode)
    book2 = ecc.two_step_codebook(b2_n16_codebook, 2)
    _randomized_t2(book2, ecc.two_step_decode, 10_000, 62)
    for book in (book1, book2):
        actual, formula = ecc.two_step_length_identity(book)
        assert actual == formula


def test_criterion_6_integral(b2_n16_codebook):
    book1 = ecc.integral_codebook(b2_n16_codebook, 1)
    assert book1.code_data.erasure_capability == 0  # floor(1/2)
    _exhaustive_t1(book1, ecc.integral_decode)
    book2 = ecc.integral_codebook(b2_n16_codebook, 2)
    assert book2.code_data.erasure_capability == 1  # floor(2/2): half of two-step
    _randomized_t2(book2, ecc.integral_decode, 10_000, 63)


# ---------------------------------------------------------------------------
# 7. oracle equivalence


def test_criterion_7_oracle_equivalence(mc_codebook, mc3_codebook):
    bits_of = {cw.origin: cw.bits for cw in mc_codebook.codewords}
    origin_of = {v: k for k, v in bits_of.items()}
    rng = random.Random(7)
    for _ in range(1000):
        k = rng.choice((1, 2))
        subset = tuple(rng.sample(list(bits_of), k))
        clean = pool([bits_of[s] for s in subset])
        fast = decode_mixture(clean, mc_codebook)
        slow = brute_decode(clean, list(origin_of), 2)
        assert len(slow) == 1
        assert frozenset(origin_of[b] for b in slow[0]) == fast == frozenset(subset)

    # every constructed codebook pools uniquely
    assert verify_hmc([cw.bits for cw in mc_codebook.codewords], 2).valid
    assert verify_hmc([cw.bits for cw in mc3_codebook.codewords], 3).valid

    # the planted 4-cycle is found, verified codes are clean
    planted = [BitString(s) for s in ("010011", "101100", "011100", "100011")]
    report = check_prefix_code_cycles(planted, split=2)
    assert not report.free and len(report.cycle) == 4

    rng = random.Random(77)
    for _ in range(3):
        chosen = []
        for v in rng.sample(range(64), 64):
            cand = BitString.from_int(v, 6)
            if verify_hmc(chosen + [cand], 2, side="prefix").valid:
                chosen.append(cand)
            if len(chosen) == 6:
                break
        for split in range(1, 6):
            assert check_prefix_code_cycles(chosen, split=split).free


# ---------------------------------------------------------------------------
# 8. substitution detection


def test_criterion_8_substitution_detection():
    # negative increment at position three, recovery from the clean side
    erased = erase(pool(["110100", "101010"]), [Removal("prefix", 3)])
    rep = detect_substitution(erased, 6, 2)
    assert (3, -1) in rep.prefix_bad_increments
    assert rep.suffix_bad_increments == () and rep.suffix_count_dev == ()
    assert str(rep.recovered_sum) == "211110"

    # unique correction pinned by the complementary side
    clean = pool(["111000", "110100"])
    corrupted = substitute_mass_reducing(clean, "prefix", 2, 0)
    rep = detect_substitution(corrupted, 6, 2)
    assert rep.unique_correction == Correction(
        "prefix", 2, Composition(2, 0), Composition(0, 2)
    )
    repaired = apply_correction(corrupted, rep.unique_correction)
    assert repaired == clean
    assert str(detect_substitution(repaired, 6, 2).recovered_sum) == "221100"

    # irreducible two-candidate ambiguity
    corrupted = substitute_mass_reducing(pool(["110100", "110010"]), "prefix", 3, 0)
    rep = detect_substitution(corrupted, 6, 2)
    assert rep.unique_correction is None
    assert set(rep.corrections) == {
        Correction("prefix", 3, Composition(3, 0), Composition(1, 2)),
        Correction("prefix", 3, Composition(2, 1), Composition(0, 3)),
    }

    # prefix/suffix incompatibility with both side sums as candidates
    corrupted = substitute_mass_reducing(
        pool(["110100", "110010"]), "prefix", 2, 1, ones=2
    )
    rep = detect_substitution(corrupted, 6, 2)
    assert rep.incompatible_lengths == (2,)
    assert [str(x) for x in rep.candidate_sums] == ["211110", "220110"]
    assert rep.recovered_sum is None

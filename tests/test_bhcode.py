import functools
import hashlib
import itertools
import math
import operator
import random

import pytest

from masscodec.bhcode import (
    DEFAULT_BUDGET,
    BhCodebook,
    ParityCheckSpec,
    XorIndex,
    build_bh_codebook,
    bundled_spec,
    codebook_rate,
    invert_mod2_sum,
    invert_sum,
    verify_bh,
)
from masscodec.codec import decode_mixture, encode_codebook
from masscodec.core import BitString, real_sum
from masscodec.errors import (
    AmbiguousSolution,
    ConfigError,
    DistanceTooSmall,
    NoSolution,
    SearchSpaceTooLarge,
)
from masscodec.gf2m import TABLES, alpha_power_pcm
from masscodec.linearcode import bundled_code

EX2_GOOD = ["110100", "101010", "110010"]


def mod2_sum(strings):
    return functools.reduce(operator.xor, strings)
EX2_BAD = EX2_GOOD + ["101100"]


def test_verify_bh_accepts_the_reference_triple():
    assert verify_bh(BhCodebook.explicit(EX2_GOOD, 2), 2).valid


def test_verify_bh_finds_the_reference_collision():
    res = verify_bh(BhCodebook.explicit(EX2_BAD, 2), 2)
    assert not res.valid
    a, b, total = res.witness
    assert {frozenset(map(str, a)), frozenset(map(str, b))} == {
        frozenset({"110100", "101010"}),
        frozenset({"110010", "101100"}),
    }
    assert total == (2, 1, 1, 1, 1, 0)


def test_explicit_codebook_without_strings_is_a_config_error():
    with pytest.raises(ConfigError, match="at least one string"):
        BhCodebook.explicit([], 2)


def test_verify_bh_trivial_and_budget():
    assert verify_bh(BhCodebook.explicit(["110100"], 5), 5).valid
    with pytest.raises(SearchSpaceTooLarge):
        verify_bh(BhCodebook.explicit(EX2_GOOD, 2), 2, budget=2)


def test_verify_bh_refuses_an_order_below_one_on_plain_strings():
    strings = [BitString(s) for s in EX2_BAD]
    for h in (0, -1):
        with pytest.raises(ConfigError, match=f"needs h >= 1, got {h}"):
            verify_bh(strings, h)


def test_build_from_bundled_specs(b2_codebook, b3_codebook):
    assert b2_codebook.n == 8 and len(b2_codebook) == 15
    assert b3_codebook.n == 10 and len(b3_codebook) == 15
    ham = build_bh_codebook(1, bundled_spec("hamming_7_4"))
    assert ham.n == 3 and len(ham) == 7
    assert len(set(ham.strings)) == 7


def test_distance_gate():
    with pytest.raises(DistanceTooSmall):
        build_bh_codebook(2, bundled_spec("hamming_7_4"))


def test_constructed_codebooks_verify(b2_codebook, b3_codebook):
    assert verify_bh(b2_codebook, 2).valid
    assert verify_bh(b3_codebook, 3).valid


def pcm_text(spec: ParityCheckSpec) -> str:
    """The text ``ParityCheckSpec.from_text`` reads: ``d=<int>``, then one row per line."""
    lines = [f"d={spec.d}"]
    lines.extend("".join(str(b) for b in row) for row in spec.rows)
    return "\n".join(lines) + "\n"


# sha256 of each named matrix's text, as its generated .pcm file held it
TABLE_DIGESTS = {
    "hamming_7_4": "7f75c7241a647287966eb20d535f1889e2316fcefe062cdac4d08ddc90a58723",
    "bch_15_7": "81709f7c0e5be200b3f74aaa3ae99dae0e3d60119f08b0749bb5210fb484f0d7",
    "bch_15_5": "6117ed45e7b5eb89851dd3d463ff8a09f1af21b5901fdcfe49ed294e35a7534c",
    "bch_255_cols20": "886ef72e9e13fcb1db6e66b8096d664644c9929714b432c22f864c2a56e0340f",
    "bch_63_16": "06ae9f72a4a0f90ab16050f279c6a4b1064d5c19c1a8726ef724ff8e222783bd",
    "bch_31_21": "15b702762ef2399c9c368d678e72d80a16fe612695850ca46438f2594936341a",
}


def test_every_named_table_is_pinned_and_has_its_declared_distance():
    # the one enumeration of each code's codewords in Tier-1: 2^21 for bch_31_21
    assert sorted(TABLES) == sorted(TABLE_DIGESTS)
    for name, digest in TABLE_DIGESTS.items():
        spec, code = bundled_spec(name), bundled_code(name)
        assert hashlib.sha256(pcm_text(spec).encode()).hexdigest() == digest, name
        assert (code.n, code.d) == (spec.n_cols, spec.d), name
        assert code.exact_min_distance() == spec.d, name


def test_matrix_file_round_trip(tmp_path):
    spec = bundled_spec("hamming_7_4")
    path = tmp_path / "ham.pcm"
    path.write_text(pcm_text(spec))
    again = ParityCheckSpec.load(path)
    assert again == spec
    with pytest.raises(ConfigError):
        ParityCheckSpec.from_text("101\n010\n")  # missing header


def test_parity_spec_validation():
    with pytest.raises(ConfigError):
        ParityCheckSpec(((0, 1), (0, 1)), 3)  # zero column
    with pytest.raises(ConfigError):
        ParityCheckSpec(((1, 1), (1, 1)), 3)  # duplicate columns


def test_invert_sum_reference_pair():
    cb = BhCodebook.explicit(EX2_GOOD, 2)
    got = invert_sum(cb, (2, 1, 1, 1, 1, 0), 2)
    assert {str(s) for s in got} == {"110100", "101010"}


def test_invert_sum_singleton_and_no_solution():
    cb = BhCodebook.explicit(EX2_GOOD, 2)
    got = invert_sum(cb, tuple(BitString("110010").bits), 1)
    assert got == (BitString("110010"),)
    with pytest.raises(NoSolution):
        invert_sum(cb, (9, 0, 0, 0, 0, 0), 2)


def test_invert_sum_flags_ambiguity():
    cb = BhCodebook.explicit(EX2_BAD, 2)
    with pytest.raises(AmbiguousSolution):
        invert_sum(cb, (2, 1, 1, 1, 1, 0), 2)


def test_invert_sum_triple_round_trip(b3_codebook):
    for subset in itertools.islice(itertools.combinations(b3_codebook.strings, 3), 40):
        got = invert_sum(b3_codebook, real_sum(subset), 3)
        assert set(got) == set(subset)


def test_invert_sum_round_trips_everywhere(b2_codebook):
    for k in (1, 2):
        for subset in itertools.combinations(b2_codebook.strings, k):
            assert set(invert_sum(b2_codebook, real_sum(subset), k)) == set(subset)


def test_invert_mod2_sum_round_trips(b2_codebook):
    for k in (1, 2):
        for subset in itertools.combinations(b2_codebook.strings, k):
            got = invert_mod2_sum(b2_codebook, mod2_sum(subset), k)
            assert set(got) == set(subset)


def test_mod2_reduction_is_the_syndrome(b2_codebook):
    # integer subset sums reduce mod 2 to the parity-check syndrome of the
    # subset indicator
    spec = b2_codebook.source
    for subset in itertools.islice(itertools.combinations(b2_codebook.strings, 2), 30):
        total = real_sum(subset)
        indicator = [1 if s in subset else 0 for s in spec.columns()]
        syndrome = [
            sum(r * x for r, x in zip(row, indicator)) % 2 for row in spec.rows
        ]
        assert [v % 2 for v in total] == syndrome


def test_mod2_ambiguity_exists_for_explicit_codebooks():
    # all integer subset sums distinct, but two pairs share a mod-2 sum:
    # 00001^00010 = 00100^00111 = 00011 (and the pair sums 00011 vs 00211
    # stay apart over the integers)
    cb = BhCodebook.explicit(["00001", "00010", "00100", "00111"], 2)
    assert verify_bh(cb, 2).valid
    with pytest.raises(AmbiguousSolution):
        invert_mod2_sum(cb, BitString("00011"), 2)


def test_invert_sum_budget_counts_the_enumerated_half_subsets(b3_codebook):
    # the integer inverse runs the same search, so the same half-subset rule
    # holds: C(15, 2) + C(15, 1) = 120, where all of C(15, 3) is 455
    subset = b3_codebook.strings[2:5]
    enumerated = math.comb(15, 2) + math.comb(15, 1)
    with pytest.raises(SearchSpaceTooLarge, match="120 half-subsets exceed the budget 119"):
        invert_sum(b3_codebook, real_sum(subset), 3, budget=enumerated - 1)
    assert invert_sum(b3_codebook, real_sum(subset), 3, budget=enumerated) == subset


def _exhaustive_invert_sum(codebook, target, hbar, budget=DEFAULT_BUDGET):
    """The scan over every hbar-subset that ``invert_sum`` used to run (referee)."""
    target = tuple(int(v) for v in target)
    if math.comb(len(codebook), hbar) > budget:
        raise SearchSpaceTooLarge(
            f"{math.comb(len(codebook), hbar)} subsets exceed the budget {budget}"
        )
    found = None
    for subset in itertools.combinations(codebook.strings, hbar):
        if real_sum(subset) == target:
            if found is not None:
                raise AmbiguousSolution(f"both {found} and {subset} sum to the target")
            found = subset
    if found is None:
        raise NoSolution("no codebook subset matches the target sum")
    return found


def _sum_outcome(invert, codebook, target, hbar):
    try:
        return invert(codebook, target, hbar)
    except (AmbiguousSolution, NoSolution) as exc:
        return type(exc), str(exc)


def _assert_invert_sum_matches_exhaustive_referee(codebook, rng):
    # every integer sum of at most h strings, probed at every hbar <= h, plus
    # reachable sums with one coordinate moved by one (mostly unreachable)
    reachable = {
        real_sum(subset)
        for k in range(1, codebook.h + 1)
        for subset in itertools.combinations(codebook.strings, k)
    }
    targets = sorted(reachable)
    for target in rng.sample(targets, min(30, len(targets))):
        i = rng.randrange(codebook.n)
        targets.append(target[:i] + (target[i] + rng.choice((-1, 1)),) + target[i + 1 :])
    for hbar in range(1, codebook.h + 1):
        for target in targets:
            assert _sum_outcome(invert_sum, codebook, target, hbar) == _sum_outcome(
                _exhaustive_invert_sum, codebook, target, hbar
            ), (hbar, target)


@pytest.mark.parametrize(
    "name,h", [("hamming_7_4", 1), ("bch_15_7", 2), ("bch_15_5", 3), ("bch_255_cols20", 2)]
)
def test_invert_sum_matches_exhaustive_referee_on_bundled_codebooks(name, h):
    codebook = build_bh_codebook(h, bundled_spec(name))
    _assert_invert_sum_matches_exhaustive_referee(codebook, random.Random(h))


def _seeded_explicit_codebook(seed):
    """Short strings with shared integer and mod-2 sums, or 100-bit strings.

    Every tenth book concatenates 50-bit halves drawn from three values, so
    u||v + u'||v' = u||v' + u'||v shares an integer sum across long strings.
    """
    rng = random.Random(seed)
    if seed % 10 == 9:
        halves = [rng.getrandbits(50) for _ in range(3)]
        values = rng.sample([(a << 50) | b for a in halves for b in halves], 7)
        return BhCodebook.explicit([BitString.from_int(v, 100) for v in values], 3)
    n = rng.choice((4, 5, 6))
    values = rng.sample(range(1, 2**n), rng.randint(5, 8))
    return BhCodebook.explicit([BitString.from_int(v, n) for v in values], 3)


@pytest.mark.parametrize("seed", range(40))
def test_invert_sum_matches_exhaustive_referee_on_explicit_codebooks(seed):
    codebook = _seeded_explicit_codebook(seed)
    _assert_invert_sum_matches_exhaustive_referee(codebook, random.Random(seed))


def test_index_cache_is_dropped_to_the_sizes_a_lookup_uses():
    # an hbar = 5 lookup caches its halves of 2 and 3 (105 + 455 subsets);
    # an hbar = 2 lookup under a budget of 2|C| keeps only its own size 1
    codebook = build_bh_codebook(3, bundled_spec("bch_15_5"))
    _lookup_outcome(codebook, mod2_sum(codebook.strings[:5]), 5)
    assert _lookup_outcome(codebook, mod2_sum(codebook.strings[:2]), 2, 2 * 15) == (
        codebook.strings[:2]
    )
    cached = codebook._xor_index._by_size.values()
    assert sum(len(subsets) for subsets, _ in cached) <= 2 * 15


def _mod2_referee(strings, hbar):
    """Every mod-2 sum of hbar strings, mapped to the subsets reaching it."""
    table = {}
    for subset in itertools.combinations(strings, hbar):
        table.setdefault(mod2_sum(subset), []).append(subset)
    return table


def _lookup_outcome(codebook, target, hbar, budget=DEFAULT_BUDGET):
    try:
        return invert_mod2_sum(codebook, target, hbar, budget)
    except (AmbiguousSolution, NoSolution) as exc:
        return type(exc)


def _referee_outcome(table, target):
    hits = table.get(target, [])
    if not hits:
        return NoSolution
    if len(hits) > 1:
        return AmbiguousSolution
    return hits[0]


def _assert_lookup_matches_referee(codebook, hbar, targets):
    table = _mod2_referee(codebook.strings, hbar)
    for target in list(table) + list(targets):
        assert _lookup_outcome(codebook, target, hbar) == _referee_outcome(
            table, target
        ), (hbar, str(target))


@pytest.mark.parametrize("name,h", [("bch_15_7", 2), ("bch_15_5", 3), ("bch_255_cols20", 2)])
def test_invert_mod2_sum_matches_exhaustive_referee_on_bundled_codebooks(name, h):
    # every reachable target plus random ones (mostly unreachable)
    codebook = build_bh_codebook(h, bundled_spec(name))
    rng = random.Random(2024)
    for hbar in range(1, h + 1):
        randoms = [BitString.random(codebook.n, rng) for _ in range(200)]
        _assert_lookup_matches_referee(codebook, hbar, randoms)


@pytest.mark.parametrize("seed", range(12))
def test_invert_mod2_sum_matches_exhaustive_referee_on_explicit_codebooks(seed):
    # short strings make shared mod-2 sums (AmbiguousSolution) and missing
    # ones (NoSolution) common; every target of the length is tried
    rng = random.Random(seed)
    n = rng.choice((4, 5, 6))
    size = rng.randint(5, 9)
    strings = rng.sample([BitString.from_int(v, n) for v in range(1, 2**n)], size)
    codebook = BhCodebook.explicit(strings, 4)
    every = [BitString.from_int(v, n) for v in range(2**n)]
    for hbar in (2, 3, 4):
        _assert_lookup_matches_referee(codebook, hbar, every)


def _mixed_order_codebooks():
    rng = random.Random(7)
    strings = rng.sample([BitString.from_int(v, 6) for v in range(1, 64)], 9)
    return [
        build_bh_codebook(3, bundled_spec("bch_15_5")),
        BhCodebook.explicit(strings, 4),
    ]


@pytest.mark.parametrize("codebook", _mixed_order_codebooks(), ids=["bch_15_5", "explicit"])
def test_cached_index_serves_every_size_in_any_order(codebook):
    # one codebook is asked for hbar in mixed order, so its cached k-subset
    # indexes are reused across sizes (hbar = 3 builds k = 1 and 2, hbar = 1
    # then reuses k = 1); every outcome must equal a fresh codebook's, whose
    # indexes are built for that hbar alone, and the referee's
    rng = random.Random(len(codebook))
    referees = {}
    for hbar in (3, 1, 2, 3, 4, 1, 2, 4):
        if hbar not in referees:
            referees[hbar] = _mod2_referee(codebook.strings, hbar)
        table = referees[hbar]
        targets = rng.sample(sorted(table), min(15, len(table)))
        targets += [BitString.random(codebook.n, rng) for _ in range(15)]
        for target in targets:
            fresh = BhCodebook(codebook.n, codebook.h, codebook.strings, codebook.source)
            expected = _referee_outcome(table, target)
            assert _lookup_outcome(codebook, target, hbar) == expected, (hbar, str(target))
            assert _lookup_outcome(fresh, target, hbar) == expected, (hbar, str(target))


def _fold_colliding_codebook():
    """Twelve 128-bit strings whose 64-bit folds take only 7 values.

    Each string is x || (x ^ f) for a random 64-bit x and a fold f in 1..7,
    so subsets of every size share folds while their strings differ; the
    last string is the XOR of the first three, which makes some pairs share
    a mod-2 sum exactly.
    """
    rng = random.Random(128)
    values = []
    for _ in range(11):
        x = rng.getrandbits(64)
        values.append((x << 64) | (x ^ rng.randint(1, 7)))
    values.append(values[0] ^ values[1] ^ values[2])
    return BhCodebook.explicit([BitString.from_int(v, 128) for v in values], 4)


def test_invert_mod2_sum_confirms_folded_matches_on_long_strings():
    codebook = _fold_colliding_codebook()
    rng = random.Random(64)
    for hbar in (1, 2, 3, 4):
        table = _mod2_referee(codebook.strings, hbar)
        # a reachable sum XOR m || m keeps its fold and changes its string
        shifted = []
        for target in rng.sample(sorted(table), min(40, len(table))):
            m = rng.getrandbits(64) | 1
            shifted.append(BitString.from_int(target.as_int ^ ((m << 64) | m), 128))
        _assert_lookup_matches_referee(codebook, hbar, shifted)


def test_xor_index_matches_the_combinations_referee_where_halves_meet_themselves():
    # at an even k and a target that folds to 0, every low half finds itself
    # among the high halves; repeated values put real matches right beside it,
    # and the sum of a drawn k-subset is a target whose halves do not meet
    rng = random.Random(2)
    found = 0
    for trial in range(40):
        distinct = [(rng.getrandbits(5), rng.getrandbits(3)) for _ in range(rng.randint(2, 5))]
        picked = [rng.choice(distinct) for _ in range(rng.randint(4, 11))]
        # past 64 bits the search keys on folds, and a nonzero target can fold to 0
        values = [a << 64 | b if trial % 2 else a for a, b in picked]
        m = rng.getrandbits(64)
        index = XorIndex(values)
        for k in (2, 4):
            for target in (0, m << 64 | m, mod2_sum(rng.sample(values, k))):
                want = [
                    list(c)
                    for c in itertools.combinations(range(len(values)), k)
                    if functools.reduce(operator.xor, (values[i] for i in c), target) == 0
                ]
                assert index.matches(target, k, DEFAULT_BUDGET) == want, (values, k, target)
                found += len(want)
    assert found > 100, found


def test_xor_index_budget_bounds_the_candidate_pairs_and_the_halves():
    # 50 equal values: the halves, 50 + 50 subsets, fit a budget of 100, but
    # every low half meets the 49 others, 2,450 candidate pairs to confirm
    index = XorIndex([0] * 50)
    with pytest.raises(SearchSpaceTooLarge, match="2450 candidate pairs exceed the budget 100"):
        index.matches(0, 2, budget=100)
    assert len(index.matches(0, 2, budget=2450)) == math.comb(50, 2)
    with pytest.raises(SearchSpaceTooLarge, match="100 half-subsets exceed the budget 99"):
        index.matches(0, 2, budget=99)
    with pytest.raises(ConfigError, match="hbar >= 1"):
        index.matches(0, 0, budget=100)


def test_invert_mod2_sum_budget_counts_the_enumerated_half_subsets(b3_codebook):
    # hbar = 3 splits into halves of 1 and 2: C(15, 2) + C(15, 1) = 120
    subset = b3_codebook.strings[2:5]
    target = mod2_sum(subset)
    enumerated = math.comb(15, 2) + math.comb(15, 1)
    with pytest.raises(SearchSpaceTooLarge):
        invert_mod2_sum(b3_codebook, target, 3, budget=enumerated - 1)
    assert invert_mod2_sum(b3_codebook, target, 3, budget=enumerated) == subset


def _bch_255_h4_codebook():
    """All 255 columns of the m = 8 BCH matrix with powers {1, 3, 5, 7}, d = 9."""
    H = alpha_power_pcm(8, 255, [1, 3, 5, 7])
    rows = tuple(tuple(int(b) for b in row) for row in H)
    return build_bh_codebook(4, ParityCheckSpec(rows, 9))


def test_decode_mixture_of_four_from_255_columns():
    # C(255, 4) ~ 1.7e8 exceeds the default budget; the halves, 2 x C(255, 2)
    # = 64,770 subsets, do not
    book = encode_codebook(_bch_255_h4_codebook())
    assert math.comb(255, 4) > DEFAULT_BUDGET
    rng = random.Random(255)
    for _ in range(3):
        sources = rng.sample(book.base.strings, 4)
        assert decode_mixture(book.pool_of(sources), book) == frozenset(sources)


def test_codebook_rate():
    # frozen from the definition: log2(size)/length
    assert codebook_rate((15, 8)) == pytest.approx(math.log2(15) / 8)
    assert codebook_rate((15, 8)) == pytest.approx(0.48836, abs=5e-6)
    assert codebook_rate((2, 1)) == 1.0
    assert codebook_rate((3, 6)) == pytest.approx(0.26416, abs=5e-6)
    assert codebook_rate(BhCodebook.explicit(EX2_GOOD, 2)) == pytest.approx(
        math.log2(3) / 6
    )


def test_lookup_refuses_an_order_below_one():
    # hbar = 0 used to return the empty subset or crash in real_sum, and
    # hbar = -1 died in math.comb
    codebook = build_bh_codebook(2, bundled_spec("bch_15_7"))
    zero = BitString((0,) * codebook.n)
    for hbar in (0, -1):
        with pytest.raises(ConfigError, match="hbar"):
            invert_sum(codebook, (0,) * codebook.n, hbar)
        with pytest.raises(ConfigError, match="hbar"):
            invert_mod2_sum(codebook, zero, hbar)

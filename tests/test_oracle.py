import random

import pytest

from masscodec.bhcode import verify_bh
from masscodec.codec import decode_mixture
from masscodec.core import BitString, full_multiset, pool, real_sum
from masscodec import oracle
from masscodec.errors import ConfigError, SearchSpaceTooLarge
from masscodec.oracle import (
    brute_decode,
    check_prefix_code_cycles,
    exhaustive_bh_search,
    verify_hmc,
)


def test_verify_hmc_validates_encoded_codebook(mc_codebook):
    bits = [cw.bits for cw in mc_codebook.codewords]
    assert verify_hmc(bits, 2).valid


def test_equal_sums_can_still_be_distinguishable_pools():
    a = [BitString("011"), BitString("000")]
    b = [BitString("001"), BitString("010")]
    assert real_sum(a) == real_sum(b)
    assert pool(a) != pool(b)
    # the distinguishing fragment: 01^2 shows up only on one side
    from masscodec.core import Composition

    assert Composition(1, 2) in pool(a)
    assert Composition(1, 2) not in pool(b)


def test_verify_hmc_trivial_and_budget():
    assert verify_hmc([BitString("0101")], 3).valid
    with pytest.raises(SearchSpaceTooLarge):
        verify_hmc([BitString("01"), BitString("10")], 2, budget=1)


def test_both_codebook_checks_refuse_an_over_budget_book_with_one_message():
    strings = [BitString("0011"), BitString("0101"), BitString("0110")]
    checks = {
        "bh": verify_bh,
        "hmc": verify_hmc,
        "prefix": lambda *args, **kw: verify_hmc(*args, side="prefix", **kw),
    }
    for name, check in checks.items():
        with pytest.raises(SearchSpaceTooLarge) as refused:
            check(strings, 2, budget=5)
        # 3 subsets of size 1 and 3 of size 2
        assert str(refused.value) == "6 subsets of size <= 2 exceed the budget 5", name


def test_verify_hmc_finds_collisions():
    # reversal-complement twins share the full fragment pool
    res = verify_hmc([BitString("111000"), BitString("000111")], 1)
    assert not res.valid
    assert full_multiset("111000") == full_multiset("000111")


def test_greedy_search_replays_the_reference_rejection():
    book = exhaustive_bh_search(
        6, 2, mode="max-greedy",
        seed=["110100", "101010"],
        candidates=["110010", "101100"],
    )
    got = {str(s) for s in book.strings}
    assert "110010" in got
    assert "101100" not in got


def test_greedy_search_tiny():
    book = exhaustive_bh_search(1, 1, mode="max-greedy")
    assert {str(s) for s in book.strings} == {"0", "1"}


def test_exact_search_n4():
    book = exhaustive_bh_search(4, 2, mode="exact-max")
    assert len(book) == 6  # frozen from the exhaustive run
    assert verify_bh(book, 2).valid
    # determinism
    again = exhaustive_bh_search(4, 2, mode="exact-max")
    assert book.strings == again.strings
    # exact is no worse than greedy
    greedy = exhaustive_bh_search(4, 2, mode="max-greedy")
    assert len(book) >= len(greedy)


def test_exact_search_guard():
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_bh_search(9, 2, mode="exact-max")
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_bh_search(6, 2, mode="max-greedy", budget=3)


def test_brute_decode_clean_pools(mc_codebook):
    bits = [cw.bits for cw in mc_codebook.codewords]
    rng = random.Random(1)
    for _ in range(30):
        k = rng.choice((1, 2))
        subset = tuple(sorted(rng.sample(bits, k)))
        hits = brute_decode(pool(subset), bits, 2)
        assert hits == (subset,)


def test_brute_decode_empty_and_mismatched():
    assert brute_decode(full_multiset("01"), [], 2) == ()
    # wrong totals can never match
    assert brute_decode(full_multiset("01"), [BitString("0101")], 2) == ()


def test_brute_decode_consistency_semantics():
    from masscodec.channel import Removal, erase

    erased = erase(
        full_multiset("111000"),
        [Removal("prefix", 3), Removal("suffix", 3)],
    )
    universe = [BitString("111000"), BitString("110100"), BitString("101010")]
    hits = brute_decode(erased, universe, 1, removals=2)
    assert {str(h[0]) for h in hits} == {"111000", "110100"}


def test_oracle_agrees_with_decoder(mc_codebook):
    bits_of = {cw.origin: cw.bits for cw in mc_codebook.codewords}
    origin_of = {v: k for k, v in bits_of.items()}
    rng = random.Random(2)
    for _ in range(60):
        k = rng.choice((1, 2))
        subset = tuple(rng.sample(list(bits_of), k))
        clean = pool([bits_of[s] for s in subset])
        fast = decode_mixture(clean, mc_codebook)
        slow = brute_decode(clean, list(origin_of), 2)
        assert len(slow) == 1
        assert frozenset(origin_of[b] for b in slow[0]) == fast == frozenset(subset)


def test_planted_four_cycle_is_found():
    # two prefixes of equal weight sharing two suffixes
    codebook = ["010011", "101100", "011100", "100011"]
    report = check_prefix_code_cycles([BitString(s) for s in codebook], split=2)
    assert not report.free
    assert report.weight == 1
    assert len(report.cycle) == 4
    assert {str(c) for c in report.cycle} == set(codebook)


def test_distinct_prefix_weights_are_cycle_free():
    codebook = [BitString(s) for s in ("000111", "010111", "110111", "111111")]
    report = check_prefix_code_cycles(codebook, split=3)
    assert report.free


def _random_prefix_code(rng, n=6, h=2, size=6):
    chosen = []
    for v in rng.sample(range(2**n), 2**n):
        cand = BitString.from_int(v, n)
        if verify_hmc(chosen + [cand], h, side="prefix").valid:
            chosen.append(cand)
        if len(chosen) == size:
            break
    return chosen


def test_verified_prefix_codes_have_no_four_cycles():
    rng = random.Random(11)
    for trial in range(5):
        code = _random_prefix_code(rng)
        assert verify_hmc(code, 2, side="prefix").valid
        for split in range(1, 6):
            assert check_prefix_code_cycles(code, split=split).free, (
                trial,
                split,
                [str(s) for s in code],
            )


def test_oracles_refuse_an_order_below_one_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(oracle, "_all_strings", no_search)
    strings = [BitString("011"), BitString("000")]
    for h in (0, -2):
        with pytest.raises(ConfigError, match=f"needs h >= 1, got {h}"):
            verify_hmc(strings, h)
        for mode in ("max-greedy", "exact-max"):
            with pytest.raises(ConfigError, match=f"needs h >= 1, got {h}"):
                exhaustive_bh_search(4, h, mode=mode)


def test_greedy_search_draws_candidates_only_up_to_its_budget(monkeypatch):
    drawn = []
    all_strings = oracle._all_strings

    def counted(n):
        for s in all_strings(n):
            drawn.append(s)
            yield s

    monkeypatch.setattr(oracle, "_all_strings", counted)
    # 2^16 candidates in all; the budget of 100 checks stops the search long before
    with pytest.raises(SearchSpaceTooLarge, match="exceeded budget 100"):
        exhaustive_bh_search(16, 2, mode="max-greedy", budget=100)
    assert 0 < len(drawn) <= 101

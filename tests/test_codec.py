import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_multiset
from masscodec import codec, ecc
from masscodec.bhcode import BhCodebook, invert_mod2_sum, invert_sum, verify_bh
from masscodec.codec import (
    RAW,
    Ambiguous,
    BalancedPair,
    Recovered,
    balance_report,
    block_balance,
    decode_mixture,
    encode,
    encode_codebook,
    explains,
    held_subsets,
    next_square,
    plain_layout,
    raw_codebook,
    reconstruct_redundancy_free,
    separate_pool,
    settle_target,
    sum_from_prefixes,
    unbalance,
    unflip,
)
from masscodec.core import (
    BitString,
    Composition,
    CompositionMultiset,
    all_dyck_strings,
    full_multiset,
    is_dyck,
    pool,
    prefix_multiset,
    suffix_multiset,
)
from masscodec.channel import (
    Removal,
    erase,
    merged_sums,
    sample_erasure_pattern,
    substitute_mass_reducing,
)
from masscodec.errors import (
    AmbiguousSolution,
    CountMismatch,
    DecodeFailure,
    DuplicateString,
    InconsistentPoolSize,
    LengthMismatch,
    MasscodecError,
    NegativeIncrement,
)
from masscodec.oracle import brute_decode


def test_block_balance_hand_checked_cases():
    cases = [("0111", "0100", "01"), ("0011", "0011", "00"), ("0000", "0011", "01")]
    for s, u, r in cases:
        pair = block_balance(s)
        assert (str(pair.u), str(pair.r)) == (u, r)


def _block_balance_referee(s: BitString) -> BalancedPair:
    """The balancer block_balance replaced: one tuple per block, flip and join."""

    def digital_sum(block):
        return 2 * sum(block) - len(block)

    size = next_square(len(s))[1]
    blocks = [s.bits[j : j + size] for j in range(0, len(s), size)]
    out = [blocks[0]]
    flags = [0]
    acc = digital_sum(blocks[0])
    for blk in blocks[1:]:
        flip = (acc >= 0) == (digital_sum(blk) >= 0)
        chosen = tuple(1 - b for b in blk) if flip else blk
        out.append(chosen)
        flags.append(1 if flip else 0)
        acc += digital_sum(chosen)
    return BalancedPair(u=BitString(sum(out, ())), r=BitString(flags))


def _padded(s: BitString) -> BitString:
    """s left-padded with zeros to the next square length."""
    return BitString.from_int(s.as_int, next_square(len(s))[0])


def test_block_balance_matches_the_bitstring_referee():
    exhaustive = (
        BitString.from_int(v, n) for n in range(1, 13) for v in range(2**n)
    )
    rng = random.Random(2024)
    seeded = (BitString.random(rng.randint(13, 100), rng) for _ in range(2000))
    for s in itertools.chain(exhaustive, seeded):
        padded = _padded(s)
        assert block_balance(padded) == _block_balance_referee(padded), s


def test_block_balance_takes_every_form_and_refuses_what_the_referee_refuses():
    rng = random.Random(68)
    for n in (1, 4, 9, 16, 81, 256):
        values = tuple(rng.randrange(2) for _ in range(n))
        expected = _block_balance_referee(BitString(values))
        for form in (values, list(values), "".join(map(str, values)), BitString(values)):
            assert block_balance(form) == expected
    for bad in ("", "012", [2], (), "01a1"):
        with pytest.raises(ValueError):
            _block_balance_referee(BitString(bad))
        with pytest.raises(ValueError):
            block_balance(bad)
    with pytest.raises(ValueError, match="not a perfect square"):
        block_balance("011")


def test_unbalance_inverts_block_balance_exhaustively_n4():
    for v in range(16):
        s = BitString.from_int(v, 4)
        pair = block_balance(s)
        assert unbalance(pair.u, pair.r) == s


def test_unbalance_trivial_flags():
    assert unbalance("0110", "00") == BitString("0110")


def test_unbalance_commutes_with_xor_n4():
    # on mod-2 mixtures the un-flip recovers the mod-2 sum of the sources
    for a_val, b_val in itertools.combinations(range(16), 2):
        a, b = BitString.from_int(a_val, 4), BitString.from_int(b_val, 4)
        pa, pb = block_balance(a), block_balance(b)
        mixed = unbalance(pa.u ^ pb.u, pa.r ^ pb.r)
        assert mixed == a ^ b


def _referee_unflip(data, flags, pad):
    # reduce every sum mod 2 first, then complement each block whose flag is 1
    data = [None if v is None else v % 2 for v in data]
    root = len(flags)
    out = []
    for j, flag in enumerate(None if f is None else f % 2 for f in flags):
        block = data[j * root : (j + 1) * root]
        if flag is None:
            out.extend([None] * root)
        else:
            out.extend(None if b is None else b ^ flag for b in block)
    return out[pad:]


def test_unflip_reads_integer_sums_like_their_mod2_reduction():
    rng = random.Random(27)
    values = [None, -2, -1, 0, 1, 2, 3, 4, 5]
    parities = set()
    for root in (1, 2, 3, 4, 5):
        for pad in sorted({0, 1, root, root * root - 1}):
            for _ in range(40):
                flags = [rng.choice(values) for _ in range(root)]
                data = [rng.choice(values) for _ in range(root * root)]
                parities.update(f % 2 for f in flags if f is not None)
                assert unflip(data, flags, pad) == _referee_unflip(data, flags, pad)
    assert parities == {0, 1}
    with pytest.raises(ValueError):
        unflip([0, 1, 2], [1, 1])


def test_padding_policy():
    lay = plain_layout(5)
    assert (lay.m, lay.pad) == (9, 4)
    # the framed data, un-flipped, is the string left-padded with zeros
    (cw,) = encode(["11111"])
    u = cw.bits[lay.u_start : lay.tail_start]
    assert unbalance(u, cw.bits[lay.r_start : lay.u_start]) == BitString("000011111")
    assert next_square(8) == (9, 3)
    assert next_square(16) == (16, 4)


def test_encode_hand_assembled_example():
    (cw,) = encode(["0111"])
    assert str(cw.bits) == "11111" + "01" + "0100" + "1111" + "0000000"
    assert plain_layout(4).N == len(cw.bits) == 22
    assert cw.bits.weight() == 11
    assert is_dyck(cw.bits)


def test_encode_length_formula_n16():
    rng = random.Random(0)
    s = BitString.random(16, rng)
    (cw,) = encode([s])
    assert plain_layout(16).N == len(cw.bits) == 50
    assert cw.bits.weight() == 25


def test_layout_json_round_trip():
    lay = plain_layout(8)
    obj = lay.to_json_obj()
    assert obj["pad"] == 1 and obj["N"] == 36
    assert obj["segments"]["tail"] == [lay.tail_start, obj["N"] - lay.tail_start]


@pytest.mark.parametrize("n", [4, 16, 36])
def test_balancing_invariants_random(n):
    rng = random.Random(n)
    trials = 16 if n == 4 else 400
    strings = (
        [BitString.from_int(v, 4) for v in range(16)]
        if n == 4
        else [BitString.random(n, rng) for _ in range(trials)]
    )
    for s in strings:
        rep = balance_report(s)
        root = rep.root
        assert rep.boundary_rds_max <= root
        assert rep.u_rds_max <= (3 * root) // 2
        # the head RDS can touch zero (e.g. s=0001: all-zero flags meet the
        # full data dip), but never goes negative and only at even offsets,
        # which keeps the codeword a Dyck string
        assert rep.v_rds_min >= 0
        assert rep.v_rds_max <= 5 * root
        assert rep.dyck


def test_head_rds_zero_touch_counterexample():
    # the strict form "head RDS > 0" fails exactly here
    rep = balance_report(BitString("0001"))
    assert rep.v_rds_min == 0


@given(st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_encode_always_dyck(v):
    assert is_dyck(encode([BitString.from_int(v, 16)])[0].bits)


def test_separate_pool_reference_example():
    p = pool(["110100", "101010"])
    prefixes, suffixes = separate_pool(p, 6, 2)
    assert prefixes == prefix_multiset("110100").union(prefix_multiset("101010"))
    assert suffixes == suffix_multiset("110100").union(suffix_multiset("101010"))
    assert prefixes.total == 12


def test_separate_pool_single_dyck_string():
    m = full_multiset("110100")
    prefixes, suffixes = separate_pool(m, 6, 1)
    assert prefixes == prefix_multiset("110100")
    assert suffixes == suffix_multiset("110100")


def test_separate_pool_of_three_codewords(mc3_codebook):
    subset = mc3_codebook.base.strings[:3]
    p = mc3_codebook.pool_of(subset)
    prefixes, _ = separate_pool(p, mc3_codebook.N, 3)
    assert prefixes.total == 3 * mc3_codebook.N
    expected = prefix_multiset(mc3_codebook.codewords[0].bits).union(
        *(prefix_multiset(mc3_codebook.bits_for(s)) for s in subset[1:])
    )
    assert prefixes == expected


def test_separate_pool_count_mismatch():
    with pytest.raises(CountMismatch):
        separate_pool(full_multiset("110100"), 6, 2)


def test_sum_from_prefixes_reference():
    prefixes = prefix_multiset("110100").union(prefix_multiset("101010"))
    total = sum_from_prefixes(prefixes, 6, 2)
    assert str(total) == "211110"


def test_sum_from_prefixes_single_string_is_identity():
    total = sum_from_prefixes(prefix_multiset("110100"), 6, 1)
    assert total.to_bitstring() == BitString("110100")


def test_sum_from_prefixes_three_strings():
    strings = ["110100", "101010", "110010"]
    prefixes = prefix_multiset(strings[0]).union(*map(prefix_multiset, strings[1:]))
    total = sum_from_prefixes(prefixes, 6, 3)
    expected = tuple(sum(int(s[i]) for s in strings) for i in range(6))
    assert total.as_tuple() == expected


def test_sum_from_prefixes_rejects_corrupt_pools():
    prefixes = prefix_multiset("110100").remove(
        next(iter(prefix_multiset("110100").elements()))
    )
    with pytest.raises(CountMismatch):
        sum_from_prefixes(prefixes, 6, 1)
    # a mass-reduced length-3 fragment drives the increment negative
    corrupted = read_multiset("{1, 1^2, 0^3, 01^3, 0^21^3, 0^31^3}")
    with pytest.raises(NegativeIncrement):
        sum_from_prefixes(corrupted, 6, 1)


def test_decode_mixture_round_trip_all_pairs(mc_codebook):
    base = mc_codebook.base
    for k in (1, 2):
        for subset in itertools.combinations(base.strings, k):
            got = decode_mixture(mc_codebook.pool_of(subset), mc_codebook)
            assert got == frozenset(subset)


def test_decode_mixture_triples(mc3_codebook):
    rng = random.Random(3)
    for _ in range(25):
        subset = tuple(rng.sample(list(mc3_codebook.base.strings), 3))
        got = decode_mixture(mc3_codebook.pool_of(subset), mc3_codebook)
        assert got == frozenset(subset)


def test_decode_mixture_infers_hbar_and_guards(mc_codebook):
    p = mc_codebook.pool_of(mc_codebook.base.strings[:2])
    with pytest.raises(InconsistentPoolSize):
        decode_mixture(p.remove(next(iter(p.elements()))), mc_codebook)
    with pytest.raises(InconsistentPoolSize):
        decode_mixture(p, mc_codebook, hbar=9)


def test_both_plain_paths_agree_on_explicit_codebooks(small_explicit_books):
    # an explicit book is decoded, not refused: on every clean pool the
    # direct decode and the redundancy-free reconstruction give the same
    # outcome, which is the sources unless another subset pools alike
    outcomes = []
    for base in small_explicit_books:
        book = encode_codebook(base)
        for hbar in range(1, base.h + 1):
            subsets = itertools.combinations(base.strings, hbar)
            readouts = {sources: book.pool_of(sources) for sources in subsets}
            pooled_alike = Counter(readouts.values())
            for sources, readout in readouts.items():
                direct = _outcome(lambda: decode_mixture(readout, book))
                merged = _outcome(
                    lambda: reconstruct_redundancy_free(readout, book.N, hbar, book).strings
                )
                assert direct == merged, (str(base.strings), sources)
                shared = pooled_alike[readout] > 1
                assert direct == (AmbiguousSolution if shared else frozenset(sources)), sources
                outcomes.append(direct)
    assert len(outcomes) >= 900
    assert AmbiguousSolution in outcomes
    assert sum(isinstance(out, frozenset) for out in outcomes) > len(outcomes) // 2


def test_a_shared_mod2_sum_is_decided_by_the_pool():
    # B_h, yet both pairs reduce to 00011 mod 2; their pools differ, so the
    # readout names one pair, also after losing a fragment
    base = BhCodebook.explicit(["00001", "00010", "00100", "00111"], 2)
    assert verify_bh(base, 2)
    book = encode_codebook(base)
    for pair in (("00001", "00010"), ("00100", "00111")):
        sources = frozenset(map(BitString, pair))
        readout = book.pool_of(pair)
        assert decode_mixture(readout, book) == sources
        assert reconstruct_redundancy_free(readout, book.N, 2, book).strings == sources
        erased = erase(readout, [Removal("suffix", 1)])
        assert reconstruct_redundancy_free(erased, book.N, 2, book).strings == sources


def _outcome(decode):
    try:
        return decode()
    except MasscodecError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# differential test: a raw book's complete sum, decoded by plain_sources with its
# held-subset search, against the integer-sum lookup that decoded it before


def _raw_readouts(books):
    """Every subset of seeded raw books (Dyck strings of length 8 or 10, 5-8 of
    them, order 2 or 3) with 0, 1, 2 and 4 uniform losses: (base, truth, readout)."""
    for seed in range(books):
        rng = random.Random(seed)
        n, size, h = rng.choice((8, 10)), rng.randint(5, 8), rng.choice((2, 3))
        base = BhCodebook.explicit(rng.sample(all_dyck_strings(n), size), h)
        for hbar in range(1, h + 1):
            for truth in itertools.combinations(base.strings, hbar):
                clean = pool(truth)
                for lost in (0, 1, 2, 4):
                    pattern = sample_erasure_pattern(truth, lost, rng, "uniform")
                    yield base, frozenset(truth), erase(clean, pattern, rng=rng)


def _integer_sum_rule(readout, base, hbar):
    """The removed raw branch: a complete merged sum's sources by ``invert_sum`` alone."""
    merged = merged_sums(readout, base.n, hbar)
    return frozenset(invert_sum(base, merged.as_tuple(), hbar)) if merged.complete else None


def test_raw_books_move_only_from_a_shared_sum_to_its_one_explanation():
    books, moved, outcomes = {}, 0, Counter()
    for base, truth, readout in _raw_readouts(60):
        book = books.setdefault(base, raw_codebook(base))
        hbar = len(truth)
        before = _outcome(lambda: _integer_sum_rule(readout, base, hbar))
        after = _outcome(lambda: reconstruct_redundancy_free(readout, base.n, hbar, book))
        if before is None:  # an incomplete sum: the witnesses hold the truth
            assert isinstance(after, Ambiguous) and truth in after.witnesses
            outcomes["incomplete"] += 1
            continue
        after = after.strings if isinstance(after, Recovered) else after
        # under pure loss no decode names a set that is not the truth
        assert after == truth or isinstance(after, type), (base, truth)
        if before != after:
            assert before is AmbiguousSolution, (base, truth, before, after)
            lost = 2 * base.n * hbar - readout.total
            hits = brute_decode(readout, base.strings, hbar, lost)
            assert tuple(map(frozenset, hits)) == (after,)
            moved += 1
        outcomes[after if isinstance(after, type) else "exact"] += 1
    assert moved >= 100 and outcomes[AmbiguousSolution] >= 100, (moved, outcomes)
    assert sum(outcomes.values()) >= 8000, outcomes


def _one_lighter(readout, rng):
    """The readout with one fragment of a random nonzero cell read with fewer ones."""
    cells = [(int(n), int(w)) for n, w in zip(*readout.counts.nonzero()) if w]
    length, ones = rng.choice(cells)
    side = "prefix" if 2 * ones >= length else "suffix"
    return substitute_mass_reducing(readout, side, length, rng.randrange(ones), ones=ones)


def test_the_merge_certifies_a_complete_sum_against_the_readout():
    # two lost prefixes and one prefix read lighter: the one pair with the merged
    # sum is not the truth, and no pairing of the readout with its pool explains
    # the prefix of 6 read with 1 one
    base = BhCodebook.explicit(
        ["10101010", "11110000", "10110010", "11100010",
         "11011000", "11010010", "11001010", "11100100"], 3
    )
    truth = ("10101010", "10110010")
    readout = erase(pool(truth), [Removal("prefix", 3, ones=2), Removal("prefix", 1, ones=1)])
    readout = substitute_mass_reducing(readout, "prefix", 6, 1, ones=3)
    merged = merged_sums(readout, 8, 2)
    assert merged.complete
    wrong = frozenset(map(BitString, ("11001010", "11010010")))
    assert frozenset(invert_sum(base, merged.as_tuple(), 2)) == wrong
    with pytest.raises(DecodeFailure, match="does not explain the readout"):
        reconstruct_redundancy_free(readout, 8, 2, base)
    # one lost prefix and a prefix of 5 read with 2 ones for 3: the truth's pool
    # does not hold the readout, yet explains it with that one lighter reading
    lossy = erase(pool(truth), [Removal("prefix", 1, ones=1)])
    lossy = substitute_mass_reducing(lossy, "prefix", 5, 2, ones=3)
    assert not explains(lossy, pool(truth))
    assert reconstruct_redundancy_free(lossy, 8, 2, base).strings == set(map(BitString, truth))
    # at clean size the answer's pool must be the readout itself; this merged
    # sum is the truth's, read through a prefix of 7 with one 1 fewer
    lighter = substitute_mass_reducing(pool(truth), "prefix", 7, 3, ones=4)
    with pytest.raises(DecodeFailure, match="is not the readout"):
        reconstruct_redundancy_free(lighter, 8, 2, base)
    clean = reconstruct_redundancy_free(pool(truth), 8, 2, base)
    assert clean.strings == set(map(BitString, truth))


def test_the_lighter_submultiset_pairs_each_fragment_with_one_at_least_as_heavy():
    held = read_multiset("{0^2 1^2, 0 1^3, 0^3 1}")
    assert explains(read_multiset("{0^3 1, 0^2 1^2}"), held, lighter=True)
    assert explains(read_multiset("{0^4, 0^4, 0^4}"), held, lighter=True)
    assert explains(read_multiset("{}"), held, lighter=True)
    # three fragments of length 4 need three partners, two with 2 ones or more
    assert not explains(read_multiset("{0^2 1^2, 0^2 1^2, 0^2 1^2}"), held, lighter=True)
    assert not explains(read_multiset("{0^4, 0^4, 0^4, 0^4}"), held, lighter=True)
    # a heavier reading, or a length the pool lacks, is never explained
    assert not explains(read_multiset("{1^4}"), held, lighter=True)
    assert not explains(read_multiset("{0}"), held, lighter=True)
    assert not explains(read_multiset("{0^5}"), held, lighter=True)
    # against a referee: every pairing of the readout's fragments, by brute force
    rng = random.Random(28)
    for _ in range(300):
        cells = [(n, w) for n in range(1, 5) for w in range(n + 1)]
        mine = [rng.choice(cells) for _ in range(rng.randint(0, 4))]
        theirs = [rng.choice(cells) for _ in range(rng.randint(0, 5))]
        paired = any(
            all(a[0] == b[0] and a[1] <= b[1] for a, b in zip(mine, order))
            for order in itertools.permutations(theirs, len(mine))
        )
        as_set = [CompositionMultiset(Counter(Composition(n - w, w) for n, w in part))
                  for part in (mine, theirs)]
        assert explains(as_set[0], as_set[1], lighter=True) == paired, (mine, theirs)


def test_the_merge_refuses_an_n_other_than_the_books(mc_codebook):
    # it raised Conflict, blaming the readout's two sides, on this N = 36 book
    readout = mc_codebook.pool_of(mc_codebook.base.strings[:2])
    for N in (34, 38):
        with pytest.raises(LengthMismatch, match=f"N={N}, but .* have N=36"):
            reconstruct_redundancy_free(readout, N, 2, mc_codebook)
    # a BhCodebook is first read as its RAW book, of N = 8
    base = BhCodebook.explicit(["11001010", "11010010", "10110010"], 2)
    with pytest.raises(LengthMismatch, match="have N=8"):
        reconstruct_redundancy_free(pool(base.strings[:2]), 10, 2, base)


def test_the_merge_answers_no_complete_sum_whose_pool_does_not_explain_the_readout():
    # the raw readouts above, each with one lighter reading.  Before the
    # certificate, 8 of these 5,352 answers were lossy wrong sets that no
    # pairing with their pool explains, and 393 clean-size exact answers were
    # returned although their pool is not the readout.  The 30 wrong sets that
    # their pool explains are not caught (item 28's lighter budget)
    books, outcomes = {}, Counter()
    for i, (base, truth, readout) in enumerate(_raw_readouts(30)):
        readout = _one_lighter(readout, random.Random(i))
        book = books.setdefault(base, raw_codebook(base))
        hbar = len(truth)
        got = _outcome(lambda: reconstruct_redundancy_free(readout, base.n, hbar, book))
        if isinstance(got, Recovered):
            held = book.pool_of(got.strings)
            if readout.total == 2 * base.n * hbar:
                assert held == readout, (base, truth)
            else:
                assert explains(readout, held, lighter=True), (base, truth)
            got = "exact" if got.strings == truth else "wrong"
        outcomes[got if isinstance(got, str) else getattr(got, "__name__", "ambiguous")] += 1
    assert outcomes["wrong"] <= 30 and outcomes["exact"] >= 809, outcomes


# ---------------------------------------------------------------------------
# differential test: ``explains`` against the three relations it replaced


def _trimmed_counts(multiset):
    """The counts without zero rows (and columns) past the longest fragment."""
    counts = multiset.counts
    rows = counts.any(axis=1).nonzero()[0]
    size = int(rows[-1]) + 1 if rows.size else 0
    return counts[:size, :size]


def _referee_holds(readout, held):
    """``CompositionMultiset.is_submultiset`` as it was: cell by cell <=."""
    mine = _trimmed_counts(readout)
    size = len(mine)
    if size > len(held.counts):
        return False
    return bool((mine <= held.counts[:size, :size]).all())


def _referee_lighter(readout, held):
    """``CompositionMultiset.is_lighter_submultiset`` as it was: at each
    length, the counts summed from the heavy end, <=."""
    import numpy as np

    mine = _trimmed_counts(readout)
    size = len(mine)
    if size > len(held.counts):
        return False
    heavier = np.cumsum(held.counts[:size, :size][:, ::-1], axis=1)
    return bool((np.cumsum(mine[:, ::-1], axis=1) <= heavier).all())


def _explains_as_the_referees(readout, held):
    """Check both modes of ``explains`` against the referees, and equality at
    one size; returns the (relation, answer) pairs checked."""
    plain, lighter = explains(readout, held), explains(readout, held, lighter=True)
    assert plain == _referee_holds(readout, held), (str(readout), str(held))
    assert lighter == _referee_lighter(readout, held), (str(readout), str(held))
    checked = [("holds", plain), ("lighter", lighter)]
    if readout.total == held.total:
        assert plain == (readout == held), (str(readout), str(held))
        checked.append(("equal", plain))
    return checked


def test_explains_matches_equality_and_both_submultiset_referees(mc_codebook):
    import numpy as np

    seen = Counter()
    # the brute-force pairings of the lighter test, both ways round
    rng = random.Random(28)
    for _ in range(300):
        cells = [(n, w) for n in range(1, 5) for w in range(n + 1)]
        mine = [rng.choice(cells) for _ in range(rng.randint(0, 4))]
        theirs = [rng.choice(cells) for _ in range(rng.randint(0, 5))]
        a, b = (CompositionMultiset(Counter(Composition(n - w, w) for n, w in part))
                for part in (mine, theirs))
        seen.update(_explains_as_the_referees(a, b) + _explains_as_the_referees(b, a))
    # the raw readouts, each also with one lighter reading, against the truth's
    # pool and against the previous truth's, which may be another book's shape
    previous = None
    for i, (base, truth, readout) in enumerate(_raw_readouts(60)):
        held = pool(truth)
        others = (held,) if previous is None else (held, previous)
        for read in (readout, _one_lighter(readout, random.Random(i))):
            for other in others:
                seen.update(_explains_as_the_referees(read, other))
        previous = held
    # tables of different shapes: zero padding, and a fragment longer than any held
    clean = mc_codebook.pool_of(mc_codebook.base.strings[:2])
    padded = CompositionMultiset.from_counts(np.pad(clean.counts, (0, 3)))
    longer = clean.add(Composition(mc_codebook.N + 1, 0))
    p = pool(["110100", "101010"])
    wider = CompositionMultiset.from_counts(np.pad(p.counts, (0, 3)))
    for a, b in ((padded, clean), (longer, clean), (p, wider)):
        seen.update(_explains_as_the_referees(a, b) + _explains_as_the_referees(b, a))
    assert all(seen[relation, answer] >= 100 for relation in ("holds", "lighter", "equal")
               for answer in (True, False)), seen


def test_no_book_witnesses_match_the_search_over_every_dyck_string():
    # with no book at hbar 1 the search grows only the Dyck strings that agree
    # with the merged sum; the referee searches the book of all of them
    m, m2 = full_multiset("111000"), full_multiset("110100")
    criterion_5 = [
        erase(m, [Removal("prefix", 2)]),
        erase(m, [Removal("prefix", 2), Removal("suffix", 4)]),
        erase(m2, [Removal("prefix", 4), Removal("suffix", 3)]),
        erase(m, [Removal("prefix", 3), Removal("suffix", 3)]),
    ]
    readouts = [(6, readout) for readout in criterion_5]
    rng = random.Random(14)
    for N in range(6, 15, 2):
        strings = all_dyck_strings(N)
        for _ in range(60):
            s = rng.choice(strings)
            pattern = sample_erasure_pattern([s], rng.randint(2, 8), rng, "uniform")
            readouts.append((N, erase(full_multiset(s), pattern, rng=rng)))
    universes, ambiguous = {}, 0
    for N, readout in readouts:
        universe = universes.setdefault(N, raw_codebook(BhCodebook(N, 1, all_dyck_strings(N))))
        out = reconstruct_redundancy_free(readout, N, 1)
        merged = merged_sums(readout, N, 1)
        if merged.complete:
            assert isinstance(out, Recovered) and out.strings == {merged.to_bitstring()}
            continue
        assert out.witnesses == held_subsets(readout, merged, 1, universe, 2**22), N
        ambiguous += 1
    assert ambiguous >= 150, ambiguous


# ---------------------------------------------------------------------------
# differential test: the answer step settles a shared target among the lookup's
# own matches; the referee is the rule it replaced, a held-subset search over
# the readout's merged codeword sum


def _referee_settle(readout, book, target, hbar, budget):
    """A shared target goes to ``merged_sums`` and then ``held_subsets``; the
    lookup's error stands when the merge raises or not exactly one subset holds."""
    lookup = invert_sum if book.scheme == RAW else invert_mod2_sum
    try:
        return frozenset(lookup(book.base, target, hbar, budget))
    except AmbiguousSolution as shared:
        try:
            merged = merged_sums(readout, book.N, hbar)
        except MasscodecError:
            raise shared from None
        held = held_subsets(readout, merged, hbar, book, budget)
        if len(held) != 1:
            raise
        return held[0]


def _answer_step_cases():
    """(book, decode) for the base whose pairs share their mod-2 sums under each
    scheme and plain, and for seeded raw books; plain and raw decode by the merge."""
    def plain(readout, book, hbar):
        return reconstruct_redundancy_free(readout, book.N, hbar, book)

    def substitutions(readout, book, hbar):
        return ecc.two_step_decode(readout, book, hbar, substitutions=True)

    base = BhCodebook.explicit(["00001", "00010", "00100", "00111"], 2)
    for scheme, t in ((ecc.ONE_STEP, 0), (ecc.TWO_STEP, 1), (ecc.INTEGRAL, 2),
                      (ecc.ONE_STEP_MODP, 1)):
        yield ecc.scheme_codebook(scheme, base, t), ecc.scheme_decode
    yield ecc.two_step_codebook(base, 1, substitutions=True), substitutions
    yield ecc.scheme_codebook(ecc.PLAIN, base, 0), plain
    for seed in range(3):
        rng = random.Random(seed)
        raw = BhCodebook.explicit(rng.sample(all_dyck_strings(8), 6), 2)
        yield raw_codebook(raw), plain


def test_the_answer_step_settles_a_shared_target_as_the_merged_search_did(monkeypatch):
    # readout by readout, every answer step gives the referee's outcome;
    # 0-4 losses in both placements and 0-2 lighter readings
    shared = Counter()

    def checked(readout, book, target, hbar, budget):
        got = _outcome(lambda: settle_target(readout, book, target, hbar, budget))
        assert got == _outcome(lambda: _referee_settle(readout, book, target, hbar, budget))
        lookup = invert_sum if book.scheme == RAW else invert_mod2_sum
        if _outcome(lambda: lookup(book.base, target, hbar, budget)) is AmbiguousSolution:
            shared[book.scheme, got is AmbiguousSolution] += 1
        return settle_target(readout, book, target, hbar, budget)

    monkeypatch.setattr(codec, "settle_target", checked)
    monkeypatch.setattr(ecc, "settle_target", checked)
    for book, decode in _answer_step_cases():
        subsets = [sub for k in (1, 2) for sub in itertools.combinations(book.base.strings, k)]
        for subset, seed in itertools.product(subsets, range(2)):
            rng = random.Random(seed)
            words = [book.bits_for(s) for s in subset]
            for lost, lighter, placement in itertools.product(
                range(5), range(3), ("uniform", "adversarial")
            ):
                pattern = sample_erasure_pattern(words, lost, rng, placement)
                readout = erase(book.pool_of(subset), pattern, rng=rng)
                for _ in range(lighter):
                    cells = [(int(n), int(w)) for n, w in zip(*readout.counts.nonzero()) if w]
                    length, ones = rng.choice(cells)
                    side = "prefix" if 2 * ones >= length else "suffix"
                    readout = substitute_mass_reducing(
                        readout, side, length, rng.randrange(ones), ones=ones
                    )
                _outcome(lambda: decode(readout, book, len(subset)))
    # every book settled shared targets, some answered and some left standing
    assert len(shared) == 12 and sum(shared.values()) >= 1000, shared


def test_codec_rate_is_reported(mc_codebook):
    from masscodec.bhcode import codebook_rate

    assert len(mc_codebook.codewords) == len(mc_codebook.base)
    rate = codebook_rate((len(mc_codebook), mc_codebook.N))
    assert 0 < rate < 1


# ---------------------------------------------------------------------------
# the plain decode certifies its answer: one fragment read lighter


def _lighter_readout(book, trial: int, hbars):
    """A clean pool of seeded sources with one distinct nonzero cell read lighter."""
    rng = random.Random(trial)
    hbar = rng.choice(hbars)
    sources = rng.sample(book.base.strings, hbar)
    counts = book.pool_of(sources).counts.copy()
    length, ones = rng.choice(
        [(L, o) for L in range(1, len(counts)) for o in range(1, L + 1) if counts[L, o]]
    )
    counts[length, ones] -= 1
    counts[length, rng.randrange(ones)] += 1
    return frozenset(sources), CompositionMultiset.from_counts(counts)


def _assert_exact_or_typed(book, trials, hbars):
    """Every lighter readout decodes to its sources or raises a typed error;
    every 25th clean pool decodes to its sources."""
    for trial in trials:
        truth, readout = _lighter_readout(book, trial, hbars)
        outcome = _outcome(lambda: decode_mixture(readout, book))
        assert outcome == truth or isinstance(outcome, type), (trial, outcome)
        if trial % 25 == 0:
            assert decode_mixture(book.pool_of(truth), book) == truth


def test_lighter_readings_never_decode_to_a_wrong_set(b2_n16_codebook):
    # the prefix side alone fixed the answer: trials 422, 1174, 1365 and
    # 2981 decoded to wrong sets before the pool of the answer was checked
    _assert_exact_or_typed(encode_codebook(b2_n16_codebook), range(3000), (1, 2))


def test_lighter_readings_never_decode_to_a_wrong_set_at_h3(lookup_h3_book):
    # trial 1891 decoded to a wrong set before the certificate
    _assert_exact_or_typed(lookup_h3_book, range(2000), (1, 2, 3))


def test_the_certificate_reads_tables_of_any_shape(mc_codebook):
    import numpy as np

    sources = mc_codebook.base.strings[:2]
    clean = mc_codebook.pool_of(sources)
    # zero padding past the longest fragment is no difference
    padded = CompositionMultiset.from_counts(np.pad(clean.counts, (0, 3)))
    assert decode_mixture(padded, mc_codebook) == frozenset(sources)
    # a fragment longer than the codewords is one the answer does not explain
    longer = clean.add(Composition(mc_codebook.N + 1, 0))
    with pytest.raises(DecodeFailure):
        decode_mixture(longer, mc_codebook, hbar=2)


def test_pool_of_scatters_the_cached_cells_like_core_pool(mc_codebook, mc3_codebook):
    rng = random.Random(31)
    for book in (mc_codebook, mc3_codebook):
        strings = list(book.base.strings)
        for _ in range(40):
            sources = rng.sample(strings, rng.randint(0, 4))
            expected = pool([book.bits_for(s) for s in sources])
            got = book.pool_of([str(s) for s in sources])
            assert got == expected and got.total == expected.total
    first, second = mc_codebook.base.strings[:2]
    with pytest.raises(DuplicateString):
        mc_codebook.pool_of([first, second, first])
    stranger = BitString.from_int(0, mc_codebook.base.n)
    assert stranger not in mc_codebook.base.strings
    # an unknown source is named before a duplicate is looked for
    with pytest.raises(KeyError, match=f"{stranger} is not in the codebook"):
        mc_codebook.pool_of([first, first, stranger])

import hashlib
import itertools
import json
import operator
import random
from collections import Counter

import pytest

from masscodec import ecc
from masscodec.bhcode import BhCodebook, invert_mod2_sum
from masscodec.channel import Removal, erase, sample_erasure_pattern, substitute_mass_reducing
from masscodec.codec import Recovered, decode_mixture, reconstruct_redundancy_free
from masscodec.codec import encode as plain_encode
from masscodec.codec import plain_layout
from masscodec.core import BitString, bit_matrix, is_dyck, pool
from masscodec.errors import (
    AmbiguousSolution,
    CapabilityTooSmall,
    ConfigError,
    DecodeFailure,
    MasscodecError,
    SearchSpaceTooLarge,
    TooManyErasures,
)
from masscodec.linearcode import bundled_code, modp_code, shipped_code, single_parity
from masscodec.oracle import brute_decode


def _integral(s):
    """ecc.integral of the one string s, as one row."""
    return BitString(ecc.integral(bit_matrix([BitString(s)]))[0].tolist())


def test_integral_examples():
    assert str(_integral("110100")) == "100111"
    assert str(_integral("000000")) == "000000"
    assert ecc.derivative(_integral("110100")) == BitString("110100")


def _integral_referee(s):
    """The running XOR, one symbol at a time."""
    return BitString(itertools.accumulate(BitString(s).bits, operator.xor))


def _derivative_referee(w):
    bits = BitString(w).bits
    return BitString(map(operator.xor, bits, (0,) + bits))


def test_integral_and_derivative_match_their_referees():
    def outcome(fn, value):
        try:
            return fn(value).bits
        except ValueError as exc:
            return ValueError, str(exc)

    rng = random.Random(154)
    exhaustive = (
        form
        for n in range(1, 13)
        for values in itertools.product((0, 1), repeat=n)
        for form in (values, "".join(map(str, values)))
    )
    seeded = (tuple(rng.randrange(2) for _ in range(n)) for n in (68, 154, 255) for _ in range(50))
    for value in itertools.chain(exhaustive, seeded, ("", "012", [2], ())):
        assert outcome(_integral, value) == outcome(_integral_referee, value), value
        assert outcome(ecc.derivative, value) == outcome(_derivative_referee, value), value


def test_integral_of_many_rows_is_the_integral_of_each():
    rng = random.Random(7)
    strings = [BitString.random(30, rng) for _ in range(40)]
    rows = ecc.integral(bit_matrix(strings))
    assert [BitString(row.tolist()) for row in rows] == list(map(_integral_referee, strings))


def test_integral_is_linear_exhaustively():
    for n in (2, 4, 6, 8):
        for a_val, b_val in itertools.combinations(range(2**n), 2):
            a, b = BitString.from_int(a_val, n), BitString.from_int(b_val, n)
            assert _integral(a ^ b) == _integral(a) ^ _integral(b)


def test_integral_symbol_is_prefix_weight_parity():
    rng = random.Random(0)
    for _ in range(20):
        s = BitString.random(12, rng)
        iw = _integral(s)
        for i in range(1, 13):
            assert iw[i - 1] == s.prefix(i).weight() % 2


def _one_string_book(n):
    """The all-zero string of length n as an order-2 book of its own."""
    return BhCodebook.explicit([BitString.from_int(0, n)], 2)


def test_one_step_t0_is_plain_encoding():
    s = BitString("0111")
    book = ecc.one_step_codebook(BhCodebook.explicit([s], 2), 0)
    assert book.codewords[0].bits == plain_encode([s])[0].bits
    assert book.layout == plain_layout(4)


def test_one_step_t0_with_a_given_code_round_trips(b2_n16_codebook):
    from masscodec.linearcode import bundled_code

    code = bundled_code("bch_63_16")
    book = ecc.scheme_codebook(ecc.ONE_STEP, b2_n16_codebook, 0, code)
    assert book.code_data is code and book.layout.n == code.n  # the code was applied
    rng = random.Random(3)
    for hbar in (1, 2):
        for _ in range(5):
            sources = frozenset(rng.sample(list(b2_n16_codebook.strings), hbar))
            assert ecc.scheme_decode(book.pool_of(sources), book, hbar) == sources


def test_one_step_capability_gate():
    from masscodec.linearcode import bundled_code

    with pytest.raises(CapabilityTooSmall):
        # t=3 needs 3*(8+1)=27 erasures; the shipped code absorbs 22
        ecc.one_step_codebook(_one_string_book(16), 3, code=bundled_code("bch_63_16"))
    with pytest.raises(ConfigError):
        ecc.one_step_codebook(_one_string_book(9), 1)  # no shipped code for k=9


def test_two_step_capability_gate(b2_n16_codebook):
    with pytest.raises(CapabilityTooSmall):
        ecc.two_step_codebook(_one_string_book(16), 2, code_data=single_parity(16))
    with pytest.raises(ConfigError):  # the payload code must have k = 16
        ecc.two_step_codebook(b2_n16_codebook, 1, code_data=shipped_code(8, 1))
    with pytest.raises(ConfigError):  # the flag code must have k = root = 8
        ecc.two_step_codebook(b2_n16_codebook, 1, code_flag=shipped_code(5, 1))


def test_integral_capability_gate(b2_n16_codebook):
    with pytest.raises(CapabilityTooSmall):
        ecc.integral_codebook(_one_string_book(16), 4, code=single_parity(16))
    with pytest.raises(ConfigError):  # the code on I(s) must have k = 16
        ecc.integral_codebook(b2_n16_codebook, 2, shipped_code(8, 1))


def test_scheme_codewords_are_dyck(b2_n16_codebook):
    for t in (0, 1, 2):
        for build in (
            ecc.one_step_codebook,
            ecc.two_step_codebook,
            ecc.integral_codebook,
            ecc.one_step_modp_codebook,
        ):
            book = build(b2_n16_codebook, t)
            assert all(is_dyck(cw.bits) for cw in book.codewords)


def test_two_step_length_identity(b2_n16_codebook):
    for t in (1, 2):
        book = ecc.two_step_codebook(b2_n16_codebook, t)
        actual, formula = ecc.two_step_length_identity(book)
        assert actual == formula


def test_one_step_length_accounting(b2_n16_codebook):
    import math

    for t in (1, 2):
        book = ecc.one_step_codebook(b2_n16_codebook, t)
        lay = book.layout
        code = book.code_data
        slack = (lay.m - code.n) + 2
        bound = (
            16
            + math.ceil(t / 2) * (lay.root + 1) * math.log2(lay.m + 1)
            + 8.5 * lay.root
            + slack
        )
        assert lay.N <= bound


def _roundtrip(book, decode, hbar, t, trials, seed, placement="adversarial"):
    rng = random.Random(seed)
    sources = list(book.base.strings)
    for trial in range(trials):
        subset = tuple(sorted(rng.sample(sources, hbar)))
        words = [book.bits_for(s) for s in subset]
        clean = pool(words)
        pat = sample_erasure_pattern(words, t, rng, placement)
        erased = erase(clean, pat, rng=rng)
        got = decode(erased, book, hbar)
        assert got == frozenset(subset), (trial, subset)


@pytest.mark.parametrize("t", [1, 2])
def test_one_step_roundtrip(b2_n16_codebook, t):
    book = ecc.one_step_codebook(b2_n16_codebook, t)
    clean = book.pool_of(b2_n16_codebook.strings[:2])
    assert ecc.one_step_decode(clean, book, 2) == frozenset(
        b2_n16_codebook.strings[:2]
    )
    _roundtrip(book, ecc.one_step_decode, 2, t, 15, seed=t)
    _roundtrip(book, ecc.one_step_decode, 1, t, 10, seed=t + 10)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_two_step_roundtrip(b2_n16_codebook, t):
    book = ecc.two_step_codebook(b2_n16_codebook, t)
    _roundtrip(book, ecc.two_step_decode, 2, t, 15, seed=t)
    _roundtrip(book, ecc.two_step_decode, 1, t, 10, seed=t + 10)


@pytest.mark.parametrize("t", [1, 2])
def test_integral_roundtrip(b2_n16_codebook, t):
    book = ecc.integral_codebook(b2_n16_codebook, t)
    assert book.code_data.erasure_capability == t // 2  # the factor-two saving
    _roundtrip(book, ecc.integral_decode, 2, t, 15, seed=t)
    _roundtrip(book, ecc.integral_decode, 1, t, 10, seed=t + 10)


@pytest.mark.parametrize("t", [1, 2])
def test_modp_roundtrip(b2_n16_codebook, t):
    book = ecc.one_step_modp_codebook(b2_n16_codebook, t)
    _roundtrip(book, ecc.one_step_modp_decode, 2, t, 15, seed=t)


def test_the_modp_scheme_refuses_what_it_cannot_decode(b2_n16_codebook):
    with pytest.raises(CapabilityTooSmall, match="mod-p capability 2 < t = 3"):
        ecc.one_step_modp_codebook(b2_n16_codebook, 3)
    with pytest.raises(ConfigError, match="mod-p code covers 10 symbols, need 20"):
        ecc.one_step_modp_codebook(b2_n16_codebook, 1, modp_code(3, 10))
    book = ecc.one_step_modp_codebook(b2_n16_codebook, 1)
    assert book.code_data.p == 3
    with pytest.raises(ConfigError, match="mixture order 3 needs p > hbar, have p=3"):
        ecc.one_step_modp_decode(book.pool_of(b2_n16_codebook.strings[:3]), book, 3)
    # swap one pair of z: the word stays Dyck, but z now carries another
    # syndrome, which fills the payload sum erased on both sides with 2
    lay = book.layout
    bits = list(book.bits_for(b2_n16_codebook.strings[0]).bits)
    at = lay.z_start + 2 * 7
    bits[at : at + 2] = bits[at + 1], bits[at]
    word, cut = BitString(bits), 32
    erased = erase(pool([word]), [
        Removal("prefix", cut, ones=word.prefix(cut).weight()),
        Removal("suffix", lay.N - cut, ones=word.suffix(lay.N - cut).weight()),
    ])
    with pytest.raises(DecodeFailure, match="recovered integer sums exceed the mixture order"):
        ecc.one_step_modp_decode(erased, book, 1)


def test_two_step_flag_segment_erasures_recover(b2_n16_codebook):
    # wipe fragments whose sum positions sit inside the z segment only
    book = ecc.two_step_codebook(b2_n16_codebook, 1)
    lay = book.layout
    subset = b2_n16_codebook.strings[2:4]
    words = [book.bits_for(s) for s in subset]
    clean = pool(words)
    pos = lay.z_start + 1  # 1-based position of the first z bit
    ones = words[0].prefix(pos).weight()
    erased = erase(clean, [Removal("prefix", pos, ones=ones)])
    got = ecc.two_step_decode(erased, book, 2)
    assert got == frozenset(subset)


def test_two_step_boundary_overload_is_flagged(b2_n16_codebook):
    # t+1 aligned removals put two erasures into the flag code (capability 1)
    book = ecc.two_step_codebook(b2_n16_codebook, 1)
    lay = book.layout
    subset = b2_n16_codebook.strings[:2]
    words = [book.bits_for(s) for s in subset]
    clean = pool(words)
    a = lay.r_start + 1  # sum positions a, a+1 both inside the flag segment
    pre_ones = words[0].prefix(a).weight()
    suf_ones = words[0].suffix(lay.N - a).weight()
    erased = erase(
        clean,
        [Removal("prefix", a, ones=pre_ones), Removal("suffix", lay.N - a, ones=suf_ones)],
    )
    with pytest.raises((TooManyErasures, DecodeFailure)):
        ecc.two_step_decode(erased, book, 2)


def test_two_step_substitution_mode(b2_n16_codebook):
    from masscodec.channel import substitute_mass_reducing

    book = ecc.two_step_codebook(b2_n16_codebook, 1, substitutions=True)
    assert book.code_data.d >= 5 and book.code_flag.d >= 5
    rng = random.Random(7)
    hits = 0
    for _ in range(12):
        subset = tuple(sorted(rng.sample(list(b2_n16_codebook.strings), 2)))
        words = [book.bits_for(s) for s in subset]
        clean = pool(words)
        i = rng.randrange(2, book.N // 2)
        w = words[0].prefix(i).weight()
        if w == 0:
            continue
        corrupted = substitute_mass_reducing(clean, "prefix", i, w - 1, ones=w)
        assert ecc.two_step_decode(corrupted, book, 2, substitutions=True) == frozenset(
            subset
        )
        hits += 1
    assert hits >= 8


def test_two_step_substitution_mode_honours_budget(b2_n16_codebook):
    # radius 2 on the n = 18 flag code needs 1 + 18 cached patterns plus as
    # many probes, 38 in all; the n = 26 payload code needs 54, and the
    # hbar = 1 lookup 21 half-subsets
    book = ecc.two_step_codebook(b2_n16_codebook, 1, substitutions=True)
    assert (book.code_flag.n, book.code_data.n) == (18, 26)
    source = b2_n16_codebook.strings[4]
    clean = book.pool_of([source])
    for budget in (30, 53):
        with pytest.raises(SearchSpaceTooLarge):
            ecc.two_step_decode(clean, book, 1, budget, substitutions=True)
    assert ecc.two_step_decode(clean, book, 1, 54, substitutions=True) == {source}


def _read_lighter(book, rng, hbar, lighter):
    """A seeded draw of hbar sources and their readout with ``lighter`` nonempty
    fragments read lighter."""
    subset = frozenset(rng.sample(book.base.strings, hbar))
    words = [book.bits_for(s) for s in sorted(subset)]
    fragments = [
        (side, length, ones)
        for w in words
        for side in ("prefix", "suffix")
        for length in range(1, book.N + 1)
        for ones in [getattr(w, side)(length).weight()]
        if ones
    ]
    readout = pool(words)
    for side, length, ones in rng.sample(fragments, lighter):
        readout = substitute_mass_reducing(readout, side, length, rng.randrange(ones), ones=ones)
    return subset, readout


def _substitution_outcome(book, readout, subset, hbar):
    try:
        got = ecc.two_step_decode(readout, book, hbar, substitutions=True)
    except MasscodecError as exc:
        return f"{type(exc).__name__}: {str(exc).split(':')[0]}"
    return "exact" if got == subset else "wrong"


def test_substitution_mode_counts_a_target_that_no_subset_has_as_its_side_failing(
    b2_n16_codebook,
):
    # past t, one side's target can match no subset while the other side
    # decodes exactly; that side's NoSolution used to end the whole decode, in
    # 25 of these readouts, 24 of which decode exactly now
    book = ecc.two_step_codebook(b2_n16_codebook, 1, substitutions=True)
    rng = random.Random(3)
    outcomes = Counter()
    for _ in range(1500):
        hbar = rng.choice((1, 2))
        subset, readout = _read_lighter(book, rng, hbar, rng.randint(2, 6))
        outcomes[_substitution_outcome(book, readout, subset, hbar)] += 1
    assert outcomes == {
        "exact": 1496,
        "DecodeFailure: prefix and suffix reconstructions disagree": 3,
        "DecodeFailure: both sides undecodable": 1,
    }


def test_two_step_beyond_bch_31_21_uses_shortened_bch_63_16(b2_n16_codebook):
    """Substitutions at t = 2 and erasures at t = 3 need capability 4 and 3.

    Only bch_63_16 (k = 16, d = 23) has it, so the k = 8 flag code is its
    shortening.
    """
    from masscodec.channel import substitute_mass_reducing

    book = ecc.two_step_codebook(b2_n16_codebook, 2, substitutions=True)
    assert (book.code_flag.k, book.code_flag.d) == (8, 23)
    rng = random.Random(11)
    for _ in range(10):
        subset = tuple(sorted(rng.sample(list(b2_n16_codebook.strings), 2)))
        words = [book.bits_for(s) for s in subset]
        fragments = {
            (side, length): (w.prefix if side == "prefix" else w.suffix)(length).weight()
            for w in words
            for length in range(1, book.N + 1)
            for side in ("prefix", "suffix")
        }
        corrupted = pool(words)
        for key in rng.sample(sorted(k for k, ones in fragments.items() if ones), 2):
            ones = fragments[key]
            corrupted = substitute_mass_reducing(
                corrupted, *key, rng.randrange(ones), ones=ones
            )
        got = ecc.two_step_decode(corrupted, book, 2, substitutions=True)
        assert got == frozenset(subset)

    book = ecc.two_step_codebook(b2_n16_codebook, 3)
    assert (book.code_flag.k, book.code_flag.d) == (8, 23)
    _roundtrip(book, ecc.two_step_decode, 2, 3, 10, seed=3)


def test_integral_survives_payload_start_erasure(b2_n16_codebook):
    # A prefix of length L and the suffix of length N-L of one word cut at
    # the same place, so both sides lose the cumulative count at L.  At
    # L = lead+1 that count carries the first payload symbol I_1, which must
    # stay one erased symbol of the code rather than drop out of its checks.
    # Swept: every singleton at every cut, and every pair at the payload start.
    book = ecc.integral_codebook(b2_n16_codebook, 2)
    lay = book.layout
    strings = b2_n16_codebook.strings
    cases = [((s,), s, cut) for s in strings for cut in range(1, lay.N)]
    cases += [
        (pair, s, lay.lead + 1)
        for pair in itertools.combinations(strings, 2)
        for s in pair
    ]
    pools = {}
    failures = []
    for subset, source, cut in cases:
        word = book.bits_for(source)
        if subset not in pools:
            pools[subset] = pool([book.bits_for(s) for s in subset])
        erased = erase(
            pools[subset],
            [
                Removal("prefix", cut, ones=word.prefix(cut).weight()),
                Removal("suffix", lay.N - cut, ones=word.suffix(lay.N - cut).weight()),
            ],
        )
        try:
            got = ecc.integral_decode(erased, book, len(subset))
        except MasscodecError as exc:
            got = exc
        if got != frozenset(subset):
            failures.append((len(subset), cut, str(source), repr(got)))
    assert len(cases) == 20 * (lay.N - 1) + 190 * 2
    assert not failures, (len(failures), failures[:5])


def test_scheme_front_door(b2_n16_codebook, b2_codebook):
    book = ecc.scheme_codebook("integral", b2_n16_codebook, 2)
    clean = book.pool_of(b2_n16_codebook.strings[:1])
    assert ecc.scheme_decode(clean, book, 1) == frozenset(
        b2_n16_codebook.strings[:1]
    )
    plain = ecc.scheme_codebook("plain", b2_codebook, 0)
    clean = plain.pool_of(b2_codebook.strings[3:5])
    assert ecc.scheme_decode(clean, plain, 2) == frozenset(b2_codebook.strings[3:5])
    with pytest.raises(ConfigError):
        ecc.scheme_codebook("nope", b2_n16_codebook, 1)


def test_scheme_refuses_settings_it_does_not_take(b2_n16_codebook):
    flag = shipped_code(8, 1)
    for scheme in (ecc.ONE_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP):
        with pytest.raises(ConfigError):
            ecc.scheme_codebook(scheme, b2_n16_codebook, 1, None, flag)
    with pytest.raises(ConfigError):  # a binary code where a Z_p code belongs
        ecc.scheme_codebook(ecc.ONE_STEP_MODP, b2_n16_codebook, 1, shipped_code(16, 1))


def test_plain_scheme_refuses_protection_settings(b2_codebook):
    for t, code_data, code_flag in ((3, None, None), (0, single_parity(4), None),
                                    (0, None, single_parity(4))):
        with pytest.raises(ConfigError):
            ecc.scheme_codebook("plain", b2_codebook, t, code_data, code_flag)


def test_schemes_refuse_a_negative_t(b2_n16_codebook):
    for scheme in (ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP):
        with pytest.raises(ConfigError):
            ecc.scheme_codebook(scheme, b2_n16_codebook, -1)


def test_the_raw_scheme_is_a_book_of_its_dyck_strings():
    base = BhCodebook.explicit(["110100", "101010", "110010", "111000"], 2)
    book = ecc.scheme_codebook("raw", base, 0)
    assert [cw.bits for cw in book.codewords] == list(base.strings)
    assert book.layout.to_json_obj() == {"N": 6}
    pair = base.strings[1:3]
    assert ecc.scheme_decode(book.pool_of(pair), book, 2) == frozenset(pair)
    for t, code_data in ((1, None), (0, single_parity(4))):
        with pytest.raises(ConfigError, match="the raw scheme takes no t, code or code_flag"):
            ecc.scheme_codebook("raw", base, t, code_data)
    with pytest.raises(ConfigError, match="raw codebooks must consist of Dyck strings"):
        ecc.scheme_codebook("raw", BhCodebook.explicit(["110100", "011010"], 2), 0)


def test_every_scheme_settles_a_shared_mod2_sum_by_the_readout():
    # B_h, yet every pair of this base shares its mod-2 sum with the other two
    # strings: each decoder's answer step asks the readout which pair it holds
    base = BhCodebook.explicit(["00001", "00010", "00100", "00111"], 2)
    pairs = list(itertools.combinations(base.strings, 2))
    assert len({a ^ b for a, b in pairs}) == 3
    with pytest.raises(AmbiguousSolution, match="reduce to the target mod 2"):
        invert_mod2_sum(base, pairs[0][0] ^ pairs[0][1], 2)
    for scheme, t in ((ecc.PLAIN, 0), (ecc.ONE_STEP, 0), (ecc.TWO_STEP, 1), (ecc.INTEGRAL, 2),
                      (ecc.ONE_STEP_MODP, 1)):
        book = ecc.scheme_codebook(scheme, base, t)
        words = {s: book.bits_for(s) for s in base.strings}
        origin = {bits: s for s, bits in words.items()}
        for pair, seed in itertools.product(pairs, range(4)):
            rng = random.Random(seed)
            clean = book.pool_of(pair)
            for lost, placement in itertools.product(range(t + 1), ("uniform", "adversarial")):
                pattern = sample_erasure_pattern([words[s] for s in pair], lost, rng, placement)
                erased = erase(clean, pattern, rng=rng)
                (explained,) = brute_decode(erased, list(words.values()), 2, removals=lost)
                got = ecc.scheme_decode(erased, book, 2)
                assert got == frozenset(pair) == {origin[w] for w in explained}, (scheme, lost)


def test_no_decoder_answers_a_wrong_set_on_a_base_that_shares_mod2_sums():
    # every scheme and the plain codec, every subset, 0-4 losses and 0-2
    # lighter readings: an answer is the truth, and a pure loss within t is
    # always decoded
    base = BhCodebook.explicit(["00001", "00010", "00100", "00111"], 2)
    cases = [
        (t, ecc.scheme_codebook(scheme, base, t), ecc.scheme_decode)
        for scheme, t in ((ecc.ONE_STEP, 0), (ecc.TWO_STEP, 1), (ecc.INTEGRAL, 2),
                          (ecc.ONE_STEP_MODP, 1))
    ]

    def substitutions(readout, book, hbar):
        return ecc.two_step_decode(readout, book, hbar, substitutions=True)

    def plain(readout, book, hbar):
        result = reconstruct_redundancy_free(readout, book.N, hbar, book)
        return result.strings if isinstance(result, Recovered) else None

    cases += [(1, ecc.two_step_codebook(base, 1, substitutions=True), substitutions),
              (0, ecc.scheme_codebook(ecc.PLAIN, base, 0), plain)]
    subsets = [sub for k in (1, 2) for sub in itertools.combinations(base.strings, k)]
    outcomes = Counter()
    for (t, book, decode), subset, seed in itertools.product(cases, subsets, range(3)):
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
            try:
                got = decode(readout, book, len(subset))
            except MasscodecError:
                got = MasscodecError
            assert got in (frozenset(subset), None, MasscodecError), (book.scheme, subset)
            if lost <= t and not lighter and decode is not plain:
                assert got == frozenset(subset), (book.scheme, subset, lost)
            outcomes[got == frozenset(subset)] += 1
    # 2243 before the merge certified a complete sum: at clean size its pool now
    # has to be the readout, which 12 of the plain book's lighter readouts fail
    assert outcomes[True] == 2231, outcomes

# sha256 of each book's codeword bits and layout JSON on bch_255_cols20,
# recorded before the schemes shared their code choice, framing and payload
# decode; keyed by (scheme, t, bundled code or "substitutions")
BOOK_DIGESTS = {
    ("plain", 0, None):
        "a1da128ee3674ffec39750020addd65cf895e95bd9798b0ef2ba167255ab95ac",
    ("one-step", 0, "bch_63_16"):
        "0cc534068dc2c45b5866cef12e86b71a8260a60a0fba9419d7b2a679157dc59a",
    ("one-step", 1, None):
        "0cc534068dc2c45b5866cef12e86b71a8260a60a0fba9419d7b2a679157dc59a",
    ("one-step", 2, None):
        "0cc534068dc2c45b5866cef12e86b71a8260a60a0fba9419d7b2a679157dc59a",
    ("two-step", 1, None):
        "2ee564dcf737f406555765bc7767095d775203efbc3f608722a3cf38c579119d",
    ("two-step", 2, None):
        "eb61785a5d077e5add7f4d6c8e86b0a1039736562cbe4d198456b33c1d396980",
    ("two-step", 3, None):
        "fb61894f466c979c6a3378fbee2ebb9e7e6c38add8a67a9584345c00aaa87825",
    ("two-step", 1, "substitutions"):
        "a8cb29c7b6ed364a7898c2d3dcca3f411c945c4a9579d96378e746d337d8664f",
    ("two-step", 2, "substitutions"):
        "fb61894f466c979c6a3378fbee2ebb9e7e6c38add8a67a9584345c00aaa87825",
    ("integral", 0, None):
        "407d72d158107e25848c122ce24ac6e73674a8f0eecd765d3a4d124af7d6efd0",
    ("integral", 1, None):
        "407d72d158107e25848c122ce24ac6e73674a8f0eecd765d3a4d124af7d6efd0",
    ("integral", 2, None):
        "b2a5217f935a16b11999175f46349aa733469a75bfc94027770c1638e4d3ac85",
    ("integral", 3, None):
        "b2a5217f935a16b11999175f46349aa733469a75bfc94027770c1638e4d3ac85",
    ("integral", 5, None):
        "15c110c75591505ea4487cf7a8d51f442837481abebfa712676b0acd8f3a50de",
    ("one-step-modp", 1, None):
        "5ebf4a3412cd65f56e2340d3c856fe2c8260ef0d5dda0a4d2a77061de199872f",
    ("one-step-modp", 2, None):
        "5ebf4a3412cd65f56e2340d3c856fe2c8260ef0d5dda0a4d2a77061de199872f",
}


def _book_digest(book) -> str:
    digest = hashlib.sha256()
    for cw in book.codewords:
        digest.update(str(cw.bits).encode())
        digest.update(json.dumps(book.layout.to_json_obj(), sort_keys=True).encode())
    return digest.hexdigest()


def test_scheme_books_are_pinned(b2_n16_codebook):
    got = {}
    for scheme, t, variant in BOOK_DIGESTS:
        if variant == "substitutions":
            book = ecc.two_step_codebook(b2_n16_codebook, t, substitutions=True)
        else:
            code = None if variant is None else bundled_code(variant)
            book = ecc.scheme_codebook(scheme, b2_n16_codebook, t, code)
        got[scheme, t, variant] = _book_digest(book)
    assert got == BOOK_DIGESTS


# sha256 of every sample_erasure_pattern draw below, one line per pattern
SAMPLER_DIGEST = "8849ee53637336131f1486966a6a7c11acc8f5532a57a773ac9f1dbe7b788dda"


def test_erasure_sampler_draws_are_pinned(b2_n16_codebook):
    # the draws fix the experiment rows and the benchmark's inputs
    digest = hashlib.sha256()
    for scheme in (ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP):
        book = ecc.scheme_codebook(scheme, b2_n16_codebook, 2)
        for placement, t, hbar in itertools.product(("uniform", "adversarial"), (1, 2, 3), (1, 2)):
            for seed in range(200):
                rng = random.Random(seed)
                words = [book.bits_for(s) for s in rng.sample(b2_n16_codebook.strings, hbar)]
                pattern = sample_erasure_pattern(words, t, rng, placement)
                line = "".join(f"{r.side} {r.length} {r.count} {r.ones};" for r in pattern.removals)
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SAMPLER_DIGEST


# sha256 of the outcome of every decode below, one line per decode: the
# sorted source strings, or "Class: message" for a typed error; recorded
# before the balanced payload was read by one mod-2 rule
DECODE_DIGEST = "6725afa39f97107aa49246cf8fdd450843da0f16b73d749929f5d3b7eeeca2a6"


def _decode_outcome_cases(base):
    """(label, book, decode) for every scheme on ``base``."""
    yield from (
        (scheme, ecc.scheme_codebook(scheme, base, 2), ecc.scheme_decode)
        for scheme in (ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP)
    )

    def substitutions(pool_, book, hbar):
        return ecc.two_step_decode(pool_, book, hbar, substitutions=True)

    yield "substitutions", ecc.two_step_codebook(base, 1, substitutions=True), substitutions
    yield "plain", ecc.scheme_codebook("plain", base, 0), decode_mixture


def test_decode_outcomes_are_pinned(b2_n16_codebook):
    # lost fragments 0-4 run past every scheme's t, so this pins failures too
    digest = hashlib.sha256()
    decodes = 0
    for label, book, decode in _decode_outcome_cases(b2_n16_codebook):
        for hbar, seed in itertools.product((1, 2), range(5)):
            rng = random.Random(seed)
            subset = frozenset(rng.sample(b2_n16_codebook.strings, hbar))
            words = [book.bits_for(s) for s in sorted(subset)]
            clean = pool(words)
            readings = []
            for placement, lost in itertools.product(("uniform", "adversarial"), range(5)):
                pattern = sample_erasure_pattern(words, lost, rng, placement)
                readings.append(erase(clean, pattern, rng=rng))
            side, length, ones = rng.choice([
                (side, length, ones)
                for side in ("prefix", "suffix")
                for length in range(1, book.N + 1)
                for ones in [getattr(words[0], side)(length).weight()]
                if ones
            ])
            readings.append(
                substitute_mass_reducing(clean, side, length, rng.randrange(ones), ones=ones)
            )
            for reading in readings:
                try:
                    got = decode(reading, book, hbar)
                except MasscodecError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                else:
                    assert got == subset, (label, hbar, seed)
                    outcome = " ".join(sorted(map(str, got)))
                digest.update(f"{label} {hbar} {seed} {outcome}\n".encode())
                decodes += 1
    assert decodes == 6 * 2 * 5 * 11
    assert digest.hexdigest() == DECODE_DIGEST

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from masscodec.channel import Removal, erase, merge_partials, substitute_mass_reducing
from masscodec.codec import explains, separate_pool
from masscodec.core import (
    MAX_FRAGMENTS,
    BitString,
    Composition,
    CompositionMultiset,
    PartialSumString,
    all_dyck_strings,
    composition,
    fragment_cells,
    full_multiset,
    is_dyck,
    pool,
    prefix_multiset,
    real_sum,
    suffix_multiset,
)
from masscodec.errors import Conflict, DuplicateString, LengthMismatch, OddLength

bits_st = st.text(alphabet="01", min_size=1, max_size=24)


def test_composition_basics():
    assert composition("001") == Composition(2, 1)
    assert composition("1") == Composition(0, 1)
    assert composition("01101") == Composition(2, 3)
    with pytest.raises(ValueError):
        composition("")


def test_composition_text_form():
    assert str(composition("001")) == "0^21"
    assert str(Composition(0, 2)) == "1^2"
    assert str(Composition(1, 1)) == "01"
    assert str(Composition(3, 0)) == "0^3"
    assert Composition.parse("0^2 1^3") == Composition(2, 3)
    assert Composition.parse("01^2") == Composition(1, 2)
    assert Composition.parse("0") == Composition(1, 0)


def _parse_referee(text: str) -> Composition:
    """The character-walking parser that Composition.parse replaced."""
    text = text.replace(" ", "")

    def parse_ones(rest: str):
        if not rest:
            return 0
        if rest[0] != "1":
            return None
        if len(rest) == 1:
            return 1
        if rest[1] != "^" or not rest[2:].isdigit():
            return None
        return int(rest[2:])

    if text.startswith("0"):
        if text[1:2] == "^":
            digits = 2
            while digits < len(text) and text[digits].isdigit():
                digits += 1
            if digits == 2:
                raise ValueError(f"bad exponent in {text!r}")
            for end in range(3, digits + 1):
                ones = parse_ones(text[end:])
                if ones is not None:
                    return Composition(int(text[2:end]), ones)
            raise ValueError(f"bad composition text {text!r}")
        ones = parse_ones(text[1:])
        if ones is None:
            raise ValueError(f"bad composition text {text!r}")
        return Composition(1, ones)
    ones = parse_ones(text)
    if ones is None or ones == 0:
        raise ValueError(f"bad composition text {text!r}")
    return Composition(0, ones)


def test_composition_parse_matches_the_referee_on_every_short_text():
    def outcome(parse, text):
        try:
            return parse(text)
        except ValueError:
            return ValueError

    texts = [
        "".join(chars)
        for length in range(7)
        for chars in itertools.product("01^23 ", repeat=length)
    ]
    assert len(texts) == 55_987
    mismatches = [
        text for text in texts
        if outcome(Composition.parse, text) != outcome(_parse_referee, text)
    ]
    assert not mismatches, mismatches[:10]
    parsed = sum(outcome(Composition.parse, text) is not ValueError for text in texts)
    assert 0 < parsed < len(texts)


def test_prefix_suffix_multisets_worked_example():
    s = "01101"
    assert prefix_multiset(s) == CompositionMultiset.parse("{0, 01, 01^2, 0^21^2, 0^21^3}")
    assert suffix_multiset(s) == CompositionMultiset.parse("{1, 01, 01^2, 01^3, 0^21^3}")
    merged = prefix_multiset(s).union(suffix_multiset(s))
    assert full_multiset(s) == merged
    assert full_multiset(s).total == 10


def test_small_multisets():
    assert prefix_multiset("1") == CompositionMultiset.parse("{1}")
    assert suffix_multiset("0") == CompositionMultiset.parse("{0}")
    assert prefix_multiset("001") == CompositionMultiset.parse("{0, 0^2, 0^21}")
    assert suffix_multiset("001") == CompositionMultiset.parse("{1, 01, 0^21}")
    assert full_multiset("1") == CompositionMultiset.parse("{1, 1}")
    assert full_multiset("001") == CompositionMultiset.parse("{0, 0^2, 0^21, 1, 01, 0^21}")


def test_pool_worked_example():
    # 24 fragments of the two-string mixture used throughout
    p = pool(["110100", "101010"])
    expected = CompositionMultiset.parse(
        "{1,1, 01, 1^2, 01^2, 01^2, 0^21^2, 01^3, 0^21^3, 0^21^3, 0^31^3, 0^31^3,"
        " 0^31^3, 0^31^3, 0^31^2, 0^31^2, 0^21^2, 0^31, 0^21, 0^21, 01, 0^2, 0, 0}"
    )
    assert p == expected
    assert p.total == 24


def test_pool_errors_and_edge_cases():
    assert pool(["110100"]) == full_multiset("110100")
    assert pool(["110100", "101010", "110010"]).total == 36
    with pytest.raises(DuplicateString):
        pool(["01", "01"])
    with pytest.raises(LengthMismatch):
        pool(["01", "011"])


def test_is_dyck():
    assert is_dyck("110100")
    assert is_dyck("10")
    assert not is_dyck("01")
    assert all(is_dyck(s) for s in ("110100", "101010", "110010"))
    with pytest.raises(OddLength):
        is_dyck("011")


def test_all_dyck_strings_are_catalan_counted():
    assert len(all_dyck_strings(2)) == 1
    assert len(all_dyck_strings(4)) == 2
    assert len(all_dyck_strings(6)) == 5
    assert len(all_dyck_strings(18)) == 4862


def test_all_dyck_strings_match_the_exhaustive_filter():
    """The referee tests every one of the 2^n strings, in ascending order."""
    for n in range(2, 15, 2):
        want = tuple(s for s in (BitString.from_int(v, n) for v in range(2**n)) if is_dyck(s))
        assert all_dyck_strings(n) == want, n
    for n in (1, 3, 13):
        with pytest.raises(OddLength, match=f"no Dyck strings of odd length {n}"):
            all_dyck_strings(n)
    with pytest.raises(ValueError, match="empty bit string"):
        all_dyck_strings(0)


def test_dyck_strings_that_agree_with_known_symbols_match_the_filter():
    rng = random.Random(22)
    for n in range(2, 15, 2):
        every = all_dyck_strings(n)
        assert all_dyck_strings(n, [None] * n) == every
        for _ in range(20):
            known = [rng.choice((None, None, 0, 1)) for _ in range(n)]
            want = tuple(
                s for s in every if all(k is None or k == b for k, b in zip(known, s.bits))
            )
            assert all_dyck_strings(n, known) == want, (n, known)


def test_multiset_canonical_serialization_round_trip():
    p = pool(["110100", "101010"])
    obj = p.to_json_obj()
    lengths = [e["zeros"] + e["ones"] for e in obj]
    assert lengths == sorted(lengths)
    assert CompositionMultiset.from_json_obj(obj) == p


def test_dense_count_table():
    import numpy as np

    p = pool(["110100", "101010"])
    assert p.counts.shape == (7, 7)
    assert (p.counts[3, 1], p.counts[3, 2]) == (2, 2)  # 100, 010 and 110, 101
    with pytest.raises(ValueError):
        p.counts[3, 2] = 0  # the table is read-only
    padded = np.zeros((10, 10), dtype=np.int64)
    padded[:7, :7] = p.counts
    wider = CompositionMultiset.from_counts(padded)
    assert wider == p and hash(wider) == hash(p)
    assert explains(wider, p) and explains(p, wider)
    with pytest.raises(ValueError):
        CompositionMultiset.from_counts(-padded)
    with pytest.raises(ValueError):
        CompositionMultiset.from_counts(padded[:, :5])


def test_from_counts_refuses_cells_the_class_holds_zero():
    # a length-0 fragment, or more ones than symbols, is no fragment
    for cell in ((0, 0), (0, 3), (2, 3), (5, 6)):
        counts = pool(["110100"]).counts.copy()
        counts[cell] = 1
        with pytest.raises(ValueError, match="length 0 or with more ones"):
            CompositionMultiset.from_counts(counts)
    # the rest of the lower triangle is where fragments live
    counts = pool(["110100"]).counts.copy()
    counts[6, :] += 1
    assert CompositionMultiset.from_counts(counts).total == 12 + 7


def test_multiset_pickles_and_copies():
    import copy
    import pickle

    p = pool(["110100", "101010"])
    assert p.memo("key", lambda: "original") == "original"
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and clone.total == p.total
        with pytest.raises(ValueError):
            clone.counts[3, 2] = 0  # still read-only
        assert clone.memo("key", lambda: "rebuilt") == "rebuilt"  # the memo starts empty
        with pytest.raises(AttributeError):
            clone.extra = 1


def test_remove_refuses_a_negative_multiplicity():
    p = pool(["1100"])
    for change in (p.remove, p.add):
        with pytest.raises(ValueError, match="negative multiplicity"):
            change(Composition(1, 1), -1)
    assert p.remove(Composition(1, 1), 0) == p
    assert p.remove(Composition(0, 2)).total == 7


def test_multiplicities_are_integers_within_the_limit():
    import numpy as np

    comp = Composition(1, 1)
    for bad in (1.5, 1.0, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match="multiplicity must be an integer"):
            CompositionMultiset({comp: bad})
        with pytest.raises(ValueError, match="multiplicity must be an integer"):
            pool(["1010"]).remove(comp, bad)
    for floats in (np.array([[0, 0], [1.7, 0.2]]), np.zeros((3, 3)), np.array([[0j]])):
        with pytest.raises(ValueError, match="counts must be integers"):
            CompositionMultiset.from_counts(floats)
    # ints, bools and numpy integers are counted as they are
    assert CompositionMultiset({comp: True, Composition(1, 0): np.int64(2)}).total == 3
    assert CompositionMultiset({comp: MAX_FRAGMENTS}).count(comp) == MAX_FRAGMENTS
    # a total past 2**31 - 1 is refused by every constructor that takes outside counts
    over = (
        lambda: CompositionMultiset({comp: 2**70}),
        lambda: CompositionMultiset({comp: 2**30, Composition(2, 0): 2**30}),
        lambda: CompositionMultiset.from_json_obj([{"zeros": 1, "ones": 1, "mult": 2**31}]),
        lambda: CompositionMultiset.from_counts(np.array([[0, 0], [2**31, 0]])),
        lambda: CompositionMultiset.from_counts(np.array([[0, 0], [2**64 - 1, 0]], np.uint64)),
        lambda: CompositionMultiset.from_counts(np.tril(np.full((3, 3), 2**30)) * [[0], [1], [1]]),
    )
    for build in over:
        with pytest.raises(ValueError, match="exceed the limit of 2147483647"):
            build()
    # and so is a union or an addition that would pass it
    half = CompositionMultiset({comp: 2**30})
    for grow in (lambda: half.union(half), lambda: half.add(comp, 2**30)):
        with pytest.raises(ValueError, match="exceed the limit"):
            grow()
    assert half.add(comp, 2**30 - 1).total == MAX_FRAGMENTS


def test_every_producer_builds_one_read_only_int32_table(mc_codebook):
    """Each producer's table is int32 and read-only, erase and substitution leave
    their input as it was, and equal multisets hash equal whatever built them."""
    import pickle

    import numpy as np

    book = mc_codebook
    sources = book.base.strings[:2]
    words = [book.bits_for(s) for s in sources]
    clean = pool(words)
    before = clean.counts.copy()
    length = book.N // 2
    ones = words[0].prefix(length).weight()
    victim = Composition(length - ones, ones)
    lighter = Composition(length - ones + 1, ones - 1)
    erased = erase(clean, [Removal("prefix", length, ones=ones)])
    substituted = substitute_mass_reducing(clean, "prefix", length, ones - 1, ones=ones)
    produced = {
        "pool": clean,
        "pool_of": book.pool_of(sources),
        "full_multiset": full_multiset(words[0]),
        "prefix_multiset": prefix_multiset(words[0]),
        "suffix_multiset": suffix_multiset(words[0]),
        "mapping": CompositionMultiset(dict(clean.entries())),
        "parse": CompositionMultiset.parse("{0, 1, 01, 0^2 1^3, 0^2 1^3}"),
        "union": full_multiset(words[0]).union(full_multiset(words[1])),
        "remove": clean.remove(victim),
        "add": clean.remove(victim).add(victim),
        "erase": erased,
        "substitute_mass_reducing": substituted,
        "json": CompositionMultiset.from_json_obj(clean.to_json_obj()),
        "pickle": pickle.loads(pickle.dumps(clean)),
        "bool": CompositionMultiset.from_counts(clean.counts > 0),
    }
    for dtype in ("int64", "int32", "uint8"):
        produced[dtype] = CompositionMultiset.from_counts(clean.counts.astype(dtype))
    produced["prefix side"], produced["suffix side"] = separate_pool(clean, book.N, 2)
    for name, made in produced.items():
        assert made.counts.dtype == np.int32 and not made.counts.flags.writeable, name
        # the same multiset rebuilt from its entries hashes alike
        twin = CompositionMultiset(dict(made.entries()))
        assert made == twin and hash(made) == hash(twin), name
    assert np.array_equal(clean.counts, before)
    for name in ("pool_of", "mapping", "union", "add", "json", "pickle", "int64", "int32",
                 "uint8"):
        assert produced[name] == clean and hash(produced[name]) == hash(clean), name
    assert produced["prefix side"].union(produced["suffix side"]) == clean
    assert erased == clean.remove(victim) and hash(erased) == hash(clean.remove(victim))
    assert substituted == clean.remove(victim).add(lighter)
    assert produced["bool"] == CompositionMultiset({comp: 1 for comp, _ in clean.entries()})


@given(bits_st)
def test_full_multiset_size_and_per_length_counts(text):
    s = BitString(text)
    m = full_multiset(s)
    assert m.total == 2 * len(s)
    for i in range(1, len(s) + 1):
        assert m.counts[i].sum() == 2


@given(bits_st)
def test_prefix_suffix_complementarity(text):
    s = BitString(text)
    total = composition(s)
    for i in range(1, len(s)):
        pre = composition(s.prefix(i))
        suf = composition(s.suffix(len(s) - i))
        assert pre.zeros + suf.zeros == total.zeros
        assert pre.ones + suf.ones == total.ones


@given(st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=5, unique=True))
def test_pool_is_order_free(values):
    strings = [BitString.from_int(v, 10) for v in values]
    shuffled = list(strings)
    random.Random(0).shuffle(shuffled)
    assert pool(strings) == pool(shuffled)
    # associativity: pooling in two stages gives the same multiset
    if len(strings) > 1:
        left = full_multiset(strings[0]).union(pool(strings[1:]))
        assert left == pool(strings)


def test_dyck_suffix_weights_are_dominated():
    rng = random.Random(5)
    picks = rng.sample(all_dyck_strings(10), 20)
    for s in picks:
        for i in range(1, len(s) + 1):
            assert s.suffix(i).weight() <= i // 2


def test_rds_matches_definition():
    s = BitString("01101")
    assert s.rds_profile() == (-1, 0, 1, 0, 1)
    assert s.rds_profile() == tuple(2 * s.prefix(i).weight() - i for i in range(1, len(s) + 1))
    assert s.rds_profile()[-1] == 2 * s.weight() - len(s)
    assert s.rds_profile()[1] == 0


def test_real_sum_is_the_per_column_sum(b3_codebook):
    rng = random.Random(11)
    for _ in range(300):
        subset = rng.sample(b3_codebook.strings, rng.randint(1, 6))
        columns = tuple(sum(s[i] for s in subset) for i in range(b3_codebook.n))
        assert real_sum(subset) == real_sum(iter(subset)) == columns


def test_real_sum_refuses_unequal_lengths_and_no_strings():
    with pytest.raises(LengthMismatch, match="real sum of unequal lengths"):
        real_sum([BitString("0110"), BitString("011")])
    with pytest.raises(LengthMismatch):
        real_sum([BitString("011"), BitString("0110"), BitString("101")])
    with pytest.raises(IndexError):
        real_sum([])


def test_partial_sum_string_parsing_and_bursts():
    p = PartialSumString.parse("21εε10", hbar=2)
    assert str(p) == "21εε10"
    assert [i for i, v in enumerate(p.symbols, start=1) if v is None] == [3, 4]
    assert p.bursts() == ((3, 2),)
    assert not p.complete
    assert sum(v for v in p.symbols if v is not None) == 4


def test_partial_sum_merge_and_conflict():
    a = PartialSumString.parse("21εε10", 2)
    b = PartialSumString.parse("εε1110", 2)
    assert str(merge_partials(a, b, 6)) == "211110"
    with pytest.raises(Conflict):
        merge_partials(PartialSumString.parse("20", 2), PartialSumString.parse("21", 2), 2)


def test_fill_from_weight_rules():
    def fill(text: str, hbar: int, weight: int) -> PartialSumString:
        # a side merged with itself leaves only the weight fill to act
        p = PartialSumString.parse(text, hbar)
        return merge_partials(p, p, weight)

    assert str(fill("21ε110", 2, 6)) == "211110"
    assert str(fill("1εε000", 1, 3)) == "111000"
    assert str(fill("1εε100", 1, 2)) == "100100"
    # 2 left over 2 erased symbols with hbar=2 stays open
    partial = fill("21εε10", 2, 6)
    assert not partial.complete
    with pytest.raises(Conflict):
        fill("21ε110", 2, 99)


def test_bitstring_xor_and_int_round_trip():
    a, b = BitString("1100"), BitString("1010")
    assert str(a ^ b) == "0110"
    assert BitString.from_int(a.as_int, 4) == a
    with pytest.raises(LengthMismatch):
        a ^ BitString("10")


class _RefereeBitString:
    """The BitString constructor that the integer one replaced: three Python
    passes (an int() per symbol, a 0/1 check, a shift loop for the key)."""

    def __init__(self, bits):
        if isinstance(bits, str):
            if not all(c in "01" for c in bits):
                raise ValueError(f"not a binary string: {bits!r}")
            values = tuple(1 if c == "1" else 0 for c in bits)
        else:
            values = tuple(int(b) for b in bits)
            if not all(b in (0, 1) for b in values):
                raise ValueError(f"bits must be 0/1, got {values!r}")
        if not values:
            raise ValueError("empty bit string")
        self.bits = values
        key = 0
        for b in values:
            key = (key << 1) | b
        self.as_int = key
        self.hash = hash((len(values), key))
        self.text = "".join("1" if b else "0" for b in values)


def _outcome(make, value):
    try:
        s = make(value)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    if isinstance(s, _RefereeBitString):
        return s.bits, s.as_int, s.hash, s.text
    assert all(type(b) is int for b in s.bits)
    return s.bits, s.as_int, hash(s), str(s)


def _bitstring_inputs():
    import numpy as np

    rng = random.Random(68)
    for n in range(1, 13):
        for values in itertools.product((0, 1), repeat=n):
            yield from ("".join(map(str, values)), values, list(values))
    for n in (68, 154, 255):
        for _ in range(20):
            values = tuple(rng.randrange(2) for _ in range(n))
            yield from ("".join(map(str, values)), values, list(values))
            yield np.array(values)
            yield np.array(values, dtype=np.uint8)
            yield [bool(b) for b in values]
            yield np.array(values, dtype=bool)


def test_bitstring_matches_the_referee_constructor():
    texts = []
    for value in _bitstring_inputs():
        ours = _outcome(BitString, value)
        assert ours == _outcome(_RefereeBitString, value), value
        texts.append(ours[3])
    # the order of BitStrings is the order of their bit tuples
    strings = [BitString(text) for text in texts[: 3 * (2**13 - 2) : 3]]
    assert sorted(strings) == sorted(strings, key=lambda s: _RefereeBitString(str(s)).bits)


def test_bitstring_refuses_what_the_referee_refuses():
    import numpy as np

    for value in ("", "012", "a", [2], (), 5, np.array([0, 2]), [0.5, 2], ["1", "x"], None):
        ours, theirs = _outcome(BitString, value), _outcome(_RefereeBitString, value)
        assert ours == theirs and isinstance(ours[0], type), value
    # what int() reads, both read: floats, digit strings and numpy bools
    for value in ([1.0, 0.0], ["1", "0"], np.array([True, False])):
        assert _outcome(BitString, value) == _outcome(_RefereeBitString, value)


def test_bitstring_integer_methods_match_the_bits():
    rng = random.Random(5)
    for n in (1, 2, 7, 64, 68, 255):
        for _ in range(30):
            a, b = BitString.random(n, rng), BitString.random(n, rng)
            i = rng.randint(1, n)
            assert (a ^ b).bits == tuple(x ^ y for x, y in zip(a.bits, b.bits))
            assert (a + b).bits == a.bits + b.bits and (a + str(b)) == a + b
            assert a.prefix(i) == BitString(a.bits[:i])
            assert a.suffix(i) == BitString(a.bits[n - i :])
            assert BitString.from_int(a.as_int, n) == a
            assert BitString(a) == a and BitString(a).bits == a.bits
            assert a.weight() == sum(a.bits)
    assert str(BitString.from_int(-1, 5)) == "11111"
    assert str(BitString.from_int(13, 3)) == "101"
    for length in (0, -1):
        with pytest.raises(ValueError, match="empty bit string"):
            BitString.from_int(0, length)


def _text(bits):
    return "".join(map(str, bits))


def test_bitstring_reads_like_a_stored_tuple():
    """Symbols, order and integer operations agree with a referee that stores
    the 0/1 tuple, at every length from 1 to 70."""
    rng = random.Random(26)
    strings = [BitString.from_int(v, n) for n in (1, 2, 3) for v in range(2**n)]
    strings += [BitString.random(n, rng) for n in range(1, 71) for _ in range(8)]
    for s in strings:
        bits = _RefereeBitString(str(s)).bits
        n = len(bits)
        assert s.bits == bits and tuple(s) == bits and len(s) == n
        assert [s[i] for i in range(-n, n)] == [bits[i] for i in range(-n, n)]
        for part in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                     slice(n // 3, 2 * n // 3 + 1), slice(1, None, 2)):
            if bits[part]:
                assert s[part] == BitString(_text(bits[part]))
            else:
                with pytest.raises(IndexError):
                    s[part]
    # mixed lengths sort as their tuples do ("01" < "1", though 1 == 1 as integers)
    rng.shuffle(strings)
    assert sorted(strings) == sorted(strings, key=lambda s: _RefereeBitString(str(s)).bits)

    for _ in range(400):
        n, m = rng.randint(1, 70), rng.randint(1, 70)
        a, b, c = BitString.random(n, rng), BitString.random(n, rng), BitString.random(m, rng)
        ta, tb, tc = (_RefereeBitString(str(x)).bits for x in (a, b, c))
        i, v = rng.randint(1, n), rng.randint(-(2 ** 80), 2 ** 80)
        expected = [
            (BitString.from_int(v, n), _text(v >> (n - 1 - j) & 1 for j in range(n))),
            (a + c, _text(ta + tc)),
            (a + str(c), _text(ta + tc)),
            (a ^ b, _text(x ^ y for x, y in zip(ta, tb))),
            (a.prefix(i), _text(ta[:i])),
            (a.suffix(i), _text(ta[n - i :])),
        ]
        for got, text in expected:
            assert got == BitString(text) and hash(got) == hash(BitString(text))
            assert str(got) == text and len(got) == len(text)


class _RefereePartialSumString:
    """The PartialSumString constructor that the C-level checks replaced: an
    int() per symbol, then the hbar test, then a range test per symbol."""

    def __init__(self, symbols, hbar):
        syms = tuple(None if v is None else int(v) for v in symbols)
        if hbar < 1:
            raise ValueError("hbar must be positive")
        for v in syms:
            if v is not None and not 0 <= v <= hbar:
                raise ValueError(f"symbol {v} outside 0..{hbar}")
        self.symbols = syms
        self.hbar = hbar


def _sum_outcome(make, symbols, hbar):
    try:
        p = make(iter(symbols), hbar)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return p.symbols, tuple(map(type, p.symbols)), p.hbar


def _partial_sum_inputs():
    import numpy as np

    rng = random.Random(19)
    for n in (1, 5, 68, 142):
        for hbar in (1, 2, 3):
            known = [rng.randint(0, hbar) for _ in range(n)]
            erased = [None if rng.random() < 0.3 else v for v in known]
            yield known, hbar
            yield erased, hbar
            yield np.array(known), hbar
            yield [None if v is None else np.int64(v) for v in erased], hbar
            yield [None if v is None else bool(v % 2) for v in erased], hbar
            yield [None if v is None else v + 0.5 for v in erased], hbar
            yield [None if v is None else str(v) for v in erased], hbar
            # two symbols out of range: the first one is named
            for low, high in ((-1, hbar + 1), (hbar + 2, -3)):
                bad = list(erased)
                i, j = sorted(rng.sample(range(n + 2), 2))
                bad.insert(i, low)
                bad.insert(j, high)
                yield bad, hbar
                yield [None if v is None else str(v) for v in bad], hbar
            yield np.array(known, dtype=np.uint8) + 255, hbar
            # an unreadable symbol is refused before hbar, hbar before the range
            for worse in (0, -1):
                yield erased, worse
                yield erased + [hbar + 1], worse
                yield erased + ["x"], worse
            yield erased + [[1]], hbar
    yield [], 1
    yield [None, None], 2
    yield [1, 2], np.int64(2)


def test_partial_sum_string_matches_the_referee_constructor():
    for symbols, hbar in _partial_sum_inputs():
        ours = _sum_outcome(PartialSumString, symbols, hbar)
        assert ours == _sum_outcome(_RefereePartialSumString, symbols, hbar), (symbols, hbar)


def test_trusted_partial_sum_still_refuses_hbar_below_one():
    for hbar in (0, -1):
        with pytest.raises(ValueError, match="hbar must be positive"):
            PartialSumString._of((), hbar)
    trusted = PartialSumString._of((1, None, 0), 1)
    assert trusted == PartialSumString.parse("1ε0", 1)
    with pytest.raises(AttributeError):
        trusted.hbar = 2


def test_fragment_cells_match_the_array_form():
    import numpy as np

    rng = random.Random(16)
    for n in (1, 16, 68, 255):
        for count in (1, 3, 20):
            strings = [BitString.random(n, rng) for _ in range(count)]
            bits = np.array([s.bits for s in strings], dtype=np.int64)
            for prefixes, suffixes in ((True, False), (False, True), (True, True)):
                reads = ([bits] if prefixes else []) + ([bits[:, ::-1]] if suffixes else [])
                want = np.cumsum(np.concatenate(reads), axis=1) + (n + 1) * np.arange(1, n + 1)
                got = fragment_cells(strings, prefixes, suffixes)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert (got == want).all(), (n, count, prefixes, suffixes)


def test_package_import_loads_no_numpy():
    # numpy arrives with the first code or pool table; importing it earlier
    # moves the process's peak memory (see the benchmark's peak_rss_mb).
    # The field arithmetic is pure Python too: only its row reduction needs numpy
    import masscodec

    src = str(Path(masscodec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, masscodec, masscodec.gf2m; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"

"""Differential test of the book framer against a per-string referee.

``codec.frame`` balances and frames a whole book as one (|C|, n) array, and
the ``ecc`` builders compute their code words, z segments and integral
redundancy over the same matrix.  The referee below is the per-string
framing the package used before: a block balancer that walks one string's
integer block by block, a tail builder that shifts the parts onto one
integer, and each scheme's payload, z and redundancy built for one string
at a time from the parity-check matrix.  Every codeword of every book must
come out bit for bit the same.
"""

import itertools
import math
import random

import numpy as np
import pytest

from masscodec import codec, ecc
from masscodec.bhcode import BhCodebook, build_bh_codebook, bundled_spec
from masscodec.codec import (
    BalancedPair,
    balance_report,
    block_balance,
    encode,
    encode_codebook,
    next_square,
    plain_layout,
)
from masscodec.core import BitString, is_dyck
from masscodec.errors import ConfigError, LengthMismatch
from masscodec.gf2m import TABLES

# ---------------------------------------------------------------------------
# the per-string referee


def _ref_balance(s: BitString) -> BalancedPair:
    """One pass over the blocks of one string's integer: a block's weight is
    its bit count, and complementing it is an XOR with the all-ones block."""
    m, key = len(s), s.as_int
    root = math.isqrt(m)
    assert root * root == m
    ones = (1 << root) - 1
    u = flags = acc = 0
    for shift in range(m - root, -1, -root):
        block = key >> shift & ones
        rds = 2 * block.bit_count() - root
        flip = shift < m - root and (acc >= 0) == (rds >= 0)
        if flip:
            block ^= ones
            rds = -rds
        u = u << root | block
        flags = flags << 1 | flip
        acc += rds
    return BalancedPair(u=BitString.from_int(u, m), r=BitString.from_int(flags, root))


def _ref_tails(lead: int, parts, N: int) -> BitString:
    """A 1-run of length lead, the parts, then the 1-run and the 0-run that
    make the whole balanced of length N, built as one integer."""
    head, length = (1 << lead) - 1, lead
    for part in parts:
        head = head << len(part) | part.as_int
        length += len(part)
    w = head.bit_count()
    ones_tail, zeros_tail = N // 2 - w, N // 2 - (length - w)
    assert ones_tail >= 0 and zeros_tail >= 0
    return BitString.from_int((head << ones_tail | (1 << ones_tail) - 1) << zeros_tail, N)


def _ref_frame(layout, word, z_of=None) -> BitString:
    pair = _ref_balance(BitString.from_int(BitString(word).as_int, layout.m))
    z = [v for b in z_of(pair) for v in (b, 1 - b)] if z_of else ()
    parts = (pair.r, BitString(z), pair.u) if z else (pair.r, pair.u)
    return _ref_tails(layout.lead, parts, layout.N)


def _ref_encode(code, message) -> tuple[int, ...]:
    """Each row of the reduced H sets its pivot from the other positions."""
    word = [0] * code.n
    for pos, bit in zip(code.info_positions, message):
        word[pos] = bit
    for r, pivot in enumerate(code.pivots):
        word[pivot] = sum(word[c] for c in np.flatnonzero(code.H[r]) if c != pivot) % 2
    return tuple(word)


def _ref_integral(s: BitString) -> list[int]:
    return list(itertools.accumulate(s.bits, lambda a, b: a ^ b))


def _ref_redundancy(r_prime, i_last: int) -> BitString:
    """The pairing recurrence, one bit after another."""
    bits = [r_prime[0] ^ i_last]
    bits.append(1 - bits[-1])
    for i in range(1, len(r_prime)):
        nxt = r_prime[i - 1] ^ r_prime[i] ^ bits[-1]
        bits += [nxt, 1 - nxt]
    return BitString(bits)


def _ref_codeword(book, s: BitString) -> BitString:
    """The codeword of s under the book's scheme, layout and codes."""
    lay = book.layout
    if book.scheme == ecc.PLAIN:
        return _ref_frame(lay, s)
    if book.scheme == ecc.ONE_STEP:
        return _ref_frame(lay, _ref_encode(book.code_data, s.bits))
    if book.scheme == ecc.TWO_STEP:
        flag = book.code_flag

        def flag_parities(pair):
            return _ref_encode(flag, pair.r.bits)[flag.k :]

        return _ref_frame(lay, _ref_encode(book.code_data, s.bits), flag_parities)
    if book.scheme == ecc.ONE_STEP_MODP:
        pcode = book.code_data
        g = max(1, math.ceil(math.log2(pcode.p)))

        def z_of(pair):
            syndrome = pcode.H @ np.array(pair.r.bits + pair.u.bits) % pcode.p
            return [(int(sym) >> (g - 1 - b)) & 1 for sym in syndrome for b in range(g)]

        return _ref_frame(lay, s, z_of)
    assert book.scheme == ecc.INTEGRAL
    code = book.code_data
    iw = _ref_integral(s)
    r_prime = _ref_encode(code, iw)[code.k :]
    parts = (s, _ref_redundancy(r_prime, iw[-1])) if r_prime else (s,)
    return _ref_tails(lay.lead, parts, lay.N)


def _assert_book_matches_referee(book) -> None:
    assert [cw.origin for cw in book.codewords] == list(book.base.strings)
    for cw in book.codewords:
        assert cw.bits == _ref_codeword(book, cw.origin), (book.scheme, book.t, cw.origin)


# ---------------------------------------------------------------------------
# books

FRAMED = (ecc.PLAIN, ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP)


def _books(base, ts=(0, 1, 2, 4, 6)):
    """Every framed scheme's book of the base at each t that has a default code."""
    for scheme, t in itertools.product(FRAMED, ts):
        if scheme == ecc.PLAIN and t:
            continue
        try:
            yield ecc.scheme_codebook(scheme, base, t)
        except ConfigError:  # no default code of this dimension and capability
            continue
    for t in ts[1:]:
        try:
            yield ecc.two_step_codebook(base, t, substitutions=True)
        except ConfigError:
            continue


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_book_of_a_shipped_base_matches_the_per_string_frame(name):
    spec = bundled_spec(name)
    base = build_bh_codebook(max(1, min(3, (spec.d - 1) // 2)), spec)
    books = list(_books(base))
    for book in books:
        _assert_book_matches_referee(book)
    schemes = {book.scheme for book in books}
    # plain, two-step and integral fit every base; one-step has its t = 0 book
    assert schemes >= {ecc.PLAIN, ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL}, schemes
    # an integral code with two or more parities exercises the pairing recurrence
    assert any(b.scheme == ecc.INTEGRAL and b.code_data.n - b.code_data.k > 1 for b in books)


def test_seeded_bases_match_the_per_string_frame():
    # lengths that are squares and not, so the plain pad and the roots padded
    # to a multiple of four both vary; any distinct strings frame, B_h or not
    rng = random.Random(42)
    lengths = (1, 2, 4, 5, 7, 9, 12, 16, 17, 20, 25, 30, 36, 40)
    framed = 0
    for n, _ in itertools.product(lengths, range(3)):
        size = min(2**n, rng.randint(1, 24))
        strings = [BitString.from_int(v, n) for v in rng.sample(range(2**n), size)]
        base = BhCodebook.explicit(strings, rng.choice((1, 2, 3)))
        for book in _books(base):
            _assert_book_matches_referee(book)
            framed += 1
    assert framed >= 300, framed


def test_the_layouts_pad_to_squares_and_to_roots_of_multiples_of_four():
    for n in range(1, 50):
        m, root = next_square(n)
        assert plain_layout(n).pad == m - n and plain_layout(n).root == root
        book = ecc.two_step_codebook(BhCodebook.explicit([BitString.from_int(1, n)], 1), 0)
        assert book.layout.root % 4 == 0 and book.layout.m >= book.code_data.n


# ---------------------------------------------------------------------------
# one string


def test_one_string_encode_block_balance_and_report_match_the_referee():
    rng = random.Random(7)
    exhaustive = (BitString.from_int(v, n) for n in range(1, 11) for v in range(2**n))
    seeded = (BitString.random(rng.randint(11, 120), rng) for _ in range(400))
    for s in itertools.chain(exhaustive, seeded):
        lay = plain_layout(len(s))
        (cw,) = encode([s])
        assert cw.origin == s and cw.bits == _ref_frame(lay, s), s
        padded = BitString.from_int(s.as_int, lay.m)
        assert block_balance(padded) == _ref_balance(padded), s
        report = balance_report(s)
        u = _ref_balance(padded).u.rds_profile()
        head = _ref_frame(lay, s).prefix(lay.tail_start).rds_profile()
        boundaries = (u[j * lay.root - 1] for j in range(1, lay.root + 1))
        assert report.boundary_rds_max == max(map(abs, boundaries))
        assert report.u_rds_max == max(map(abs, u))
        assert (report.v_rds_min, report.v_rds_max) == (min(head), max(head))
        assert report.dyck == is_dyck(cw.bits) is True


def test_encode_frames_many_strings_at_once_and_refuses_mixed_lengths():
    strings = ["0111", "1000", "0000", "1111"]
    words = encode(strings)
    assert [str(cw.origin) for cw in words] == strings
    assert [cw.bits for cw in words] == [encode([s])[0].bits for s in strings]
    assert encode_codebook(BhCodebook.explicit(strings, 1)).codewords == words
    assert encode([]) == ()
    with pytest.raises(LengthMismatch):
        encode(["0111", "01"])
    # mixed lengths whose total is a multiple of the first length
    with pytest.raises(LengthMismatch):
        encode(["01", "0", "011"])
    with pytest.raises(TypeError, match="sequence of strings"):
        encode("0111")


def test_frame_refuses_words_that_do_not_fit_the_layout():
    lay = plain_layout(4)
    with pytest.raises(ValueError, match="do not fit"):
        codec.frame(lay, np.zeros((2, 5), dtype=np.uint8))
    z_layout = ecc.two_step_codebook(BhCodebook.explicit(["0111"], 1), 1).layout
    with pytest.raises(ValueError, match="do not fit"):
        codec.frame(z_layout, np.zeros((1, z_layout.n), dtype=np.uint8))

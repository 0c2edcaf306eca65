"""Redundancy-based correction of missing fragments.

Three schemes trade redundancy against decoding effort.  All of them feed
a protected payload through the block-balancing codec (or embed it behind
the leading 1-run), so a missing fragment turns into erased positions of
the reconstructed mixture sums, and a binary (or mod-p) erasure decoder
restores the payload.

* one-step: the payload itself is encoded to survive the worst case where
  an erased complement flag knocks out its whole block, i.e. t missing
  fragments cost up to t(sqrt(m)+1) erased bits.
* two-step: the flag string gets its own erasure code, appended as a
  pairwise-complemented segment z right after the flags so the codeword
  stays balanced; flags are recovered first and blocks un-flipped before
  the payload code sees any erasures, so capability t suffices on both
  codes.  One extra 1 on the leading run and one extra trailing 0 keep
  the codeword a Dyck string.
* integral: the payload is the running mod-2 sum I(s), whose i-th symbol
  equals the parity of the i-th prefix weight.  One missing fragment then
  erases a single symbol instead of a burst of two, and only positions
  missing on both sides stay erased, so capability floor(t/2) suffices.
  The code redundancy is balanced by the pairing recurrence R_1 = R'_1 +
  I_n, R_{2i} = complement of R_{2i-1}, R_{2i+1} = R'_i + R'_{i+1} +
  R_{2i}.  Anchored at I_n, every parity R'_{i+1} is again the parity of
  a single prefix weight (at the end of R_{2i+1}), so each symbol of the
  protected word costs one cumulative count.  An anchor at I_1 made R'_1
  depend on two counts, and losing the count at the first payload symbol
  on both sides cancelled I_1 out of the checks: that double erasure was
  unrecoverable.

A mod-p variant replaces the binary payload protection of one-step: with
p larger than the mixture order, per-position integer sums of the flag
and payload segments live inside Z_p, so Z_p syndromes of those sums --
shipped as pairwise-complemented binary expansions -- can re-fill erased
sum positions before any mod-2 reduction happens.

Every scheme builds a ``codec.McCodebook``, the type the plain codec uses
too: the scheme name, t and the codes ride on the book, and the layout on
its codewords.  The plain codec is the scheme PLAIN with t = 0 and no
codes, so ``scheme_codebook`` and ``scheme_decode`` serve it as well.

Decoders either return the exact source set or raise; a silent wrong
answer is treated as a bug everywhere in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .bhcode import BhCodebook, DEFAULT_BUDGET, invert_mod2_sum
from .channel import partial_sum_strings, raw_side_sums
from .codec import (
    PLAIN,
    McCodebook,
    McCodeword,
    McLayout,
    append_tails,
    assemble_codeword,
    block_balance,
    decode_mixture,
    encode_codebook,
    next_square,
    unflip,
)
from .codec import encode as plain_encode
from .core import BitString, BitsLike, CompositionMultiset
from .errors import (
    CapabilityTooSmall,
    ConfigError,
    DecodeFailure,
    TooManyErasures,
)
from .linearcode import (
    LinearCode,
    ModpCode,
    erasure_code,
    modp_code,
    substitution_code,
    trivial_code,
)

ONE_STEP = "one-step"
TWO_STEP = "two-step"
INTEGRAL = "integral"
ONE_STEP_MODP = "one-step-modp"


# ---------------------------------------------------------------------------
# shared plumbing


def _left_pad(word: Sequence[int], m: int) -> BitString:
    bits = BitString(word)
    if m > len(bits):
        bits = BitString.zeros(m - len(bits)) + bits
    return bits


def _pad_root_mult4(length: int) -> tuple[int, int]:
    """Smallest square >= length whose root is a multiple of four.

    Keeps (17/2)sqrt(m) integral and m + (17/2)sqrt(m) even, so scheme
    lengths obey their accounting identities exactly.
    """
    root = 4
    while root * root < length:
        root += 4
    return root * root, root


def _merged_sums(pool: CompositionMultiset, N: int, hbar: int) -> list[Optional[int]]:
    """Per-position integer sums combining both sides; None where unknown.

    The known mixture weight hbar*N/2 settles a lone surviving erasure.
    """
    p, s = partial_sum_strings(pool, N, hbar)
    merged = p.merge(s).fill_from_weight(hbar * N // 2)
    return list(merged.symbols)


def _mod2(vals: Sequence[Optional[int]]) -> list[Optional[int]]:
    return [None if v is None else v % 2 for v in vals]


def _pair_value(
    merged: Sequence[Optional[int]], start: int, idx: int, hbar: int
) -> Optional[int]:
    """Integer sum of pair-encoded bit idx in a z segment (b, 1-b pairs).

    The first symbol of the pair holds the sum itself, the second hbar
    minus it; None when both are erased.
    """
    a = merged[start + 2 * idx]
    if a is not None:
        return a
    b = merged[start + 2 * idx + 1]
    return None if b is None else hbar - b


def _pairwise_complement(bits: Sequence[int]) -> BitString:
    out = []
    for b in bits:
        out.extend((int(b) & 1, 1 - (int(b) & 1)))
    return BitString(out)


# ---------------------------------------------------------------------------
# one-step scheme


def one_step_requirement(m: int, t: int) -> int:
    """Erasures the payload code must absorb: t blocks plus t flag bits."""
    return t * (math.isqrt(m) + 1)


def _default_one_step_code(k: int, t: int) -> LinearCode:
    from .linearcode import bundled_code

    if t == 0:
        return trivial_code(k)
    code = bundled_code("bch_63_16")
    if code.k == k:
        m, _ = next_square(code.n)
        if code.erasure_capability >= one_step_requirement(m, t):
            return code
    raise ConfigError(
        f"no shipped one-step code for k={k}, t={t}; pass one explicitly"
    )


def one_step_encode(s: BitsLike, t: int, code: Optional[LinearCode] = None) -> McCodeword:
    """Erasure-encode s, then balance into a Dyck codeword.

    With t = 0 and no code given this is exactly the plain codec.
    """
    s = BitString(s)
    if code is None:
        code = _default_one_step_code(len(s), t)
    if code.k != len(s):
        raise ConfigError(f"payload code has k={code.k}, string length {len(s)}")
    word = code.encode(s.bits)
    m, _ = next_square(len(word))
    if code.erasure_capability < one_step_requirement(m, t):
        raise CapabilityTooSmall(
            f"capability {code.erasure_capability} < t(sqrt(m)+1) = "
            f"{one_step_requirement(m, t)}"
        )
    return replace(plain_encode(word), origin=s)


def one_step_codebook(
    base: BhCodebook, t: int, code: Optional[LinearCode] = None
) -> McCodebook:
    if code is None:
        code = _default_one_step_code(base.n, t)
    codewords = tuple(one_step_encode(s, t, code) for s in base.strings)
    return McCodebook(base, codewords, scheme=ONE_STEP, t=t, code_data=code)


def one_step_decode(
    pool: CompositionMultiset,
    codebook: McCodebook,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[BitString]:
    """Erasure-decode the balanced payload, then invert the mod-2 sum.

    An erased complement flag leaves its whole block unknown; everything
    else maps one lost sum position to one erased payload bit.
    """
    lay: McLayout = codebook.layout
    code: LinearCode = codebook.code_data
    merged = _merged_sums(pool, lay.N, hbar)
    flags = _mod2(merged[lay.r_start : lay.r_start + lay.root])
    data = _mod2(merged[lay.u_start : lay.u_start + lay.m])
    word = unflip(data, flags, lay.pad)
    full = code.decode_erasures(word)
    target = BitString(code.extract_message(full))
    return frozenset(invert_mod2_sum(codebook.base, target, hbar, budget))


# ---------------------------------------------------------------------------
# two-step scheme


def _two_step_layout(word_len: int, z_len: int) -> McLayout:
    m, root = _pad_root_mult4(word_len)
    lead = math.ceil(5 * root / 2) + 1
    N = m + (17 * root) // 2 + z_len + 2
    return McLayout(
        n=word_len, m=m, root=root, pad=m - word_len, lead=lead, z_len=z_len, N=N
    )


def two_step_encode(
    s: BitsLike,
    t: int,
    code_data: Optional[LinearCode] = None,
    code_flag: Optional[LinearCode] = None,
    substitutions: bool = False,
) -> McCodeword:
    """Protect the payload and the flag string separately.

    Erasure mode needs capability t on both codes.  Substitution mode
    (same-length fragment replacements) needs error capability 2t, since
    one replaced fragment corrupts two adjacent sum symbols on its side.
    """
    s = BitString(s)
    need = 2 * t if substitutions else t
    if code_data is None:
        code_data = (
            substitution_code(len(s), need) if substitutions else erasure_code(len(s), need)
        )
    if code_data.k != len(s):
        raise ConfigError(f"payload code has k={code_data.k}, string length {len(s)}")
    capability = (
        code_data.error_capability if substitutions else code_data.erasure_capability
    )
    if capability < need:
        raise CapabilityTooSmall(f"payload capability {capability} < {need}")
    word = code_data.encode(s.bits)
    m, root = _pad_root_mult4(len(word))
    pair = block_balance(_left_pad(word, m))
    if code_flag is None:
        code_flag = (
            substitution_code(root, need) if substitutions else erasure_code(root, need)
        )
    if code_flag.k != root:
        raise ConfigError(f"flag code has k={code_flag.k}, flag length {root}")
    flag_capability = (
        code_flag.error_capability if substitutions else code_flag.erasure_capability
    )
    if flag_capability < need:
        raise CapabilityTooSmall(f"flag capability {flag_capability} < {need}")
    flag_word = code_flag.encode(pair.r.bits)
    z = _pairwise_complement(flag_word[root:])
    layout = _two_step_layout(len(word), len(z))
    bits = assemble_codeword(layout, pair.r, pair.u, z)
    return McCodeword(bits=bits, layout=layout, origin=s)


def two_step_codebook(
    base: BhCodebook,
    t: int,
    code_data: Optional[LinearCode] = None,
    code_flag: Optional[LinearCode] = None,
    substitutions: bool = False,
) -> McCodebook:
    need = 2 * t if substitutions else t
    if code_data is None:
        code_data = (
            substitution_code(base.n, need)
            if substitutions
            else erasure_code(base.n, need)
        )
    m, root = _pad_root_mult4(code_data.n)
    if code_flag is None:
        code_flag = (
            substitution_code(root, need) if substitutions else erasure_code(root, need)
        )
    codewords = tuple(
        two_step_encode(s, t, code_data, code_flag, substitutions) for s in base.strings
    )
    return McCodebook(
        base, codewords, scheme=TWO_STEP, t=t, code_data=code_data, code_flag=code_flag
    )


def _two_step_flag_word(
    merged: Sequence[Optional[int]], lay: McLayout, hbar: int
) -> list[Optional[int]]:
    flags = _mod2(merged[lay.r_start : lay.r_start + lay.root])
    z_bits = _mod2(
        [_pair_value(merged, lay.z_start, i, hbar) for i in range(lay.z_len // 2)]
    )
    return flags + z_bits


def two_step_decode(
    pool: CompositionMultiset,
    codebook: McCodebook,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
    substitutions: bool = False,
) -> frozenset[BitString]:
    """Recover flags first, un-flip blocks, then decode the payload.

    In substitution mode the two sides are decoded independently with
    error correction and must agree; counts are assumed intact (fragment
    replacements of equal length).
    """
    lay: McLayout = codebook.layout
    code_data: LinearCode = codebook.code_data
    code_flag: LinearCode = codebook.code_flag
    if not substitutions:
        merged = _merged_sums(pool, lay.N, hbar)
        flag_full = code_flag.decode_erasures(_two_step_flag_word(merged, lay, hbar))
        r_total = flag_full[: lay.root]
        data = _mod2(merged[lay.u_start : lay.u_start + lay.m])
        word = unflip(data, r_total, lay.pad)
        full = code_data.decode_erasures(word)
        target = BitString(code_data.extract_message(full))
        return frozenset(invert_mod2_sum(codebook.base, target, hbar, budget))

    results = []
    failures = []
    for side_vals in raw_side_sums(pool, lay.N, hbar):
        try:
            flag_word = _two_step_flag_word(side_vals, lay, hbar)
            flag_full = code_flag.decode_errors(
                [0 if b is None else b for b in flag_word], 2 * codebook.t
            )
            r_total = flag_full[: lay.root]
            data = _mod2(side_vals[lay.u_start : lay.u_start + lay.m])
            word = unflip(data, r_total, lay.pad)
            full = code_data.decode_errors(
                [0 if b is None else b for b in word], 2 * codebook.t
            )
            target = BitString(code_data.extract_message(full))
            results.append(frozenset(invert_mod2_sum(codebook.base, target, hbar, budget)))
        except (DecodeFailure, TooManyErasures) as exc:
            failures.append(exc)
    if not results:
        raise DecodeFailure(f"both sides undecodable: {failures}")
    if len(results) == 2 and results[0] != results[1]:
        raise DecodeFailure("prefix and suffix reconstructions disagree")
    return results[0]


def two_step_length_identity(codebook: McCodebook) -> tuple[int, int]:
    """(actual N, m1 + (17/2)sqrt(m1) + 2(m3 - sqrt(m1)) + 2)."""
    lay: McLayout = codebook.layout
    m1, root = lay.m, lay.root
    m3 = codebook.code_flag.n
    return lay.N, m1 + (17 * root) // 2 + 2 * (m3 - root) + 2


# ---------------------------------------------------------------------------
# integral scheme


def integral(s: BitsLike) -> BitString:
    """Running mod-2 sums: position i holds s_1 + ... + s_i mod 2."""
    s = BitString(s)
    out = []
    acc = 0
    for b in s.bits:
        acc ^= b
        out.append(acc)
    return BitString(out)


def derivative(w: BitsLike) -> BitString:
    """Inverse of integral: s_i = w_i xor w_{i-1}."""
    w = BitString(w)
    out = []
    prev = 0
    for b in w.bits:
        out.append(b ^ prev)
        prev = b
    return BitString(out)


@dataclass(frozen=True)
class IntegralLayout:
    n: int  # payload length
    red_len: int  # length of the balanced redundancy segment (2 per code parity)
    lead: int
    N: int

    @property
    def s_start(self) -> int:
        return self.lead

    @property
    def r_start(self) -> int:
        return self.lead + self.n

    @property
    def tail_start(self) -> int:
        return self.r_start + self.red_len

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "red_len": self.red_len,
            "lead": self.lead,
            "N": self.N,
            "segments": {
                "s": [self.s_start, self.n],
                "R": [self.r_start, self.red_len],
                "tail": [self.tail_start, self.N - self.tail_start],
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "IntegralLayout":
        return cls(n=obj["n"], red_len=obj["red_len"], lead=obj["lead"], N=obj["N"])


def _integral_layout(n: int, red_len: int) -> IntegralLayout:
    lead = n + 2  # keeps the running digital sum strictly positive over s.R
    return IntegralLayout(n=n, red_len=red_len, lead=lead, N=4 * n + 4 + red_len)


def balance_redundancy(r_prime: Sequence[int], i_last: int) -> BitString:
    """Pairwise-balanced packing of the parity bits R' (nonempty).

    R_1 = R'_1 + I_n with i_last = I_n, the last integral symbol (the
    parity of the payload weight); every even position complements its
    predecessor, and R_{2i+1} = R'_i + R'_{i+1} + R_{2i}.  By induction
    R_{2i+1} = R'_{i+1} + I_n + i, so the weight of s.R_1..R_{2i+1} has the
    parity of R'_{i+1}.
    """
    bits = [r_prime[0] ^ (i_last & 1)]
    bits.append(1 - bits[-1])
    for i in range(1, len(r_prime)):
        nxt = r_prime[i - 1] ^ r_prime[i] ^ bits[-1]
        bits.append(nxt)
        bits.append(1 - nxt)
    return BitString(bits)


def integral_encode(s: BitsLike, t: int, code: Optional[LinearCode] = None) -> McCodeword:
    """Embed s and the balanced parities of I(s) behind a long 1-run.

    The code protects I(s) and needs erasure capability floor(t/2) only.
    """
    s = BitString(s)
    if code is None:
        code = erasure_code(len(s), t // 2)
    if code.k != len(s):
        raise ConfigError(f"integral code has k={code.k}, string length {len(s)}")
    if code.erasure_capability < t // 2:
        raise CapabilityTooSmall(
            f"capability {code.erasure_capability} < floor(t/2) = {t // 2}"
        )
    iw = integral(s)
    word = code.encode(iw.bits)
    r_prime = word[len(s) :]
    packed = balance_redundancy(r_prime, iw.bits[-1]).bits if r_prime else ()
    lay = _integral_layout(len(s), len(packed))
    bits = append_tails((1,) * lay.lead + s.bits + packed, lay.N)
    return McCodeword(bits=bits, layout=lay, origin=s)


def integral_codebook(
    base: BhCodebook, t: int, code: Optional[LinearCode] = None
) -> McCodebook:
    if code is None:
        code = erasure_code(base.n, t // 2)
    codewords = tuple(integral_encode(s, t, code) for s in base.strings)
    return McCodebook(base, codewords, scheme=INTEGRAL, t=t, code_data=code)


def integral_decode(
    pool: CompositionMultiset,
    codebook: McCodebook,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[BitString]:
    """Read every code symbol off one cumulative count, solve, difference.

    Per string, I_i is the parity of the prefix weight at lead+i, and
    R'_{i+1} that of the prefix weight at r_start+2i+1, both offset by the
    lead's weight.  Over the mixture each symbol of the protected word is
    the parity of the merged count at its position minus hbar*lead, or
    erased where that count is unknown, so one missing fragment costs at
    most one symbol.
    """
    lay: IntegralLayout = codebook.layout
    code: LinearCode = codebook.code_data
    counts = _merged_counts(pool, lay.N, hbar)
    positions = [lay.lead + i for i in range(1, lay.n + 1)] + [
        lay.r_start + 2 * i + 1 for i in range(code.n - lay.n)
    ]
    word = [
        None if counts[pos - 1] is None else (counts[pos - 1] - hbar * lay.lead) % 2
        for pos in positions
    ]
    full = code.decode_erasures(word)
    mixed = derivative(BitString(full[: lay.n]))
    return frozenset(invert_mod2_sum(codebook.base, mixed, hbar, budget))


def _merged_counts(
    pool: CompositionMultiset, N: int, hbar: int
) -> list[Optional[int]]:
    """Cumulative prefix-ones counts n_1..n_N merged from both sides.

    Built from the merged (and weight-anchored) position sums: n_i is the
    forward cumulative when every symbol up to i is known, or the backward
    complement against the total weight when the tail is known.
    """
    symbols = _merged_sums(pool, N, hbar)
    total = hbar * N // 2
    out: list[Optional[int]] = []
    forward: Optional[int] = 0
    for v in symbols:
        forward = None if (forward is None or v is None) else forward + v
        out.append(forward)
    backward: Optional[int] = 0
    for i in range(N - 1, -1, -1):
        if out[i] is None and backward is not None:
            out[i] = total - backward
        v = symbols[i]
        backward = None if (backward is None or v is None) else backward + v
    return out


# ---------------------------------------------------------------------------
# one-step over Z_p: syndrome protection of the integer sums themselves


def one_step_modp_encode(
    s: BitsLike, t: int, pcode: ModpCode
) -> McCodeword:
    """Balance s, then append Z_p syndromes of (flags, payload) as z.

    The syndromes are binary-expanded and pairwise complemented, so the
    integer sums of the z segment reveal the syndrome of the integer sums
    of (flags, payload) -- no mod-2 reduction needed before solving.
    """
    s = BitString(s)
    if pcode.capability < t:
        raise CapabilityTooSmall(f"mod-p capability {pcode.capability} < t = {t}")
    m, root = _pad_root_mult4(len(s))
    if pcode.n != root + m:
        raise ConfigError(f"mod-p code covers {pcode.n} symbols, need {root + m}")
    pair = block_balance(_left_pad(s.bits, m))
    syndrome = pcode.syndrome(tuple(pair.r.bits) + tuple(pair.u.bits))
    g = max(1, math.ceil(math.log2(pcode.p)))
    expansion = []
    for sym in syndrome:
        expansion.extend((sym >> (g - 1 - b)) & 1 for b in range(g))
    z = _pairwise_complement(expansion)
    layout = _two_step_layout(len(s), len(z))
    bits = assemble_codeword(layout, pair.r, pair.u, z)
    return McCodeword(bits=bits, layout=layout, origin=s)


def one_step_modp_codebook(
    base: BhCodebook, t: int, pcode: Optional[ModpCode] = None
) -> McCodebook:
    m, root = _pad_root_mult4(base.n)
    if pcode is None:
        p = _next_prime(base.h + 1)
        pcode = modp_code(p, root + m)
    codewords = tuple(one_step_modp_encode(s, t, pcode) for s in base.strings)
    return McCodebook(base, codewords, scheme=ONE_STEP_MODP, t=t, code_data=pcode)


def one_step_modp_decode(
    pool: CompositionMultiset,
    codebook: McCodebook,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[BitString]:
    """Re-fill erased integer sums via the Z_p syndrome, then decode plainly."""
    lay: McLayout = codebook.layout
    pcode: ModpCode = codebook.code_data
    if hbar >= pcode.p:
        raise ConfigError(f"mixture order {hbar} needs p > hbar, have p={pcode.p}")
    merged = _merged_sums(pool, lay.N, hbar)
    g = max(1, math.ceil(math.log2(pcode.p)))
    syndrome: list[Optional[int]] = []
    for j in range(pcode.n_rows):
        acc = 0
        ok = True
        for b in range(g):
            v = _pair_value(merged, lay.z_start, j * g + b, hbar)
            if v is None:
                ok = False
                break
            acc += v << (g - 1 - b)
        syndrome.append(acc % pcode.p if ok else None)
    vec = merged[lay.r_start : lay.r_start + lay.root] + merged[
        lay.u_start : lay.u_start + lay.m
    ]
    solved = pcode.solve_erasures(vec, syndrome)
    if any(v > hbar for v in solved):
        raise DecodeFailure("recovered integer sums exceed the mixture order")
    flags = [v % 2 for v in solved[: lay.root]]
    data = [v % 2 for v in solved[lay.root :]]
    word = unflip(data, flags, lay.pad)
    target = BitString(word)
    return frozenset(invert_mod2_sum(codebook.base, target, hbar, budget))


def _next_prime(lo: int) -> int:
    p = max(2, lo)
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


# ---------------------------------------------------------------------------
# unified front door (used by the CLI)


def scheme_codebook(
    scheme: str,
    base: BhCodebook,
    t: int,
    code_data: Optional[Union[LinearCode, ModpCode]] = None,
    code_flag: Optional[LinearCode] = None,
) -> McCodebook:
    if scheme == PLAIN:
        if t or code_data is not None or code_flag is not None:
            raise ConfigError("the plain scheme takes no t, code or code_flag")
        return encode_codebook(base)
    if scheme == ONE_STEP:
        return one_step_codebook(base, t, code_data)
    if scheme == TWO_STEP:
        return two_step_codebook(base, t, code_data, code_flag)
    if scheme == INTEGRAL:
        return integral_codebook(base, t, code_data)
    if scheme == ONE_STEP_MODP:
        return one_step_modp_codebook(base, t, code_data)
    raise ConfigError(f"unknown scheme {scheme!r}")


def scheme_decode(
    pool: CompositionMultiset,
    codebook: McCodebook,
    hbar: int,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[BitString]:
    if codebook.scheme == PLAIN:
        return decode_mixture(pool, codebook, hbar, budget)
    if codebook.scheme == ONE_STEP:
        return one_step_decode(pool, codebook, hbar, budget)
    if codebook.scheme == TWO_STEP:
        return two_step_decode(pool, codebook, hbar, budget)
    if codebook.scheme == INTEGRAL:
        return integral_decode(pool, codebook, hbar, budget)
    if codebook.scheme == ONE_STEP_MODP:
        return one_step_modp_decode(pool, codebook, hbar, budget)
    raise ConfigError(f"unknown scheme {codebook.scheme!r}")

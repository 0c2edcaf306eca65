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

Each scheme's codebook builder is its encoder, and it works in one pass:
it picks and checks its codes once (``_one_step_code``,
``_two_step_codes``, ``_integral_code`` and ``_modp_code``; the default
Z_p code depends on h, so ``one_step_modp_codebook`` picks it), computes
the book's one layout from them, and frames the whole base at once.  The
binary code checks share ``_require``, the check of dimension and
capability, and two-step and integral take their default codes from
``linearcode.shipped_code``, the one chooser of shipped codes.  The base
is one (|C|, n) 0/1 array (``core.bit_matrix``), and everything a codeword
carries is computed over it: the code words (``LinearCode.encode`` of the
array), the two-step flag parities and the mod-p Z_p syndromes of the
balanced rows, and the integral's running XOR (``integral``) and parity
pairing.  One-step, two-step and mod-p frame their codewords with one
``codec.frame`` call, the integral lays its rows out and closes them with
``codec.append_tails``, and one-step and two-step decode their payload in
``_payload_target``.

A decoder here only solves its codes: it reads the readout, restores the
erased (or corrupted) symbols and hands the mod-2 target to
``codec.settle_target``, the answer step the plain codec ends in too.  That
step looks the target up and, when two subsets of an explicit book share
it, answers with the one of the lookup's matches whose pool holds the
readout, so these decoders need not know that a book can share a target.

Every scheme builds a ``codec.McCodebook``, the type the plain codec uses
too: the scheme name, t, the codes and the layout ride on the book.  The
plain codec is the scheme PLAIN with t = 0 and no codes, and a base of
Dyck strings used as its own codewords is the uncoded scheme RAW, so
``scheme_codebook`` and ``scheme_decode`` serve them as well.

Decoders either return the exact source set or raise; a silent wrong
answer is treated as a bug everywhere in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .bhcode import BhCodebook, DEFAULT_BUDGET
from .channel import merged_counts, merged_sums, raw_side_sums
from .codec import (
    PLAIN,
    RAW,
    McCodebook,
    McCodeword,
    McLayout,
    append_tails,
    decode_mixture,
    encode_codebook,
    frame,
    next_square,
    plain_layout,
    raw_codebook,
    settle_target,
    unflip,
)
from .core import BitString, BitsLike, CompositionMultiset, bit_matrix
from .errors import (
    CapabilityTooSmall,
    ConfigError,
    DecodeFailure,
    NoSolution,
    TooManyErasures,
)
from .linearcode import (
    LinearCode,
    ModpCode,
    bundled_code,
    modp_code,
    shipped_code,
    trivial_code,
)

if TYPE_CHECKING:
    import numpy as np

ONE_STEP = "one-step"
TWO_STEP = "two-step"
INTEGRAL = "integral"
ONE_STEP_MODP = "one-step-modp"

_Sums = Sequence[Optional[int]]  # per-position sums or bits, None where erased
# (code, word) -> full codeword; a solver reads each symbol of the word mod 2
_Solver = Callable[[LinearCode, _Sums], Sequence[int]]


# ---------------------------------------------------------------------------
# shared plumbing


def _require(code: LinearCode, k: int, need: int, what: str, errors: bool = False) -> LinearCode:
    """``code`` once its dimension is k and its erasure (or error) capability >= need."""
    if code.k != k:
        raise ConfigError(f"{what} code has k={code.k}, need k={k}")
    capability = code.error_capability if errors else code.erasure_capability
    if capability < need:
        kind = "error" if errors else "erasure"
        raise CapabilityTooSmall(f"{what} {kind} capability {capability} < {need}")
    return code


def _pad_root_mult4(length: int) -> tuple[int, int]:
    """Smallest square >= length whose root is a multiple of four.

    Keeps (17/2)sqrt(m) integral and m + (17/2)sqrt(m) even, so scheme
    lengths obey their accounting identities exactly.
    """
    root = 4
    while root * root < length:
        root += 4
    return root * root, root


def _framed_layout(n: int, z_len: int) -> McLayout:
    m, root = _pad_root_mult4(n)
    lead = math.ceil(5 * root / 2) + 1
    N = m + (17 * root) // 2 + z_len + 2
    return McLayout(n=n, m=m, root=root, pad=m - n, lead=lead, z_len=z_len, N=N)


def _pair_value(merged: _Sums, start: int, idx: int, hbar: int) -> Optional[int]:
    """Integer sum of pair-encoded bit idx in a z segment (b, 1-b pairs).

    The first symbol of the pair holds the sum itself, the second hbar
    minus it; None when both are erased.
    """
    a = merged[start + 2 * idx]
    if a is not None:
        return a
    b = merged[start + 2 * idx + 1]
    return None if b is None else hbar - b


def _payload_target(codebook: McCodebook, sums: _Sums, flags: _Sums, solve: _Solver) -> BitString:
    """Un-flip the data sums under the flags and solve the payload code: the mod-2 target."""
    lay: McLayout = codebook.layout
    code: LinearCode = codebook.code_data
    word = unflip(sums[lay.u_start : lay.u_start + lay.m], flags, lay.pad)
    return BitString(code.extract_message(solve(code, word)))


# ---------------------------------------------------------------------------
# one-step scheme


def one_step_requirement(m: int, t: int) -> int:
    """Erasures the payload code must absorb: t blocks plus t flag bits."""
    return t * (math.isqrt(m) + 1)


def _one_step_code(k: int, t: int, code: Optional[LinearCode]) -> LinearCode:
    """The checked payload code; by default trivial at t = 0, else bch_63_16.

    A default that does not fit is a ConfigError: only a given code can help.
    """
    if code is None:
        if t == 0:
            return trivial_code(k)
        try:
            return _one_step_code(k, t, bundled_code("bch_63_16"))
        except ConfigError as exc:
            raise ConfigError(
                f"no shipped one-step code for k={k}, t={t}; pass one explicitly"
            ) from exc
    m, _ = next_square(code.n)
    return _require(code, k, one_step_requirement(m, t), "payload")


def one_step_codebook(
    base: BhCodebook, t: int, code: Optional[LinearCode] = None
) -> McCodebook:
    """Erasure-encode each s, then balance it into a plain Dyck codeword.

    With t = 0 and no code given this is exactly the plain codec.
    """
    code = _one_step_code(base.n, t, code)
    layout = plain_layout(code.n)
    bits = frame(layout, code.encode(bit_matrix(base.strings)))
    codewords = tuple(map(McCodeword, bits, base.strings))
    return McCodebook(base, codewords, layout, scheme=ONE_STEP, t=t, code_data=code)


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
    sums = merged_sums(pool, lay.N, hbar).symbols
    flags = sums[lay.r_start : lay.r_start + lay.root]
    target = _payload_target(codebook, sums, flags, LinearCode.decode_erasures)
    return settle_target(pool, codebook, target, hbar, budget)


# ---------------------------------------------------------------------------
# two-step scheme


def _two_step_codes(
    k: int,
    t: int,
    code_data: Optional[LinearCode],
    code_flag: Optional[LinearCode],
    substitutions: bool,
) -> tuple[LinearCode, LinearCode]:
    """The checked payload and flag codes, each the smallest shipped one by default.

    Erasure mode needs capability t on both codes.  Substitution mode
    (same-length fragment replacements) needs error capability 2t, since
    one replaced fragment corrupts two adjacent sum symbols on its side.
    """
    need = 2 * t if substitutions else t
    if code_data is None:
        code_data = shipped_code(k, need, substitutions)
    _require(code_data, k, need, "payload", substitutions)
    _, root = _pad_root_mult4(code_data.n)
    if code_flag is None:
        code_flag = shipped_code(root, need, substitutions)
    return code_data, _require(code_flag, root, need, "flag", substitutions)


def two_step_codebook(
    base: BhCodebook,
    t: int,
    code_data: Optional[LinearCode] = None,
    code_flag: Optional[LinearCode] = None,
    substitutions: bool = False,
) -> McCodebook:
    """Protect the payload and the flag string separately (see _two_step_codes)."""
    code_data, code_flag = _two_step_codes(base.n, t, code_data, code_flag, substitutions)
    layout = _framed_layout(code_data.n, 2 * (code_flag.n - code_flag.k))

    def z_of(r: np.ndarray, u: np.ndarray) -> np.ndarray:
        return code_flag.encode(r)[:, code_flag.k :]

    bits = frame(layout, code_data.encode(bit_matrix(base.strings)), z_of)
    codewords = tuple(map(McCodeword, bits, base.strings))
    return McCodebook(
        base, codewords, layout, scheme=TWO_STEP, t=t, code_data=code_data, code_flag=code_flag
    )


def _two_step_target(codebook: McCodebook, sums: _Sums, solve: _Solver, hbar: int) -> BitString:
    """Solve the flag code on the flags and z, then the payload under the flags."""
    lay: McLayout = codebook.layout
    flags = sums[lay.r_start : lay.r_start + lay.root]
    z = [_pair_value(sums, lay.z_start, i, hbar) for i in range(lay.z_len // 2)]
    r_total = solve(codebook.code_flag, [*flags, *z])[: lay.root]
    return _payload_target(codebook, sums, r_total, solve)


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
    replacements of equal length).  A side whose code fails, or whose target
    matches no subset, has failed, and the other side's answer stands.
    """
    lay: McLayout = codebook.layout
    if not substitutions:
        sums = merged_sums(pool, lay.N, hbar).symbols
        target = _two_step_target(codebook, sums, LinearCode.decode_erasures, hbar)
        return settle_target(pool, codebook, target, hbar, budget)

    def nearest(code: LinearCode, word: _Sums) -> Sequence[int]:
        # an erased symbol is read as 0, one more error within radius 2t
        return code.decode_errors([0 if b is None else b for b in word], 2 * codebook.t, budget)

    results, failures = [], []
    for side_vals in raw_side_sums(pool, lay.N, hbar):
        try:
            target = _two_step_target(codebook, side_vals, nearest, hbar)
            results.append(settle_target(pool, codebook, target, hbar, budget))
        except (DecodeFailure, TooManyErasures, NoSolution) as exc:
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


def integral(words: np.ndarray) -> np.ndarray:
    """I(s) of every row of a (rows, n) 0/1 array: the running mod-2 sums,
    position i holding s_1 + ... + s_i mod 2."""
    import numpy as np

    return np.bitwise_xor.accumulate(words, axis=1)


def derivative(w: BitsLike) -> BitString:
    """Inverse of integral, on one string: s_i = w_i xor w_{i-1}, so s = w ^ (w >> 1)."""
    w = BitString(w)
    return BitString.from_int(w.as_int ^ w.as_int >> 1, len(w))


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
        segments = {
            "s": [self.s_start, self.n],
            "R": [self.r_start, self.red_len],
            "tail": [self.tail_start, self.N - self.tail_start],
        }
        return {**asdict(self), "segments": segments}


def _integral_layout(n: int, red_len: int) -> IntegralLayout:
    lead = n + 2  # keeps the running digital sum strictly positive over s.R
    return IntegralLayout(n=n, red_len=red_len, lead=lead, N=4 * n + 4 + red_len)


def balance_redundancy(r_prime: np.ndarray, i_last: np.ndarray) -> np.ndarray:
    """Pairwise-balanced packing of each row of the parity bits R'.

    R_1 = R'_1 + I_n with i_last = I_n, the last integral symbol (the
    parity of the payload weight); every even position complements its
    predecessor, and R_{2i+1} = R'_i + R'_{i+1} + R_{2i}.  By induction
    R_{2i+1} = R'_{i+1} + I_n + i, so the weight of s.R_1..R_{2i+1} has the
    parity of R'_{i+1}: the closed form builds every row at once.
    """
    import numpy as np

    rows, width = r_prime.shape
    odd = r_prime ^ i_last[:, None] ^ np.arange(width) % 2
    return np.stack([odd, 1 - odd], axis=2).reshape(rows, 2 * width)


def _integral_code(k: int, t: int, code: Optional[LinearCode]) -> LinearCode:
    """The checked code on I(s): erasure capability floor(t/2) only."""
    return _require(shipped_code(k, t // 2) if code is None else code, k, t // 2, "integral")


def integral_codebook(
    base: BhCodebook, t: int, code: Optional[LinearCode] = None
) -> McCodebook:
    """Embed each s and the balanced parities of I(s) behind a long 1-run."""
    import numpy as np

    code = _integral_code(base.n, t, code)
    layout = _integral_layout(base.n, 2 * (code.n - code.k))
    words = bit_matrix(base.strings)
    iw = integral(words)
    r_prime = code.encode(iw)[:, code.k :]
    out = np.empty((len(words), layout.N), dtype=np.uint8)
    out[:, layout.s_start : layout.r_start] = words
    out[:, layout.r_start : layout.tail_start] = balance_redundancy(r_prime, iw[:, -1])
    bits = append_tails(out, layout.lead, layout.tail_start)
    codewords = tuple(map(McCodeword, bits, base.strings))
    return McCodebook(base, codewords, layout, scheme=INTEGRAL, t=t, code_data=code)


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
    counts = merged_counts(pool, lay.N, hbar)
    positions = [lay.lead + i for i in range(1, lay.n + 1)] + [
        lay.r_start + 2 * i + 1 for i in range(code.n - lay.n)
    ]
    word = [
        None if counts[pos - 1] is None else (counts[pos - 1] - hbar * lay.lead) % 2
        for pos in positions
    ]
    full = code.decode_erasures(word)
    return settle_target(pool, codebook, derivative(BitString(full[: lay.n])), hbar, budget)


# ---------------------------------------------------------------------------
# one-step over Z_p: syndrome protection of the integer sums themselves


def _symbol_bits(p: int) -> int:
    """Bits per Z_p syndrome symbol in the binary expansion z carries."""
    return max(1, math.ceil(math.log2(p)))


def _modp_code(k: int, t: int, pcode: ModpCode) -> ModpCode:
    """``pcode`` once it is a Z_p code of capability >= t over (flags, payload)."""
    if not isinstance(pcode, ModpCode):
        raise ConfigError(f"the {ONE_STEP_MODP} scheme takes a Z_p code, not {pcode!r}")
    if pcode.capability < t:
        raise CapabilityTooSmall(f"mod-p capability {pcode.capability} < t = {t}")
    m, root = _pad_root_mult4(k)
    if pcode.n != root + m:
        raise ConfigError(f"mod-p code covers {pcode.n} symbols, need {root + m}")
    return pcode


def one_step_modp_codebook(
    base: BhCodebook, t: int, pcode: Optional[ModpCode] = None
) -> McCodebook:
    """Balance each s, then append Z_p syndromes of (flags, payload) as z.

    The syndromes are binary-expanded and pairwise complemented, so the
    integer sums of the z segment reveal the syndrome of the integer sums
    of (flags, payload) -- no mod-2 reduction needed before solving.
    """
    import numpy as np

    if pcode is None:
        m, root = _pad_root_mult4(base.n)
        pcode = modp_code(_next_prime(base.h + 1), root + m)
    pcode = _modp_code(base.n, t, pcode)
    g = _symbol_bits(pcode.p)
    layout = _framed_layout(base.n, 2 * pcode.n_rows * g)

    def z_of(r: np.ndarray, u: np.ndarray) -> np.ndarray:
        syndromes = pcode.syndrome(np.hstack([r, u]))
        # each symbol as g bits, most significant first
        return (syndromes[:, :, None] >> np.arange(g - 1, -1, -1) & 1).reshape(len(r), -1)

    bits = frame(layout, bit_matrix(base.strings), z_of)
    codewords = tuple(map(McCodeword, bits, base.strings))
    return McCodebook(base, codewords, layout, scheme=ONE_STEP_MODP, t=t, code_data=pcode)


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
    sums = merged_sums(pool, lay.N, hbar).symbols
    g = _symbol_bits(pcode.p)
    z = [_pair_value(sums, lay.z_start, i, hbar) for i in range(pcode.n_rows * g)]
    syndrome = [
        None if None in chunk else sum(v << (g - 1 - b) for b, v in enumerate(chunk)) % pcode.p
        for chunk in (z[j : j + g] for j in range(0, len(z), g))
    ]
    vec = sums[lay.r_start : lay.r_start + lay.root] + sums[lay.u_start : lay.u_start + lay.m]
    solved = pcode.solve_erasures(vec, syndrome)
    if any(v > hbar for v in solved):
        raise DecodeFailure("recovered integer sums exceed the mixture order")
    target = BitString(unflip(solved[lay.root :], solved[: lay.root], lay.pad))
    return settle_target(pool, codebook, target, hbar, budget)


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
    """The scheme's book of the base.  A negative t, a code_flag off two-step,
    and any t or code for an uncoded scheme (plain or raw) are refused."""
    if t < 0:
        raise ConfigError(f"a scheme corrects t >= 0 errors, got t={t}")
    if code_flag is not None and scheme != TWO_STEP:
        raise ConfigError(f"only the two-step scheme takes a code_flag, not {scheme!r}")
    if scheme in (PLAIN, RAW) and (t or code_data is not None):
        raise ConfigError(f"the {scheme} scheme takes no t, code or code_flag")
    if scheme == PLAIN:
        return encode_codebook(base)
    if scheme == RAW:
        return raw_codebook(base)
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
    if codebook.scheme in (PLAIN, RAW):
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

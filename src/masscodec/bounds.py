"""Closed-form rate bounds for distinct-sums codebooks and mixture codes.

Two entropy modes are exposed because the reference numeric table is only
reproducible with the Gaussian approximation (1/2)log2(2*pi*e*h/4) of the
binomial entropy, while the exact binomial entropy differs from it in the
third decimal already at h = 4 (0.4313 vs 0.4406 for the even-h bound).
Both are first-class; tables default to the gaussian mode that the
published figures use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .codec import plain_layout
from .errors import MasscodecError

EXACT = "exact"
GAUSSIAN = "gaussian"

B2_RATE_UPPER = 0.5753  # best known rate bound for order-2 distinct sums


class OddH(MasscodecError):
    """The even-h bound is undefined for odd h."""


def binomial_entropy(h: int, mode: str = EXACT) -> float:
    """Entropy of Binomial(h, 1/2) in bits, exact or Gaussian-approximated."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if mode == EXACT:
        total = 0.0
        for k in range(h + 1):
            p = math.comb(h, k) * 0.5**h
            total -= p * math.log2(p)
        return total
    if mode == GAUSSIAN:
        return 0.5 * math.log2(2 * math.pi * math.e * h / 4)
    raise ValueError(f"mode must be {EXACT!r} or {GAUSSIAN!r}, got {mode!r}")


def naive_bh_upper(h: int, mode: str = GAUSSIAN) -> float:
    """Counting bound H(h)/h on the rate of an order-h distinct-sums code."""
    return binomial_entropy(h, mode) / h


def bh_upper_even(h: int, mode: str = GAUSSIAN) -> float:
    """Tighter even-h bound (2/h)H(h/2) / (1 + H(h/2)/H(h))."""
    if h % 2 or h < 2:
        raise OddH(f"the bound needs even h >= 2, got {h}")
    top = binomial_entropy(h // 2, mode)
    bottom = binomial_entropy(h, mode)
    return (2 / h) * top / (1 + top / bottom)


def mc_upper(h: int) -> Fraction:
    """Rate cap for order-h mixture codes from cycle-free bipartite counting.

    (h+1)/(2h) for odd h; 1 - (1/2) * 1/(1 + 1/h) for even h.  Exact
    rationals so the 2/3 and 3/5 values print as such.
    """
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    if h % 2:
        return Fraction(h + 1, 2 * h)
    return 1 - Fraction(1, 2) * Fraction(1, 1 + Fraction(1, h))


def mc_lower_construction(h: int) -> Fraction:
    """Asymptotic rate of the balanced distinct-sums construction."""
    return Fraction(1, h)


def achievable_side(h: int, mode: str = GAUSSIAN) -> float:
    """Best known cap on what the construction can reach at order h.

    The dedicated 0.5753 bound at h = 2; the naive entropy bound above it
    (matching the published gap arithmetic).
    """
    if h == 2:
        return B2_RATE_UPPER
    return naive_bh_upper(h, mode)


def construction_rate(n: int, h: int) -> float:
    """Measured rate of the parity-check construction at payload length n.

    A distance-(2h+1) binary code family has 2^(n/h) - 1 usable columns of
    height n; the codeword length adds the balancing overhead.
    """
    if n % h:
        raise ValueError(f"need h | n for the column count, got n={n}, h={h}")
    size = 2 ** (n // h) - 1
    return math.log2(size) / plain_layout(n).N


@dataclass(frozen=True)
class BoundsRow:
    h: int
    naive: float
    even_bound: Union[float, None]
    mc_upper_value: Fraction
    mc_lower: Fraction
    achievable: float
    gap: float  # distance between the mixture-code cap and the achievable side


def bounds_table(hs: Iterable[int], mode: str = GAUSSIAN) -> list[BoundsRow]:
    rows = []
    for h in hs:
        up, ach = mc_upper(h), achievable_side(h, mode)
        rows.append(
            BoundsRow(
                h=h,
                naive=naive_bh_upper(h, mode),
                even_bound=bh_upper_even(h, mode) if h % 2 == 0 else None,
                mc_upper_value=up,
                mc_lower=mc_lower_construction(h),
                achievable=ach,
                gap=float(up) - ach,
            )
        )
    return rows

"""Arithmetic in GF(2^m) and the BCH matrices built on it.

An element of GF(2^m) is an int below 2^m whose bits are the coefficients
of a polynomial in alpha, reduced modulo a primitive polynomial of degree
m.  Alpha (the int 2) then generates the multiplicative group, so every
nonzero element is alpha^k for one k in [0, 2^m - 2].  The field keeps
that correspondence as two tables, built once per m: the antilog table
``exp[k] = alpha^k`` and the log table ``log[alpha^k] = k``.  A product
is one table read at the sum of the logs and a power one read at a
multiple of a log.

The primitive polynomials (``PRIMITIVE``, as coefficient bitmasks):

  m = 4:  x^4 + x + 1
  m = 5:  x^5 + x^2 + 1
  m = 6:  x^6 + x + 1
  m = 8:  x^8 + x^4 + x^3 + x^2 + 1

The columns of a narrow-sense BCH parity-check matrix are binary
expansions of powers of alpha (``alpha_power_pcm``); its generator
polynomial is the product of the distinct minimal polynomials of alpha,
alpha^2, ..., alpha^(delta - 1) (``bch_generator``), and ``cyclic_pcm``
puts the code it generates in standard form.  ``TABLES`` names the
matrices the package builds its codebooks and codes from, each with its
construction and its exact minimum distance; ``bhcode.bundled_spec``
builds one on request.

The module is pure Python: importing it does not load numpy, which
arrives only with the row reduction inside ``alpha_power_pcm``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

PRIMITIVE = {4: 0b10011, 5: 0b100101, 6: 0b1000011, 8: 0b100011101}


@functools.cache
def _tables(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Antilog table alpha^0 .. alpha^(2(2^m - 1) - 1) and log table of GF(2^m).

    The antilog table runs over two periods, so a product reads it at the
    plain sum of two logs.  log[0] is 0 and is never read for a product.
    """
    if m not in PRIMITIVE:
        raise ValueError(f"no primitive polynomial for m = {m}; known: {sorted(PRIMITIVE)}")
    size, poly = 1 << m, PRIMITIVE[m]
    exp = []
    log = [0] * size
    x = 1
    for k in range(size - 1):
        exp.append(x)
        log[x] = k
        x <<= 1
        if x & size:
            x ^= poly
    return tuple(exp + exp), tuple(log)


class GF2m:
    """GF(2^m) modulo ``PRIMITIVE[m]``, with multiplication by table lookup."""

    def __init__(self, m: int):
        self.exp, self.log = _tables(m)
        self.m = m
        self.size = 1 << m
        self.poly = PRIMITIVE[m]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def pow(self, a: int, e: int) -> int:
        """a^e; e is taken mod 2^m - 1, so 0^e is 1 when that residue is 0."""
        order = self.size - 1
        if not a:
            return 0 if e % order else 1
        return self.exp[self.log[a] * e % order]


def minimal_poly(field: GF2m, beta: int) -> int:
    """Minimal polynomial of beta over GF(2), as a coefficient bitmask."""
    orbit = []
    e = beta
    while e not in orbit:
        orbit.append(e)
        e = field.mul(e, e)
    poly = [1]  # coefficients in GF(2^m), low degree first
    for root in orbit:
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] ^= c
            nxt[i] ^= field.mul(c, root)
        poly = nxt
    assert all(c in (0, 1) for c in poly), "minimal polynomial not binary"
    mask = 0
    for i, c in enumerate(poly):
        mask |= c << i
    return mask


def poly_mul(a: int, b: int) -> int:
    """Product of two GF(2) polynomials given as coefficient bitmasks."""
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def bch_generator(m: int, delta: int) -> int:
    """Generator polynomial of the narrow-sense BCH code with designed distance delta.

    alpha^(2i) is a conjugate of alpha^i, with the same minimal polynomial,
    so the odd i below delta give every distinct factor.
    """
    field = GF2m(m)
    alpha = 2
    g = 1
    seen = set()
    for i in range(1, delta, 2):
        mp = minimal_poly(field, field.pow(alpha, i))
        if mp not in seen:
            seen.add(mp)
            g = poly_mul(g, mp)
    return g


def alpha_power_pcm(m: int, n: int, powers: list[int]) -> np.ndarray:
    """Rows: binary expansions of alpha^(p*i) for each p, stacked; then RREF.

    Before the reduction, row j*m + b holds bit b (least significant
    first) of alpha^(powers[j]*i) in column i, for i < n.
    """
    from .linearcode import rref

    field = GF2m(m)
    order = field.size - 1
    rows = []
    for p in powers:
        values = [field.exp[p * i % order] for i in range(n)]
        rows.extend([(v >> bit) & 1 for v in values] for bit in range(m))
    return rref(rows)[0]


def cyclic_pcm(n: int, g: int) -> list[list[int]]:
    """Standard-form H = [P^T | I] of the length-n cyclic code generated by g.

    Position j holds the coefficient of x^j.  The systematic codeword with
    message bit i < k alone is x^i plus x^k * (x^(n-k+i) mod g), since x^-k
    is x^(n-k) modulo x^n - 1, which g divides; column i of H is that
    parity, read by one shift-and-reduce step per i.
    """
    r = g.bit_length() - 1
    parities = []
    rem = g ^ (1 << r)  # x^r mod g
    for _ in range(n - r):
        parities.append(rem)
        rem <<= 1
        if rem >> r:
            rem ^= g
    return [[(p >> j) & 1 for p in parities] + [0] * j + [1] + [0] * (r - 1 - j) for j in range(r)]


# name -> (construction of the parity-check rows as lists of 0/1 ints, exact
# minimum distance); tests/test_bhcode.py pins each matrix and enumerates each d
TABLES = {
    # all nonzero columns of F_2^3, in counting order, bit 2 on top
    "hamming_7_4": (lambda: [[(c >> b) & 1 for c in range(1, 8)] for b in (2, 1, 0)], 3),
    "bch_15_7": (lambda: alpha_power_pcm(4, 15, [1, 3]).tolist(), 5),
    "bch_15_5": (lambda: alpha_power_pcm(4, 15, [1, 3, 5]).tolist(), 7),
    # 20 columns of the 16-row designed-distance-5 matrix over GF(256): a
    # compact order-2 codebook source with strings of length 16
    "bch_255_cols20": (lambda: alpha_power_pcm(8, 20, [1, 3]).tolist(), 7),
    # the erasure- and substitution-protection codes
    "bch_63_16": (lambda: cyclic_pcm(63, bch_generator(6, 23)), 23),
    "bch_31_21": (lambda: cyclic_pcm(31, bch_generator(5, 5)), 5),
}

"""Generate the parity-check tables bundled under src/masscodec/data/.

Builds classical narrow-sense BCH parity-check matrices over GF(2^m),
row-reduces them to full rank with ``masscodec.linearcode.rref``, verifies
the exact minimum distance by enumerating all codewords of the package's
systematic generator, and writes each through ``ParityCheckSpec.to_text``:

  hamming_7_4.pcm      3x7,  d=3   (order-1 codebook source)
  bch_15_7.pcm         8x15, d=5   (order-2 codebook source)
  bch_15_5.pcm        10x15, d=7   (order-3 codebook source)
  bch_255_cols20.pcm  16x20, d=7   (order-2 desk codebook source)
  bch_63_16.pcm       47x63, d=23  (erasure-protection code, standard form)
  bch_31_21.pcm       10x31, d=5   (substitution-protection code, standard form)

Run from the repository root:  PYTHONPATH=src python scripts/gen_code_tables.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from masscodec.bhcode import ParityCheckSpec
from masscodec.linearcode import LinearCode, rref

DATA = Path(__file__).resolve().parent.parent / "src" / "masscodec" / "data"

# x^4+x+1, x^5+x^2+1, x^6+x+1, x^8+x^4+x^3+x^2+1
PRIMITIVE = {4: 0b10011, 5: 0b100101, 6: 0b1000011, 8: 0b100011101}


class GF2m:
    def __init__(self, m: int):
        self.m = m
        self.size = 1 << m
        self.poly = PRIMITIVE[m]

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.size:
                a ^= self.poly
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        e %= self.size - 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r


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
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def bch_generator(m: int, delta: int) -> int:
    """Generator polynomial of the narrow-sense BCH code with designed distance delta."""
    field = GF2m(m)
    alpha = 2
    g = 1
    seen = set()
    for i in range(1, delta):
        mp = minimal_poly(field, field.pow(alpha, i))
        if mp not in seen:
            seen.add(mp)
            g = poly_mul(g, mp)
    return g


def cyclic_code_pcm(n: int, g: int) -> np.ndarray:
    """Standard-form H = [A^T | I] of the cyclic code of length n generated by g."""
    deg = g.bit_length() - 1
    k = n - deg
    G = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        for j in range(deg + 1):
            G[i, i + j] = (g >> j) & 1
    G = rref(G)[0]
    assert G.shape == (k, n)
    assert np.array_equal(G[:, :k], np.eye(k, dtype=np.uint8)), "not systematic"
    H = np.concatenate([G[:, k:].T, np.eye(n - k, dtype=np.uint8)], axis=1)
    assert not (G @ H.T % 2).any()
    return H


def min_distance(H: np.ndarray) -> int:
    """Exact minimum distance of the code {x : Hx = 0}."""
    return LinearCode.from_parity_check(H, d=1).exact_min_distance()


def alpha_power_pcm(m: int, n: int, powers: list[int]) -> np.ndarray:
    """Rows: binary expansions of alpha^(p*i) for each p, stacked; then RREF."""
    field = GF2m(m)
    rows = []
    for p in powers:
        for bit in range(m):
            rows.append([(field.pow(2, p * i) >> bit) & 1 for i in range(n)])
    return rref(rows)[0]


def write_pcm(name: str, H: np.ndarray, d: int) -> None:
    spec = ParityCheckSpec(tuple(tuple(int(b) for b in row) for row in H), d)
    (DATA / f"{name}.pcm").write_text(spec.to_text())
    print(f"{name}.pcm: {spec.n_rows}x{spec.n_cols}, d={d}")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    # Hamming (7,4): all nonzero columns of F_2^3.
    hamming = np.array(
        [[(c >> b) & 1 for c in range(1, 8)] for b in range(2, -1, -1)], dtype=np.uint8
    )
    for name, H, delta in (
        ("hamming_7_4", hamming, 3),
        ("bch_15_7", alpha_power_pcm(4, 15, [1, 3]), 5),
        ("bch_15_5", alpha_power_pcm(4, 15, [1, 3, 5]), 7),
        # 20 columns of the 16-row distance-5 matrix over GF(256): a compact
        # order-2 codebook source with strings of length 16
        ("bch_255_cols20", alpha_power_pcm(8, 20, [1, 3]), 5),
        # erasure/substitution-protection workhorses, stored in standard form
        ("bch_63_16", cyclic_code_pcm(63, bch_generator(6, 23)), 23),
        ("bch_31_21", cyclic_code_pcm(31, bch_generator(5, 5)), 5),
    ):
        d = min_distance(H)
        assert d >= delta, (name, d)
        write_pcm(name, H, d)


if __name__ == "__main__":
    main()

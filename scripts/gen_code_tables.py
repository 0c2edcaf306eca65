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

The field arithmetic (``GF2m``, ``PRIMITIVE``, ``minimal_poly``,
``poly_mul``, ``bch_generator`` and ``alpha_power_pcm``) lives in
``masscodec.gf2m``, on log/antilog tables; this script imports those names
back, so code that loads the script finds them here as well.

Run from the repository root:  PYTHONPATH=src python scripts/gen_code_tables.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from masscodec.bhcode import ParityCheckSpec
# all six names stay importable from this script for code that loads it
from masscodec.gf2m import (  # noqa: F401
    PRIMITIVE,
    GF2m,
    alpha_power_pcm,
    bch_generator,
    minimal_poly,
    poly_mul,
)
from masscodec.linearcode import LinearCode, rref

DATA = Path(__file__).resolve().parent.parent / "src" / "masscodec" / "data"


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

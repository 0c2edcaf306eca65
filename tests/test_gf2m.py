import hashlib

import numpy as np
import pytest

from masscodec import gf2m
from masscodec.gf2m import (
    PRIMITIVE,
    GF2m,
    alpha_power_pcm,
    bch_generator,
    cyclic_pcm,
    minimal_poly,
    poly_mul,
)
from masscodec.linearcode import rref


def _shift_and_add_mul(m: int, a: int, b: int) -> int:
    """The bit-serial product the log/antilog tables replaced."""
    size, poly = 1 << m, PRIMITIVE[m]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & size:
            a ^= poly
    return r


def _square_and_multiply_pow(m: int, a: int, e: int) -> int:
    r = 1
    e %= (1 << m) - 1
    while e:
        if e & 1:
            r = _shift_and_add_mul(m, r, a)
        a = _shift_and_add_mul(m, a, a)
        e >>= 1
    return r


def _per_bit_pow_pcm(m: int, n: int, powers: list[int]) -> np.ndarray:
    """alpha_power_pcm as it was: one bit-serial power per matrix entry."""
    rows = []
    for p in powers:
        for bit in range(m):
            rows.append([(_square_and_multiply_pow(m, 2, p * i) >> bit) & 1 for i in range(n)])
    return rref(rows)[0]


@pytest.mark.parametrize("m", [4, 5, 6, 8])
def test_every_product_matches_shift_and_add(m):
    field = GF2m(m)
    for a in range(field.size):
        for b in range(field.size):
            assert field.mul(a, b) == _shift_and_add_mul(m, a, b), (a, b)


@pytest.mark.parametrize("m", [4, 5, 6, 8])
def test_powers_match_square_and_multiply(m):
    field = GF2m(m)
    for a in range(field.size):
        for e in (-1, 0, 1, 2, 3, field.size - 2, field.size - 1, field.size, 3 * field.size):
            assert field.pow(a, e) == _square_and_multiply_pow(m, a, e), (a, e)


@pytest.mark.parametrize("m", sorted(PRIMITIVE))
def test_antilog_table_is_a_permutation_of_the_nonzero_elements(m):
    field = GF2m(m)
    period = field.exp[: field.size - 1]
    assert sorted(period) == list(range(1, field.size))
    assert field.exp[field.size - 1 :] == period
    assert all(field.log[x] == k for k, x in enumerate(period))


@pytest.mark.parametrize(
    "m, n, powers",
    [
        (4, 15, [1, 3]),
        (4, 15, [1, 3, 5]),
        (8, 20, [1, 3]),
        (8, 96, [1, 3, 5]),
        (8, 255, [1, 3, 5, 7]),
        (3, 7, [1]),
        (7, 127, [1, 3, 5]),
        (9, 80, [1, 3]),
        (10, 100, [1, 3, 5]),
    ],
)
def test_alpha_power_pcm_matches_the_per_bit_pow_version(m, n, powers):
    assert np.array_equal(alpha_power_pcm(m, n, powers), _per_bit_pow_pcm(m, n, powers))


def test_bch_generators_vanish_on_their_designed_roots():
    # degrees n - k of BCH(63, 16) and BCH(31, 21)
    for m, delta, degree in ((6, 23, 47), (5, 5, 10)):
        g = bch_generator(m, delta)
        assert g.bit_length() - 1 == degree
        for i in range(1, delta):
            root = _square_and_multiply_pow(m, 2, i)
            value = 0
            for j in range(degree, -1, -1):
                value = _shift_and_add_mul(m, value, root) ^ ((g >> j) & 1)
            assert value == 0, (m, i)


# every designed distance of GF(2^9) and GF(2^10) takes 1 s and 5 s
@pytest.mark.parametrize("m", [m for m in sorted(PRIMITIVE) if m <= 8])
def test_bch_generator_is_the_product_over_every_i_from_odd_i_alone(m, monkeypatch):
    calls = []

    def counted(field, beta):
        calls.append(beta)
        return minimal_poly(field, beta)

    monkeypatch.setattr(gf2m, "minimal_poly", counted)
    field = GF2m(m)
    product, factors = 1, set()  # over i = 1 .. delta - 1, grown one delta at a time
    for delta in range(2, field.size):
        factor = minimal_poly(field, field.pow(2, delta - 1))
        if factor not in factors:
            factors.add(factor)
            product = poly_mul(product, factor)
        calls.clear()
        assert bch_generator(m, delta) == product, delta
        assert len(calls) == delta // 2, delta  # one per odd i below delta


def _row_reduced_generator_pcm(n: int, g: int) -> np.ndarray:
    """[P^T | I] read off the row-reduced matrix of the n - r shifts of g."""
    r = g.bit_length() - 1
    k = n - r
    G = rref([[(g >> (j - i)) & 1 if i <= j else 0 for j in range(n)] for i in range(k)])[0]
    assert np.array_equal(G[:, :k], np.eye(k, dtype=np.uint8)), "not systematic"
    return np.concatenate([G[:, k:].T, np.eye(r, dtype=np.uint8)], axis=1)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_cyclic_pcm_matches_the_row_reduced_generator_matrix(m):
    n = (1 << m) - 1
    for g in sorted({bch_generator(m, delta) for delta in range(2, n + 1)}):
        assert np.array_equal(np.array(cyclic_pcm(n, g)), _row_reduced_generator_pcm(n, g)), g


def test_a_field_without_a_primitive_polynomial_is_refused():
    with pytest.raises(ValueError, match="m = 11"):
        GF2m(11)


# sha256 of the reduced int64 matrix as the int64 Gauss-Jordan left it
REDUCED_DIGESTS = {
    # the lookup benchmark's matrix: 96 columns of the m = 8 matrix with powers {1, 3, 5}
    (8, 96, (1, 3, 5)): "674b74a83126a38ca7b0aa41ce95cd9a31f5a9d21ddd59f319f72ee5b0e182ad",
    (8, 255, (1, 3, 5, 7)): "937e8c2c33a3d805258496d1eaa59fa3438896764d18e25c7eb5ae77823fe12d",
}


def test_alpha_power_pcm_keeps_each_reduced_matrix_byte_for_byte():
    for (m, n, powers), digest in REDUCED_DIGESTS.items():
        H = alpha_power_pcm(m, n, list(powers))
        assert H.dtype == np.int64 and H.shape == (m * len(powers), n)
        assert hashlib.sha256(H.tobytes()).hexdigest() == digest, (m, n, powers)

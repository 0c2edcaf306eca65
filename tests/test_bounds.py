import math
from fractions import Fraction

import pytest

from masscodec.bounds import (
    B2_RATE_UPPER,
    OddH,
    bh_upper_even,
    binomial_entropy,
    bounds_table,
    construction_rate,
    mc_lower_construction,
    mc_upper,
    naive_bh_upper,
)


def test_binomial_entropy_exact_small():
    assert binomial_entropy(1, "exact") == pytest.approx(1.0)
    assert binomial_entropy(2, "exact") == pytest.approx(1.5)
    assert binomial_entropy(4, "exact") == pytest.approx(2.0306, abs=5e-5)


def test_binomial_entropy_gaussian():
    assert binomial_entropy(4, "gaussian") == pytest.approx(
        0.5 * math.log2(2 * math.pi * math.e), abs=1e-12
    )
    assert binomial_entropy(4, "gaussian") == pytest.approx(2.0471, abs=5e-5)


def test_entropy_mode_validation():
    with pytest.raises(ValueError):
        binomial_entropy(2, "fancy")
    with pytest.raises(ValueError):
        binomial_entropy(0)


def test_naive_upper_reference_row():
    assert naive_bh_upper(4) == pytest.approx(0.5118, abs=5e-4)
    assert naive_bh_upper(6) == pytest.approx(0.3899, abs=5e-4)
    assert naive_bh_upper(8) == pytest.approx(0.3184, abs=5e-4)
    assert naive_bh_upper(1, "exact") == pytest.approx(1.0)
    assert naive_bh_upper(4, "exact") == pytest.approx(0.5077, abs=5e-4)


def test_even_bound_reference_row():
    assert bh_upper_even(4) == pytest.approx(0.4406, abs=5e-4)
    assert bh_upper_even(6) == pytest.approx(0.3433, abs=5e-4)
    assert bh_upper_even(8) == pytest.approx(0.2837, abs=5e-4)
    assert bh_upper_even(4, "exact") == pytest.approx(0.4313, abs=5e-4)
    with pytest.raises(OddH):
        bh_upper_even(3)


def test_exact_vs_gaussian_discrepancy_is_real():
    # the published table relies on the Gaussian approximation; the exact
    # binomial entropy shifts the h=4 bound by much more than the table
    # tolerance
    assert abs(bh_upper_even(4, "exact") - bh_upper_even(4, "gaussian")) > 5e-3


def test_mc_upper_rationals():
    assert mc_upper(2) == Fraction(2, 3)
    assert mc_upper(3) == Fraction(2, 3)
    assert mc_upper(4) == Fraction(3, 5)
    assert mc_upper(100000) == pytest.approx(0.5, abs=1e-4)


def test_gap_table_reference_values():
    rows = {r.h: r for r in bounds_table([2, 4, 6, 8])}
    assert rows[2].achievable == B2_RATE_UPPER
    assert rows[2].gap >= 0.09
    assert rows[2].gap == pytest.approx(2 / 3 - 0.5753, abs=1e-9)
    assert rows[4].gap == pytest.approx(0.0882, abs=5e-4)
    assert rows[6].gap == pytest.approx(0.1815, abs=5e-4)
    assert rows[8].gap == pytest.approx(0.2372, abs=5e-4)


def test_lower_vs_upper():
    for h in range(2, 12):
        assert mc_lower_construction(h) == Fraction(1, h)
        assert mc_lower_construction(h) < mc_upper(h)


def test_even_bound_tighter_but_asymptotically_matching():
    ratios = []
    for h in range(4, 65, 2):
        tight, naive = bh_upper_even(h), naive_bh_upper(h)
        assert tight < naive
        ratios.append(tight / naive)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    # convergence to 1 is logarithmically slow; push h far out to see it
    assert bh_upper_even(2**20) / naive_bh_upper(2**20) > 0.97


def test_construction_rate_trend_toward_half():
    rates = [construction_rate(n, 2) for n in (16, 64, 256)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(r < 0.5 for r in rates)
    with pytest.raises(ValueError):
        construction_rate(15, 2)


def test_bounds_table_shape():
    rows = bounds_table([2, 3, 4])
    assert [r.h for r in rows] == [2, 3, 4]
    assert rows[1].even_bound is None
    assert rows[0].mc_upper_value == Fraction(2, 3)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithmos.core import range_values
from arithmos.waring import (
    brute_force_count,
    correlation_counts,
    essentially_distinct_two_squares,
    four_square_counts,
    generalized_theta,
    integer_root,
    theta_series,
    two_square_counts,
    verify_lemma_g,
    waring_counts,
)


def test_theta_small():
    assert theta_series(5).coeffs == (1, 2, 0, 0, 2, 0)


def test_theta_constant_only():
    assert theta_series(0).coeffs == (1,)


def test_theta_hits_all_squares():
    coeffs = theta_series(16).coeffs
    assert coeffs[9] == 2 and coeffs[16] == 2
    assert set(coeffs) <= {0, 1, 2}
    assert coeffs[0] == 1


def test_generalized_theta_fourth_powers():
    coeffs = generalized_theta(4, 20).coeffs
    nonzero = {i: c for i, c in enumerate(coeffs) if c}
    assert nonzero == {0: 1, 1: 2, 16: 2}


def test_generalized_theta_square_case_consistent():
    assert generalized_theta(2, 30) == theta_series(30)


def test_odd_power_rejected():
    with pytest.raises(ValueError):
        generalized_theta(3, 10)
    with pytest.raises(ValueError):
        waring_counts(3, 2, 10)
    with pytest.raises(ValueError):
        brute_force_count(5, 3, 2)


def test_waring_counts_spot_values():
    table = waring_counts(2, 4, 8)
    assert table.counts[0] == 1
    assert table.counts[1] == 8
    pairs = waring_counts(2, 2, 8)
    assert pairs.counts[1] == 4
    assert pairs.counts[2] == 4


def test_four_square_alias():
    assert four_square_counts(64).counts == waring_counts(2, 4, 64).counts


def test_two_square_alias_and_vanishing():
    table = two_square_counts(16)
    assert table.counts[0] == 1
    assert table.counts[1] == 4
    assert table.counts[3] == 0


def test_count_table_invariants():
    for s, t in ((2, 2), (2, 4), (4, 2)):
        table = waring_counts(s, t, 100)
        assert table.counts[0] >= 1
        assert all(c >= 0 for c in table.counts)


def test_counts_match_enumeration_prefix():
    table = waring_counts(2, 4, 60)
    enumerated = brute_force_count(60, 2, 4)
    for m in range(61):
        assert table.counts[m] == enumerated[m]


def test_brute_force_rejects_negative_limit():
    with pytest.raises(ValueError):
        brute_force_count(-1, 2, 2)


def test_four_square_counts_match_jacobi(sieve100k):
    # r_4(n) = 8 (sigma_1(n) - 4 sigma_1(n/4) [4 | n]) for every n <= 10^5
    n_max = 10**5
    sigma = range_values("sigma", n_max, t=1)
    counts = waring_counts(2, 4, n_max).counts
    assert counts[0] == 1
    mismatches = [
        n for n in range(1, n_max + 1)
        if counts[n] != 8 * (sigma[n] - (4 * sigma[n // 4] if n % 4 == 0 else 0))
    ]
    assert mismatches == []


def test_eight_square_counts_match_jacobi(sieve100k):
    # r_8(n) = 16 sigma_3(n) for odd n and 16 (16 sigma_3(n/2) - sigma_3(n)) for even n
    n_max = 2 * 10**4
    sigma3 = range_values("sigma", n_max, t=3)
    counts = waring_counts(2, 8, n_max).counts
    assert counts[0] == 1
    mismatches = [
        n for n in range(1, n_max + 1)
        if counts[n] != (16 * (16 * sigma3[n // 2] - sigma3[n]) if n % 2 == 0 else 16 * sigma3[n])
    ]
    assert mismatches == []


def test_brute_force_spot_values():
    assert brute_force_count(0, 2, 4)[0] == 1
    assert brute_force_count(1, 2, 4)[1] == 8
    assert brute_force_count(2, 2, 2)[2] == 4
    assert brute_force_count(2, 2, 4)[2] == 24


def test_essentially_distinct_examples():
    assert essentially_distinct_two_squares(5) == 1
    assert essentially_distinct_two_squares(7) == 0
    assert essentially_distinct_two_squares(25) == 2
    assert essentially_distinct_two_squares(0) == 1


def test_correlation_counts_low():
    r = correlation_counts(4)
    assert r[0] == 1
    assert r[1] == 16


def test_correlation_is_self_convolution_of_four_square_counts():
    order = 64
    j = four_square_counts(order).counts
    r = correlation_counts(order)
    for n in range(order + 1):
        assert r[n] == sum(j[i] * j[n - i] for i in range(n + 1))


def test_power_convolution_identity():
    assert verify_lemma_g(2, 2, 2, 128).ok
    assert verify_lemma_g(2, 1, 1, 128).ok
    assert verify_lemma_g(4, 3, 2, 128).ok


def test_power_convolution_validation():
    with pytest.raises(ValueError):
        verify_lemma_g(2, 0, 1, 16)


def test_integer_root_spot_values():
    assert integer_root(0, 4) == 0
    assert integer_root(1, 2) == 1
    assert integer_root(15, 2) == 3
    assert integer_root(16, 2) == 4
    assert integer_root(16, 4) == 2
    with pytest.raises(ValueError):
        integer_root(-1, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 8))
def test_integer_root_floor_property(m, s):
    r = integer_root(m, s)
    assert r**s <= m < (r + 1) ** s

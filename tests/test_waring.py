import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithmos.core import range_values
from arithmos.waring import (
    brute_force_count,
    essentially_distinct_two_squares,
    generalized_theta,
    integer_root,
    verify_lemma_g,
    waring_counts,
)


def test_theta_small():
    assert generalized_theta(2, 5).coeffs == (1, 2, 0, 0, 2, 0)


def test_theta_constant_only():
    assert generalized_theta(2, 0).coeffs == (1,)


def test_theta_hits_all_squares():
    coeffs = generalized_theta(2, 16).coeffs
    assert coeffs[9] == 2 and coeffs[16] == 2
    assert set(coeffs) <= {0, 1, 2}
    assert coeffs[0] == 1


def test_generalized_theta_fourth_powers():
    coeffs = generalized_theta(4, 20).coeffs
    nonzero = {i: c for i, c in enumerate(coeffs) if c}
    assert nonzero == {0: 1, 1: 2, 16: 2}


def test_odd_power_rejected():
    with pytest.raises(ValueError):
        generalized_theta(3, 10)
    with pytest.raises(ValueError):
        waring_counts(3, 2, 10)
    with pytest.raises(ValueError):
        brute_force_count(5, 3, 2)


def test_waring_counts_spot_values():
    counts = waring_counts(2, 4, 8)
    assert counts[0] == 1
    assert counts[1] == 8
    pairs = waring_counts(2, 2, 8)
    assert pairs[1] == 4
    assert pairs[2] == 4


def test_two_square_alias_and_vanishing():
    counts = waring_counts(2, 2, 16)
    assert counts[0] == 1
    assert counts[1] == 4
    assert counts[3] == 0


def test_count_table_invariants():
    for s, t in ((2, 2), (2, 4), (4, 2)):
        counts = waring_counts(s, t, 100)
        assert counts[0] >= 1
        assert all(c >= 0 for c in counts)


def test_counts_match_enumeration_prefix():
    counts = waring_counts(2, 4, 60)
    enumerated = brute_force_count(60, 2, 4)
    for m in range(61):
        assert counts[m] == enumerated[m]


def test_brute_force_rejects_negative_limit():
    with pytest.raises(ValueError):
        brute_force_count(-1, 2, 2)


def test_four_square_counts_match_jacobi(sieve100k):
    # r_4(n) = 8 (sigma_1(n) - 4 sigma_1(n/4) [4 | n]) for every n <= 10^5
    n_max = 10**5
    sigma = range_values("sigma", n_max, t=1)
    counts = waring_counts(2, 4, n_max)
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
    counts = waring_counts(2, 8, n_max)
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
    r = waring_counts(2, 8, 4)
    assert r[0] == 1
    assert r[1] == 16


def test_correlation_is_self_convolution_of_four_square_counts():
    order = 64
    j = waring_counts(2, 4, order)
    r = waring_counts(2, 8, order)
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


# integer_root stops its Newton loop at the first step that does not decrease, with no
# correction after it: these three tests check the floor property wherever that could slip
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**300 - 1), st.integers(1, 40))
def test_integer_root_floor_property(m, s):
    r = integer_root(m, s)
    assert r**s <= m < (r + 1) ** s


def test_integer_root_floor_exhaustive_for_small_arguments():
    for s in range(1, 9):
        for m in range(5000):
            r = integer_root(m, s)
            assert r**s <= m < (r + 1) ** s, (m, s)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 7, 8, 13, 31, 40])
def test_integer_root_floor_beside_exact_powers(s):
    for root in (1, 2, 3, 10, 99, 2**20 - 1, 2**20, 3**40 + 1):
        for m in (root**s - 1, root**s, root**s + 1):
            r = integer_root(m, s)
            assert r**s <= m < (r + 1) ** s, (m, s)

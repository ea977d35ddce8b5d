import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithmos.powerseries import (
    Rational,
    TruncatedSeries,
    _slot_bytes,
    as_rational,
    format_rational,
    parse_rational,
    ps_mul,
    ps_pow,
    ps_pow_recurrence,
)
from arithmos.waring import generalized_theta

coeff = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def ps_eval(a: TruncatedSeries, x: Rational) -> Rational:
    """The truncated polynomial at ``x`` by Horner's rule: the oracle of product identities."""
    acc: Rational = 0
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return acc


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        ps_mul(TruncatedSeries.zero(4), TruncatedSeries.zero(5))


def test_mul_examples():
    a = TruncatedSeries.from_coeffs([1, 1, 0])
    assert ps_mul(a, a).coeffs == (1, 2, 1)
    assert ps_mul(a, TruncatedSeries.one(2)) == a


def test_mul_theta_square_counts():
    # coefficient n of K(x)^2 counts signed pairs p^2 + q^2 = n
    k = TruncatedSeries.from_coeffs([1, 2, 0])
    assert ps_mul(k, k).coeffs == (1, 4, 4)


def test_pow_examples():
    a = TruncatedSeries.from_coeffs([1, 1, 0, 0, 0])
    assert ps_pow(a, 0) == TruncatedSeries.one(4)
    assert ps_pow(a, 1) == a
    assert ps_pow(a, 4).coeffs == (1, 4, 6, 4, 1)
    with pytest.raises(ValueError):
        ps_pow(a, -1)


def test_pow_recurrence_matches_pow_binomial():
    a = TruncatedSeries.from_coeffs([1, 1, 0, 0, 0])
    assert ps_pow_recurrence(a, 4) == ps_pow(a, 4)


def test_pow_recurrence_theta_fourth_power():
    from arithmos.waring import generalized_theta

    k = generalized_theta(2, 100)
    assert ps_pow_recurrence(k, 4) == ps_pow(k, 4)


def test_pow_recurrence_needs_constant_term():
    a = TruncatedSeries.from_coeffs([0, 1, 1])
    with pytest.raises(ValueError):
        ps_pow_recurrence(a, 2)


def assert_same_power(a: TruncatedSeries, k: int) -> None:
    """The recurrence equals binary powering, with ``int`` exactly where the value is integral."""
    got = ps_pow_recurrence(a, k)
    assert got == ps_pow(a, k)
    assert [type(c) for c in got.coeffs] == [int if c == int(c) else Fraction for c in got.coeffs]


@pytest.mark.parametrize("k", range(1, 7))
def test_pow_recurrence_negative_fraction_constant_coprime_denominators(k):
    # denominators 4, 15, 7 and 9: the integer scale is their lcm 1260, no single one of them
    a = TruncatedSeries.from_coeffs(
        [Fraction(-3, 4), Fraction(2, 15), 0, Fraction(-5, 7), 1, Fraction(4, 9), -2]
    )
    assert_same_power(a, k)


@pytest.mark.parametrize("k", range(2, 7))
def test_pow_recurrence_integer_series_with_large_constant(k):
    # n * a_0 divides every step exactly, and every coefficient of the power is an int
    for a0 in (-6, 4, 9):
        a = TruncatedSeries.from_coeffs([a0, 4, 9, -2, 0, 7, 3, -8, 1])
        assert_same_power(a, k)
        assert all(type(c) is int for c in ps_pow_recurrence(a, k).coeffs)


def test_pow_recurrence_first_power_is_the_series():
    for coeffs in ([Fraction(-3, 4), Fraction(2, 15), 5, 0, Fraction(7, 6)], [3, -1, 0, 2], [Fraction(1, 2)]):
        a = TruncatedSeries.from_coeffs(coeffs)
        got = ps_pow_recurrence(a, 1)
        assert got == a
        assert [type(c) for c in got.coeffs] == [type(c) for c in a.coeffs]


@pytest.mark.parametrize("a0", [Fraction(-2, 3), 5, -1])
def test_pow_recurrence_zero_tail(a0):
    a = TruncatedSeries.from_coeffs([a0] + [0] * 9)
    for k in (1, 2, 5):
        assert ps_pow_recurrence(a, k).coeffs == (as_rational(Fraction(a0) ** k),) + (0,) * 9
        assert_same_power(a, k)


def test_pow_recurrence_does_not_use_the_product_it_checks(monkeypatch):
    from arithmos import powerseries

    def forbidden(*args, **kwargs):
        raise AssertionError("the recurrence must not go through the Kronecker product")

    a = TruncatedSeries.from_coeffs([Fraction(-3, 4), Fraction(2, 15), 1, -5])
    want = ps_pow(a, 4)
    for name in ("ps_mul", "_scaled", "_pack", "_pack_operand"):
        monkeypatch.setattr(powerseries, name, forbidden)
    assert ps_pow_recurrence(a, 4) == want


@pytest.mark.parametrize("order, k, dens", [(2048, 7, (1, 2, 3, 6)), (4096, 3, (1, 2))])
def test_pow_recurrence_matches_pow_at_large_order(order, k, dens):
    # signed rational series large enough that an off-by-one or a lost remainder would show
    rng = random.Random(f"recurrence/{order}/{k}")
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(order + 1)]
    coeffs[0] = Fraction(rng.choice([-7, -5, 5, 7]), max(dens))
    a = TruncatedSeries.from_coeffs(coeffs)
    assert ps_pow_recurrence(a, k) == ps_pow(a, k)


def test_eval_examples():
    a = TruncatedSeries.from_coeffs([1, 2, 1])
    assert ps_eval(a, 0) == 1
    assert ps_eval(a, Fraction(1, 2)) == Fraction(9, 4)


def test_floats_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries.from_coeffs([1.0, 2])
    # bool and float are not int, so an int-looking series still goes through the per-coefficient check
    for bad in ((1, 2.0), (1, True)):
        with pytest.raises(TypeError):
            TruncatedSeries(1, bad)


def test_constructor_collapses_integral_fractions_and_keeps_mixed_series_exact():
    a = TruncatedSeries(2, (1, Fraction(6, 3), Fraction(1, 3)))
    assert a.coeffs == (1, 2, Fraction(1, 3))
    assert [type(c) for c in a.coeffs] == [int, int, Fraction]
    assert ps_mul(a, a).coeffs == (1, 4, Fraction(14, 3))
    ints = TruncatedSeries(2, [3, -1, 0])
    assert ints.coeffs == (3, -1, 0) and type(ints.coeffs) is tuple


def test_coefficient_count_enforced():
    with pytest.raises(ValueError):
        TruncatedSeries(3, (1, 2))


def test_series_is_an_immutable_value():
    a = TruncatedSeries(order=2, coeffs=[1, Fraction(1, 2), 0])
    for name, value in (("order", 3), ("coeffs", (1, 2, 3)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        del a.coeffs
    same, other = TruncatedSeries.from_coeffs((1, Fraction(2, 4), 0)), TruncatedSeries.from_coeffs((1, 1, 0))
    assert a == same and hash(a) == hash(same) and len({a, same, other}) == 2
    assert a != other and a != TruncatedSeries.from_coeffs((1, Fraction(1, 2)))
    assert a != (2, (1, Fraction(1, 2), 0)) and a != (1, Fraction(1, 2), 0) and a.coeffs == (1, Fraction(1, 2), 0)
    assert repr(a) == "TruncatedSeries(order=2, [1, 1/2, 0])"
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is TruncatedSeries and twin == a and twin.coeffs == a.coeffs
        with pytest.raises(AttributeError):
            twin.order = 5


# --- algebraic properties ----------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(coeff, min_size=n + 1, max_size=n + 1),
    st.lists(coeff, min_size=n + 1, max_size=n + 1),
)))
def test_mul_commutative(pair):
    a = TruncatedSeries.from_coeffs(pair[0])
    b = TruncatedSeries.from_coeffs(pair[1])
    assert ps_mul(a, b) == ps_mul(b, a)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(coeff, min_size=n + 1, max_size=n + 1),
    st.lists(coeff, min_size=n + 1, max_size=n + 1),
    st.lists(coeff, min_size=n + 1, max_size=n + 1),
)))
def test_mul_associative(triple):
    a, b, c = (TruncatedSeries.from_coeffs(t) for t in triple)
    assert ps_mul(ps_mul(a, b), c) == ps_mul(a, ps_mul(b, c))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 10).flatmap(
        lambda n: st.lists(coeff, min_size=n + 1, max_size=n + 1)
    ),
    st.integers(1, 5),
)
def test_recurrence_agrees_with_repeated_multiplication(coeffs, k):
    coeffs = list(coeffs)
    if coeffs[0] == 0:
        coeffs[0] = 1
    a = TruncatedSeries.from_coeffs(coeffs)
    assert ps_pow_recurrence(a, k) == ps_pow(a, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(coeff, min_size=4, max_size=4),
    st.lists(coeff, min_size=4, max_size=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
)
def test_eval_respects_products_when_truncation_is_inactive(low_a, low_b, x):
    # degree-3 factors inside an order-6 window: no truncation bites
    a = TruncatedSeries.from_coeffs(list(low_a) + [0, 0, 0])
    b = TruncatedSeries.from_coeffs(list(low_b) + [0, 0, 0])
    assert ps_eval(ps_mul(a, b), x) == ps_eval(a, x) * ps_eval(b, x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(coeff, min_size=2 * n + 1, max_size=2 * n + 1),
    st.lists(coeff, min_size=2 * n + 1, max_size=2 * n + 1),
)))
def test_truncation_stability(args):
    # computing at double order then truncating equals computing truncated
    n, ca, cb = args
    big_a = TruncatedSeries.from_coeffs(ca)
    big_b = TruncatedSeries.from_coeffs(cb)
    small_a = TruncatedSeries.from_coeffs(ca[: n + 1])
    small_b = TruncatedSeries.from_coeffs(cb[: n + 1])
    big = ps_mul(big_a, big_b)
    small = ps_mul(small_a, small_b)
    assert big.coeffs[: n + 1] == small.coeffs


# --- the multiplication kernel against its oracle ------------------------------

def schoolbook_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The truncated Cauchy product by its definition: the oracle of ``ps_mul``."""
    n = a.order
    out = [0] * (n + 1)
    for i, ci in enumerate(a.coeffs):
        for j in range(n - i + 1):
            out[i + j] += ci * b.coeffs[j]
    return TruncatedSeries(n, tuple(out))


def operand(n: int):
    """Signed, non-negative (the unsigned packing) or all-zero coefficient lists of order n."""
    signed = st.one_of(
        coeff,
        st.integers(-(2**90), 2**90),  # products need slots wider than 8 bytes
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    )
    unsigned = st.one_of(
        st.integers(0, 300),
        st.integers(0, 2**70),
        st.fractions(min_value=0, max_value=3, max_denominator=12),
    )
    return st.one_of(
        st.lists(signed, min_size=n + 1, max_size=n + 1),
        st.lists(unsigned, min_size=n + 1, max_size=n + 1),
        st.just([0] * (n + 1)),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(operand(n), operand(n))), st.booleans())
@example(([5], [-7]), False)  # order 0
@example(([Fraction(3, 2), Fraction(1, 3)], [Fraction(2, 3), 3]), False)  # c_0 = 1 collapses to int
@example(([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], [0, 0, 0]), False)  # all-zero operand
@example(([2**8 - 1, 0], [1, 0]), False)  # bound exactly fills a 1-byte slot
@example(([-(2**31), 0], [1, 0]), False)  # the sign bit pushes a 4-byte bound into 8 bytes
@example(([2**64 - 1, 2**64 - 1], [1, 1]), False)  # a 9-byte slot
@example(([-(2**63), 2**63 - 1, -1], [-(2**63), 2**63 - 1, -1]), True)  # a is b, signed, 16-byte slots
@example(([-3], [0]), True)  # a square of order 0: the high half is empty
@example(([Fraction(-1, 2), 5], [0, 0]), True)  # order 1: one coefficient in each half
@example(([Fraction(2, 3), -4, Fraction(-5, 6)], [0, 0, 0]), True)  # order 2: the high half is shorter
@example(([7, Fraction(-1, 4), 0, -9], [0, 0, 0, 0]), True)  # order 3: halves of two
def test_mul_matches_schoolbook(pair, same):
    a = TruncatedSeries.from_coeffs(pair[0])
    b = a if same else TruncatedSeries.from_coeffs(pair[1])
    got = ps_mul(a, b)
    want = schoolbook_mul(a, b)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert all(type(c) is int for c in got.coeffs if c == int(c))


def test_square_matches_the_general_product_at_benchmark_orders():
    # a copy of a is not a, so the right-hand side multiplies every slot and masks the product
    rng = random.Random(16)
    cases = (
        (ps_pow(generalized_theta(4, 20000), 4), 4),  # the last square of waring --s 4 --t 8 --order 20000
        (ps_pow(generalized_theta(2, 8000), 2), 4),
        (ps_pow(generalized_theta(2, 8000), 4), 8),
        (TruncatedSeries.from_coeffs([rng.randint(-(2**58), 2**58) for _ in range(301)]), 16),
    )
    for a, size in cases:
        mags = list(map(abs, a.coeffs))  # the slot bound of an integer square, sign bit included
        assert _slot_bytes((sum(mags) * max(mags)).bit_length() + (min(a.coeffs) < 0)) == size
        assert ps_mul(a, a) == ps_mul(a, TruncatedSeries(a.order, a.coeffs))


def test_pow_of_signed_fraction_series_matches_schoolbook():
    a = TruncatedSeries.from_coeffs([Fraction(-1, 2), 3, Fraction(5, 6), -2, Fraction(7, 4)])
    want = TruncatedSeries.one(4)
    for k in range(8):
        assert ps_pow(a, k) == want
        want = schoolbook_mul(want, a)


# --- serialization ------------------------------------------------------------

def test_rational_formatting():
    assert format_rational(Fraction(3, 6)) == "1/2"
    assert format_rational(5) == "5/1"
    assert format_rational(Fraction(2, -4)) == "-1/2"
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("7") == 7

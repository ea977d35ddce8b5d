"""Theta series, their powers, and representation counts for sums of powers.

The generating series sum over all integers n of x^(n^s) (s even),
:func:`generalized_theta`, has coefficient 2 at every positive s-th power
and 1 at zero. The coefficients of its t-th power, :func:`waring_counts`,
count ordered, signed integer tuples — zeros allowed — whose s-th powers
sum to each index, which is the convention forced by the series algebra;
the square case with t = 2, 4, 8 gives r_2, r_4 and r_8. The one-manner
statements about primes use a different convention (unordered pairs of
nonnegative integers); both are implemented and the multiplicity bridge
between them is exercised in the tests rather than blurred here.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .powerseries import TruncatedSeries, ps_mul, ps_pow


def integer_root(m: int, s: int) -> int:
    """floor(m ** (1/s)) in pure integer arithmetic.

    Newton iteration with a final correction loop; floats never enter, so
    boundary values like exact s-th powers are never missed.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if m < 2 or s == 1:
        return m
    x = 1 << ((m.bit_length() + s - 1) // s)
    while True:
        nxt = ((s - 1) * x + m // x ** (s - 1)) // s
        if nxt >= x:
            break
        x = nxt
    while x**s > m:
        x -= 1
    while (x + 1) ** s <= m:
        x += 1
    return x


def _check_even_power(s: int) -> None:
    if s < 2 or s % 2:
        raise ValueError(f"only even powers s >= 2 are supported, got s={s}")


def generalized_theta(s: int, order: int) -> TruncatedSeries:
    """Series with coefficient 1 at 0 and 2 at every n^s <= order (n >= 1)."""
    _check_even_power(s)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    n = 1
    while n**s <= order:
        coeffs[n**s] = 2
        n += 1
    return TruncatedSeries(order, tuple(coeffs))


def waring_counts(s: int, t: int, order: int) -> tuple[int, ...]:
    """``counts[m]``: ordered signed integer t-tuples whose s-th powers sum to m, m <= order.

    The coefficients of the t-th power of :func:`generalized_theta`.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return ps_pow(generalized_theta(s, order), t).coeffs


def essentially_distinct_two_squares(n: int) -> int:
    """Number of pairs 0 <= a <= b with a^2 + b^2 = n (the one-manner convention)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    count = 0
    for a in range(isqrt(n // 2) + 1):
        rest = n - a * a
        b = isqrt(rest)
        if b * b == rest and b >= a:
            count += 1
    return count


class ConvolutionReport(NamedTuple):
    """Coefficientwise comparison of the (t+r)-th power against the product of powers."""

    s: int
    t: int
    r: int
    order: int
    ok: bool
    first_mismatch: int | None


def verify_lemma_g(s: int, t: int, r: int, order: int) -> ConvolutionReport:
    """Check that the (t+r)-th theta power equals the product of the t-th and r-th."""
    if t < 1 or r < 1:
        raise ValueError("need t >= 1 and r >= 1")
    base = generalized_theta(s, order)
    lhs = ps_pow(base, t + r)
    rhs = ps_mul(ps_pow(base, t), ps_pow(base, r))
    mismatch = next(
        (i for i in range(order + 1) if lhs.coeffs[i] != rhs.coeffs[i]), None
    )
    return ConvolutionReport(s, t, r, order, mismatch is None, mismatch)


def brute_force_count(limit: int, s: int, t: int) -> tuple[int, ...]:
    """Independent oracle: ``counts[m]`` ordered signed t-tuples with sum of s-th powers m, m <= limit.

    One enumeration of absolute values with a running budget covers every
    m at once; each nonzero entry doubles the weight for its sign choice.
    Identical to walking every signed tuple with |n_i| <= limit^(1/s),
    just without the mirrored halves. Never touches the series code.
    """
    if limit < 0:
        raise ValueError(f"need limit >= 0, got {limit}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    _check_even_power(s)
    counts = [0] * (limit + 1)
    powers = [b**s for b in range(integer_root(limit, s) + 1)]

    def rec(total: int, weight: int, parts: int) -> None:
        for b, bs in enumerate(powers):
            if total + bs > limit:
                break
            w = weight if b == 0 else 2 * weight
            if parts == 1:
                counts[total + bs] += w
            else:
                rec(total + bs, w, parts - 1)

    rec(0, 1, t)
    return tuple(counts)

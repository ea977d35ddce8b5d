"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds coefficients ``c_0 .. c_N`` of a formal
series worked modulo ``x^(N+1)``. Coefficients are Python ints or
:class:`fractions.Fraction`; floats are rejected so that coefficient
comparisons stay exact. Binary operations require equal orders rather
than silently truncating to the shorter operand — the mismatch is almost
always a bug in the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_rational(c: Rational) -> Rational:
    """Validate an exact rational (float rejected) and collapse integral Fractions to int."""
    if isinstance(c, bool) or isinstance(c, float):
        raise TypeError(f"expected an exact rational (int or Fraction), got {type(c).__name__}")
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(c).__name__}")


def format_rational(x: Rational) -> str:
    """Render ``x`` as ``num/den`` in lowest terms with positive denominator."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(s: str) -> Rational:
    """Parse ``num/den`` or a bare integer string."""
    txt = s.strip()
    if "/" in txt:
        num, den = txt.split("/", 1)
        return as_rational(Fraction(int(num), int(den)))
    return int(txt)


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact series ``c_0 + c_1 x + ... + c_N x^N`` (mod ``x^(N+1)``)."""

    order: int
    coeffs: tuple[Rational, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        coeffs = tuple(as_rational(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} coefficients for order {self.order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> TruncatedSeries:
        seq = tuple(coeffs)
        if not seq:
            raise ValueError("need at least the constant coefficient")
        return cls(len(seq) - 1, seq)

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls(order, (0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls(order, (1,) + (0,) * order)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return ps_add(self, other)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        return ps_mul(self, other)

    def __pow__(self, k: int) -> TruncatedSeries:
        return ps_pow(self, k)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")


def ps_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum; both series must have the same order."""
    _check_orders(a, b)
    return TruncatedSeries(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order.

    Zero coefficients of the sparser operand are skipped, which makes
    products of theta-like series cheap without changing the result.
    """
    _check_orders(a, b)
    n = a.order
    nnz_a = sum(1 for c in a.coeffs if c)
    nnz_b = sum(1 for c in b.coeffs if c)
    outer, inner = (a, b) if nnz_a <= nnz_b else (b, a)
    out: list[Rational] = [0] * (n + 1)
    inner_coeffs = inner.coeffs
    for i, ci in enumerate(outer.coeffs):
        if not ci:
            continue
        for j in range(n - i + 1):
            cj = inner_coeffs[j]
            if cj:
                out[i + j] += ci * cj
    return TruncatedSeries(n, tuple(out))


def ps_pow(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th power by binary powering; k = 0 gives the series 1."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    result = TruncatedSeries.one(a.order)
    base = a
    while k:
        if k & 1:
            result = ps_mul(result, base)
        k >>= 1
        if k:
            base = ps_mul(base, base)
    return result


def ps_pow_recurrence(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th power via the classical coefficient recurrence (needs a_0 != 0).

    With g = a^k the coefficients satisfy

        n * a_0 * g_n = sum_{j=1..n} ((k+1) j - n) * a_j * g_{n-j},  g_0 = a_0^k,

    which costs O(N^2) rational operations in total instead of per
    multiplication. Output is identical to :func:`ps_pow`.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ValueError("recurrence needs a nonzero constant term; use ps_pow")
    n_max = a.order
    g: list[Rational] = [0] * (n_max + 1)
    g[0] = a0**k
    ac = a.coeffs
    for n in range(1, n_max + 1):
        total: Rational = 0
        for j in range(1, n + 1):
            aj = ac[j]
            if aj:
                total += ((k + 1) * j - n) * aj * g[n - j]
        g[n] = as_rational(Fraction(total) / (n * a0))
    return TruncatedSeries(n_max, tuple(g))


def ps_eval(a: TruncatedSeries, x: Rational) -> Rational:
    """Evaluate the truncated polynomial at ``x`` exactly (Horner)."""
    x = as_rational(x)
    acc: Rational = 0
    for c in reversed(a.coeffs):
        acc = acc * x + c
    return as_rational(acc)

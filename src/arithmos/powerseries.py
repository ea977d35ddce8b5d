"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` holds coefficients ``c_0 .. c_N`` of a formal
series worked modulo ``x^(N+1)``. Coefficients are Python ints or
:class:`fractions.Fraction`; floats are rejected so that coefficient
comparisons stay exact. ``ps_mul`` requires equal orders rather
than silently truncating to the shorter operand — the mismatch is almost
always a bug in the caller.

Multiplication is Kronecker substitution (Schönhage 1982; Harvey 2009):
each operand is scaled to integers by the lcm of its denominators, its
coefficients are packed into byte slots of one integer wide enough for
every coefficient of the product, and one big-integer multiply does the
convolution. The slot width comes from an exact bound on the product's
coefficients, with a sign bit only when a coefficient is negative; the
product is masked to its low ``N + 1`` slots, which are read back and
divided once by the two scales. A square multiplies only the halves
that reach those slots. ``ps_pow`` is binary powering over that product, and
``ps_pow_recurrence`` is an independent O(N^2) route to the same power:
the J. C. P. Miller recurrence run on integers after one scaling by the
lcm of the denominators, every step an exact division (a remainder
raises :class:`ArithmeticError`), and one division by the scale's k-th
power at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from struct import pack, unpack_from
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


class TruncatedSeries:
    """Exact series ``c_0 + c_1 x + ... + c_N x^N`` (mod ``x^(N+1)``).

    Immutable, with equality and hash over ``(order, coeffs)``. Construction
    validates every coefficient, and a series never equals a bare tuple.
    """

    __slots__ = ("order", "coeffs")
    order: int
    coeffs: tuple[Rational, ...]

    def __init__(self, order: int, coeffs) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        coeffs = tuple(coeffs)
        if set(map(type, coeffs)) != {int}:
            coeffs = tuple(map(as_rational, coeffs))
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable TruncatedSeries")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable TruncatedSeries")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the default would assign the slots
        return self.__class__, (self.order, self.coeffs)

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

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def _check_orders(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")


# struct codes (unsigned, signed) of the 1-, 2-, 4- and 8-byte slots, standard sizes under "<"
_SLOT_CODES = {1: ("B", "b"), 2: ("H", "h"), 4: ("I", "i"), 8: ("Q", "q")}


def _scaled(coeffs: tuple[Rational, ...]) -> tuple[tuple[int, ...] | list[int], int]:
    """Integer numerators over the lcm ``D`` of the denominators, and ``D``."""
    if set(map(type, coeffs)) == {int}:
        return coeffs, 1
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _slot_bytes(bits: int) -> int:
    """Bytes per slot: 1, 2, 4 or 8 while that holds ``bits``, else the exact byte count."""
    size = (bits + 7) // 8
    return next((width for width in (1, 2, 4, 8) if size <= width), size)


def _pack(vals, size: int) -> int:
    """``sum(vals[i] << 8*size*i)`` for non-negative ``vals`` that fit a slot."""
    if size in _SLOT_CODES:
        raw = pack(f"<{len(vals)}{_SLOT_CODES[size][0]}", *vals)
    else:
        raw = bytearray(size * len(vals))
        for i, c in enumerate(vals):
            if c:
                raw[i * size:(i + 1) * size] = c.to_bytes(size, "little")
    return int.from_bytes(raw, "little")


def _pack_operand(vals, size: int, signed: bool) -> int:
    if not signed:
        return _pack(vals, size)
    return _pack([c if c > 0 else 0 for c in vals], size) - _pack([-c if c < 0 else 0 for c in vals], size)


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order, by Kronecker substitution.

    Each operand is scaled to integers by the lcm of its denominators and
    packed into one integer, coefficient ``i`` in byte slot ``i``, so that
    a single big-integer multiply (CPython's Karatsuba) does the whole
    convolution. A slot must hold every coefficient of the untruncated
    product, which is at most ``min(sum|a|*max|b|, sum|b|*max|a|)`` in
    absolute value; a sign bit is added only when some coefficient is
    negative. Slots are 1, 2, 4 or 8 bytes (packed and read through
    ``struct``) or, when wider, the exact byte count (``int.to_bytes``
    slices).

    A square (``a is b``) computes only the slots it keeps: with the low
    ``h = (order + 2) // 2`` coefficients packed as ``lo`` and the rest as
    ``hi``, the square is ``lo*lo + 2*lo*hi*X^h`` below ``X^(2h)``, two
    half-size multiplies in place of one full-size one.

    With negative coefficients an operand is the packed non-negative part
    minus the packed magnitudes of the negative part. The product's slots
    then hold signed values; the product is masked to its low ``order + 1``
    slots after adding a bias of ``2^(w-1)`` to every ``w``-bit slot, and
    XOR-ing the bias off again leaves each slot in two's complement, so
    the slots read back as signed integers. Finally each coefficient is
    divided once by the product of the two scales; integral quotients stay
    ``int``.
    """
    _check_orders(a, b)
    n = a.order
    va, den_a = _scaled(a.coeffs)
    vb, den_b = (va, den_a) if a is b else _scaled(b.coeffs)
    signed = min(va) < 0 or min(vb) < 0
    abs_a, abs_b = (list(map(abs, va)), list(map(abs, vb))) if signed else (va, vb)
    bound = min(sum(abs_a) * max(abs_b), sum(abs_b) * max(abs_a))
    if not bound:
        return TruncatedSeries.zero(n)
    size = _slot_bytes(bound.bit_length() + signed)
    if a is b:
        h = (n + 2) // 2
        lo = _pack_operand(va[:h], size, signed)
        product = lo * lo + (lo * _pack_operand(va[h:], size, signed) << (8 * size * h + 1))
    else:
        product = _pack_operand(va, size, signed) * _pack_operand(vb, size, signed)
    slots = n + 1
    mask = (1 << 8 * size * slots) - 1
    if signed:
        bias = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
        product = (product + bias) & mask ^ bias
    else:
        product &= mask
    raw = memoryview(product.to_bytes(size * slots, "little"))
    if size in _SLOT_CODES:
        coeffs = unpack_from(f"<{slots}{_SLOT_CODES[size][signed]}", raw)
    else:
        coeffs = tuple(
            int.from_bytes(raw[i:i + size], "little", signed=signed) for i in range(0, size * slots, size)
        )
    den = den_a * den_b
    if den != 1:
        coeffs = [Fraction(c, den) if c % den else c // den for c in coeffs]
    return TruncatedSeries(n, coeffs)


def ps_pow(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th power by binary powering from the lowest set bit of k; k = 0 gives the series 1."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if k == 0:
        return TruncatedSeries.one(a.order)
    base = a
    while not k & 1:
        base = ps_mul(base, base)
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = ps_mul(base, base)
        if k & 1:
            result = ps_mul(result, base)
        k >>= 1
    return result


def ps_pow_recurrence(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th power via the J. C. P. Miller recurrence (needs a_0 != 0), in integers.

    With g = a^k the coefficients satisfy (Knuth, TAOCP Vol. 2, 4.7)

        n * a_0 * g_n = sum_{j=1..n} ((k+1) j - n) * a_j * g_{n-j},  g_0 = a_0^k.

    The series is scaled once to integers ``A = D * a``, with ``D`` the lcm
    of its denominators, so ``G = A^k`` has integer coefficients and
    ``n * A_0`` divides every right-hand side exactly. The two inner sums
    ``sum j*A_j*G_{n-j}`` and ``sum A_j*G_{n-j}`` run at C level on ints;
    a division that leaves a remainder raises :class:`ArithmeticError`,
    an internal check of the recurrence. Each ``G_n`` is divided once by
    ``D^k`` at the end; integral quotients stay ``int``. The cost is
    O(N^2) integer operations, and nothing here goes through
    :func:`ps_mul`, which this route checks. Output is identical to
    :func:`ps_pow`.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if a.coeffs[0] == 0:
        raise ValueError("recurrence needs a nonzero constant term; use ps_pow")
    den = lcm(*(c.denominator for c in a.coeffs))
    head, *tail = [c.numerator * (den // c.denominator) for c in a.coeffs]
    weighted = [j * c for j, c in enumerate(tail, 1)]
    g = [head**k]
    for n in range(1, a.order + 1):
        # map stops at the shorter operand, so each sum reads G_{n-1}, ..., G_0 only
        rev = g[::-1]
        rhs = (k + 1) * sum(map(mul, weighted, rev)) - n * sum(map(mul, tail, rev))
        q, r = divmod(rhs, n * head)
        if r:
            raise ArithmeticError(f"recurrence step {n} leaves remainder {r} on division by {n * head}")
        g.append(q)
    scale = den**k
    if scale != 1:
        g = [Fraction(c, scale) if c % scale else c // scale for c in g]
    return TruncatedSeries(a.order, g)

"""Smallest-prime-factor sieve, factorization, and the classical
arithmetical functions built on them.

Everything here is exact integer arithmetic; values never pass through
floats, so results like divisor power sums stay correct at any size.
The module owns one sieve, grown by :func:`build_sieve` to the largest
range asked for; every function that needs it asks for its range.
:func:`prime_power_table` tabulates a function from its prime-power values
without factorizing; :func:`factorize`, the per-n route, walks the sieve
inside it and trial-divides beyond it (for instance large prime powers).
A factorization is the plain tuple of its ``(prime, exponent)`` pairs,
:data:`Factors`, which the per-n functions such as :func:`euler_totient` read.
"""

from __future__ import annotations

from math import isqrt
from operator import add, mul
from typing import Callable


#: A prime factorization ``n = p_1^e_1 * ... * p_l^e_l`` as its ``(prime, exponent)``
#: pairs, primes strictly increasing and every exponent >= 1; empty exactly when n = 1.
Factors = tuple[tuple[int, int], ...]


# Smallest-prime-factor table: _spf[k] is the least prime dividing k for
# 2 <= k < len(_spf), so _spf[k] == k iff k is prime. Like _partitions it is
# replaced, never mutated, and grown to exactly the largest limit asked for.
_spf: list[int] = []


def build_sieve(limit: int) -> list[int]:
    """The shared smallest-prime-factor table, covering at least ``2..limit``.

    Returns the table of an earlier call when it already covers ``limit``;
    otherwise builds one for ``2..limit`` and keeps it for later calls.
    """
    global _spf
    if limit < len(_spf):
        return _spf
    spf = list(range(limit + 1))
    for i in range(2, isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    _spf = spf
    return spf


def primes_upto(limit: int) -> list[int]:
    """All primes ``p <= limit``."""
    if limit < 2:
        return []
    spf = build_sieve(limit)
    return [p for p in range(2, limit + 1) if spf[p] == p]


def factorize(n: int) -> Factors:
    """Factor ``n >= 1``: walk the sieve when it covers ``n``, else trial-divide.

    Builds no sieve; to factor many n, grow it with :func:`build_sieve` first.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need a positive integer")
    spf = _spf
    if n >= len(spf):
        return trial_factorize(n)
    factors = []
    m = n
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return tuple(factors)


def trial_factorize(n: int) -> Factors:
    """Factor ``n`` by trial division; no sieve needed, any positive ``n``."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}; need a positive integer")
    factors = []
    m = n
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    if e:
        factors.append((2, e))
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def divisor_count(f: Factors) -> int:
    """d(n): number of divisors, the product of (e_i + 1)."""
    out = 1
    for _, e in f:
        out *= e + 1
    return out


def divisor_power_sum(f: Factors, t: int) -> int:
    """sigma_t(n): sum of t-th powers of all divisors; t = 0 gives d(n)."""
    if t < 0:
        raise ValueError(f"divisor power must be >= 0, got {t}")
    out = 1
    for p, e in f:
        pt = p**t
        term = 1
        acc = 1
        for _ in range(e):
            acc *= pt
            term += acc
        out *= term
    return out


def distinct_prime_count(f: Factors) -> int:
    """omega(n): number of distinct prime divisors; omega(1) = 0."""
    return len(f)


def exponent_power_sum(f: Factors, t: int) -> int:
    """L_t(n): sum of t-th powers of the exponents; L_1 is Omega(n)."""
    if t < 1:
        raise ValueError(f"exponent power must be >= 1, got {t}")
    return sum(e**t for _, e in f)


def euler_totient(f: Factors) -> int:
    """phi(n): count of 1 <= k <= n coprime to n; phi(1) = 1."""
    out = 1
    for p, e in f:
        out *= p ** (e - 1) * (p - 1)
    return out


def prime_count_upto(n: int) -> int:
    """pi(n): number of primes <= n."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    spf = build_sieve(n)
    return sum(1 for k in range(2, n + 1) if spf[k] == k)


def local_function(fn_id: str, t: int | None = None) -> tuple[Callable[[Factors], int], bool]:
    """The factorization-local function ``fn_id`` and whether it is additive.

    ``d``, ``sigma`` (t >= 0, default 1), ``phi`` are multiplicative and
    ``omega``, ``bigomega``, ``L`` (t >= 1, default 1) additive: each is
    fixed by its values on prime powers.
    """
    if fn_id == "d":
        return divisor_count, False
    if fn_id == "sigma":
        t = 1 if t is None else t
        if t < 0:
            raise ValueError(f"sigma needs t >= 0, got {t}")
        return (lambda f: divisor_power_sum(f, t)), False
    if fn_id == "phi":
        return euler_totient, False
    if fn_id == "omega":
        return distinct_prime_count, True
    if fn_id == "bigomega":
        return (lambda f: exponent_power_sum(f, 1)), True
    if fn_id == "L":
        t = 1 if t is None else t
        if t < 1:
            raise ValueError(f"L needs t >= 1, got {t}")
        return (lambda f: exponent_power_sum(f, t)), True
    raise ValueError(f"{fn_id!r} is not a factorization-local function id")


def range_values(fn_id: str, limit: int, t: int | None = None) -> list[int]:
    """``v`` with ``v[n] = f(n)`` for every ``1 <= n <= limit``; ``v[0]`` is 0 padding.

    The factorization-local ids of :func:`local_function` take one pass
    over ``spf``: n = p^e * m with p = spf(n) and p not dividing m reuses
    the values at p^e and m, and only prime powers are evaluated directly.
    ``pi`` is a running prefix count over the sieve and ``partition``
    reads the :func:`partition_count` cache.
    """
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    if fn_id == "partition":
        partition_count(limit)
        values = _partitions[: limit + 1]
        values[0] = 0
        return values
    rule = None if fn_id == "pi" else local_function(fn_id, t)
    spf = build_sieve(limit)
    values = [0] * (limit + 1)
    if rule is None:
        count = 0
        for n in range(2, limit + 1):
            if spf[n] == n:
                count += 1
            values[n] = count
        return values

    local, additive = rule
    combine = add if additive else mul
    values[1] = 0 if additive else 1
    low = [1] * (limit + 1)  # low[n] = p^e, the full power of p = spf(n) dividing n
    for n in range(2, limit + 1):
        p = spf[n]
        q = n // p
        if q % p:
            low[n] = p
            values[n] = combine(values[p], values[q]) if q > 1 else local(((p, 1),))
            continue
        pe = low[q] * p
        low[n] = pe
        if pe < n:
            values[n] = combine(values[pe], values[n // pe])
        else:
            e = 2
            while q > p:
                q //= p
                e += 1
            values[n] = local(((p, e),))
    return values


def prime_power_table(limit: int, local: Callable, combine: Callable, unit) -> list:
    """``v`` over ``0..limit``: ``v[n]`` is ``unit`` combined with ``local(p, a)`` for
    each ``p^a`` exactly dividing n, in increasing p; ``v[0]`` and ``v[1]`` stay ``unit``.

    Per prime p, a row over the multiples of p gets ``local(p, a)`` at the multiples
    of ``p^a`` for a = 1, 2, ... in turn, so the exact exponent is written last, and
    is folded into ``v[p::p]``: one ``local`` call per prime power, no factorizing.
    """
    v = [unit] * (limit + 1)
    for p in primes_upto(limit):
        count = limit // p
        row = [local(p, 1)] * count  # row[i] stands for n = (i + 1) * p
        step, a = p, 2
        while step <= count:
            row[step - 1::step] = [local(p, a)] * (count // step)
            step, a = step * p, a + 1
        v[p::p] = map(combine, v[p::p], row)
    return v


# Cache of p(0), p(1), ... computed so far. Grown copy-on-write so that a
# half-built list is never visible to concurrent readers.
_partitions: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n): number of partitions of n, by the pentagonal-number recurrence.

    Exact big integers; p(0) = 1.
    """
    if n < 0:
        raise ValueError(f"partition argument must be >= 0, got {n}")
    global _partitions
    cache = _partitions
    if n < len(cache):
        return cache[n]
    cache = list(cache)
    for m in range(len(cache), n + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            term = cache[m - g]
            g2 = g + k
            if g2 <= m:
                term += cache[m - g2]
            total += term if k % 2 else -term
            k += 1
        cache.append(total)
    _partitions = cache
    return cache[n]

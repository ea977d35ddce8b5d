"""Smallest-prime-factor sieve, factorization, and the classical
arithmetical functions built on them.

Everything here is exact integer arithmetic; values never pass through
floats, so results like divisor power sums stay correct at any size.
The module owns one sieve and the list of its primes, grown together by
:func:`build_sieve` to the largest range asked for; every function that
needs either asks for its range.
:func:`prime_power_table` tabulates a function from its prime-power values
without factorizing, and :func:`largest_prime_factor_order` orders ``2..N``
by largest prime factor, both from the prime list; :func:`factorize`, the
per-n route, walks the sieve inside it and trial-divides beyond it (for
instance large prime powers).
A factorization is the plain tuple of its ``(prime, exponent)`` pairs,
:data:`Factors`, which the per-n functions such as :func:`euler_totient` read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, compress, islice
from math import isqrt
from operator import add, mul, not_
from typing import Callable


#: A prime factorization ``n = p_1^e_1 * ... * p_l^e_l`` as its ``(prime, exponent)``
#: pairs, primes strictly increasing and every exponent >= 1; empty exactly when n = 1.
Factors = tuple[tuple[int, int], ...]


# Smallest-prime-factor table: _spf[k] is the least prime dividing k for
# 2 <= k < len(_spf), so _spf[k] == k iff k is prime. Like _partitions it is
# replaced, never mutated, and grown to exactly the largest limit asked for.
_spf: list[int] = []

# (limit, primes <= limit), set with _spf by the build that made it. Replaced as
# a whole, never mutated; primes_upto hands out slices of it, never the list.
_prime_list: tuple[int, list[int]] = (1, [])


def build_sieve(limit: int) -> list[int]:
    """The shared smallest-prime-factor table, covering at least ``2..limit``.

    Returns the table of an earlier call when it and the shared prime list
    already cover ``limit``; otherwise builds one for ``2..limit`` and keeps
    it, with its primes, for later calls. The build starts from zeros: each
    prime p <= isqrt(limit), largest first, is written into ``spf[p*p::p]``
    by one slice assignment, so the smallest prime factor of a composite is
    written last. The entries still 0 are then exactly 0, 1 and the primes,
    which get themselves. No n is tested in Python, and the table holds no
    int object of its own per n.
    """
    global _spf, _prime_list
    if limit < len(_spf) and limit <= _prime_list[0]:
        return _spf
    spf = [0] * (limit + 1)
    for p in reversed(primes_upto(isqrt(limit))):
        spf[p * p::p] = [p] * ((limit - p * p) // p + 1)
    primes = list(compress(range(limit + 1), map(not_, spf)))
    for p in primes:
        spf[p] = p
    del primes[:2]  # 0 and 1
    _spf, _prime_list = spf, (limit, primes)
    return spf


def primes_upto(limit: int) -> list[int]:
    """All primes ``p <= limit``, as a new list sliced from the shared prime list.

    Grows the sieve with :func:`build_sieve` when the list falls short.
    """
    if limit < 2:
        return []
    if limit > _prime_list[0]:
        build_sieve(limit)
    primes = _prime_list[1]
    return primes[:bisect_right(primes, limit)]


def largest_prime_factor_order(limit: int) -> Iterator[int]:
    """``2..limit`` grouped by the largest prime factor P+(n), largest P+ first,
    increasing n within a group.

    A ``bytearray`` over ``0..limit`` marks the n that no larger prime has
    claimed yet. Walking the primes down, the group of p is its free multiples,
    taken by ``compress`` at C speed; then p claims all its multiples. Above
    ``isqrt(limit)`` every multiple of p has P+ = p, so the group is the whole
    range, and above ``limit // 2`` it is p alone and claims nothing that a
    smaller prime reads. No n gets an int object or a list slot: beside the
    prime list, the order costs about two bytes per n.
    """
    primes = primes_upto(limit)
    singles = len(primes) - bisect_right(primes, limit // 2)
    root = isqrt(limit)
    free = bytearray(b"\x01") * (limit + 1)
    zeros = memoryview(bytes(limit // 2))

    def groups() -> Iterator[Iterable[int]]:
        down = reversed(primes)
        yield islice(down, singles)  # chain takes all of it before the loop goes on with down
        for p in down:
            multiples = range(p, limit + 1, p)
            # the slice of the mask is a copy, so the claim below cannot change this group
            yield multiples if p > root else compress(multiples, free[p::p])
            free[p::p] = zeros[:limit // p]

    return chain.from_iterable(groups())


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
    """pi(n): number of primes <= n, by bisection on the shared prime list.

    A list that falls short is replaced, through :func:`build_sieve`, by one
    to at least twice its limit, so per-n calls over ``1..N`` cost O(N) in
    all. This route is apart from the running count of ``range_values("pi")``,
    so each checks the other.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    limit = _prime_list[0]
    if n > limit:
        build_sieve(max(n, 2 * limit))
    return bisect_right(_prime_list[1], n)


#: The factorization-local ids, each fixed by its values on prime powers: id -> (its function of a
#: factorization, taking t as a keyword when the id takes one; whether it is additive, else
#: multiplicative; the least t the id takes, None when it takes none). A t defaults to 1.
LOCAL_FUNCTIONS = {
    "d": (divisor_count, False, None),
    "sigma": (divisor_power_sum, False, 0),
    "omega": (distinct_prime_count, True, None),
    "bigomega": (partial(exponent_power_sum, t=1), True, None),
    "L": (exponent_power_sum, True, 1),
    "phi": (euler_totient, False, None),
}


def takes_t(fn_id: str) -> bool:
    """Whether the function id ``fn_id`` takes a power parameter t."""
    return fn_id in LOCAL_FUNCTIONS and LOCAL_FUNCTIONS[fn_id][2] is not None


def function_t(fn_id: str, t: int | None) -> int | None:
    """The t that ``fn_id`` runs with: ``t``, default 1, for an id that takes one, else None; a t
    below the id's least, or any t for an id that takes none, raises ValueError."""
    if not takes_t(fn_id):
        if t is not None:
            raise ValueError(f"parameter t does not apply to {fn_id!r}")
        return None
    least = LOCAL_FUNCTIONS[fn_id][2]
    if (t := 1 if t is None else t) < least:
        raise ValueError(f"{fn_id} needs t >= {least}, got {t}")
    return t


def local_function(fn_id: str, t: int | None = None) -> tuple[Callable[[Factors], int], bool]:
    """The function of a factorization that :data:`LOCAL_FUNCTIONS` gives ``fn_id``, at the t of
    :func:`function_t`, and whether it is additive."""
    if fn_id not in LOCAL_FUNCTIONS:
        raise ValueError(f"{fn_id!r} is not a factorization-local function id")
    local, additive, _ = LOCAL_FUNCTIONS[fn_id]
    t = function_t(fn_id, t)
    return (local if t is None else partial(local, t=t)), additive


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
    t = function_t(fn_id, t)
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

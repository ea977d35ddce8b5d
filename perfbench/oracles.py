"""Independent reference values for checking benchmark job outputs.

Nothing here imports arithmos: every value is recomputed by trial
division, closed forms, small sieves of this file's own, or floating
point, so a wrong answer on the timed route cannot also be the expected
answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1 by trial division up to sqrt(n)."""
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return out


def sigma(n: int, t: int) -> int:
    """sigma_t(n); t = 0 gives d(n)."""
    return sum(d**t for d in divisors(n))


def prime_exponents(n: int) -> list[int]:
    """Exponents of the prime factorization of n, by trial division."""
    exps = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps.append(e)
        p += 1
    if n > 1:
        exps.append(1)
    return exps


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def prime_pi_table(top: int) -> list[int]:
    """pi(0..top), testing each k by trial division."""
    pi = [0]
    for k in range(1, top + 1):
        pi.append(pi[-1] + is_prime(k))
    return pi


def r2(n: int) -> int:
    """Jacobi: r_2(n) = 4 (d_{1,4}(n) - d_{3,4}(n)); r_2(0) = 1."""
    if n == 0:
        return 1
    return 4 * sum(1 if d % 4 == 1 else -1 if d % 4 == 3 else 0 for d in divisors(n))


def r3(n: int) -> int:
    """r_3(n) = sum over c of r_2(n - c^2), c ranging over all signed integers."""
    return sum(r2(n - c * c) for c in range(-isqrt(n), isqrt(n) + 1))


def r4(n: int) -> int:
    """Jacobi: r_4(n) = 8 * sum of the divisors of n not divisible by 4; r_4(0) = 1."""
    if n == 0:
        return 1
    return 8 * sum(d for d in divisors(n) if d % 4)


def power_rep_counts(s: int, t: int, top: int) -> dict[int, int]:
    """Ordered signed t-tuples with s-th powers summing to m, for every m <= top.

    Sparse dictionary convolution by repeated doubling; t must be a power of two.
    """
    if t & (t - 1):
        raise ValueError(f"t must be a power of two, got {t}")
    counts = {0: 1}
    b = 1
    while b**s <= top:
        counts[b**s] = 2
        b += 1
    while t > 1:
        sq: dict[int, int] = {}
        for i, ci in counts.items():
            for j, cj in counts.items():
                if i + j <= top:
                    sq[i + j] = sq.get(i + j, 0) + ci * cj
        counts = sq
        t //= 2
    return counts


def partitions(top: int) -> list[int]:
    """p(0..top) by the dynamic program over largest allowed part."""
    p = [1] + [0] * top
    for part in range(1, top + 1):
        for i in range(part, top + 1):
            p[i] += p[i - part]
    return p


def omega_sieve(top: int) -> list[int]:
    """omega(n) for 0 <= n <= top (omega(0) unused, 0)."""
    w = [0] * (top + 1)
    for p in range(2, top + 1):
        if w[p] == 0:
            for m in range(p, top + 1, p):
                w[m] += 1
    return w


def sigma1_sieve(top: int) -> list[int]:
    """sigma_1(n) for 0 <= n <= top."""
    s = [0] * (top + 1)
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            s[m] += d
    return s


def histogram_scan(poly: list[tuple[int, int]], steps: int = 240) -> dict:
    """Sign changes of P(x) - P(1) on the grid -4..2, exactly, for P = 1 + sum c x^v."""
    shift = 1 + sum(c for _, c in poly)
    lo, hi = Fraction(-4), Fraction(2)
    signs = []
    zeros = 0
    for i in range(steps + 1):
        x = lo + i * (hi - lo) / steps
        val = 1 + sum(c * x**v for v, c in poly) - shift
        zeros += val == 0
        if val:
            signs.append(1 if val > 0 else -1)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return {"steps": steps, "sign_changes": changes, "exact_zeros_on_grid": zeros}


def lemma_floats(identity: str, x: Fraction, k: int, prime_bound: int, exp_bound: int,
                 nmax: int) -> tuple[float, float]:
    """Float (product, sum) of the truncated lemma-a or lemma-b (t = 1) identity.

    lemma-a: alpha = 1, beta = omega; lemma-b(t=1): alpha = sigma_1, beta = omega.
    """
    xf = float(x)
    omega = omega_sieve(nmax)
    alpha = sigma1_sieve(nmax) if identity == "lemma-b" else [1] * (nmax + 1)
    total = math.fsum([1.0] + [alpha[n] * xf ** omega[n] / n**k for n in range(2, nmax + 1)])
    product = 1.0
    for p in range(2, prime_bound + 1):
        if not is_prime(p):
            continue
        theta = (lambda a: (p ** (a + 1) - 1) // (p - 1)) if identity == "lemma-b" else (lambda a: 1)
        product *= math.fsum([1.0] + [theta(a) / p ** (a * k) * xf for a in range(1, exp_bound + 1)])
    return product, total


def zeta_floats(s: int, nmax: int, prime_bound: int) -> tuple[float, float]:
    """Float (sum, product) of the truncated zeta(s) sum and Euler product."""
    total = math.fsum(1 / n**s for n in range(1, nmax + 1))
    product = 1.0
    for p in range(2, prime_bound + 1):
        if is_prime(p):
            product *= p**s / (p**s - 1)
    return total, product

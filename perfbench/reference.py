"""Machine-speed probe: a fixed pure-Python computation that does not use arithmos.

    python3 perfbench/reference.py

The harness runs it as a cold process between jobs and scales its timings
by how long the probe took (see ``run.py``), so that the host's speed,
which other tenants of a shared machine change from minute to minute,
cancels out of the reported times. The work mixes what the jobs do:
trial division over small ints, big-int powers, ``Fraction`` sums and
dict updates. It prints a checksum, so the harness can tell the probe
ran in full.
"""

from fractions import Fraction
from math import isqrt


def probe() -> int:
    divisor_sums = 0
    for n in range(1, 1800):
        divisor_sums += sum(d + n // d for d in range(1, isqrt(n) + 1) if n % d == 0)
    zeta = sum(Fraction(1, n * n) for n in range(1, 220))
    powers = sum(7**k % 1000003 for k in range(1, 400))
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return divisor_sums + zeta.denominator % 1000003 + powers + sum(counts.values())


if __name__ == "__main__":
    print(probe())

"""Library job: the k-th power of a seeded dense series, two ways.

    PYTHONPATH=src python3 perfbench/libjob.py SEED DEN

builds a series of order ORDER whose coefficients are integers in 1..9
over the common denominator DEN (the magnitudes of the repo's own
series-engine acceptance test), raises it to the K-th power
with ``ps_pow`` (binary powering over ``ps_mul``) and with
``ps_pow_recurrence``, and prints both coefficient lists as one JSON
object ``{"pow": [...], "rec": [...]}`` of ``num/den`` strings.

The seed picks coefficient values only. The coefficients are positive,
so no coefficient of any intermediate power cancels to 0, and every
``ps_mul`` multiplies the same nonzero pairs whatever the seed; with
signed coefficients an exact cancellation now and then would make the
work depend on the seed.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

ORDER = 256
K = 5
NUMERATORS = range(1, 10)


def series_coeffs(seed: int, den: int) -> list[Fraction]:
    rng = random.Random(f"libjob/{seed}/{den}")
    return [Fraction(rng.choice(NUMERATORS), den) for _ in range(ORDER + 1)]


def main(argv: list[str]) -> None:
    # Imported here: the harness imports series_coeffs without arithmos on its path.
    from arithmos import powerseries

    seed, den = int(argv[0]), int(argv[1])
    series = powerseries.TruncatedSeries(ORDER, tuple(series_coeffs(seed, den)))
    by_pow = powerseries.ps_pow(series, K)
    by_rec = powerseries.ps_pow_recurrence(series, K)
    fmt = powerseries.format_rational
    json.dump({"pow": [fmt(c) for c in by_pow.coeffs], "rec": [fmt(c) for c in by_rec.coeffs]},
              sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Exact-arithmetic toolkit for arithmetical functions: factorization,
classification (multiplicative/additive and decomposability testing),
truncated formal power series, product-vs-series identity verification,
exponent-histogram PMFs, and representation counts for sums of powers.
"""

__version__ = "0.1.0"

from .classify import ArithFnHandle, ClassificationReport, classify, exp_transform, verify_decomposable
from .core import (
    build_sieve,
    divisor_count,
    divisor_power_sum,
    distinct_prime_count,
    euler_totient,
    exponent_power_sum,
    factorize,
    partition_count,
    prime_count_upto,
    prime_power_table,
    primes_upto,
    range_values,
    trial_factorize,
)
from .identities import (
    IdentityCheckReport,
    LocalFactorSpec,
    builtin_spec,
    euler_zeta_check,
    partition_product_check,
    spec_table,
    truncated_product_eval,
    truncated_sum_eval,
    verify_per_term,
)
from .powerseries import (
    TruncatedSeries,
    ps_mul,
    ps_pow,
    ps_pow_recurrence,
)
from .probnum import ArithPolynomial, Pmf, build_polynomial, eval_at_one, moment, normalize
from .waring import (
    brute_force_count,
    essentially_distinct_two_squares,
    generalized_theta,
    verify_lemma_g,
    waring_counts,
)

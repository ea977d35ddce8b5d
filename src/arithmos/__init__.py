"""Exact-arithmetic toolkit for arithmetical functions: factorization,
classification (multiplicative/additive and decomposability testing),
truncated formal power series, product-vs-series identity verification,
exponent-histogram PMFs, and representation counts for sums of powers.

Importing the package loads none of its submodules. An exported name
imports the submodule that defines it on first use (PEP 562), and so does
a submodule name: ``from arithmos import powerseries`` loads
``arithmos.powerseries`` and nothing else of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("ArithFnHandle", "ClassificationReport", "exp_transform", "verify_decomposable"), "classify"),
    **dict.fromkeys(("build_sieve", "factorize", "partition_count", "prime_count_upto", "prime_power_table",
                     "primes_upto", "range_values", "trial_factorize"), "core"),
    **dict.fromkeys(("IdentityCheckReport", "LocalFactorSpec", "builtin_spec", "euler_zeta_check",
                     "partition_product_check", "spec_table", "truncated_product_eval", "truncated_sum_eval",
                     "verify_per_term"), "identities"),
    **dict.fromkeys(("TruncatedSeries", "ps_mul", "ps_pow", "ps_pow_recurrence"), "powerseries"),
    **dict.fromkeys(("ArithPolynomial", "Pmf", "build_polynomial", "eval_at_one", "moment", "normalize"),
                    "probnum"),
    **dict.fromkeys(("brute_force_count", "essentially_distinct_two_squares", "generalized_theta",
                     "verify_lemma_g", "waring_counts"), "waring"),
}

_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once per name
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})

"""Named function handles shared by the CLI, classification, and tests.

``make_handle`` wires the classical functions from :mod:`arithmos.core`
into :class:`~arithmos.classify.ArithFnHandle` objects. Per-n ``eval`` of
a factorization-local id folds its prime-power rule over
:func:`~arithmos.core.factorize`, the per-n route: it walks the sieve of
:mod:`arithmos.core` inside its range and trial-divides beyond it, so
prime powers far above the sieve still evaluate exactly. Every handle
except ``log`` also carries :func:`~arithmos.core.range_values`, which
tabulates ``1..N`` in one pass over the sieve.
"""

from __future__ import annotations

import math
from functools import partial

from .classify import ArithFnHandle
from .core import (LOCAL_FUNCTIONS, factorize, function_t, local_function, partition_count, prime_count_upto,
                   range_values)

#: The integer-valued ids: what the table surface emits and what can serve
#: as an exponent function for histogram polynomials.
INTEGER_FUNCTION_IDS = (*LOCAL_FUNCTIONS, "pi", "partition")

#: Every id ``make_handle`` accepts. ``log`` evaluates in floating point
#: and is only meaningful for approximate classification.
FUNCTION_IDS = (*INTEGER_FUNCTION_IDS, "log")


def make_handle(fn_id: str, t: int | None = None) -> ArithFnHandle:
    """Build a named handle; ``t`` is checked and defaulted by :func:`~arithmos.core.function_t`."""
    if fn_id not in FUNCTION_IDS:
        raise ValueError(f"unknown function id {fn_id!r}; expected one of {FUNCTION_IDS}")
    t = function_t(fn_id, t)

    if fn_id == "log":
        return ArithFnHandle("log", math.log, real=True)
    if fn_id == "pi":
        ev = prime_count_upto
    elif fn_id == "partition":
        ev = partition_count
    else:
        rule, additive = local_function(fn_id, t)
        fold = sum if additive else math.prod

        def ev(n: int) -> int:
            return fold(rule(p, a) for p, a in factorize(n))
    name = fn_id if t is None else f"{fn_id}_{t}"
    return ArithFnHandle(name, ev, range_values=partial(range_values, fn_id, t=t))


def constant_one() -> ArithFnHandle:
    """The constant function 1 (the trivial weight in several identities)."""
    return ArithFnHandle("one", lambda n: 1)

"""Run one benchmark job in-process, with spans around arithmos' public functions.

    PYTHONPATH=src python3 perfbench/traced.py cli ARGS...   # as python3 -m arithmos.cli ARGS...
    PYTHONPATH=src python3 perfbench/traced.py lib ARGS...   # as python3 perfbench/libjob.py ARGS...

The job's standard output and exit code are unchanged. The last line on
standard error is TRACE_MARK followed by one JSON object:
``{"root_s": ..., "spans": {name: [calls, s, self_s]}, "counters": {...}}``.

A function is wrapped wherever it is looked up: ``from .core import
factorize`` binds the name in every consumer module, so every module
attribute that refers to a traced function is replaced by one shared
wrapper. Per-n calls (``factorize``, handle ``eval``) only add to their
name's counters; no record is kept per call. Self time is a span's time
minus the time of the spans it called, so the self times of one job sum
to its root span.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from itertools import accumulate

TRACE_MARK = "perfbench-trace "

TRACED = {
    "core": ("build_sieve", "factorize", "prime_count_upto", "partition_count"),
    "classify": ("classify", "verify_decomposable"),
    "probnum": ("build_polynomial", "shifted_sign_scan"),
    "identities": ("verify_per_term", "numeric_identity_check", "truncated_sum_eval",
                   "truncated_product_eval", "exact_sum", "euler_zeta_check",
                   "partition_product_check", "partition_product_series"),
    "powerseries": ("ps_mul", "ps_pow", "ps_pow_recurrence"),
    "waring": ("waring_counts", "verify_lemma_g", "brute_force_count"),
}
# Handles returned by these factories get their ``eval`` traced as "functions.eval".
HANDLE_FACTORIES = ("make_handle", "constant_one")
ROOTS = {"cli": "cli", "lib": "libjob"}
# Time spent computing the counters below; kept out of the span that was observed.
OBSERVE = "trace.observe"

SPAN_NAMES = frozenset(
    [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    + ["functions.eval", OBSERVE, *ROOTS.values()]
)
SUM_COUNTERS = frozenset(["powerseries.ps_mul.coeff_products", "identities.exact_sum.terms"])
MAX_COUNTERS = frozenset(["powerseries.ps_mul.max_coeff_bits", "identities.sum_den_bits"])


def _bits(c) -> int:
    """Size of an int or Fraction coefficient: its larger of numerator and denominator bits."""
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _observe_ps_mul(counters: dict, args: tuple, result) -> None:
    a, b = args
    n = a.order
    # Schoolbook products: pairs (i, j) of nonzero coefficients with i + j <= n.
    b_nonzero_upto = list(accumulate(1 if c else 0 for c in b.coeffs))
    products = sum(b_nonzero_upto[n - i] for i, c in enumerate(a.coeffs) if c)
    counters["powerseries.ps_mul.coeff_products"] += products
    bits = max(_bits(c) for s in (a, b, result) for c in s.coeffs)
    counters["powerseries.ps_mul.max_coeff_bits"] = max(counters["powerseries.ps_mul.max_coeff_bits"], bits)


def _observe_exact_sum(counters: dict, args: tuple, result) -> None:
    counters["identities.exact_sum.terms"] += len(args[0])
    bits = result.denominator.bit_length()
    counters["identities.sum_den_bits"] = max(counters["identities.sum_den_bits"], bits)


OBSERVERS = {"powerseries.ps_mul": _observe_ps_mul, "identities.exact_sum": _observe_exact_sum}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {OBSERVE: [0, 0.0, 0.0]}  # name -> [calls, s, self_s]
        self.counters = dict.fromkeys(SUM_COUNTERS | MAX_COUNTERS, 0)
        self._inner: list[float] = []  # per open span: time covered by its child spans

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        observer = OBSERVERS.get(name)
        observed = self.spans[OBSERVE]
        inner = self._inner
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed
            if observer is not None:
                start = clock()
                observer(counters, args, result)
                elapsed = clock() - start
                observed[0] += 1
                observed[1] += elapsed
                observed[2] += elapsed
                if inner:
                    inner[-1] += elapsed
            return result

        return traced

    def install(self) -> None:
        """Replace every module-level binding of a traced function in arithmos."""
        replace = {}
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"arithmos.{mod_name}")
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = self.wrap(f"{mod_name}.{name}", fn)
        functions = importlib.import_module("arithmos.functions")
        for name in HANDLE_FACTORIES:
            replace[id(getattr(functions, name))] = self._traced_handles(getattr(functions, name))
        importlib.import_module("arithmos.cli")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "arithmos" or mod_name.startswith("arithmos."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in replace:
                        setattr(mod, attr, replace[id(val)])

    def _traced_handles(self, factory):
        def make(*args, **kwargs):
            handle = factory(*args, **kwargs)
            return dataclasses.replace(handle, eval=self.wrap("functions.eval", handle.eval))

        return make


def main(argv: list[str]) -> None:
    kind, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        from arithmos.cli import cli

        def body():
            cli.main(args=args, prog_name="arithmos")
    else:
        import libjob

        def body():
            libjob.main(args)

    code = 0
    try:
        tracer.wrap(ROOTS[kind], body)()
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    report = {"root_s": tracer.spans[ROOTS[kind]][1], "spans": tracer.spans, "counters": tracer.counters}
    sys.stderr.write(TRACE_MARK + json.dumps(report) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])

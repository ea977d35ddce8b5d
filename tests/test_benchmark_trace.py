"""The benchmark's tracer still runs arithmos: same output, and spans recorded."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_MARK = "perfbench-trace "


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


VERIFY = ("verify", "--identity", "lemma-a", "--nmax", "200", "--x", "1/2", "--prime-bound", "50", "--exp-bound", "4")
PARTITION = ("verify", "--identity", "partition-product", "--order", "300")
WARING = ("waring", "--s", "4", "--t", "8", "--order", "2000")
CLASSIFY = ("classify", "--fn", "sigma", "--bound", "2000", "--decomposable", "multiplicative")
PROBNUM = ("probnum", "--beta", "omega", "--M", "2000", "--roots")


def test_traced_jobs_print_the_untraced_output_and_a_trace():
    jobs = {
        "table": (("-m", "arithmos.cli", "table", "--fn", "d", "--nmax", "50"),
                  ("cli", "table", "--fn", "d", "--nmax", "50")),
        "verify": (("-m", "arithmos.cli", *VERIFY), ("cli", *VERIFY)),
        "lib": (("perfbench/libjob.py", "1", "2"), ("lib", "1", "2")),
        "partition": (("-m", "arithmos.cli", *PARTITION), ("cli", *PARTITION)),
        "waring": (("-m", "arithmos.cli", *WARING), ("cli", *WARING)),
        "classify": (("-m", "arithmos.cli", *CLASSIFY), ("cli", *CLASSIFY)),
        "probnum": (("-m", "arithmos.cli", *PROBNUM), ("cli", *PROBNUM)),
    }
    spans, counters = {}, {}
    for name, (plain_args, traced_args) in jobs.items():
        plain = _run(*plain_args)
        traced = _run("perfbench/traced.py", *traced_args)
        assert plain.returncode == 0 == traced.returncode, traced.stderr
        assert traced.stdout == plain.stdout
        last = traced.stderr.splitlines()[-1]
        assert last.startswith(TRACE_MARK)
        trace = json.loads(last[len(TRACE_MARK):])
        spans[name] = trace["spans"]  # name -> [calls, s, self_s]
        counters[name] = trace["counters"]
    # handles are re-made with dataclasses.replace; their eval span exists only if that worked
    assert "functions.eval" in spans["table"]
    # the tracer binds these by name, and the verify job calls each
    for span in ("core.build_sieve", "identities.truncated_sum_eval", "identities.exact_sum"):
        assert spans["verify"][span][0] > 0, span
    # factorize is still bound, but both sides of verify are range tables: no per-n loop is left
    assert spans["verify"]["core.factorize"][0] == 0
    # the tracer counts the length of exact_sum's first argument: the sum over n = 1..200 is one
    # call, and each of the 15 local factors of the product (primes <= 50) is 1 + 4 terms
    assert counters["verify"]["identities.exact_sum.terms"] == 200 + 15 * 5
    assert counters["verify"]["identities.sum_den_bits"] > 0
    # the partition check's two routes, each bound by name, so their per-layer metrics still move
    for span in ("identities.partition_product_series", "core.partition_count"):
        assert spans["partition"][span][0] > 0, span
    # t = 8 is three squares, each one ps_mul call whether or not it takes the square path
    assert spans["waring"]["powerseries.ps_mul"][0] == 3
    # the range layer's passes, each bound by name, so their per-layer metrics still move
    for name, span in (("classify", "core.build_sieve"), ("classify", "classify.classify"),
                       ("classify", "classify.verify_decomposable"), ("probnum", "core.build_sieve"),
                       ("probnum", "probnum.build_polynomial"), ("probnum", "probnum.shifted_sign_scan")):
        assert spans[name][span][0] > 0, (name, span)

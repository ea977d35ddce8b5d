"""arithmos benchmark: cold CLI and library jobs, checked against oracles.

    python3 perfbench/run.py --workload range-sweep --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout: jobs run the checkout's own ``src/``
(PYTHONPATH), one at a time, each in a fresh interpreter, because that is
how a CLI user pays for them and it keeps process-wide caches from
carrying over. A pass runs the workload's fixed job list once; passes
repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time of one
pass: the sum over jobs of each job's median time), ``setup_s`` (median
of interpreter start + ``import arithmos`` + CLI ready, i.e. ``arithmos
--version``, timed once before each job) and ``peak_rss_mb``
(median over passes of the largest job peak RSS). Both times are in
reference seconds: before every job the harness times ``reference.py``,
a fixed computation of its own, and scales each pass's timings by
REFERENCE_S over the median probe time of that pass. A shared host's
speed changes by tens of percent from one minute to the next, for the
probe as for the jobs, so the scaling keeps that drift out of the
figures; the unscaled times and the probe times are printed as well.

``--trace 1`` alternates untraced passes with passes run under
``traced.py`` and reports the per-layer metrics named in BENCHMARK.json,
unscaled. Readable lines come first; the last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import traced
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 60
# What the probe takes on an idle 2 GHz x86-64 VM with Python 3.11; one reference second is the
# time that machine would take for the work.
REFERENCE_S = 0.07


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    out_bytes: int
    trace: dict | None = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # untraced passes only, as are probes
    probes: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def scale(self) -> float:
        """Factor from this pass's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.probes)


# Jobs run as ``python3 -m arithmos.cli ARGS`` (or ``python3 libjob.py ARGS``) would, through
# runpy, and report their peak RSS on exit. It is read inside the job because VmHWM counts only
# what the job mapped after exec; the rusage from wait4 would also count the harness's own pages,
# which the child shares until exec.
RSS_MARK = "perfbench-rss "
JOB_LAUNCHER = f"""\
import atexit, runpy, sys

def report_peak_rss():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("{RSS_MARK}" + kb + "\\n")

atexit.register(report_peak_rss)
target = sys.argv.pop(1)
if target.endswith(".py"):
    runpy.run_path(target, run_name="__main__")
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def run_process(argv: list[str], env: dict) -> tuple[float, int, bytes, bytes]:
    """Run one process to completion: (wall, exit code, stdout, stderr)."""
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return time.perf_counter() - start, -9, exc.stdout or b"", f"timed out after {JOB_TIMEOUT_S} s".encode()
    return time.perf_counter() - start, done.returncode, done.stdout, done.stderr


def split_report(err: bytes, mark: str) -> tuple[bytes, bytes]:
    """Split a job's stderr into what it wrote itself and the report after ``mark``, if any."""
    head, found, report = err.rpartition(mark.encode())
    return (head, report) if found else (err, b"")


class Bench:
    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        # The caller's PYTHON* settings (no bytecode cache, unbuffered output, ...) would
        # change what is measured, so jobs get none of them.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._verified: dict[tuple, str | None] = {}
        self._probe_out = f"{reference.probe()}\n".encode()

    def argv(self, job: workloads.Job, traced_run: bool) -> list[str]:
        if traced_run:
            return [sys.executable, str(HERE / "traced.py"), job.kind, *job.args]
        target = "arithmos.cli" if job.kind == "cli" else str(HERE / "libjob.py")
        return [sys.executable, "-c", JOB_LAUNCHER, target, *job.args]

    def setup_time(self) -> float:
        wall, code, out, err = run_process([sys.executable, "-m", "arithmos.cli", "--version"], self.env)
        if code != 0 or not out.startswith(b"arithmos, version "):
            raise RuntimeError(f"arithmos --version failed: {err.decode(errors='replace')}")
        return wall

    def probe_time(self) -> float:
        wall, code, out, err = run_process([sys.executable, str(HERE / "reference.py")], self.env)
        if code != 0 or out != self._probe_out:
            raise RuntimeError(f"reference probe failed: {err.decode(errors='replace')}")
        return wall

    def run_pass(self, traced_run: bool) -> Pass:
        p = Pass(traced_run)
        for job in self.jobs:
            if not traced_run:  # a set-up beside each probe, so both meet the same host speed
                p.probes.append(self.probe_time())
                p.setups.append(self.setup_time())
            wall, code, out, err = run_process(self.argv(job, traced_run), self.env)
            rss_mb, trace = 0.0, None
            if traced_run:
                err, line = split_report(err, traced.TRACE_MARK)
                trace = json.loads(line) if line else None
            else:
                err, line = split_report(err, RSS_MARK)
                rss_mb = int(line or 0) / 1024
            p.outcomes.append(Outcome(wall, rss_mb, len(out), trace))
            self.attempted += 1
            problem = self.verify(job, code, out, err, traced_run and trace is None)
            if problem:
                self.failed += 1
                self.problems.append(f"{job.label}: {problem}")
        return p

    def verify(self, job: workloads.Job, code: int, out: bytes, err: bytes, trace_missing: bool) -> str | None:
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()[-500:]}"
        if trace_missing:
            return "no trace record"
        key = (job.label, hashlib.sha256(out).digest())
        if key not in self._verified:  # identical bytes get the identical verdict
            try:
                job.check(out)
                self._verified[key] = None
            except Exception as exc:  # noqa: BLE001 - any failure to check is a failed job
                self._verified[key] = f"{type(exc).__name__}: {exc}"
        return self._verified[key]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name}: median {med:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"


SPAN_FIELDS = ("calls", "s", "self_s")
LAYER_KEYS = frozenset(
    [f"{span}.{suffix}" for span in traced.SPAN_NAMES for suffix in SPAN_FIELDS]
    + [*traced.SUM_COUNTERS, *traced.MAX_COUNTERS, "process.self_s", "cli.out_bytes"]
)


def layer_totals(p: Pass, jobs: list[workloads.Job]) -> dict[str, float]:
    """Sum one traced pass over its jobs: span calls/s/self_s, counters, process and CLI totals."""
    totals: dict[str, float] = dict.fromkeys(LAYER_KEYS, 0)
    for job, o in zip(jobs, p.outcomes):
        if o.trace is None:
            continue
        for name, stats in o.trace["spans"].items():
            for field_name, val in zip(SPAN_FIELDS, stats):
                totals[f"{name}.{field_name}"] += val
        for name, val in o.trace["counters"].items():
            totals[name] = max(totals[name], val) if name in traced.MAX_COUNTERS else totals[name] + val
        totals["process.self_s"] += o.wall - o.trace["root_s"]
        if job.kind == "cli":
            totals["cli.out_bytes"] += o.out_bytes
    return totals


def per_layer(spec: dict, bench: Bench, passes: list[Pass]) -> dict[str, float]:
    plain = [p.wall for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    per_pass = [layer_totals(p, bench.jobs) for p in traced_passes]
    for p, totals in zip(traced_passes, per_pass):
        spans_self = sum(v for k, v in totals.items() if k.endswith(".self_s") and k != "process.self_s")
        root = sum(o.trace["root_s"] for o in p.outcomes if o.trace)
        if abs(spans_self - root) > 1e-6 * (1 + root):
            bench.problems.append(f"span self times sum to {spans_self}, root spans to {root}")
    traced_walls = [p.wall for p in traced_passes]
    metrics = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain)
        else:
            values = [t[name] for t in per_pass]  # KeyError: a name the trace does not produce
            if unit == "s":
                value = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    bench.problems.append(f"count {name} differs between passes: {values}")
                value = values[0]
        metrics[name] = value
    print_breakdown(per_pass, traced_walls, plain)
    return metrics


def print_breakdown(per_pass: list[dict], traced_walls: list[float], plain: list[float]) -> None:
    selfs = [k for k in LAYER_KEYS if k.endswith(".self_s")]
    rows = [(statistics.median([t[k] for t in per_pass]), k) for k in selfs]
    print(f"traced wall_s median {statistics.median(traced_walls):.6g} s over {len(traced_walls)} passes; "
          f"untraced {statistics.median(plain):.6g} s over {len(plain)}")
    for value, key in sorted(rows, reverse=True):
        if value:
            print(f"  {key:45s} {value:10.6f} s")
    print(f"  {'sum of the median self times':45s} {sum(v for v, _ in rows):10.6f} s")


def end_to_end(jobs: list[workloads.Job], passes: list[Pass]) -> dict[str, float]:
    """wall_s is the sum of the jobs' median times, which one slow job in one pass cannot move."""
    job_medians = []
    for i, job in enumerate(jobs):
        wall = statistics.median(p.outcomes[i].wall * p.scale for p in passes)
        rss = max(p.outcomes[i].rss_mb for p in passes)
        print(f"  job {wall:8.4f} s {rss:7.1f} MB  {job.label}")
        job_medians.append(wall)
    setups = [s * p.scale for p in passes for s in p.setups]
    rss = [max(o.rss_mb for o in p.outcomes) for p in passes]
    print(describe("probe, unscaled", [t for p in passes for t in p.probes], "s"))
    print(describe("pass, unscaled", [p.wall for p in passes], "s"))
    print(describe("setup, unscaled", [s for p in passes for s in p.setups], "s"))
    print(describe("pass", [p.wall * p.scale for p in passes], "s"))
    print(f"wall_s: {sum(job_medians):.6g} s (sum of the job medians)")
    print(describe("setup_s", setups, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    return {
        "wall_s": sum(job_medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "arithmos" / "__init__.py").is_file():
        print(f"perfbench: no arithmos source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    jobs = workloads.build(args.workload, args.seed)
    bench = Bench(jobs)
    bench.setup_time()  # warm-up: byte-compiles src/ and fills the file cache
    bench.probe_time()
    deadline = time.perf_counter() + args.seconds
    passes: list[Pass] = []
    cycle = 0.0
    # Start another pass (a pair when tracing) while at least half of one fits before the deadline.
    while not passes or time.perf_counter() + cycle / 2 <= deadline:
        start = time.perf_counter()
        passes.append(bench.run_pass(False))
        if args.trace:
            passes.append(bench.run_pass(True))
        cycle = time.perf_counter() - start

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
          f"jobs/pass={len(jobs)} passes={len(passes)}")
    if args.trace:
        values = per_layer(spec, bench, passes)
    else:
        values = end_to_end(jobs, passes)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"failed_frac: {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.6g}")
    for problem in bench.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

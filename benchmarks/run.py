"""Benchmark harness for taylormeasure.

Run one workload for a fixed time and print, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}:

    python3 benchmarks/run.py --workload exact_short --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a run that alternates untraced and traced cycles.
Each run also appends a record (metrics, environment, seed) to --record,
and a traced run writes its spans next to it. Compare two record files:

    python3 benchmarks/run.py --compare OLD.jsonl NEW.jsonl

See benchmarks/README.md for the metrics, workloads and verdict rule.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import fields, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
# op_tail_ms is a fixed percentile per workload: the highest that keeps at
# least ten samples beyond it among the untraced calls of a 25 s run on
# 2 vCPUs (about 3,000, 500 and 100), with room for a slow run. exact_short
# (about 250k calls) stops at p99.9: beyond it the figure is the rare slow
# calls of one grid case, and p99.99 spread 0.23 of its median over five
# runs where p99.9 spread 0.02. A percentile that moved with the count
# would move whenever throughput did.
TAIL_PCT = {"exact_short": 99.9, "exact_long": 99.5, "sampling": 97.5, "cli": 85.0}
# Timings are scaled to the machine's speed at the time they were taken,
# measured by reference_ns() at least every REF_EVERY_NS; see Speed.
REF_EVERY_NS = 100_000_000
# the unloaded time of each part of reference_ns(), and the parts whose
# kind of work each workload does: sampling's calls drive numpy from Python
REF_NOMINAL_NS = (850_000, 650_000)
REF_PARTS = {"exact_short": (0,), "exact_long": (0,), "sampling": (0, 1), "cli": (0,)}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(TAIL_PCT))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=HERE / "out" / "runs.jsonl",
                   help="JSON-lines file each run appends its record to")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                   help="compare two record files instead of running")
    a = p.parse_args(argv)
    if a.compare is None and a.workload is None:
        p.error("--workload is required unless --compare is given")
    return a


# ---------------------------------------------------------------------------
# outputs


def digest(out) -> str:
    """Bit-exact fingerprint of a call's output (or of the error it raised)."""
    h = hashlib.sha1()
    _feed(h, out)
    return h.hexdigest()


def _feed(h, x) -> None:
    import numpy as np

    if isinstance(x, float):
        h.update(b"f" + x.hex().encode())
    elif isinstance(x, (bool, int, str, type(None))):
        h.update(repr(x).encode())
    elif isinstance(x, bytes):
        h.update(x)
    elif isinstance(x, np.ndarray):
        h.update(str(x.shape).encode() + x.dtype.str.encode() + x.tobytes())
    elif isinstance(x, (list, tuple)) and all(type(y) in (int, float) for y in x):
        h.update(repr(x).encode())  # repr round-trips floats exactly
    elif isinstance(x, (list, tuple)):
        h.update(b"[%d" % len(x))
        for y in x:
            _feed(h, y)
    elif isinstance(x, dict):
        for k in sorted(x):
            _feed(h, k)
            _feed(h, x[k])
    elif is_dataclass(x):
        for f in fields(x):
            _feed(h, getattr(x, f.name))
    elif isinstance(x, BaseException):
        h.update(type(x).__name__.encode() + str(x).encode())
    else:
        h.update(repr(x).encode())


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, speed: Speed):
    """Build the workload SETUP_REPEATS times; time the package import in as
    many fresh interpreters. setup_s is the sum of the two medians, each
    time scaled to the reference speed measured next to it."""
    import inspect

    import workloads

    module = "taylormeasure.cli" if workload == "cli" else "taylormeasure"
    # the fresh interpreter measures its own speed right after the import
    # (before it, the reference's numpy import would shorten the import)
    code = ("import json, math, time\n"
            "t = time.perf_counter(); import %s; t = time.perf_counter() - t\n%s\n"
            "print(json.dumps([t, [reference_ns() for _ in range(5)]]))"
            % (module, inspect.getsource(reference_ns)))
    env = workloads.cli_env(ROOT)
    imports = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        t, refs = json.loads(proc.stdout)
        imports.append(t * speed.nominal / statistics.median(speed.select(r) for r in refs))
    builds = []
    cases = None
    for _ in range(SETUP_REPEATS):
        scale = speed.scale_now()
        t0 = time.perf_counter()
        cases = workloads.WORKLOADS[workload](seed, ROOT)
        builds.append((time.perf_counter() - t0) * scale)
    return cases, statistics.median(imports) + statistics.median(builds)


# ---------------------------------------------------------------------------
# machine speed


def reference_ns() -> list[int]:
    """Nanoseconds each of two fixed stretches of work takes now.

    Neither calls the package. The first is a pure-Python float loop like
    its term kernels (multiply, divide, add, calls into math); the second
    is numpy sampling like its Monte Carlo layer (Philox draws,
    searchsorted, isin). Numpy work slows less than the loop when the core
    is contended.
    """
    import numpy as np

    gen = np.random.Generator(np.random.Philox(12345))
    cdf = np.cumsum(np.full(40, 1.0 / 40))
    listed = np.arange(0, 12, 2)
    t0 = time.perf_counter_ns()
    s, term = 0.0, 1.0
    for k in range(1, 4500):
        term = term * 0.75 / (1.0 + term) + 1.0
        s += math.fabs(math.sin(k * 0.001)) * term / k
    t1 = time.perf_counter_ns()
    np.count_nonzero(np.isin(np.searchsorted(cdf, gen.random(8192)), listed))
    return [t1 - t0, time.perf_counter_ns() - t1]


class Speed:
    """The machine's speed over a run, from reference_ns() samples.

    On a shared 2-vCPU VM (Intel Xeon), in one 20 s run of a fixed loop,
    the loop took 1.9 ms for 12 s and 1.33 ms after, and CPU time moved
    with wall time, so the slowdown is not time taken away from the
    process. Such shifts last seconds to minutes, longer than a run. A
    call's latency is therefore multiplied by the reference's unloaded
    time (the workload's parts of REF_NOMINAL_NS) over the median of the
    reference samples nearest to it in time: every timing is in
    milliseconds at unloaded speed. A change to the package moves its
    latencies and not the reference, so it still shows in full.
    """

    def __init__(self, workload: str):
        self.parts = REF_PARTS[workload]
        self.nominal = sum(REF_NOMINAL_NS[i] for i in self.parts)
        self.at: list[int] = []
        self.ns: list[int] = []

    def select(self, ref: list[int]) -> int:
        return sum(ref[i] for i in self.parts)

    def sample(self) -> None:
        self.at.append(time.perf_counter_ns())
        self.ns.append(self.select(reference_ns()))

    def scale(self, t: int) -> float:
        """The nominal time over the median of the eight samples nearest t."""
        j = bisect.bisect(self.at, t)
        near = self.ns[max(0, j - 4): j + 4]
        return self.nominal / statistics.median(near)

    def scale_now(self) -> float:
        return self.nominal / statistics.median(self.select(reference_ns()) for _ in range(5))


# ---------------------------------------------------------------------------
# the timed window


class Window:
    """Cycles through the cases until the time is up.

    With a tracer, odd cycles run traced and even ones untraced; latencies
    come from untraced calls only. The reference runs between calls,
    at least every REF_EVERY_NS, outside the timed calls.
    """

    def __init__(self, cases, speed: Speed, tracer=None):
        self.cases = cases
        self.tracer = tracer
        self.speed = speed
        # per case, the start and the latency of each untraced call, in ns;
        # arrays keep the harness's share of peak_rss_mb small and steady
        self.lat_ns: dict[int, tuple[array, array]] = {}
        self.calls = {False: 0, True: 0}
        self.busy_ns = {False: 0, True: 0}
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[int, tuple] = {}
        self.digests: dict[str, list[str]] = {}
        self.harness_ns = 0
        self.elapsed = 0.0

    def run(self, seconds: float) -> None:
        from taylormeasure import TaylorMeasureError

        tracer = self.tracer
        speed = self.speed
        for _ in range(5):  # warm the reference
            speed.sample()
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        cycle = 0
        done = False
        while not done:
            traced = tracer is not None and cycle % 2 == 1
            if traced:
                tracer.install()
            c0, h0 = time.perf_counter_ns(), self.harness_ns
            n = 0
            try:
                for i, case in enumerate(self.cases):
                    if traced:
                        tracer.call += 1
                    t0 = time.perf_counter_ns()
                    try:
                        out, exc = case.fn(), None
                    except Exception as e:  # judged by the oracle after the window
                        out, exc = None, e
                    t1 = time.perf_counter_ns()
                    n += 1
                    if traced and case.op.startswith("cli/"):
                        tracer.record("cli", case.op, t0, t1)
                    if not traced:
                        starts, lats = self.lat_ns.setdefault(i, (array("q"), array("q")))
                        starts.append(t0)
                        lats.append(t1 - t0)
                    if exc is not None and not isinstance(exc, TaylorMeasureError):
                        self.failed += 1
                        self.failures.append(f"{case.op}: {type(exc).__name__}: {exc}")
                    if getattr(out, "code", 0) not in (0, 2, 3):
                        self.failed += 1
                        self.failures.append(f"{case.op}: exit {out.code}")
                    if not case.rerun and i not in self.first:
                        self.first[i] = (out, exc)
                    if cycle == 0 or not case.rerun:
                        self.digests.setdefault(case.pair or f"#{i}", []).append(digest(out if exc is None else exc))
                    if t1 - speed.at[-1] >= REF_EVERY_NS:
                        speed.sample()
                    self.harness_ns += time.perf_counter_ns() - t1
                    # a traced run goes on until one traced cycle is complete
                    if t1 >= deadline and (tracer is None or self.calls[True]):
                        done = True
                        break
            finally:
                c1 = time.perf_counter_ns()
                if traced:
                    tracer.uninstall()
            self.calls[traced] += n
            self.busy_ns[traced] += c1 - c0 - (self.harness_ns - h0)
            cycle += 1
        speed.sample()
        # fingerprints and reference samples are harness work, not the program's
        self.elapsed = (time.perf_counter_ns() - start - self.harness_ns) / 1e9

    def latencies(self, scaled: bool = True) -> list[list[float]]:
        """Per case, its untraced latencies (ns), each scaled to the
        reference speed (see Speed) unless not scaled."""
        scale = self.speed.scale if scaled else (lambda t: 1.0)
        return [[lat * scale(t0) for t0, lat in zip(*xs)] for xs in self.lat_ns.values()]


# ---------------------------------------------------------------------------
# checks


def check(cases, window: Window) -> dict:
    """Judge one output per case against the oracle and count reruns.

    In-process cases run once more here, outside the timed window; that
    output is judged and must match the first one bit for bit. CLI cases
    are judged on their first output and compared across every execution.
    """
    tally = {"checked": 0, "errors": 0, "bound": 0, "bound_held": 0, "eps": 0, "eps_met": 0,
             "reruns": 0, "mismatches": 0}
    problems: list[str] = []
    incorrect = bool(window.failed)
    for i, case in enumerate(cases):
        if case.rerun:
            try:
                out, exc = case.fn(), None
            except Exception as e:
                out, exc = None, e
            window.digests.setdefault(case.pair or f"#{i}", []).append(digest(out if exc is None else exc))
        elif i in window.first:
            out, exc = window.first[i]
        else:
            continue
        v = case.check.judge(out, exc)
        tally["checked"] += 1
        tally["errors"] += v.error
        if v.bound_ok is not None:
            tally["bound"] += 1
            tally["bound_held"] += v.bound_ok
        if v.eps_ok is not None:
            tally["eps"] += 1
            tally["eps_met"] += v.eps_ok
        bad = v.error or v.bound_ok is False
        if bad or v.eps_ok is False:
            kind = "error" if v.error else ("bound" if v.bound_ok is False else "eps")
            tag = " (known: %s)" % case.check.known if case.check.known else (
                " (composed)" if case.check.composed and not v.error else "")
            problems.append(f"{kind:5} {case.op}{tag}: {v.note}")
        if (bad and not v.tolerated) or not v.gate_ok:
            incorrect = True
    for key, ds in window.digests.items():
        tally["reruns"] += len(ds) - 1
        bad = sum(d != ds[0] for d in ds[1:])
        tally["mismatches"] += bad
        if bad:
            problems.append(f"repro {key}: {bad} of {len(ds) - 1} reruns differ")
            incorrect = True
    tally["correct"] = not incorrect
    tally["problems"] = problems
    return tally


def _ratio(good: int, total: int) -> float:
    return good / total if total else 1.0


def percentile(xs: list[float], pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timings(workload, window: Window, scaled: bool = True) -> dict:
    per_case = window.latencies(scaled)
    lat_ms = [x / 1e6 for xs in per_case for x in xs]
    # calls per second if every case ran at its median latency
    cycle_s = sum(statistics.median(xs) for xs in per_case) / 1e9
    return {
        "ops_per_s": len(per_case) / cycle_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": percentile(lat_ms, TAIL_PCT[workload]),
    }


def end_to_end(workload, window: Window, tally: dict, setup_s: float, peak_rss_kb: int) -> dict:
    return {
        **timings(workload, window),
        "ok_ratio": _ratio(tally["checked"] - tally["errors"], tally["checked"]),
        "bound_held_ratio": _ratio(tally["bound_held"], tally["bound"]),
        "eps_met_ratio": _ratio(tally["eps_met"], tally["eps"]),
        "repro_match_ratio": _ratio(tally["reruns"] - tally["mismatches"], tally["reruns"]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(workload, cases, window: Window, tracer) -> dict:
    m = tracer.layer_metrics(window.calls[True])
    rates = {t: window.calls[t] / (window.busy_ns[t] / 1e9) for t in (False, True) if window.busy_ns[t]}
    m["trace.overhead_ratio"] = rates[True] / rates[False] if len(rates) == 2 else 0.0
    m.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.run_ms.det": 0.0,
              "cli.run_ms.rand": 0.0, "serialize.parse_s": 0.0})
    if workload == "cli":
        m.update(cli_layers(cases, tracer, window.speed))
    return m


def cli_layers(cases, tracer, speed: Speed) -> dict:
    """Interpreter start, import and run time of the CLI processes, and the
    in-process parse of the same documents (which adds serialize spans).

    Each of SETUP_REPEATS rounds runs, back to back, a bare interpreter, an
    import of the CLI module, and one deterministic and one randomized CLI
    case; the differences within a round, scaled to the reference speed
    like the latencies, give the three parts. The machine's speed drifts
    between rounds far more than the few ms a command's own work takes.
    """
    import workloads

    env = workloads.cli_env(ROOT)

    def wall(argv, check=True):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120, check=check)
        return (time.perf_counter() - t0) * 1e3

    det = [c.args for c in cases if c.args[0] in workloads.DETERMINISTIC_CLI]
    rand = [c.args for c in cases if c.args[0] not in workloads.DETERMINISTIC_CLI]
    rounds = []
    for k in range(SETUP_REPEATS):
        scale = speed.scale_now()
        interp = wall([sys.executable, "-c", "pass"])
        imp = wall([sys.executable, "-c", "import taylormeasure.cli"])
        # exit codes 2 and 3 are named refusals, judged in the window
        d = wall(workloads.cli_argv(list(det[k % len(det)])), check=False)
        r = wall(workloads.cli_argv(list(rand[k % len(rand)])), check=False)
        rounds.append([x * scale for x in (interp, imp - interp, d - imp, r - imp)])
    interp, imp, det_ms, rand_ms = (statistics.median(col) for col in zip(*rounds))
    return {"cli.interp_ms": interp, "cli.import_ms": imp, "cli.run_ms.det": det_ms,
            "cli.run_ms.rand": rand_ms, "serialize.parse_s": parse_pass(cases, tracer)}


def parse_pass(cases, tracer) -> float:
    """Median seconds to parse every CLI document of the cycle in-process."""
    from taylormeasure import cli, serialize

    parsers = {"eval": [serialize.parse_measure, serialize.parse_set],
               "decompose": [serialize.parse_measure], "inner": [serialize.parse_measure] * 2,
               "fn-eval": [serialize.parse_function], "pmf": [serialize.parse_pmf_inputs],
               "mc-measure": [serialize.parse_pmf_inputs] * 2 + [serialize.parse_set],
               "stm-sim": [serialize.parse_stm_spec, serialize.parse_set]}
    docs = []
    for case in cases:
        texts = [a for a in case.args if a.startswith("{")]
        docs.append((parsers[case.args[0]], texts))
    times = []
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter_ns()
            for fns, texts in docs:
                for fn, text in zip(fns, texts):
                    fn(cli._load_doc(text, "doc"))
            t1 = time.perf_counter_ns()
            tracer.record("serialize", "parse_pass", t0, t1)
            times.append((t1 - t0) / 1e9)
    finally:
        tracer.uninstall()
    return statistics.median(times)


# ---------------------------------------------------------------------------
# run record


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": nproc,
            "cpu": cpu, "commit": commit, "seed": seed}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    a = _args(argv)
    if a.compare:
        import compare

        return compare.main(a.compare[0], a.compare[1], load_spec())
    if not (ROOT / "src" / "taylormeasure" / "__init__.py").is_file():
        print(f"error: no taylormeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = load_spec()

    speed = Speed(a.workload)
    cases, setup_s = setup(a.workload, a.seed, speed)
    tracer = None
    if a.trace:
        import tracing

        tracer = tracing.Tracer()
    window = Window(cases, speed, tracer)
    window.run(a.seconds)
    who = resource.RUSAGE_CHILDREN if a.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss

    tally = check(cases, window)
    if a.trace:
        metrics = per_layer(a.workload, cases, window, tracer)
        names = spec["per_layer"]
    else:
        metrics = end_to_end(a.workload, window, tally, setup_s, peak_rss_kb)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": tally["correct"],
        "attempted": window.calls[False] + window.calls[True],
        "failed": window.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }

    samples = sum(len(lats) for _, lats in window.lat_ns.values())
    for line in window.failures[:20] + tally["problems"][:40]:
        print(line, file=sys.stderr)
    print(f"{a.workload}: {len(cases)} cases, {result['attempted']} calls in {window.elapsed:.2f} s; "
          f"op_tail_ms is p{TAIL_PCT[a.workload]:g} of {samples} untraced calls; "
          f"checked {tally['checked']}, errors {tally['errors']}, bound {tally['bound_held']}/{tally['bound']}, "
          f"eps {tally['eps_met']}/{tally['eps']}, reruns {tally['reruns']} ({tally['mismatches']} differ)",
          file=sys.stderr)
    raw = timings(a.workload, window, scaled=False)
    ref_ms = [x / 1e6 for x in window.speed.ns]
    print("unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
          + f"; reference {min(ref_ms):.3f}/{statistics.median(ref_ms):.3f}/{max(ref_ms):.3f} ms "
          f"(min/median/max of {len(ref_ms)})", file=sys.stderr)
    record = {"workload": a.workload, "trace": a.trace, **result,
              "env": environment(a.seed), "tail_pct": TAIL_PCT[a.workload],
              "samples": samples, "unscaled": raw, "reference_ms": statistics.median(ref_ms)}
    a.record.parent.mkdir(parents=True, exist_ok=True)
    with open(a.record, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(a.record.parent / f"trace-{a.workload}-{a.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

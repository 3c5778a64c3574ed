#!/usr/bin/env python3
"""The f1zeta benchmark.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S
  python3 bench/run.py --selfcheck --seed N

Run from the repository root; f1zeta is imported from the working tree's
`src`.  One process is the only caller and waits for every op (a closed
loop with one client); it runs at most one child process at a time, and
BLAS/OpenMP thread counts are pinned to 1 in it and in its children.

Workloads (see workloads.py): numeric_validation, exact_identities,
torsion_fourier run in process; cli_cold starts a fresh
`python -m f1zeta.cli` per op.  Each workload repeats a seeded cycle of
ops in whole cycles until `--seconds` have passed and at least 100 ops
ran; cli_cold, whose ops take about a second each, runs a fixed number of
cycles (60 fresh processes) whatever `--seconds` says.
Latencies and set-up times are reported at a reference host speed; see
Speed.  Inputs stay inside the domain where this version of f1zeta
meets its declared tolerances; a few fixed inputs just outside it
(workloads.known_defects) run once, untimed, and their outcome is
reported apart from the ops.

`--trace 0` measures the end-to-end metrics; `--trace 1` runs every op
of a fixed number of cycles once under the span tracer and once without
it, and reports the per-layer metrics and the tracer's overhead.  The
last line of stdout is the JSON result; the lines before it are a
readable report, and bench/out/ keeps the full result and the span file.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import gc
import hashlib
import io
import json
import math
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("numeric_validation", "exact_identities", "torsion_fourier", "cli_cold")
MIN_OPS = 100
SETUP_CHILDREN = 4  # fresh-process set-ups on top of the benchmark's own
INTERP_SAMPLES = 3

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class SourceMissing(Exception):
    pass


# -- helpers ----------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))]


def run_child(args: list[str], timeout: float = 170) -> subprocess.CompletedProcess:
    from workloads import child_env

    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(SRC),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout,
                          check=False)


def machine_facts() -> dict:
    import numpy
    import scipy

    cgroup = "unlimited"
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            quota, period = fh.read().split()
        if quota != "max":
            cgroup = f"{int(quota) / int(period):g} cpus"
    except OSError:
        try:
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", encoding="ascii") as fh:
                quota = int(fh.read())
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us", encoding="ascii") as fh:
                period = int(fh.read())
            if quota > 0:
                cgroup = f"{quota / period:g} cpus"
        except (OSError, ValueError):
            cgroup = "unknown"
    threads = threading.active_count()
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = int(re.search(r"^Threads:\s+(\d+)", fh.read(), re.M).group(1))
    except (OSError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "numpy": numpy.__version__,
        "generator_processes": 1,
        "generator_threads": threads,
        "max_children_at_once": 1,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- host speed -------------------------------------------------------------------


def _calibration_loop_us() -> float:
    """The fastest of three runs of a fixed stdlib loop, with GC off."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter_ns()
            acc, table = Fraction(0), {}
            for i in range(1, 120):
                acc += Fraction(i, i + 1)
                table[i % 17] = table.get(i % 17, 0) + i
            x = 0.0
            for i in range(120):
                x += math.sin(i) * cmath.exp(1j * i).real
            best = min(best, time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    return best / 1e3


def _numpy_start_ms() -> float:
    """Wall time of a fresh `python -c "import numpy"`.  Its output goes to
    pipes, as a cli op's does: without pipes, a wait with a timeout polls
    in steps of up to 50 ms, which would quantize the reading."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
    return (time.perf_counter() - t0) * 1e3


class Speed:
    """How fast the host runs a proxy workload right now.

    Other tenants of a shared host swing the throughput seen here by up to
    2x for seconds to minutes.  Latencies are multiplied by
    reference / (the proxy's current duration), re-measured every
    `every_s`, which expresses them at one reference speed.  In process
    the proxy is a stdlib loop (LOOP); for fresh processes it is a Python
    start that imports numpy (PROCESS), because the loop does not track how
    contention slows a process start while this does (log-log correlation
    0.8 with a cli op's wall time on the same host).  A cli_cold run is
    scaled as a whole, by the median of its readings (see execute).
    Neither proxy runs f1zeta code, so changes to f1zeta leave them alone.
    """

    def __init__(self, measure, reference: float, every_s: float) -> None:
        self.measure, self.reference, self.every_s = measure, reference, every_s
        self.factor = 1.0
        self.stamp = -math.inf
        self.samples: list[float] = []

    def current(self) -> float:
        if time.perf_counter() - self.stamp >= self.every_s:
            duration = self.measure()
            self.samples.append(duration)
            self.factor = self.reference / duration
            self.stamp = time.perf_counter()
        return self.factor


LOOP = (_calibration_loop_us, 300.0, 0.05)  # (proxy, duration at reference speed, refresh s)
PROCESS = (_numpy_start_ms, 150.0, 1.5)


# -- set-up -------------------------------------------------------------------------


def use_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "f1zeta", "__init__.py")):
        raise SourceMissing(f"no f1zeta sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def set_up(name: str, seed: int):
    """Import f1zeta and build the workload here, then time the same in
    fresh processes; returns the workload and the (import_s, total_s,
    host speed factor) samples."""
    use_source()
    # a proxy measurement before every sample: one stale or noisy proxy
    # reading would otherwise scale several set-ups at once
    speed = Speed(PROCESS[0], PROCESS[1], 0.0)
    factor = speed.current()
    t0 = time.perf_counter()
    import f1zeta

    t1 = time.perf_counter()
    if not os.path.abspath(f1zeta.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"f1zeta was imported from {f1zeta.__file__}, not {SRC}")
    import workloads

    wl = workloads.build(name, seed, ROOT)
    t2 = time.perf_counter()
    samples = [(t1 - t0, t2 - t0, factor)]
    for _ in range(SETUP_CHILDREN):
        factor = speed.current()
        proc = run_child([os.path.join(BENCH, "probe.py"), "setup", name, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
        probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        samples.append((probe["import_s"], probe["import_s"] + probe["gen_s"], factor))
    return wl, samples


# -- the measuring loop --------------------------------------------------------------


class Run:
    """Latencies, verdicts and output digests of one pass over the ops."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.scaled_ns: list[float] = []  # latencies at the reference speed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[int, str] = {}  # op index -> first failure
        self.outputs: dict[int, str] = {}  # op index -> output digest
        self.first_runs: dict[str, bytes] = {}  # cli records op -> stdout of run 1
        self.max_rel_err = 0.0
        self.wall_s = 0.0
        self.cycles = 0
        self.speed_samples: list[float] = []

    def record(self, wl, i: int, call, checks: dict, speed, tracer=None) -> None:
        """Time one call, then check its output (cached by op index and
        output digest) with tracing off."""
        from workloads import Verdict

        op = wl.ops[i]
        factor = speed.current()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter_ns()
        try:
            raw = call()
            exc = None
        except Exception as e:  # the benchmark keeps going and counts the failure
            exc = e
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.enabled = False
        self.latencies_ns.append(t1 - t0)
        self.scaled_ns.append((t1 - t0) * factor)
        self.attempted += 1
        if exc is not None:
            key = f"exception {type(exc).__name__}"
            verdict = Verdict(failure=f"raised {type(exc).__name__}: {exc}")
        else:
            value = op.canon(raw)
            key = hashlib.sha256(repr(value).encode()).hexdigest()
            verdict = checks.get((i, key))
            if verdict is None:
                verdict = checks[(i, key)] = op.check(value)
            base = op.label.rsplit(" run ", 1)[0]
            if op.pair == 1:
                self.first_runs[base] = value[1]
            elif op.pair == 2 and self.first_runs.get(base) != value[1]:
                verdict = Verdict(wrong="rerun stdout is not byte-identical")
        if self.outputs.setdefault(i, key) != key:
            verdict = Verdict(wrong="output changed between cycles")
        if verdict.rel_err is not None and op.layer == "regularize":
            self.max_rel_err = max(self.max_rel_err, verdict.rel_err)
        if verdict.failed:
            self.failed += 1
            self.wrong += verdict.wrong is not None
            self.failures.setdefault(i, f"{wl.name}#{i} {op.label}: {verdict.wrong or verdict.failure}")


def execute(wl, seconds: float | None, cycles: int | None, checks: dict,
            tracer=None, traced_call=None) -> tuple[Run, Run | None]:
    """Run whole cycles: `cycles` of them, or until `seconds` passed and at
    least MIN_OPS ops ran.  With a tracer (in process) or a `traced_call`
    (cli), every op runs traced and then untraced, and both runs are
    returned, so that tracing overhead is measured on paired calls."""
    paired = tracer is not None or traced_call is not None
    run, plain = Run(), (Run() if paired else None)
    speed = Speed(*(PROCESS if wl.subprocess_ops else LOOP))
    start = time.perf_counter()
    op_id = 0
    stop = False
    while not stop:
        for i, op in enumerate(wl.ops):
            if paired:
                if tracer is not None:
                    tracer.op = op_id
                traced_first = run.cycles % 2 == 0  # alternate to cancel order effects
                if not traced_first:
                    plain.record(wl, i, op.call, checks, speed)
                run.record(wl, i, traced_call(op, op_id) if traced_call else op.call, checks,
                           speed, tracer)
                if traced_first:
                    plain.record(wl, i, op.call, checks, speed)
            else:
                run.record(wl, i, op.call, checks, speed)
            op_id += 1
        run.cycles += 1
        stop = run.cycles >= cycles if cycles is not None else done(run, start, seconds)
    if wl.subprocess_ops:
        # one reading of a process start is too noisy to scale one op by:
        # scale the whole run by the median reading instead
        factor = speed.reference / statistics.median(speed.samples)
        for r in (run, plain):
            if r is not None:
                r.scaled_ns = [ns * factor for ns in r.latencies_ns]
    run.wall_s = time.perf_counter() - start
    run.speed_samples = speed.samples
    return run, plain


def done(run: Run, start: float, seconds: float) -> bool:
    return run.attempted >= MIN_OPS and time.perf_counter() - start >= seconds


def op_latencies_ms(wl, run: Run) -> list[float]:
    """Latencies at the reference speed (see Speed).
    In process, each op's median over the run's cycles; for cli_cold every
    fresh process is a sample of its own."""
    if wl.subprocess_ops:
        return [ns / 1e6 for ns in run.scaled_ns]
    n = len(wl.ops)
    return [statistics.median(run.scaled_ns[i::n]) / 1e6 for i in range(n)]


def end_to_end(wl, run: Run, setup_samples) -> dict:
    lat_ms = op_latencies_ms(wl, run)
    who = resource.RUSAGE_CHILDREN if wl.subprocess_ops else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": quantile(lat_ms, 0.9),
        "setup_s": statistics.median(total * factor for _, total, factor in setup_samples),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


# -- the traced run ------------------------------------------------------------------


def traced(wl, seed: int, setup_samples, checks: dict) -> tuple[dict, Run, Run]:
    import tracer as tr

    os.makedirs(OUT, exist_ok=True)
    span_path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.tsv")
    with open(span_path, "w", encoding="utf-8") as spans:
        spans.write("name\tstart_ns\tend_ns\tparent\top\n")
        if wl.subprocess_ops:
            merged = None
            base = 0

            def on_trace(part: dict) -> None:
                nonlocal merged, base
                merged = tr.merge_aggregates(merged, part["aggregates"])
                for name, t0, t1, parent, op_id in part["spans"]:
                    spans.write(f"{name}\t{t0}\t{t1}\t{parent + base if parent >= 0 else -1}\t{op_id}\n")
                base += len(part["spans"])

            def traced_call(op, op_id):
                return probe_call(op, op_id, on_trace)

            t_run, u_run = execute(wl, None, wl.trace_cycles, checks, traced_call=traced_call)
            agg = merged
        else:
            tracer = tr.Tracer()
            tracer.install()
            try:
                t_run, u_run = execute(wl, None, wl.trace_cycles, checks, tracer=tracer)
            finally:
                tracer.uninstall()
            agg = tracer.aggregates()
            for row in tracer.span_rows():
                spans.write("\t".join(str(v) for v in row) + "\n")
    traced_s = sum(t_run.scaled_ns) / 1e9
    untraced_s = sum(u_run.scaled_ns) / 1e9

    metrics: dict[str, tuple[float, str]] = {}
    for layer in tr.LAYERS:
        metrics[f"{layer}.calls"] = (agg["calls"][layer], "count")
        metrics[f"{layer}.busy_ms"] = (agg["busy_ns"][layer] / 1e6, "ms")
        metrics[f"{layer}.self_ms"] = (agg["self_ns"][layer] / 1e6, "ms")
    metrics.update(cli_probes(wl, seed, setup_samples))
    c = agg["counters"]
    metrics["schemes.points"] = (c["schemes.points"], "count")
    metrics["schemes.fourier_period_max"] = (c["schemes.fourier_period_max"], "count")
    metrics["schemes.fourier_coeffs"] = (c["schemes.fourier_coeffs"], "count")
    metrics["schemes.recon_err_max"] = (c["schemes.recon_err_max"], "abs")
    metrics["weil.series_coeffs"] = (c["weil.series_coeffs"], "count")
    metrics["powerlog.terms_out"] = (c["powerlog.terms_out"], "count")
    metrics["zetas.factors_out"] = (c["zetas.factors_out"], "count")
    metrics["groups.poly_terms"] = (c["groups.poly_terms"], "count")
    metrics["regularize.quad_calls"] = (agg["calls"][tr.EXTERNAL], "count")
    metrics["regularize.quad_ms"] = (agg["busy_ns"][tr.EXTERNAL] / 1e6, "ms")
    metrics["regularize.head_terms"] = (c["regularize.head_terms"], "count")
    metrics["regularize.max_rel_err"] = (t_run.max_rel_err, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    info = {"spans": agg["spans"], "span_file": os.path.relpath(span_path, ROOT),
            "traced_s": traced_s, "untraced_s": untraced_s}
    return {"metrics": metrics, "info": info}, t_run, u_run


def probe_call(op, op_id: int, on_trace=None):
    """A call running a cli op's argv under the tracer in a fresh process
    (bench/probe.py); `on_trace` receives the child's aggregates and spans."""

    def call():
        agg = os.path.join(OUT, f"cli-trace-{os.getpid()}.json")
        proc = run_child([os.path.join(BENCH, "probe.py"), "cli", agg, str(op_id), *op.argv])
        with open(agg, encoding="utf-8") as fh:
            part = json.load(fh)
        os.remove(agg)
        if on_trace is not None:
            on_trace(part)
        return proc.returncode, proc.stdout

    return call


def cli_probes(wl, seed: int, setup_samples) -> dict:
    """Interpreter start, fresh import, scipy's share of it, and warm cli.main."""
    interp = []
    for _ in range(INTERP_SAMPLES):
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        interp.append((time.perf_counter() - t0) * 1e3)
    proc = run_child(["-X", "importtime", "-c", "import f1zeta"])
    scipy_us = scipy_import_us(proc.stderr.decode())

    import workloads
    from f1zeta import cli

    cases = workloads.cli_cases(seed, os.path.join("bench", "out", f"cli-inputs-{seed}"))
    warm = []
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        for _, argv, _, _ in cases:
            cli.main(argv)
            t0 = time.perf_counter()
            cli.main(argv)
            warm.append((time.perf_counter() - t0) * 1e3)
    return {
        "cli.interp_ms": (statistics.median(interp), "ms"),
        "cli.import_ms": (statistics.median(imp for imp, _, _ in setup_samples) * 1e3, "ms"),
        "cli.import_scipy_ms": (scipy_us / 1e3, "ms"),
        "cli.main_ms": (statistics.median(warm), "ms"),
    }


def scipy_import_us(report: str) -> float:
    """Cumulative import time of the outermost scipy modules in an
    `-X importtime` report (children are listed before their parents)."""
    rows = []
    for line in report.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    total = 0
    stack: list[tuple[int, str]] = []
    for cumulative, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top_level_scipy = name.split(".")[0] == "scipy" and not any(
            n.split(".")[0] == "scipy" for _, n in stack)
        if top_level_scipy:
            total += cumulative
        stack.append((depth, name))
    return total


# -- one workload -------------------------------------------------------------------


def known_defect_outcomes(name: str) -> list[str]:
    """The outcome of each of the workload's known-defect inputs, run once."""
    from workloads import Verdict, known_defects

    out = []
    for op in known_defects(name):
        try:
            verdict = op.check(op.canon(op.call()))
        except Exception as exc:  # the defect may be an exception
            verdict = Verdict(failure=f"raised {type(exc).__name__}: {exc}")
        out.append(f"{op.label}: {verdict.wrong or verdict.failure or 'passes now'}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    wl, setup_samples = set_up(name, seed)
    checks: dict = {}
    result: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "sizes": wl.sizes, "ops_per_cycle": len(wl.ops)}
    if trace:
        layer, main, replay = traced(wl, seed, setup_samples, checks)
        diverged = [i for i in main.outputs if main.outputs[i] != replay.outputs.get(i)]
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer["metrics"].items()}
        result["trace_info"] = layer["info"]
        result["traced_untraced_diverged"] = [wl.ops[i].label for i in diverged]
        runs = [main, replay]
    else:
        main, _ = execute(wl, seconds, wl.cycles, checks)
        values = end_to_end(wl, main, setup_samples)
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        n = len(wl.ops)
        raw = ([ns / 1e6 for ns in main.latencies_ns] if wl.subprocess_ops else
               [statistics.median(main.latencies_ns[i::n]) / 1e6 for i in range(n)])
        result["raw_wall_time"] = {"ops_per_s": len(raw) / (sum(raw) / 1e3),
                                   "op_p50_ms": statistics.median(raw),
                                   "op_p90_ms": quantile(raw, 0.9),
                                   "setup_s": statistics.median(t for _, t, _ in setup_samples)}
        n = len(op_latencies_ms(wl, main))
        result["samples"] = {"ops_per_s": n, "op_p50_ms": n, "op_p90_ms": n,
                             "setup_s": len(setup_samples), "peak_rss_mb": 1}
        runs = [main]
        diverged = []
        result["known_defects"] = known_defect_outcomes(name)
    result["machine"] = machine_facts()
    result["attempted"] = sum(r.attempted for r in runs)
    result["failed"] = sum(r.failed for r in runs)
    result["wrong"] = sum(r.wrong for r in runs) + len(diverged)
    result["failed_frac"] = result["failed"] / result["attempted"]
    result["cycles"] = main.cycles
    result["host_speed"] = {
        "proxy": "fresh `import numpy` (ms)" if wl.subprocess_ops else "calibration loop (us)",
        "reference": (PROCESS if wl.subprocess_ops else LOOP)[1],
        "median": statistics.median(main.speed_samples), "min": min(main.speed_samples),
        "max": max(main.speed_samples), "samples": len(main.speed_samples)}
    result["wall_s"] = sum(r.wall_s for r in runs)
    result["failures"] = sorted({msg for r in runs for msg in r.failures.values()})
    result["output_digest"] = hashlib.sha256(
        "".join(f"{i}:{d}\n" for i, d in sorted(main.outputs.items())).encode()).hexdigest()
    result["correct"] = result["wrong"] == 0
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    print(f"# f1zeta benchmark  workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print("# sizes: " + json.dumps(result["sizes"]))
    print("# host speed: " + json.dumps(result["host_speed"]))
    if "raw_wall_time" in result:
        print("# raw wall time, before scaling to the reference speed: "
              + ", ".join(f"{k}={v:.6g}" for k, v in result["raw_wall_time"].items()))
    print(f"# ops: attempted={result['attempted']} failed={result['failed']} wrong={result['wrong']} "
          f"failed_frac={result['failed_frac']:.4f} cycles={result['cycles']} "
          f"ops_per_cycle={result['ops_per_cycle']} wall_s={result['wall_s']:.2f}")
    samples = result.get("samples", {})
    for name, m in result["metrics"].items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}{n}")
    for msg in result["failures"]:
        print(f"# failed: {msg}")
    for msg in result.get("known_defects", []):
        print(f"# known defect, untimed and not counted as an op: {msg}")
    if result.get("traced_untraced_diverged"):
        print(f"# traced and untraced outputs differ: {result['traced_untraced_diverged']}")


def summary_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": result["metrics"]})


# -- all workloads -------------------------------------------------------------------


def run_all(seed: int, seconds: int) -> int:
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, check=False)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json"),
                      encoding="utf-8") as fh:
                results[name, trace] = json.load(fh)
    print(f"# f1zeta benchmark, seed {seed}, {seconds} s per workload")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in results[WORKLOADS[0], 0]["machine"].items()))
    print(f"\n{'end to end':24s}" + "".join(f"{w:>22s}" for w in WORKLOADS))
    for metric, unit in list(E2E_UNITS.items()) + [("failed_frac", "ratio")]:
        row = f"{metric + ' [' + unit + ']':24s}"
        for w in WORKLOADS:
            r = results[w, 0]
            if metric == "failed_frac":
                row += f"{r['failed_frac']:>14.4f} n={r['attempted']:<5d}"
            else:
                row += f"{r['metrics'][metric]['value']:>14.5g} n={r['samples'][metric]:<5d}"
        print(row)
    print(f"{'sizes':24s}" + "".join(f"{w:>22s}" for w in WORKLOADS))
    for w in WORKLOADS:
        print(f"  {w}: {json.dumps(results[w, 0]['sizes'])}")
    print(f"\n{'per layer (traced)':32s}" + "".join(f"{w:>20s}" for w in WORKLOADS))
    for metric, m in results[WORKLOADS[0], 1]["metrics"].items():
        print(f"{metric + ' [' + m['unit'] + ']':32s}"
              + "".join(f"{results[w, 1]['metrics'][metric]['value']:>20.6g}" for w in WORKLOADS))
    failures = [msg for r in results.values() for msg in r["failures"]]
    for msg in sorted(set(failures)):
        print(f"# failed: {msg}")
    for msg in sorted({msg for r in results.values() for msg in r.get("known_defects", [])}):
        print(f"# known defect, untimed and not counted as an op: {msg}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for (w, trace), r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the benchmark itself (determinism, references, tracing)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, BENCH)
    try:
        if args.selfcheck:
            use_source()
            import selfcheck

            return selfcheck.main(args.seed, sys.modules[__name__])
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, int(args.seconds))
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SourceMissing as exc:
        print(f"bench: {exc}; run from the root of an f1zeta checkout", file=sys.stderr)
        return 2
    report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

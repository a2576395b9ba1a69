#!/usr/bin/env python3
"""neckflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tails --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: it imports neckflow from the
checkout's own src/ and refuses to run without it.  Workloads are described
in workloads.py and NOTES.md.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over SETUP_PROBES fresh interpreters of the time from
               process start to the end of set-up (imports, inputs, one
               warm-up op), in seconds as measured
  throughput   work items (samples, band rows or transits) per second of op
               time, over a closed loop of ops run for --seconds
  op_p50_ms    median op latency, and op_p90_ms its 90th percentile
  ref_job_s    median time of the workload's fixed-size reference job, run
               ref_repeats times spread over the same --seconds
  peak_rss_mb  peak resident set of the measuring process
Throughput, latencies and ref_job_s are in reference seconds: a workload
with cpu_clock times process CPU time as it is; any other times wall time
scaled by HostSpeed.  The unscaled figures are printed above the result.

--trace 1 runs a fixed number of ops (set by --seconds, not by the clock)
once untraced and once traced, and reports the per-layer metrics of
tracing.py plus trace_overhead_frac; the spans go to perfbench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, decile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "1/ref_s",
    "op_p50_ms": "ref_ms",
    "op_p90_ms": "ref_ms",
    "ref_job_s": "ref_s",
    "peak_rss_mb": "MB",
}


def import_package():
    """neckflow from this checkout's src/, never an installed copy."""
    init = SRC / "neckflow" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run the benchmark inside a neckflow checkout")
    sys.path.insert(0, str(SRC))
    import neckflow

    if Path(neckflow.__file__).resolve() != init:
        sys.exit(f"perfbench: imported {neckflow.__file__}, expected {init}")
    return neckflow


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("evals_per_call"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "count"


class HostSpeed:
    """How fast the host runs, from timing a fixed Python loop.

    On a shared host the same interpreter-bound code runs up to 1.6x faster
    or slower from one stretch of seconds to the next.  The loop is timed
    between ops (at most every EVERY_S) and before each reference job.  An
    op's wall time times `current` (LOOP_REF_S over the latest loop time)
    is in reference seconds: its time on a host where the loop takes
    LOOP_REF_S.  A reference job is too long for one calibration to stand
    for it and is scaled by `factor`, the same ratio over the whole run.
    """

    LOOP_ITERATIONS = 8000
    LOOP_REF_S = 1e-3
    SAMPLES = 5  # loop timings per calibration; their median is kept
    EVERY_S = 0.1

    def __init__(self):
        self.loop_times: list[float] = []
        self._last = -math.inf

    @classmethod
    def _loop(cls) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(cls.LOOP_ITERATIONS):
            acc += math.sqrt(i)
        return time.perf_counter() - start

    def sample(self, force: bool = False) -> None:
        """Time the loop if forced or if the last timing is stale."""
        if force or time.perf_counter() - self._last >= self.EVERY_S:
            timings = [self._loop() for _ in range(self.SAMPLES)]
            self.loop_times.append(statistics.median(timings))
            self._last = time.perf_counter()

    @property
    def current(self) -> float:
        """Reference seconds per measured second, from the latest timing."""
        return self.LOOP_REF_S / self.loop_times[-1]

    @property
    def factor(self) -> float:
        """Reference seconds per measured second over the run so far."""
        return self.LOOP_REF_S / statistics.median(self.loop_times)


@dataclass
class Loop:
    """What a closed loop of ops did; latencies in reference seconds."""

    latencies: list[float] = field(default_factory=list)
    unscaled: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    @property
    def op_time(self) -> float:
        return sum(self.latencies)


def run_ops(wl, op_errors, speed: HostSpeed, seconds: float | None = None,
            n_ops: int | None = None, digest: bool = False,
            ref_times: list[float] | None = None) -> Loop:
    """Run ops 0, 1, ... one at a time: n_ops of them, or at least
    wl.min_ops and until `seconds` have passed.  Only the op is timed; its
    check runs after the clock stops.  Given ref_times, the reference job
    also runs wl.ref_repeats times, spread evenly over the `seconds`, so its
    timings see the same host conditions as the ops; they are appended."""
    loop = Loop()
    clock = time.process_time if wl.cpu_clock else time.perf_counter
    t0 = time.perf_counter()
    i = 0

    def ref_due() -> bool:
        done = len(ref_times)
        return done < wl.ref_repeats and (
            time.perf_counter() - t0 >= done * seconds / wl.ref_repeats
        )

    while True:
        if ref_times is not None and ref_due():
            speed.sample(force=True)
            start = clock()
            wl.ref_job()
            ref_times.append(clock() - start)
            continue
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= wl.min_ops and time.perf_counter() - t0 >= seconds:
            break
        loop.attempted += 1
        speed.sample()
        factor = 1.0 if wl.cpu_clock else speed.current
        start = clock()
        try:
            items, out = wl.op(i)
        except op_errors as exc:
            loop.failed += 1
            loop.problems.append(f"op {i} raised {type(exc).__name__}: {exc}")
        else:
            loop.unscaled.append(clock() - start)
            loop.latencies.append(factor * loop.unscaled[-1])
            problem = wl.check(i, out)
            if problem is None:
                loop.items += items
            else:
                loop.failed += 1
                loop.problems.append(problem)
            if digest:
                loop.digests.append(wl.digest(out))
        i += 1
    return loop


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    return float(proc.stdout.split()[-1]) - t0


def timed_run(args, cls, op_errors, threads):
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = cls(args.seed, threads)
    wl.warm_up()
    speed = HostSpeed()
    ref_times: list[float] = []
    loop = run_ops(wl, op_errors, speed, seconds=args.seconds, ref_times=ref_times)
    problems = loop.problems + wl.finish()
    lat_ms = [1e3 * x for x in loop.latencies]
    raw_ms = [1e3 * x for x in loop.unscaled]
    unscaled = {
        "throughput": loop.items / sum(loop.unscaled) if loop.unscaled else 0.0,
        "op_p50_ms": decile(raw_ms, 5),
        "op_p90_ms": decile(raw_ms, 9),
        "ref_job_s": statistics.median(ref_times),
    }
    f = 1.0 if wl.cpu_clock else speed.factor
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": loop.items / loop.op_time if loop.op_time else 0.0,
        "op_p50_ms": decile(lat_ms, 5),
        "op_p90_ms": decile(lat_ms, 9),
        "ref_job_s": unscaled["ref_job_s"] * f,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    loops = speed.loop_times
    notes = [
        f"ops {loop.attempted} (latency samples {len(lat_ms)}); set-up probes "
        + " ".join(f"{s:.3f}" for s in setups) + " s; reference jobs "
        + " ".join(f"{s:.3f}" for s in ref_times) + " s",
        f"host speed: calibration loop {1e3 * min(loops):.3f}..{1e3 * max(loops):.3f} ms, "
        f"median {1e3 * statistics.median(loops):.3f} ms over {len(loops)} calibrations; "
        f"factor {f:.4f}",
        "unscaled " + json.dumps(unscaled),
    ]
    units = {name: END_TO_END_UNITS[name] for name in metrics}
    return loop, problems, metrics, units, notes


def traced_run(args, cls, op_errors, threads, package):
    tracer = Tracer(package)
    tracer.install()
    try:
        wl = cls(args.seed, threads)
        wl.warm_up()
    finally:
        tracer.uninstall()
    n_ops = max(wl.min_ops, round(wl.rate * args.seconds / 2))
    speed = HostSpeed()
    plain = run_ops(wl, op_errors, speed, n_ops=n_ops, digest=True)
    tracer.install()
    try:
        traced = run_ops(wl, op_errors, speed, n_ops=n_ops, digest=True)
        wl.ref_job()
    finally:
        tracer.uninstall()
    problems = plain.problems + traced.problems + wl.finish()
    if plain.digests != traced.digests:
        problems.append("traced ops gave different outputs than the same ops untraced")
    loop = Loop(attempted=plain.attempted + traced.attempted,
                failed=plain.failed + traced.failed)
    metrics = tracer.metrics()
    # op times are in reference seconds, so a change of host speed between
    # the two phases does not pass for tracing overhead
    metrics["trace_overhead_frac"] = traced.op_time / plain.op_time - 1.0
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans)
    notes = [f"ops {n_ops} untraced then {n_ops} traced; {len(tracer.spans)} spans in {spans}"]
    units = {name: unit_of(name) for name in metrics}
    return loop, problems, metrics, units, notes


def host_record(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    threads = min(2, len(os.sched_getaffinity(0)))

    if args.setup_probe:
        cls(args.seed, threads).warm_up()
        print(repr(time.monotonic()))
        return 0

    host = host_record(threads)
    if args.trace:
        loop, problems, metrics, units, notes = traced_run(
            args, cls, workloads.OP_ERRORS, threads, package)
    else:
        loop, problems, metrics, units, notes = timed_run(
            args, cls, workloads.OP_ERRORS, threads)

    print("host " + json.dumps(host, sort_keys=True))
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':48s} {loop.failed / max(loop.attempted, 1):.6g} ratio")
    for problem in problems:
        print("problem: " + problem)
    result = {
        "correct": not problems and loop.attempted > loop.failed,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

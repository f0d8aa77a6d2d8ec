#!/usr/bin/env python3
"""Run a PrivBayes benchmark workload from a seed and print its metrics.

    python3 perfbench/run.py --workload acs-fit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Run it from the root of a checkout: the package under test is imported
from ``src/`` next to this directory, never from anywhere else.

``--trace 0`` is the timing pass: tracing and ``tracemalloc`` off, the
default environment but for one BLAS thread.  It prints the end-to-end
metrics.  Every timed job and set-up is bracketed by a fixed probe
(``pace_probe``), and the gated times are CPU times in units of the
probe's CPU time, so that a host whose speed drifts from one minute to the
next moves the job and its yardstick together.  ``--trace 1`` is
the traced pass, in a process of its own: untraced jobs for the first half
of ``--seconds`` and traced jobs for the second half.  It prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it, ``{"perfbench": {...}}``, is the full record that
``perfbench/compare.py`` reads.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

# One BLAS thread, set before NumPy loads.  On a host of two shared vCPUs a
# second OpenBLAS thread measures what the neighbours do with the other
# vCPU, which no single-threaded probe can follow.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

import envstamp  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A timing run repeats set-up between its jobs, until set-ups have taken
#: this share of the run so far, and at most ``SETUP_MAX_REPEATS`` of
#: them spread evenly over the run.  Spread over the whole run, the
#: set-ups see the same machine as the jobs, not just its first seconds.
SETUP_SHARE = 0.15
SETUP_MAX_REPEATS = 100
#: ``setup_s`` is given at the pace of a machine on which the probe takes
#: this long: the median over set-ups of (set-up CPU time x this ÷ the
#: probe's CPU time around that set-up).
PACE_REFERENCE_S = 0.01
#: A p99 is reported only with at least 10 requests beyond it.
MIN_P99_SAMPLES = 1000

#: End-to-end metrics every timing run prints: ``(unit, better)``.
#: ``cpu_rel`` is the median of each job's CPU time divided by the probe's
#: CPU time measured just before and after it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_rel": ("probe", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Printed in the record and the report but not in the result line: the
#: raw times follow the host's drift (wall time its scheduling delays too),
#: ``error_rate`` is 0 on a correct run, and the serving figures exist on
#: ``adult-serve`` only.
REPORTED = {
    "job_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "setup_cpu_s": ("s", "lower"),
    "pace_s": ("s", "lower"),
    "error_rate": ("fraction", "lower"),
    "serve_rows_per_s": ("rows/s", "higher"),
    "req_p50_ms": ("ms", "lower"),
    "req_p99_ms": ("ms", "lower"),
}


def import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {error}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


_PROBE_RNG = np.random.default_rng(0)
_PROBE_CODES = _PROBE_RNG.integers(0, 1000, 200_000)
_PROBE_DOMAINS = (2, 9, 16, 41)
_PROBE_COLUMNS = [_PROBE_RNG.integers(0, size, 45_000) for size in _PROBE_DOMAINS]
_PROBE_VALUES = _PROBE_RNG.random(45_000)
_PROBE_CSV = "\n".join(
    ",".join(map(str, row)) for row in _PROBE_RNG.integers(0, 2, (3_000, 8)).tolist()
)


def pace_probe() -> float:
    """CPU seconds of one fixed unit of work, none of it the program's.

    About 20 ms: a pure-Python loop, ``csv.reader`` over 3,000 rows of
    text into per-column lists of strings, a NumPy ``bincount`` and
    ``sort``, and four rounds of contingency counting
    (``ravel_multi_index``, ``bincount``, an entropy, a gather) over 45,000
    rows: the shapes the program's own work has.  CPU time, not wall time,
    so that the probe is not stretched by the moments it waits for a CPU.
    """
    start = time.process_time()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    columns = [[] for _ in range(8)]
    for row in csv.reader(io.StringIO(_PROBE_CSV)):
        for column, field in zip(columns, row):
            column.append(field.strip())
    total += len(columns[0])
    np.bincount(_PROBE_CODES, minlength=1000)
    np.sort(_PROBE_CODES[:50_000])
    for _ in range(4):
        index = np.ravel_multi_index(_PROBE_COLUMNS, _PROBE_DOMAINS)
        counts = np.bincount(index, minlength=int(np.prod(_PROBE_DOMAINS)))
        shares = counts[counts > 0] / counts.sum()
        total += float(shares @ np.log(shares))
        total += float(np.take(_PROBE_VALUES, index % _PROBE_VALUES.size).sum())
    return time.process_time() - start


def rusage():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_stime, usage.ru_minflt


class Runner:
    """Runs and checks the jobs of one workload; keeps every sample."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.state = None
        self.setups = []  # (wall, cpu, pace) of every set-up
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = None
        self.tracemalloc_seen = False
        self.samples = []  # (wall, cpu, sys, minflt, pace) of passing jobs
        self.latencies = []

    def set_up(self) -> None:
        """Replace the state with a fresh one and time its set-up."""
        self.tear_down()
        gc.collect()
        before = pace_probe()
        cpu0 = rusage()[0]
        start = time.perf_counter()
        self.state = self.workload.setup(self.seed, self.workdir)
        wall = time.perf_counter() - start
        cpu = rusage()[0] - cpu0
        self.setups.append((wall, cpu, (before + pace_probe()) / 2))

    def tear_down(self) -> None:
        if self.state is not None:
            self.workload.teardown(self.state)
            self.state = None

    def job(self, recorder=None):
        """One job: collect garbage, time it, check it.  True on success."""
        self.attempted += 1
        gc.collect()
        self.tracemalloc_seen |= tracemalloc.is_tracing()
        before = pace_probe()
        cpu0, sys0, faults0 = rusage()
        start = time.perf_counter()
        try:
            if recorder is None:
                output = self.workload.job(self.state)
            else:
                with tracing.patched(recorder), recorder.span(tracing.ROOT):
                    output = self.workload.job(self.state)
            wall = time.perf_counter() - start
            cpu1, sys1, faults1 = rusage()
            pace = (before + pace_probe()) / 2
            outcome = self.workload.check(self.state, output)
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=4))
            print(self.problems[-1], file=sys.stderr)
            return False
        problems = list(outcome.problems)
        if self.fingerprint is None:
            self.fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self.fingerprint:
            problems.append("same seed, different fingerprint")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            print(f"perfbench: check failed: {problems}", file=sys.stderr)
            return False
        self.samples.append((wall, cpu1 - cpu0, sys1 - sys0, faults1 - faults0, pace))
        self.latencies.extend(outcome.latencies)
        return True

    def until(self, deadline: float, recorder=None, between=None) -> list:
        """Jobs until ``deadline`` (at least one); the passing job numbers.

        A job starts only if it should end by half a job after the
        deadline, so a run lasts about ``--seconds`` however long a job is.
        ``between`` runs untimed before each job.
        """
        count = 0
        passed = []
        last = 0.0
        while not count or time.perf_counter() + last / 2 < deadline:
            if between is not None:
                between()
            if recorder is not None:
                recorder.job = count
            start = time.perf_counter()
            if self.job(recorder):
                passed.append(count)
            last = time.perf_counter() - start
            count += 1
        return passed


def median(values, default=0.0):
    return statistics.median(values) if values else default


def timing_metrics(runner: Runner) -> dict:
    walls = [s[0] for s in runner.samples]
    metrics = {
        "setup_s": median([PACE_REFERENCE_S * cpu / pace for _, cpu, pace in runner.setups]),
        "cpu_rel": median([s[1] / s[4] for s in runner.samples]),
        "job_s": median(walls),
        "cpu_s": median([s[1] for s in runner.samples]),
        "pace_s": median([s[4] for s in runner.samples]),
        "setup_wall_s": median([s[0] for s in runner.setups]),
        "setup_cpu_s": median([s[1] for s in runner.setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": runner.failed / runner.attempted,
    }
    if runner.latencies:
        from workloads import SERVE_ROWS_PER_JOB

        metrics["serve_rows_per_s"] = SERVE_ROWS_PER_JOB * len(walls) / sum(walls)
        ms = sorted(1000 * x for x in runner.latencies)
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        metrics["req_p50_ms"] = cuts[49]
        metrics["req_p99_ms"] = cuts[98] if len(ms) >= MIN_P99_SAMPLES else None
        metrics["requests"] = len(ms)
    return metrics


def traced_metrics(runner: Runner, seconds: float) -> dict:
    half = time.perf_counter() + seconds / 2
    runner.until(half)
    untraced = list(runner.samples)
    recorder = tracing.Recorder()
    layers = [recorder.layer_metrics(job) for job in runner.until(half + seconds / 2, recorder)]
    metrics = {
        name: median([values[name] for values in layers])
        for name in tracing.LAYER_METRICS
    }
    metrics["proc.cpu_per_wall"] = median([s[1] / s[0] for s in untraced])
    metrics["proc.sys_s"] = median([s[2] for s in untraced])
    metrics["proc.minflt"] = median([s[3] for s in untraced])
    traced_job_s = median([values["job_s"] for values in layers])
    untraced_job_s = median([s[0] for s in untraced])
    # Both are zero only when every job of a half failed; the run is then
    # incorrect, but it still prints its result line.
    metrics["trace.overhead_frac"] = (
        traced_job_s / untraced_job_s - 1 if traced_job_s and untraced_job_s else 0.0
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(workload, seed, workdir)
    try:
        runner.set_up()
        runner.job()  # warm-up: checked, never timed
        runner.samples.clear()
        runner.latencies.clear()
        if trace:
            metrics = traced_metrics(runner, seconds)
            table = tracing.LAYER_METRICS
        else:
            began = time.perf_counter()

            def more_setups():
                while True:
                    elapsed = time.perf_counter() - began
                    if (
                        len(runner.setups) * seconds >= SETUP_MAX_REPEATS * elapsed
                        or sum(s[0] for s in runner.setups) >= SETUP_SHARE * elapsed
                    ):
                        return
                    runner.set_up()

            runner.until(began + seconds, between=more_setups)
            metrics = timing_metrics(runner)
            table = {**END_TO_END, **REPORTED}
        env = envstamp.stamp(ROOT, workdir)
    finally:
        runner.tear_down()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and bool(runner.samples)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": correct,
        "fingerprint": runner.fingerprint,
        "tracemalloc_seen": runner.tracemalloc_seen,
        "metrics": {
            key: {"value": value, "unit": table[key][0], "better": table[key][1]}
            for key, value in metrics.items()
            if key in table
        },
        "samples": {
            "setup_s": [s[0] for s in runner.setups],
            "setup_cpu_s": [s[1] for s in runner.setups],
            "setup_pace_s": [s[2] for s in runner.setups],
            "job_s": [s[0] for s in runner.samples],
            "cpu_s": [s[1] for s in runner.samples],
            "pace_s": [s[4] for s in runner.samples],
        },
        "requests": metrics.get("requests"),
        "problems": runner.problems[:5],
        "env": env,
    }
    print_report(record)
    print(json.dumps({"perfbench": record}))
    gated = tracing.LAYER_METRICS if trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": record["metrics"][key]["unit"]}
            for key in gated
        },
    }))
    return 0 if correct else 1


def print_report(record: dict) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']}: {record['attempted']} jobs attempted "
        f"(1 warm-up), {record['failed']} failed"
    )
    for key, metric in record["metrics"].items():
        value = metric["value"]
        shown = "n/a (fewer than 1000 requests)" if value is None else f"{value:.6g}"
        print(f"  {key:<38} {shown} {metric['unit']}")
    if record["requests"]:
        print(f"  {'requests':<38} {record['requests']}")
    print(f"  {'fingerprint':<38} {record['fingerprint']}")
    for key, value in record["env"].items():
        print(f"  env.{key:<34} {value}")


def run_all(args) -> int:
    """Every workload, each in its own process (so RSS is its own)."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= child.returncode == 0 and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside, still remove the scratch directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

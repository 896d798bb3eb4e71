"""Closed loop, metrics and report of the benchmark; entered through run.py.

One client runs the items of a workload one after another: each item starts
only after the previous one has written its files.  The clock covers the
program call alone; writing the config before it and the correctness gate
and clean-up after it are outside the timed region.  A run is a fixed number
of whole rounds: as many as take about ``--seconds`` of timed work on the
reference machine (a 2-vCPU Xeon VM), and at least ``MIN_ITEMS`` items.  The
count depends on nothing but the workload and ``--seconds``, so every run of
a seed attempts the same items, and fails the same ones.  ``setup_s`` is the
median over this process and ``SETUP_PROBES`` fresh interpreters that repeat
its set-up, started between items at even steps of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

import fdqme
from fdqme import baths, cli
from checks import CheckFailed, check_cli, check_kernels
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# 45 items put the tail at p78 or higher, with ten items beyond it.  Only
# validation has fewer items per --seconds; for it this means three rounds
# (about 27 s of timed work on the reference machine).  With two rounds its
# median latency, which falls on the positivity items, covered only a few
# seconds of a machine whose speed swings by 1.5x, and spread past its bound.
MIN_ITEMS = 45
TAIL_BEYOND = 10
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

# name -> unit, in report order; error_rate is reported through attempted/failed
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    scenario: str
    seconds: float
    ok: bool
    cause: str | None = None  # first line of the failure, when not ok
    incorrect: bool = False  # output exists but failed the correctness gate
    traced: bool = False
    bytes_written: int = 0
    csv_sha256: dict = field(default_factory=dict)


class Runner:
    """Executes items in a private scratch directory and checks their outputs."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.count = 0

    def run(self, item, tracer: Tracer | None = None) -> Outcome:
        self.count += 1
        if tracer is not None:
            tracer.begin_item(self.count)
        outcome = self._run_cli(item) if item.is_cli else self._run_kernels(item)
        if tracer is not None:
            tracer.end_item(outcome.seconds, outcome.bytes_written)
            outcome.traced = True
        return outcome

    def _run_cli(self, item) -> Outcome:
        config = self.scratch / "item.cfg"
        config.write_text(item.config_text("item.csv"), encoding="utf-8")
        out_dir = self.scratch / "out"
        out_dir.mkdir()
        stderr = io.StringIO()
        argv = [item.scenario, "--config", str(config), "--out", str(out_dir)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            error = None
        except Exception as exc:  # the loop keeps running; the cause is reported
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        outcome = Outcome(item.scenario, seconds, ok=False)
        try:
            outcome.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
            if error is not None:
                outcome.cause = error
            elif code != 0:
                outcome.cause = f"exit {code}: {stderr.getvalue().strip()}"
            else:
                outcome.csv_sha256 = check_cli(item, out_dir / "item")
                outcome.ok = True
        except CheckFailed as exc:
            outcome.cause, outcome.incorrect = f"incorrect output: {exc}", True
        finally:
            shutil.rmtree(out_dir)
        if outcome.cause:
            outcome.cause = outcome.cause.splitlines()[0]
        return outcome

    def _run_kernels(self, item) -> Outcome:
        thermal = item.scenario == "kernels-thermal"
        p = (baths.ThermalBathParams if thermal else baths.SqueezedBathParams)(**item.params)
        t = np.linspace(0.0, item.extra["t_max"], item.extra["time_samples"])
        t_generic = t[list(item.extra["generic_index"])]
        start = time.perf_counter()
        try:
            if thermal:
                k_time = baths.thermal_kernel_time(p, t)
                k_freq = baths.thermal_kernel_freq(p, baths.default_frequency_grid(p))
            else:
                k_time = baths.squeezed_kernel_time(p, t)
                k_freq = baths.squeezed_kernel_freq(p, baths.default_frequency_grid(p))
            k_generic = baths.generic_kernel_time(p, t_generic)
            error = None
        except Exception as exc:  # the loop keeps running; the cause is reported
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        outcome = Outcome(item.scenario, seconds, ok=False, cause=error)
        if error is None:
            try:
                check_kernels(item, (k_time, k_freq, k_generic))
                outcome.ok = True
            except CheckFailed as exc:
                outcome.cause, outcome.incorrect = f"incorrect output: {exc}", True
        return outcome


def plan_rounds(workload, seconds: float, trace: bool) -> int:
    """Rounds in a run; an even number in trace mode, which traces every second round."""
    per_round = len(workload.make_round(np.random.default_rng(0)))
    rounds = max(math.ceil(MIN_ITEMS / per_round), round(seconds / workload.round_seconds))
    return rounds + rounds % 2 if trace else rounds


def run_loop(workload, seed: int, seconds: float, runner: Runner, trace: bool, probe):
    """The planned rounds of the workload; in trace mode odd rounds are traced.

    ``probe()`` is called before the first item and again after each further
    ``1/SETUP_PROBES`` of the items; its results are returned.
    """
    outcomes, probes, tracer = [], [], Tracer() if trace else None
    rounds = itertools.islice(workload.rounds(seed), plan_rounds(workload, seconds, trace))
    items = [(k, item) for k, batch in enumerate(rounds) for item in batch]
    probe_at = {len(items) * i // SETUP_PROBES for i in range(SETUP_PROBES)}
    for i, (k, item) in enumerate(items):
        if i in probe_at:
            probes.append(probe())
        traced = trace and k % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            outcomes.append(runner.run(item, tracer if traced else None))
    return outcomes, probes, tracer


def items_per_s(outcomes: list) -> float:
    """Completed items per second of timed wall clock."""
    timed = sum(o.seconds for o in outcomes)
    return sum(o.ok for o in outcomes) / timed if timed else 0.0


def end_to_end(outcomes: list, setup: list) -> dict:
    """Every end-to-end metric as {name: (value, unit, note)}."""
    done = sorted(o.seconds for o in outcomes if o.ok)
    timed = sum(o.seconds for o in outcomes)
    failed = sum(not o.ok for o in outcomes)
    n = len(done)
    if n > TAIL_BEYOND:
        tail, beyond = done[n - TAIL_BEYOND - 1], TAIL_BEYOND
    else:
        tail, beyond = (done[-1] if done else 0.0), 0
    pct = 100.0 * (n - beyond) / n if n else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} set-ups: " + ", ".join(f"{x:.3f}" for x in setup)),
        "items_per_s": (items_per_s(outcomes), "1/s",
                        f"n={n} completed of {len(outcomes)} attempted in {timed:.3f} s timed"),
        "latency_p50_ms": (1e3 * statistics.median(done) if done else 0.0, "ms", f"n={n}"),
        "latency_tail_ms": (1e3 * tail, "ms", f"p{pct:.1f}, {beyond} items beyond, n={n}"),
        "error_rate": (failed / len(outcomes), "ratio", f"{failed} failed of {len(outcomes)}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the benchmark process, n=1"),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fdqme": fdqme.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    found = {}
    for lib in sorted(p for p in libs if p.startswith("/")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter doing this run's imports, inputs and warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced and untraced rounds, report per-layer metrics")
    parser.add_argument("--results", default=str(ROOT / ".bench-results"),
                        help="directory for the full record of the run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv, t_start: float, src: Path) -> int:
    args = parse_args(argv)
    if Path(fdqme.__file__).resolve().parent != (src / "fdqme").resolve():
        print(f"error: fdqme imported from {fdqme.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = Path(tempfile.mkdtemp(prefix=".bench-scratch-", dir=ROOT))
    try:
        runner = Runner(scratch)
        warmup = [runner.run(item) for item in workload.warmup()]
        setup = time.perf_counter() - t_start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        outcomes, probes, tracer = run_loop(workload, args.seed, args.seconds, runner,
                                            bool(args.trace), lambda: probe_setup(args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report(args, workload, warmup, [setup] + probes, outcomes, tracer)


def report(args, workload, warmup, setup, outcomes, tracer) -> int:
    untraced = [o for o in outcomes if not o.traced]
    e2e = end_to_end(untraced, setup)
    env = environment()
    incorrect = [o for o in warmup + outcomes if o.incorrect]
    failed = [o for o in outcomes if not o.ok]
    print(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:16s} {value:14.6g} {unit:5s}  ({note})")
    causes = {}
    for o in failed:
        causes[(o.scenario, o.cause)] = causes.get((o.scenario, o.cause), 0) + 1
    for (scenario, cause), count in sorted(causes.items(), key=lambda kv: -kv[1]):
        print(f"  failed {count} of {len(outcomes)} attempted x {scenario}: {cause}")
    digests = sum(len(o.csv_sha256) for o in outcomes)
    print(f"  csv files checked and hashed: {digests}")

    record = {"args": vars(args), "environment": env,
              "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
              "outcomes": [asdict(o) for o in warmup + outcomes]}
    if tracer is not None:
        per_layer = per_layer_metrics(outcomes, tracer)
        for name, (value, unit) in per_layer.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
        if tracer.absent:
            print(f"  absent spans: {', '.join(tracer.absent)}")
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["absent_spans"] = tracer.absent
        record["spans"] = tracer.dump()
        metrics = per_layer
    else:
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items() if k in END_TO_END}
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"  full record: {path}")

    summary = {
        "correct": not incorrect and any(o.ok for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def per_layer_metrics(outcomes, tracer: Tracer) -> dict:
    traced = [o for o in outcomes if o.traced]
    untraced = [o for o in outcomes if not o.traced]

    out = tracer.metrics()
    rate_untraced, rate_traced = items_per_s(untraced), items_per_s(traced)
    out["trace.items_per_s_untraced"] = (rate_untraced, "1/s")
    out["trace.items_per_s_traced"] = (rate_traced, "1/s")
    out["trace.overhead"] = (rate_untraced / rate_traced - 1.0 if rate_traced else 0.0, "ratio")
    return out

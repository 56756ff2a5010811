#!/usr/bin/env python3
"""Benchmark of the ctlab pipeline: `ctlab run` on three workloads.

Run from the root of a checkout (the program is used from `src/` as is):

    python3 perfbench/run.py --workload reference --seed 6 --seconds 10 --trace 0

`--seed` is passed to `ctlab run --seed`; it seeds training and the Monte
Carlo samples of every row while the planted world stays fixed.  At the
default seed (6, the reference config's own) the artifacts are compared with
`expected/<workload>.json`; at other seeds only invariants are checked (see
gate.py).  BLAS is pinned to one thread, so `--threads` is the only source of
parallelism.

`--trace 0` reports the end-to-end metrics:

  setup_s      process start until the first pipeline row begins (imports,
               config, world generation, transforms, saving the world);
               median of SETUP_PROBES probe processes that stop there
  wall_s       wall time of the whole `ctlab run`
  cpu_s        user + system CPU time of that run
  peak_rss_mb  its peak resident memory

The three times are given at the host's fast-state speed: that speed changes
by up to 1.5x within seconds (see hostspeed.py), so the run is stopped every
SLICE_S seconds to time a fixed calibration kernel on the vCPUs it runs on,
and each stretch of running time is divided by the slowdown measured on
either side of it (set-up probes are timed before and after; CPU time is
scaled like the wall time of its run).  The child runs on as many vCPUs as
the workload has threads.

`--trace 1` reports the per-layer metrics of spans.py from a run with every
public ctlab function wrapped, plus `trace.wall_s` and `trace.overhead_s`
(traced minus untraced raw wall time of the same input; the traced run is not
stopped, so its spans hold raw times), `host.wall_raw_s` (raw wall time of
the untraced run) and `host.slowdown_ratio` (its raw over scaled wall time).

`--seconds` is the least time spent in timed pipeline runs.  A pipeline run is
never cut short, so a workload longer than that runs once; times are medians
over the runs made.  The last line of stdout is the JSON result; the line
before it records the environment, and `.perfbench/results/` keeps both with
every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import select
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import gate
from hostspeed import Speedometer
from spans import layer_metrics, read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CONFIG = BENCH / "configs" / "reference.ini"
EXPECTED = BENCH / "expected"
DEFAULT_SEED = 6
SETUP_PROBES = 15
DEADLINE_S = 170.0
BLAS_THREADS = 1
SLICE_S = 0.5  # running time between two calibrations of the host

INFLATED = ("inflation.factor=8", "world.noise_scale=0.05")
# name -> (--threads, config overrides); the reasons are in BENCHMARK.json.
WORKLOADS = {
    "reference": (1, ()),
    "mc_inflated": (2, INFLATED),
    "spectral_inflated": (1, INFLATED + ("train.loss=spectral",)),
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def ctlab_argv(workload: str, seed: int, out_dir, threads: int | None = None) -> list:
    default_threads, overrides = WORKLOADS[workload]
    argv = ["run", "--config", str(CONFIG), "--out", str(out_dir), "--seed", str(seed)]
    argv += ["--threads", str(default_threads if threads is None else threads)]
    for item in overrides:
        argv += ["--set", item]
    return argv


class Run(NamedTuple):
    start: float  # perf_counter reading when the child was started
    wall: float  # seconds the child ran (stops excluded)
    ref_wall: float  # the same at the host's fast-state speed (hostspeed.py)
    cpu: float  # user + system CPU seconds of the child
    rss_mb: float  # its peak resident memory
    rc: int


def spawn(argv, log_path, deadline: float, speed=None, cpus=None, slice_s=None) -> Run:
    """Run one child to completion.

    With a `speed` (a hostspeed.Speedometer), the host is timed before the
    child starts, every `slice_s` seconds while it runs (the child is stopped
    meanwhile; never if `slice_s` is None) and when it ends.  Each stretch of
    running time is divided by the mean of the slowdowns on either side of it
    to give `ref_wall`.  The child runs on `cpus` (default: inherited) and is
    killed once `deadline` (a perf_counter reading) passes.
    """
    before = speed.measure() if speed else 1.0
    mine = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
            )
    finally:
        os.sched_setaffinity(0, mine)
    start = resumed = time.perf_counter()
    wall = ref_wall = 0.0
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            budget = deadline - resumed
            wait = budget if slice_s is None else min(slice_s, budget)
            select.select([pidfd], [], [], max(0.0, wait))
            now = time.perf_counter()
            # Neither signal matters to a child that has already exited.
            os.kill(proc.pid, signal.SIGKILL if now >= deadline else signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            after = speed.measure() if speed else 1.0
            wall += now - resumed
            ref_wall += (now - resumed) * 2.0 / (before + after)
            before = after
            if not os.WIFSTOPPED(status):
                break
            os.kill(proc.pid, signal.SIGCONT)
            resumed = time.perf_counter()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Run(start, wall, ref_wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode)


def run_ctlab(workload, seed, run_dir, deadline, traced=False, threads=None, speed=None,
              cpus=None, slice_s=None) -> Run:
    """One `ctlab run` into `run_dir/out`."""
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ctlab_argv(workload, seed, out, threads)
    if traced:
        cmd = [sys.executable, str(BENCH / "child.py"), "trace", str(run_dir / "spans.jsonl"), "--"]
    else:
        cmd = [sys.executable, "-m", "ctlab.cli"]
    return spawn(cmd + argv, run_dir / "ctlab.log", deadline, speed, cpus, slice_s)


def setup_probe(workload, seed, run_dir, deadline, speed) -> float:
    """Set-up time of one probe, run on the one vCPU `speed` times."""
    stamp = run_dir / "setup.stamp"
    argv = ctlab_argv(workload, seed, run_dir / "setup")
    cmd = [sys.executable, str(BENCH / "child.py"), "setup", str(stamp), "--", *argv]
    run = spawn(cmd, run_dir / "setup.log", deadline, speed, speed.cpus)
    if run.rc != 0:
        log = (run_dir / "setup.log").read_text(errors="replace")
        raise BenchError(f"setup probe exited with {run.rc}:\n{log[-2000:]}")
    return (float(stamp.read_text()) - run.start) * run.ref_wall / run.wall


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
    }


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    with open(EXPECTED / f"{workload}.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    rows = gate.row_count(expected)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    samples = defaultdict(list)
    problems = []
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0))[:WORKLOADS[workload][0]]
    speeds = []  # closed on the way out
    try:
        # Set-up runs on one thread, so it is timed against one vCPU alone.
        probe_speed = Speedometer(cpus[:1])
        speeds.append(probe_speed)
        speed = Speedometer(cpus) if len(cpus) > 1 else probe_speed
        speeds.append(speed)
        setup_probe(workload, seed, run_dir, deadline, probe_speed)  # warm-up: bytecode caches
        if not trace:
            samples["setup_s"] = [
                setup_probe(workload, seed, run_dir, deadline, probe_speed)
                for _ in range(SETUP_PROBES)
            ]
        t_measure = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                if traced:
                    run = run_ctlab(workload, seed, run_dir, deadline, True, cpus=cpus)
                else:
                    run = run_ctlab(workload, seed, run_dir, deadline, speed=speed, cpus=cpus,
                                    slice_s=SLICE_S)
                found = gate.check(run_dir / "out", run.rc, expected, seed == DEFAULT_SEED)
                attempted += rows
                if found:
                    failed += rows
                    problems += found
                if traced:
                    try:
                        layers = layer_metrics(read_spans(run_dir / "spans.jsonl"), run.wall)
                    except (OSError, ValueError) as exc:
                        raise BenchError(f"traced run left no usable spans: {exc}") from exc
                    for name, value in layers.items():
                        samples[name].append(value)
                    samples["trace.wall_s"].append(run.wall)
                    samples["trace.overhead_s"].append(run.wall - samples["host.wall_raw_s"][-1])
                else:
                    samples["wall_s"].append(run.ref_wall)
                    samples["cpu_s"].append(run.cpu * run.ref_wall / run.wall)
                    samples["peak_rss_mb"].append(run.rss_mb)
                    samples["host.wall_raw_s"].append(run.wall)
                    samples["host.slowdown_ratio"].append(run.wall / run.ref_wall)
            now = time.perf_counter()
            if now - t_measure >= seconds or now + 1.5 * (now - rep_start) > deadline:
                break
    finally:
        for speed in speeds:
            speed.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:
        names = [n for n in samples if n not in ("wall_s", "cpu_s", "peak_rss_mb")]
    else:
        names = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
    metrics = {n: {"value": statistics.median(samples[n]), "unit": _unit(n)} for n in names}
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "samples": dict(samples),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ctlab" / "cli.py").is_file():
        print(f"error: ctlab sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment()
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, **out}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

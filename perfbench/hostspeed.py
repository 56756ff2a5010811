"""Host speed: a fixed calibration kernel, timed beside the program.

The benchmark runs on a share of a host whose vCPUs each switch between a
fast and a slow state every few seconds (this kernel takes about 1.5 times as
long in the slow state), independently of each other.  A pipeline run spans
many such switches, so the raw wall time of the same code varies by 20-30%
from one run to the next.  run.py therefore stops the program every few
tenths of a second, times this kernel on every vCPU the program runs on, and
divides each stretch of program time by the slowdown measured beside it.
The kernel is the benchmark's own and fixed: a change to the program moves
the scaled time, a change of host speed does not.

    python3 perfbench/hostspeed.py CPU

serves calibrations on vCPU number CPU: one per line read from stdin, each
answered with the slowdown on a line of stdout, until stdin closes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# One BLAS thread, as in the program's runs; numpy reads this when it loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# Kernel time in the host's fast state (Xeon model 143, 2 vCPUs under KVM).
REFERENCE_S = 0.003
REPEATS = 5
WARMUP = 30

_rng = np.random.default_rng(0)
_TABLE = _rng.standard_normal((60, 8))
_ANCHORS = _rng.integers(0, 60, 500)
_NEGATIVES = _rng.integers(0, 60, (500, 4))


def kernel() -> float:
    """Seconds for a fixed mix of small numpy operations and Python loops,
    the two kinds of work of the pipeline's trainer."""
    start = time.perf_counter()
    for _ in range(20):
        sims = np.einsum("bk,bmk->bm", _TABLE[_ANCHORS], _TABLE[_NEGATIVES])
        np.exp(sims - sims.max(axis=1, keepdims=True)).sum()
        (_TABLE @ _TABLE.T).sum()
        total = 0
        for i in range(2000):
            total += i
    return time.perf_counter() - start


def calibrate() -> float:
    """Slowdown of the vCPU this runs on: 1.0 in the fast state."""
    return statistics.median(kernel() for _ in range(REPEATS)) / REFERENCE_S


class Speedometer:
    """Times the kernel on each of `cpus` at once.

    Pins the calling process to cpus[0] and starts one server process for
    each further vCPU; close() stops them.
    """

    def __init__(self, cpus):
        self.cpus = list(cpus)
        os.sched_setaffinity(0, {cpus[0]})
        self.servers = []
        try:
            for cpu in cpus[1:]:
                self.servers.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.close()
            raise
        for _ in range(WARMUP):
            kernel()

    def measure(self) -> float:
        """Mean slowdown over the vCPUs, measured at the same moment."""
        for server in self.servers:
            server.stdin.write("\n")
            server.stdin.flush()
        times = [calibrate()]
        for server in self.servers:
            line = server.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration server exited with {server.wait()}")
            times.append(float(line))
        return statistics.fmean(times)

    def close(self) -> None:
        for server in self.servers:
            server.stdin.close()
        for server in self.servers:
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        self.servers = []


def serve(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    for _ in range(WARMUP):
        kernel()
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve(int(sys.argv[1])))

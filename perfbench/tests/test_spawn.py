"""run.spawn: stopping the child to time the host, and the deadline."""

import signal
import sys
import time

from run import spawn

BUSY = "import time\nwhile time.process_time() < {}: pass"


class FixedSpeed:
    def __init__(self, slowdown):
        self.slowdown = slowdown
        self.calls = 0

    def measure(self):
        self.calls += 1
        return self.slowdown


def test_running_time_is_divided_by_the_slowdown(tmp_path):
    speed = FixedSpeed(2.0)
    start = time.perf_counter()
    run = spawn([sys.executable, "-c", BUSY.format(0.6)], tmp_path / "log",
                start + 60, speed, slice_s=0.2)
    assert run.rc == 0
    assert speed.calls >= 4  # before the start, at least two stops, at the end
    assert run.cpu >= 0.6
    assert run.start >= start and run.wall < time.perf_counter() - start
    assert abs(run.ref_wall - run.wall / 2.0) < 1e-9


def test_child_is_killed_at_the_deadline(tmp_path):
    run = spawn([sys.executable, "-c", BUSY.format(60)], tmp_path / "log",
                time.perf_counter() + 1.0, FixedSpeed(1.0), slice_s=0.3)
    assert run.rc == -signal.SIGKILL
    assert run.wall < 5

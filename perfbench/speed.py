"""A reference loop that measures how fast this machine's core runs while
the benchmark is timed on it.

On a shared host the speed of a core drifts by 15-30% over seconds to
minutes, with no CPU time stolen that the process could see: wall time and
process time move together, and two cores of one machine need not drift
together.  A pass timed in one minute and the same pass timed in the next are
therefore not comparable on their own, and neither a longer run nor another
statistic of the pass times removes the drift.

`Monitor` pins the benchmark process to one core and starts one child
process pinned to the same core.  The child runs this module's fixed loop in
short bursts, sleeping in between so that it takes about a tenth of the
core, and records when each burst ended and how many CPU seconds it took.
A pass that took `d` CPU seconds while the bursts took `p` on average is
reported as `d * REFERENCE_S / p`: its CPU time at the speed at which a
burst takes `REFERENCE_S`.  CPU time, not wall time, because the two
processes share the core.  The loop imports nothing from the engine, so a
change to the engine cannot change it; it mixes the kinds of work the engine
does (small-object float arithmetic, `Fraction` arithmetic, numpy calls on
3-vectors and 3x3 matrices, and mpmath) so that it slows down with the core
the way the engine does.

    python3 perfbench/speed.py CPU PATH   # the child: "end cpu_seconds" lines

The child exits when its parent goes away; `Monitor.stop` terminates it and
waits for it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

#: CPU seconds a burst takes at the reference speed; reported times are
#: scaled to it.  Its value only sets the scale: it is about a burst's median
#: time on a 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.0045
#: Sleep between bursts, so that the child takes about a tenth of the core.
PAUSE_S = 0.045
#: How long Monitor waits for the child's first burst.
START_TIMEOUT_S = 60.0


class _Quat:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        self.w, self.x, self.y, self.z = w, x, y, z

    def __mul__(self, o: "_Quat") -> "_Quat":
        return _Quat(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )


def _objects(n: int) -> float:
    q = _Quat(0.5, 0.5, 0.5, 0.5)
    r = _Quat(0.6, 0.0, 0.8, 0.0)
    for _ in range(n):
        q = q * r
    return q.w


def _fractions(n: int) -> Fraction:
    total = Fraction(0)
    for k in range(1, n + 1):
        total = total * Fraction(k, k + 1) + Fraction(1, k * k + 1)
        total = total.limit_denominator(10**40)
    return total


def _numpy(n: int) -> float:
    a = np.array([[2.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 2.0]])
    v = np.array([1.0, 0.5, 0.25])
    acc = 0.0
    for _ in range(n):
        w = np.linalg.solve(a, v)
        acc += float(np.einsum("i,ij,j->", w, a, v)) + float(np.linalg.norm(a @ w - v))
    return acc


def _mpmath(n: int) -> float:
    with mp.workdps(30):
        x = mpf(1) / 3
        for _ in range(n):
            x = mp.sqrt(x * x + mpf(1) / 7) / 2
    return float(x)


def burst() -> None:
    """One repetition of the reference loop."""
    _objects(1_200)
    _fractions(30)
    _numpy(100)
    _mpmath(80)


class Monitor:
    """The reference loop on this process's core, for the duration of a run.

    Burst end times are on `time.monotonic()`, which every process of this
    machine shares.  The child writes its bursts to `path`; they are read when
    the monitor stops.
    """

    def __init__(self, path: Path) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.path = path
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu), str(path)],
            stdin=subprocess.DEVNULL,
        )
        self.bursts: list[tuple[float, float]] = []  # (end, cpu seconds)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not (path.exists() and path.read_text().count("\n")):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed monitor did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        """Terminate the child, wait for it, and keep what it recorded."""
        if self.proc.returncode is not None:
            return
        self.proc.terminate()
        self.proc.wait()
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # a line cut short by terminate() is dropped
                    self.bursts.append((float(fields[0]), float(fields[1])))
            self.path.unlink()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean CPU time of the bursts that ended in
        [start, end], or of the one nearest to it if none did."""
        inside = [cpu for t, cpu in self.bursts if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.bursts, key=lambda b: abs(b[0] - mid))[1]]
        return REFERENCE_S / statistics.fmean(inside)


def _child(cpu: int, path: str) -> None:
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    burst()  # the first burst pays for lazy set-up
    with open(path, "w") as out:
        while os.getppid() == parent:
            start = time.process_time()
            burst()
            cpu_s = time.process_time() - start
            out.write(f"{time.monotonic():.6f} {cpu_s:.6f}\n")
            out.flush()
            time.sleep(PAUSE_S)


if __name__ == "__main__":
    _child(int(sys.argv[1]), sys.argv[2])

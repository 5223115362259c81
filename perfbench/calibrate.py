"""Calibrated seconds: CPU time scaled by the machine's speed at the time.

On a shared machine a CPU's speed drifts by a fifth or more over minutes as
other tenants load the host, and an identical child's CPU time drifts with
it.  So a small fixed probe is timed again and again on the same CPU while
the measured processes run, and their CPU time is scaled by
``REFERENCE_S`` over the median probe time of that window.  The result
reads as seconds on a machine where the probe takes ``REFERENCE_S``.

The probe times its own thread's CPU time, so the moments it waits behind
the measured process do not count; the measured process's CPU time
likewise leaves out the probe's.  The probe mixes the two kinds of work
the program does: an interpreted loop, and numpy gathers, packs and a sort.
It does not import the program, so no change to the program moves it.

The probe runs in a helper process (``python3 perfbench/calibrate.py``):
a line ``start`` opens a window, and a line ``stop`` closes it and is
answered with the window's median probe seconds.  The benchmark process
itself stays small: a child's peak RSS from ``os.wait4`` includes the
memory of the process that started it.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

#: Probe seconds at which calibrated seconds equal CPU seconds: about the
#: probe's median time on the machine the benchmark was written on (2 vCPU
#: Xeon, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0028
#: Seconds between probe timings while a window is open.
PERIOD_S = 0.05


class Probe:
    """Fixed CPU work; calling it returns its thread CPU seconds."""

    def __init__(self):
        import numpy as np

        self._np = np
        gen = np.random.default_rng(0)
        self._rows = gen.random((256, 512)) < 0.5
        self._cols = gen.integers(0, 512, 512)
        self._keys = gen.integers(0, 1 << 62, 20_000)

    def __call__(self) -> float:
        np = self._np
        t0 = time.thread_time()
        acc = 0
        for i in range(15_000):
            acc += i * i % 7
        gathered = self._rows[:, self._cols]
        gathered.all(axis=1)
        np.packbits(gathered, axis=1)
        np.argsort(self._keys, kind="stable")
        return time.thread_time() - t0


class ProbeClient:
    """Runs the probe in a helper process on the caller's CPUs."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def _send(self, line: str) -> None:
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()

    def start(self) -> None:
        self._send("start")

    def stop(self) -> float:
        """Median probe seconds since ``start``."""
        self._send("stop")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


@contextmanager
def one_cpu():
    """Pin the calling thread, and every process it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def main() -> None:
    probe = Probe()
    fd = sys.stdin.fileno()
    pending, samples = b"", None
    while True:
        # unbuffered reads: a buffered line would hide from select
        timeout = None if samples is None else PERIOD_S
        if b"\n" not in pending:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                samples.append(probe())
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                return
            pending += chunk
            continue
        line, pending = pending.split(b"\n", 1)
        if line.strip() == b"start":
            samples = [probe()]
        else:
            samples.append(probe())
            sys.stdout.write(f"{statistics.median(samples)!r}\n")
            sys.stdout.flush()
            samples = None


if __name__ == "__main__":
    main()

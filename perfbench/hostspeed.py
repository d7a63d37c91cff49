"""Host-speed correction for the end-to-end timings.

The shared host this benchmark was built on changes speed by up to half
within seconds: a fixed pure-Python loop swings between about 21 and 37 ms,
and CPU time follows wall time, so the slowdown is the processor's, not
scheduling's.  Ops of the same code then read tens of percent apart from
one run to the next.

Every end-to-end timing is therefore reported in *reference-host seconds*:
the wall time of the timed interval divided by the host's slowness just
around it, where slowness is the time a fixed probe takes now over the time
it takes on the reference machine.  Two probes, neither of which runs
fuchskit code, so a change to the program never changes the yardstick:

- ``KernelProbe``: a stdlib-only kernel of the kind of work fuchskit
  does in-process (``Fraction`` elimination, integer and dict arithmetic in
  the interpreter), run in a helper process, for ops that run in the
  worker;
- ``cold_slowness``: a fresh interpreter that imports numpy, for what a
  cold start pays (set-up, and the CLI ops, which are cold processes).  The
  in-process kernel does not follow cold starts: on CLI ops it left the
  run-to-run spread as it was, where this probe cut it to a fifth.

On a host running at the reference speed a corrected time equals the wall
time; the wall times stay in the record line.
"""

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Median probe times on the reference machine (2-vCPU VM, Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6), fixed once.
KERNEL_REFERENCE_S = 0.9e-3
COLD_REFERENCE_S = 0.18
KERNEL_RUNS = 2  # kernel runs per probe; a probe takes their minimum


def _kernel() -> Fraction:
    n = 7
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (i == j)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    acc = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    return a[n - 1][n - 1] + acc[5]


def _serve() -> None:
    """Helper-process loop: one kernel probe per line read, until EOF."""
    for _ in sys.stdin:
        best = float("inf")
        for _ in range(KERNEL_RUNS):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        print(best, flush=True)


class KernelProbe:
    """Runs the kernel in a helper process of its own, on the caller's CPU
    (the affinity is inherited), so that the probe sees the host and not
    what the ops left behind in the caller's heap: a program that grew its
    heap would otherwise slow its own yardstick.  Use as a context manager;
    the helper exits when its input closes."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self()  # warm the helper once
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline()) / KERNEL_REFERENCE_S

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cold_slowness() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=60)
    return (time.perf_counter() - start) / COLD_REFERENCE_S


def corrected(walls, slowness, window=2):
    """Reference-host seconds of consecutive intervals.

    ``slowness[i]`` was probed just before interval i and ``slowness[i + 1]``
    just after it.  Interval i is divided by the median of the probes within
    ``window`` places of it on either side, so one probe that a stall hit
    does not rescale its op alone.
    """
    if len(slowness) != len(walls) + 1:
        raise ValueError("need one probe more than intervals")
    return [wall / statistics.median(slowness[max(0, i - window + 1):i + window + 1])
            for i, wall in enumerate(walls)]


if __name__ == "__main__":
    _serve()

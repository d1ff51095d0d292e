"""A reference kernel that tracks the speed of the host's CPU during a run.

The benchmark runs on shared hosts whose CPU speed switches between levels
up to about 1.8x apart, for stretches of a few seconds to minutes. Wall time
then measures the host as much as the program. So the benchmark runs this
fixed kernel every SAMPLE_EVERY_S of process CPU time, from a SIGPROF
handler inside the process that runs the workload, and scales each stretch
of wall time between two samples by NOMINAL_KERNEL_S over the kernel's time
there. The result, a "reference second", is a second on a host where the
kernel takes NOMINAL_KERNEL_S. A change to the program moves the figures in
reference seconds as it moves wall time; a change in the host's speed moves
the kernel alike and drops out.

The kernel imports nothing from hsconvex, so no change to the program can
change it. It mixes what the program's requests do: float arithmetic
through `math` and objects, sorting, dicts, string formatting and JSON
(about a fifth of its time each on a fast stretch), and a small gate scan
of callable objects with a GK15 panel (the rest). The parts differ in how
much a slow stretch slows them: the arithmetic loop hardly at all, the scan
about 1.9x. The gate scan of `selftest` slowed about 1.5x, and this mix
follows it.
"""

from __future__ import annotations

import json
import math
import signal
import time

# about the kernel's time on the 2-CPU x86-64 host the benchmark was built
# on (1.8 ms on a fast stretch, 3 ms on a slow one); it only sets the
# scale, so that a reference second is near a wall second there
NOMINAL_KERNEL_S = 2.5e-3

# process CPU time between two samples; the kernel then costs about 2.5%
SAMPLE_EVERY_S = 0.1


# Gauss-Kronrod 15-point nodes and weights on [-1, 1], rounded
_NODES = ((0.991455, 0.022935), (0.949108, 0.063092), (0.864864, 0.104790),
          (0.741531, 0.140653), (0.586087, 0.169005), (0.405845, 0.190351),
          (0.207785, 0.204433))
_GK15 = tuple((-x, w) for x, w in _NODES) + ((0.0, 0.209482),) + _NODES


class _Power:
    """c * x**r for x > 0, like a registry function of the program."""

    def __init__(self, r: float, c: float = 1.0) -> None:
        self.r = r
        self.c = c

    def __call__(self, x: float) -> float:
        if x <= 0.0:
            raise ValueError("x must be positive")
        return self.c * x ** self.r


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def norm(self) -> float:
        return math.hypot(self.a, self.b)


def _arithmetic() -> float:
    total = 0.0
    for i in range(1, 2000):
        x = i * 1e-3
        total += math.sqrt(x) * x / (1.0 + x)
    return total


def _objects() -> float:
    points = [_Point(i * 0.1, 1.0 / (i + 1)) for i in range(150)]
    total = sum(p.norm() for p in points)
    points.sort(key=lambda p: p.b)
    named = {format(p.a, ".6g"): p for p in points}
    for name, p in named.items():
        try:
            total += math.log(p.a) + len(name)
        except ValueError:
            total -= 1.0
    doc = json.dumps({"v": [p.b for p in points[:50]], "s": "x" * 50})
    total += len(json.loads(doc)["v"])
    return total + sum(math.exp(-x * 0.01) for x in range(400))


def _scan() -> float:
    """A small gate scan: derivatives on a grid, then one GK15 panel."""
    total = 0.0
    for _ in range(9):
        for r in (0.5, 1.5, 2.5):
            f = _Power(r)
            a, b, h = 1.0, 3.0, 1e-5
            table = [abs((-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h)
                          + f(x - 2 * h)) / (12 * h)) ** 1.5
                     for x in (a + (b - a) * i / 24 for i in range(25))]
            holds = sum(table[i] <= 0.5 * (table[i - 1] + table[i + 1])
                        for i in range(1, 24))
            half, mid = (b - a) / 2, (a + b) / 2
            total += half * sum(w * f(mid + half * x) for x, w in _GK15)
            total += holds + sum(table)
    return total


def kernel() -> float:
    """Fixed work of about NOMINAL_KERNEL_S; returns a checksum."""
    return _arithmetic() + _objects() + _scan()


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class RefClock:
    """A clock in reference seconds, driven by kernel samples.

    `now()` is the reference time since `start()`. Between two samples the
    wall time is scaled by NOMINAL_KERNEL_S over the mean of the two kernel
    times; the kernel's own time is left out. Since the current stretch has
    no closing sample yet, `now()` scales it by the last kernel time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._base = 0.0
        self._since = 0.0
        self._last_k = NOMINAL_KERNEL_S
        self._running = False
        self._busy = False

    def start(self) -> None:
        self._last_k = time_kernel()
        self.samples.append(self._last_k)
        self._since = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._running = False

    def now(self) -> float:
        return self._base + ((time.perf_counter() - self._since)
                             * NOMINAL_KERNEL_S / self._last_k)

    def _on_sample(self, signum, frame) -> None:
        if not self._running or self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def _sample(self) -> None:
        stretch = time.perf_counter() - self._since
        k = time_kernel()
        self._base += stretch * NOMINAL_KERNEL_S * 2.0 / (self._last_k + k)
        self._last_k = k
        self.samples.append(k)
        self._since = time.perf_counter()

"""Host-speed probe for the ktwist benchmark's end-to-end timings.

On a shared host the same Python code runs at very different speeds from
one minute to the next: on a 2-CPU cloud VM the same pass over the
`decide` items took between 0.6 and 1.15 times its median within two
minutes, with no CPU steal (process time equalled wall time), so the
slowdown comes from other tenants sharing the core's caches and memory,
in spells of seconds to minutes.  No estimator inside one run removes a
spell that covers the whole run.  The rescaling below cancels the host's
speed as far as ktwist slows down with the kernel; there a kernel of
this kind cut the spread of pass times (quartile distance over median)
from 0.36 to 0.07.

The probe measures the host's speed while an item runs.  A fixed
pure-Python kernel (Fraction arithmetic, tuple hashing, dict updates and
method calls on small objects, as in ktwist's own inner loops) is timed
before the item, after it, and every `INTERVAL_S` while it runs, from a
SIGALRM handler in the main thread, so no thread or process is started.
Each probe runs the kernel once to warm the caches and times a second
run, so that ktwist's own working set does not slow the kernel.  The
item's time, less the time spent in the handler, is then rescaled to the
reference speed at which one kernel run takes `REF_KERNEL_S`:

    reference seconds = item seconds * REF_KERNEL_S / mean(kernel seconds)

The kernel is part of the definition of the unit: changing it, its size
or `REF_KERNEL_S` changes every reported time, so none of them may change
once the benchmark has a baseline.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_KERNEL_S = 0.001  # one kernel run on an unloaded 2-CPU Xeon VM is about this
_KERNEL_STEPS = 90


class _Step:
    __slots__ = ("word", "phase")

    def __init__(self, word, phase):
        self.word = word
        self.phase = phase

    def rotated(self):
        return self.word[1:] + self.word[:1]


def kernel() -> int:
    """The fixed reference work; returns a checksum so nothing is optimised out."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(_KERNEL_STEPS):
        step = _Step((i % 5, (i * 3) % 7, (i * 7) % 11), Fraction(i % 7 + 1, i % 11 + 2))
        word = step.rotated()
        table[word] = table.get(word, 0) + 1
        acc = (acc + step.phase - Fraction(1, 2)) % 1
        if tuple(sorted(word)) in table:
            acc += 1
    return acc.denominator + len(table)


def kernel_seconds(runs: int = 1) -> float:
    """Mean seconds of `runs` timed kernel runs after one warm-up run."""
    kernel()
    t0 = time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - t0) / runs


class SpeedProbe:
    """Times a call and the host's speed while it runs."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(kernel_seconds())
        self._spent += time.perf_counter() - t0

    def call(self, fn):
        """Run `fn()`; return (its result, its seconds, mean kernel seconds).

        The seconds exclude the probes that interrupted it.  An exception
        from `fn` propagates after the timer is stopped.
        """
        self._samples = [kernel_seconds()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(kernel_seconds())
        return result, elapsed - self._spent, statistics.fmean(self._samples)


def to_reference(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while one kernel run took `kernel_s`, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s

"""Machine-speed probe: turns phase times into times at a fixed speed.

On a shared host each vCPU changes speed for seconds to minutes at a
time (a fixed pure-Python loop takes from 1x to 2x its fastest time), and
two vCPUs are not in the same state at once. Ten runs of the same
learner then spread by 20-40 % in wall time, although the work is
identical. The probe measures that speed while the phases run, and each
phase's time is scaled back to a nominal speed.

One sampler thread per vCPU, each pinned to its vCPU, times a fixed
pure-Python kernel (``kernel``) every ``PERIOD_S``. For a time interval,
a vCPU's speed is ``NOMINAL_S`` times the mean of 1/(kernel time) over
the samples taken in it: the mean of the rate, since a phase's work is
rate integrated over time. The interval's speed is the mean of the vCPUs'
speeds, each weighted by that vCPU's share of the interval's busy CPU
time and discounted by its steal share, busy / (busy + steal), steal
being the time it wanted to run and the host ran something else (both
from ``/proc/stat``); a phase that runs in the driver alone is scaled by
the driver's vCPU, a Spark phase by the vCPUs that ran it. A scaled
time is the raw time times that speed: the seconds the phase would take
on a machine on which the kernel takes ``NOMINAL_S`` and no time is
stolen.

Each sample runs the kernel twice (the first pass, on caches a sleep
left cold, is not timed), about 0.5 ms holding the GIL; with the
samplers staggered that is 0.5 ms in every 12.5 ms, and a phase that
runs in the driver alone takes about 5-8 % longer than with no probe.
Slowdowns the kernel does not feel are not removed: contention from other
processes in the same guest, and memory-bandwidth contention that hurts
a large working set more than the kernel's small one.
"""
from __future__ import annotations

import bisect
import os
import threading
import time

PERIOD_S = 0.05
NOMINAL_S = 0.0002  # the kernel's time on a quiet 4-vCPU Xeon guest (fast state)
KERNEL_N = 700
MIN_SAMPLES = 5  # per vCPU and interval; shorter intervals borrow neighbours


def kernel() -> int:
    """Fixed interpreter work of the learner's kind: tuples, dicts, sets."""
    index: dict = {}
    seen = set()
    for i in range(KERNEL_N):
        key = (i & 31, i % 7)
        index[key] = index.get(key, 0) + 1
        seen.add((key, i & 3))
    return len(index) + len(seen)


def cpu_ticks() -> dict[int, tuple[int, int]]:
    """(busy, steal) ticks per vCPU; busy is user, nice, system, irq and
    softirq, steal the time the vCPU wanted to run and the host ran
    something else."""
    out: dict[int, tuple[int, int]] = {}
    with open("/proc/stat") as f:
        for line in f:
            if not line.startswith("cpu") or line.startswith("cpu "):
                continue
            name, *vals = line.split()
            v = [int(x) for x in vals]
            out[int(name[3:])] = (v[0] + v[1] + v[2] + v[5] + v[6], v[7])
    return out


class SpeedProbe:
    """Samplers on ``cpus``; ``mark()`` stamps interval boundaries."""

    def __init__(self, cpus: list[int]):
        self.cpus = sorted(cpus)
        self.times: dict[int, list[float]] = {c: [] for c in self.cpus}
        self.rates: dict[int, list[float]] = {c: [] for c in self.cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(c, i), daemon=True)
            for i, c in enumerate(self.cpus)
        ]

    def _sample(self, cpu: int, slot: int) -> None:
        os.sched_setaffinity(0, {cpu})
        # Staggered, so two samplers rarely want the GIL at once.
        if self._stop.wait(PERIOD_S * slot / len(self.cpus)):
            return
        clock = time.perf_counter
        times, rates = self.times[cpu], self.rates[cpu]
        while not self._stop.wait(PERIOD_S):
            kernel()  # untimed: the first pass after a sleep runs on cold caches
            t0 = clock()
            kernel()
            t1 = clock()
            times.append(t0)
            rates.append(1.0 / (t1 - t0))

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            if t.ident is not None:  # started
                t.join()

    @staticmethod
    def mark() -> tuple[float, dict[int, tuple[int, int]]]:
        return time.perf_counter(), cpu_ticks()

    def _cpu_speed(self, cpu: int, t0: float, t1: float) -> float:
        times, rates = self.times[cpu], self.rates[cpu]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        window = rates[lo:hi]
        if not window:
            return 1.0
        return NOMINAL_S * sum(window) / len(window)

    def speed(self, m0, m1) -> float:
        """Speed over the interval between two marks (1.0: nominal)."""
        (t0, c0), (t1, c1) = m0, m1
        busy, steal = {}, {}
        for c in self.cpus:
            (b0, s0), (b1, s1) = c0.get(c, (0, 0)), c1.get(c, (0, 0))
            busy[c], steal[c] = max(0, b1 - b0), max(0, s1 - s0)
        total = sum(busy.values())
        if not total:  # shorter than a tick: the vCPUs' plain mean
            return sum(self._cpu_speed(c, t0, t1) for c in self.cpus) / len(self.cpus)
        return sum(
            busy[c] / total * self._cpu_speed(c, t0, t1) * busy[c] / (busy[c] + steal[c])
            for c in self.cpus
            if busy[c]
        )

    def scaled(self, m0, m1) -> float:
        """The interval's seconds at nominal speed."""
        return (m1[0] - m0[0]) * self.speed(m0, m1)

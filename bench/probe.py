"""Host-speed probe: count the timings taken at the host's usual speed.

Virtual machines share their cores, caches and memory bandwidth with other
tenants.  On a 2-core x86-64 VM (Intel Xeon, 2.0 GHz) the same work ran up
to 1.7 times faster (the kernel below up to twice as fast) in spells of some
seconds, and the share of such spells changed from minute to minute, so
plain medians of one 30-second run moved by 15-30% from run to run.

A probe runs a small fixed kernel twice from a SIGALRM handler every 40 ms
while the workload runs and times the second, warm call, so every timed item
has speed samples taken during it (or, when it is shorter than the interval,
the three nearest).  The kernel is an interpreter loop with small numpy
calls; its data stay in cache, so it does not depend on what the workload
leaves there.

An item's time is its wall time less the probe's own time inside it, and
the probe decides which of an item's repeats count.  On that VM
the kernel times of a run fall in two groups: the usual speed, and spells in
which the kernel takes about half as long.  The usual kernel time is the
median of the samples above 0.8 times their 90th percentile, which stays in
the slow group unless spells cover nine tenths of the time.  The probe runs
during the rounds only (amid the memory-bound IMEX steps of `pde_dynamics`
the kernel takes about 20% longer than between them).

A sample is off speed outside `BAND` times the usual kernel time, and a
repeat counts when at most `OFF_SHARE` of the samples taken during it (for an
item with fewer than three, of the three nearest) are off speed: a repeat
taken in a fast or a slow spell is dropped, not rescaled.

Only an item with no repeat at the usual speed (all of them in spells; in a
spell-heavy hour this hit the 6-second continuation in half the runs) is
rescaled: the repeat with the fewest off-speed samples counts, multiplied by
(usual / mean kernel time during it) ** e.  The elasticity e is measured in
the same run, from the items that have repeats both at and off the usual
speed: it read 0.5-1.4 on `analysis`, 0.3-1.2 on `pde_dynamics` and 0.25-0.95
on `pde_branch`, and it follows the code, not a constant of the workload.
The kernel does not touch frontlab, so a change to frontlab moves the
reported times as it moves the work.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
#: a probe sample is off speed outside this range of (kernel time) / (usual
#: kernel time); fast spells sit near 0.5
BAND = (0.75, 1.5)
#: a repeat counts when at most this share of its samples is off speed
OFF_SHARE = 0.05
#: fewest (off-speed, usual-speed) repeat pairs that give a run's elasticity
MIN_PAIRS = 10
_X = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    acc = 0.0
    for k in range(80):
        acc += float(np.dot(_X, _X)) + math.sqrt(k + 1.0)
        acc += sum(v * 1e-3 for v in range(20))
    return acc


class SpeedProbe:
    """Collects (start, seconds) samples of one kernel while active."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.spent = []
        self._previous = None

    def _sample(self, _signum, _frame):
        # the first call brings the kernel's own data back into cache, so the
        # timed second call does not depend on what the workload evicted
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t1)
        self.spent.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def item(self, t0: float, t1: float) -> tuple:
        """(seconds of work in [t0, t1], kernel times sampled during it)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        work = (t1 - t0) - sum(self.spent[lo:hi])
        if len(inside) < 3:
            inside = self._nearest(0.5 * (t0 + t1), 3)
        return work, tuple(inside)

    def usual(self) -> float:
        """The kernel's time at the host's usual speed."""
        durations = self.durations
        if len(durations) < 10:
            return statistics.median(durations) if durations else math.nan
        top = statistics.quantiles(durations, n=10)[8]
        return statistics.median(d for d in durations if d >= 0.8 * top)

    def _nearest(self, t: float, k: int):
        i = bisect.bisect_left(self.starts, t)
        lo, hi = max(0, i - k), min(len(self.starts), i + k)
        window = sorted(range(lo, hi), key=lambda j: abs(self.starts[j] - t))[:k]
        return [self.durations[j] for j in window]


def off_share(samples, usual: float) -> float:
    """Share of the kernel times `samples` taken off the usual speed."""
    if not samples:
        return 1.0
    return sum(not BAND[0] <= d / usual <= BAND[1] for d in samples) / len(samples)


def at_usual(samples, usual: float) -> bool:
    """Whether a repeat with these kernel samples ran at the usual speed."""
    return off_share(samples, usual) <= OFF_SHARE


def elasticity(items, usual: float) -> tuple:
    """(e, pairs): how the work follows the kernel's speed in this run.

    `items` holds each item's (work, samples) repeats.  Every off-speed
    repeat of an item that also has repeats at the usual speed gives a pair
    (log kernel ratio, log work ratio); e is their least-squares slope
    through the origin, kept within [0, 1.5], and 0 with fewer than
    `MIN_PAIRS` pairs.
    """
    xs, ys = [], []
    for repeats in items:
        usual_work = [w for w, ds in repeats if at_usual(ds, usual)]
        if not usual_work:
            continue
        base = statistics.median(usual_work)
        for w, ds in repeats:
            if not at_usual(ds, usual) and ds and w > 0 and base > 0:
                xs.append(math.log(_trimmed_mean(ds) / usual))
                ys.append(math.log(w / base))
    if len(xs) < MIN_PAIRS:
        return 0.0, len(xs)
    e = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    return min(max(e, 0.0), 1.5), len(xs)


def steady_median(repeats, usual: float, e: float) -> float:
    """Median work of the (work, samples) repeats taken at the usual speed.

    With none of them, the repeat with the fewest off-speed samples counts,
    brought to the usual speed with the run's elasticity `e`.
    """
    kept = [w for w, ds in repeats if at_usual(ds, usual)]
    if kept:
        return statistics.median(kept)
    w, ds = min(repeats, key=lambda wd: off_share(wd[1], usual))
    return w * (usual / _trimmed_mean(ds)) ** e if ds else w


def _trimmed_mean(values) -> float:
    """Mean of the middle 80%."""
    values = sorted(values)
    k = len(values) // 10
    kept = values[k:len(values) - k] if len(values) > 2 * k else values
    return sum(kept) / len(kept)

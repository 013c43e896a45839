"""Summary statistics and host-health readings for the benchmark.

Nothing here imports the program under test: these helpers only turn
lists of timings into the numbers the benchmark reports.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one that still has at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it."""
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= TAIL_BEYOND:
            return pct
    return None


def latency_summary(seconds: list[float]) -> dict:
    """Median and supported tail of one kind of operation, in ms."""
    pct = tail_percentile(len(seconds))
    return {
        "count": len(seconds),
        "p50_ms": 1000.0 * statistics.median(seconds),
        "tail_pct": pct,
        "tail_ms": None if pct is None else 1000.0 * percentile(seconds, pct),
    }


#: Share of an op kind's repeats that make up its reported time.
FAST_SHARE = 0.10


def fast_mean(seconds) -> float:
    """Mean of the ``ceil(FAST_SHARE * n)`` fastest of ``n`` samples.

    The host this benchmark runs on is shared: identical work runs up
    to 1.5-2x slower while a neighbour is busy, in phases of a few
    seconds.  The fastest repeats are the undisturbed ones, and their
    mean moves far less from run to run than the median or the mean.
    """
    ordered = sorted(seconds)
    keep = max(1, math.ceil(FAST_SHARE * len(ordered)))
    return sum(ordered[:keep]) / keep


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _steal_ticks() -> int:
    """Cumulative steal time of the whole host, in clock ticks."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 else 0


class HostHealth:
    """CPU time, involuntary switches, steal and GC over one interval.

    These show whether a run was slowed by its host.  They are reported
    on every run and never gate one.
    """

    def __init__(self) -> None:
        self._gc_started = 0.0
        self.gc_collections = 0
        self.gc_seconds = 0.0

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += time.perf_counter() - self._gc_started

    def __enter__(self) -> "HostHealth":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self._cpu = usage.ru_utime + usage.ru_stime
        self._nivcsw = usage.ru_nivcsw
        self._steal = _steal_ticks()
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu_s = usage.ru_utime + usage.ru_stime - self._cpu
        self.nivcsw = usage.ru_nivcsw - self._nivcsw
        self.steal_s = (_steal_ticks() - self._steal) / os.sysconf("SC_CLK_TCK")

    def metrics(self) -> dict:
        return {
            "host.cpu_s": (self.cpu_s, "s"),
            "host.nivcsw": (self.nivcsw, "count"),
            "host.steal_s": (self.steal_s, "s"),
            "host.gc_collections": (self.gc_collections, "count"),
            "host.gc_s": (self.gc_seconds, "s"),
        }


#: Best-of-3 probe time on the reference box (2 vCPU, CPython 3.11,
#: numpy 2.4).  Timings are divided by ``probe / PROBE_REFERENCE_S``
#: measured in the same run, which takes out whole-host drift.
PROBE_REFERENCE_S = 0.0070


def _probe_work() -> int:
    """A fixed mix of interpreter work and small numpy calls, like the
    program's own profile; it never touches the program."""
    import numpy as np

    values = np.arange(4096, dtype=np.int64)
    acc = 0
    for i in range(600):
        picked = values[(values & 7) == (i & 7)]
        acc += int(picked.sum()) + len({"k": i, "v": str(i)})
    return acc


def probe_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` time of the fixed probe: the host's speed now.

    The collector is paused so that the program's heap, which the probe
    did not build, cannot charge a collection to it.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best

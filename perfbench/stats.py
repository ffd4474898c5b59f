"""Pure reductions shared by every workload: percentiles, span self time,
open-loop lateness and the machine counters that mark a drifting run.

Nothing here imports the program under test, so the self-tests of these
helpers run without it.
"""

from __future__ import annotations

import os
import resource
import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than ten samples lie
    beyond it (a p90 needs at least 100 samples)."""
    if len(samples) * (100.0 - q) / 100.0 < MIN_SAMPLES_BEYOND:
        return None
    return percentile(samples, q)


def median(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def mean(samples) -> float:
    return float(statistics.fmean(samples)) if samples else 0.0


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in child_intervals
        if child_end > start and child_start < end
    ]
    return (end - start) - covered_length(clipped)


def lateness(due_times, send_times) -> list[float]:
    """Open-loop generator lateness: how long after its due time each event
    was actually sent (never negative; an early wake-up counts as on time)."""
    if len(due_times) != len(send_times):
        raise ValueError("one send time per due time")
    return [max(0.0, sent - due) for due, sent in zip(due_times, send_times)]


def latencies_from_due(due_times, done_times) -> list[float]:
    """Per-request latency measured from when the request was due, so a
    generator stall is charged to every request it delayed."""
    if len(due_times) != len(done_times):
        raise ValueError("one completion time per due time")
    return [done - due for due, done in zip(due_times, done_times)]


def lateness_growth(late_s, parts: int = 3) -> float:
    """Median lateness of the last ``1/parts`` of events minus that of the
    first; a growing backlog shows as a positive value."""
    if len(late_s) < 2 * parts:
        return 0.0
    size = len(late_s) // parts
    return median(late_s[-size:]) - median(late_s[:size])


# ---------------------------------------------------------------------------
# Machine counters
# ---------------------------------------------------------------------------


def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the machine from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted inside user/nice
    return steal, sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_status(pid: int) -> dict:
    """Peak RSS (MB) and CPU seconds of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        status = dict(line.split(":", 1) for line in handle if ":" in line)
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # fields after the parenthesised command name; utime/stime are 14/15
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return {
        "peak_rss_mb": int(status["VmHWM"].split()[0]) / 1024.0,
        "cpu_s": (int(fields[11]) + int(fields[12])) / ticks,
    }

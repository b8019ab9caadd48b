"""Sample statistics and telemetry deltas used by the benchmark.

Percentiles follow one rule everywhere: a timing is reported as its median
plus the highest percentile of :data:`LADDER` that has at least
:data:`MIN_TAIL` samples beyond it, together with the sample count.
"""

from __future__ import annotations

import math

from repro.service.observability.metrics import histogram_quantile

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of percentile *pct* among *count* samples."""
    # Rounded first so that e.g. 99.9% of 10,000 is rank 9,990, not 9,991.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with *pct*% of samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def supported_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least :data:`MIN_TAIL` of *count* samples beyond it."""
    best = None
    for pct in LADDER:
        if count - _rank(pct, count) >= MIN_TAIL:
            best = pct
    return best


def tail(samples) -> dict:
    """``{"n", "p50", "tail_pct", "tail"}`` of *samples* under the tail rule."""
    pct = supported_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0) if samples else None,
        "tail_pct": pct,
        "tail": percentile(samples, pct) if pct is not None else None,
    }


def slices(reads, writes, started: float, per_slice: int) -> list[dict]:
    """Cut a closed-loop window into consecutive slices of *per_slice* completed reads.

    *reads* are ``(finished_at, latency_ms)`` pairs and *writes* the
    finish times of completed writes.  Each slice reports the completions
    per second inside it (reads and writes) and the p50 and p99 of its
    read latencies.  A trailing partial slice is dropped.
    """
    reads = sorted(reads)
    writes = sorted(writes)
    cuts = []
    begin = started
    written = 0
    for stop in range(per_slice, len(reads) + 1, per_slice):
        chunk = reads[stop - per_slice : stop]
        end = chunk[-1][0]
        first_write = written
        while written < len(writes) and writes[written] <= end:
            written += 1
        latencies = [latency for _, latency in chunk]
        cuts.append(
            {
                "begin": begin,
                "end": end,
                "rps": (per_slice + written - first_write) / (end - begin),
                "p50": percentile(latencies, 50.0),
                "p99": percentile(latencies, 99.0),
            }
        )
        begin = end
    return cuts


def cumulative_at(samples, at: float) -> float:
    """A cumulative counter's value at time *at*, interpolated between ``(time, value)`` *samples*."""
    if at <= samples[0][0]:
        return samples[0][1]
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if at <= t1:
            return v0 + (v1 - v0) * (at - t0) / (t1 - t0) if t1 > t0 else v1
    return samples[-1][1]


def mark_steal(cuts: list[dict], steal) -> None:
    """Add to each cut the CPU time the host took back during it, and the rate net of it.

    *steal* holds ``(time, stolen seconds so far)`` samples of the one CPU
    the window ran on.  Each cut gets ``steal`` (stolen seconds per second
    of the slice) and ``unstolen_rps``: its completions per second that the
    host left the CPU to the program.
    """
    for cut in cuts:
        length = cut["end"] - cut["begin"]
        stolen = cumulative_at(steal, cut["end"]) - cumulative_at(steal, cut["begin"])
        cut["steal"] = stolen / length
        cut["unstolen_rps"] = cut["rps"] * length / max(length - stolen, 1e-9)


def quiet_slices(cuts: list[dict], keep: float = 0.5) -> list[dict]:
    """The share *keep* of *cuts* (marked by :func:`mark_steal`) with the least steal, in time order.

    Ties go to the earlier cut.
    """
    count = max(1, math.ceil(len(cuts) * keep))
    chosen = sorted(range(len(cuts)), key=lambda index: (cuts[index]["steal"], index))[:count]
    return [cuts[index] for index in sorted(chosen)]


def histogram_delta(after: dict, before: dict | None) -> dict:
    """Raw fixed-ladder histogram *after* minus *before* (the timed window's samples)."""
    before = before or {}
    old = before.get("counts", [])
    counts = [value - (old[index] if index < len(old) else 0) for index, value in enumerate(after.get("counts", []))]
    return {
        "counts": counts,
        "sum": after.get("sum", 0.0) - before.get("sum", 0.0),
        "count": after.get("count", 0) - before.get("count", 0),
    }


def stage_ms(after: dict, before: dict, stage: str, quantile: float) -> float:
    """Quantile in ms of server stage *stage* over the window between two snapshots."""
    stages_after = after.get("stages", {})
    if stage not in stages_after:
        return 0.0
    delta = histogram_delta(stages_after[stage], before.get("stages", {}).get(stage))
    return histogram_quantile(delta, quantile) * 1000.0 if delta["count"] else 0.0


def counter_delta(after: dict, before: dict, *path: str) -> float:
    """Difference of one (possibly nested) counter between two snapshots."""
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)

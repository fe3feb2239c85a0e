"""Turns the harness's raw samples into the benchmark's metrics.

Kept apart from run.py so the percentile rule, the failure accounting
and the open-loop timing can be tested without building anything.
"""

import math
import statistics
import sys

# When more than 1% of the queries are sent later than this after their
# due time, the open-loop run is invalid: the schedule was not kept.
MAX_GEN_LAG_MS = 25.0


class InvalidRun(Exception):
    """The run cannot be reported (for example, the load generator fell
    behind its schedule)."""


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, beyond=10):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, sample_count). With nearest-rank
    percentiles the k-th smallest of n samples has n - k samples beyond
    it, so the answer is rank n - beyond. When that rank falls at or
    below the median (fewer than 2 * beyond samples) the median stands in.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    rank = n - beyond
    if rank <= n / 2:
        return median(ordered), 50.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def query_latencies(records):
    """Open-loop query records -> (short, heavy, lag, failed) lists.

    A record is [due_ms, sent_ms, done_ms, heavy, ok, rejected, tasks,
    plan_hit]. Latency runs from the due time, so a stall in the
    generator or the service counts against every query it delays. A
    failed, refused or wrong query counts as missing any latency limit:
    its latency is infinite.
    """
    short, heavy, lag = [], [], []
    failed = 0
    for due, sent, done, is_heavy, ok, *_ in records:
        latency = done - due if ok else math.inf
        if not ok:
            failed += 1
        (heavy if is_heavy else short).append(latency)
        lag.append(sent - due)
    return short, heavy, lag, failed


def check_schedule(lag_ms):
    """Raises InvalidRun when the generator fell behind its schedule: more
    than 1% of the queries went out over MAX_GEN_LAG_MS late."""
    late = percentile(lag_ms, 99)
    if late > MAX_GEN_LAG_MS:
        raise InvalidRun(
            "load generator ran %.1f ms behind schedule at p99 (limit %.0f ms)"
            % (late, MAX_GEN_LAG_MS))


def served_qps(records):
    ok = [r for r in records if r[4]]
    if not ok:
        return 0.0
    span_ms = max(r[2] for r in ok) - min(r[0] for r in records)
    return len(ok) / (span_ms / 1e3) if span_ms > 0 else 0.0


def end_to_end(workload, raw):
    """Untraced raw samples -> {metric: value} plus (attempted, failed)."""
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    m = {"setup_s": median(raw["setup_s"]), "peak_rss_mb": raw["peak_rss_mb"]}
    if workload == "service-mix":
        records = raw["queries"]
        short, _, lag, bad = query_latencies(records)
        check_schedule(lag)
        attempted += len(records)
        failed += bad
        samples = short
        m["p50_ms"] = median(short)
        m["tail_ms"] = tail(short)[0]
        m["throughput_per_s"] = served_qps(records)
    else:
        ops = samples = raw["op_s"]
        m["p50_ms"] = median(ops) * 1e3
        m["tail_ms"] = tail(ops)[0] * 1e3
        # Matches enumerated per second of RunBenu time (batch), or
        # matches added plus retracted per second of ApplyBatch time.
        m["throughput_per_s"] = raw["work"] / raw["work_s"]
    m["success_ratio"] = 1.0 - failed / attempted if attempted else 0.0
    _, pct, n = tail(samples)
    m["tail_note"] = "tail_ms is p%.1f of %d samples" % (pct, n)
    return m, attempted, failed


def per_layer(workload, raw):
    """Traced raw samples -> {metric: value} plus (attempted, failed)."""
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    m = dict(raw.get("layers", {}))
    if workload == "service-mix":
        untraced = raw["queries_untraced"]
        records = raw["queries"]
        for rs in (untraced, records):
            short, _, lag, bad = query_latencies(rs)
            check_schedule(lag)
            attempted += len(rs)
            failed += bad
        short_u = query_latencies(untraced)[0]
        short_t, heavy_t, lag_t, _ = query_latencies(records)
        m["trace.overhead_share"] = (median(short_t) - median(short_u)) / median(short_u)
        m["service.heavy_p50_ms"] = median(heavy_t)
        m["service.gen_lag_ms"] = percentile(lag_t, 99)
        m["service.rejected"] = float(sum(1 for r in records if r[5]))
        done = [r for r in records if r[4]]
        m["service.tasks_executed"] = (
            sum(r[6] for r in done) / len(done) if done else 0.0)
        m["plan.cache_hit_ratio"] = (
            sum(1 for r in done if r[7]) / len(done) if done else 0.0)
    return m, attempted, failed


def result(workload, raw, trace, spec):
    """The benchmark's output object for one run (the last stdout line)."""
    if trace:
        values, attempted, failed = per_layer(workload, raw)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = end_to_end(workload, raw)
        wanted = spec["end_to_end"]
    if "tail_note" in values:
        sys.stderr.write(values["tail_note"] + "\n")
    metrics = {}
    for metric in wanted:
        # Per-layer metrics a workload does not exercise read 0
        # (README.md lists where each one is defined).
        value = float(values.get(metric["name"], 0.0))
        if math.isinf(value) or math.isnan(value):
            value = 1e9
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else math.inf


def verdict(parent, child, better, bound):
    """Compares two sets of runs of one (metric, workload) pair.

    Returns "better", "worse", "unchanged" or "unresolved". Worse means
    the child's median lost more than `bound` of the parent's median;
    better means the child won at least nine tenths of all pairs and the
    medians differ by more than the parent's own spread. Where either
    side's spread is wider than the bound, a change that is not
    separated run by run is unresolved.
    """
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = median(parent), median(child)
    if mp == 0:
        return "unresolved"
    loss = sign * (mc - mp) / abs(mp)
    wins = sum(1 for p in parent for c in child if sign * (c - p) < 0)
    losses = sum(1 for p in parent for c in child if sign * (c - p) > 0)
    pairs = len(parent) * len(child)
    noisy = max(spread(parent), spread(child)) > bound
    if wins >= 0.9 * pairs and -loss > spread(parent):
        return "better"
    if loss > bound:
        if noisy and losses < pairs:
            return "unresolved"
        return "worse"
    return "unresolved" if noisy else "unchanged"

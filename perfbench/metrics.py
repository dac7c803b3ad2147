"""perfbench metric arithmetic, kept free of I/O so the tests can drive it.

Every latency metric is taken over *charged* latencies: a query that
failed (timeout, Unknown, or wrong verdict) is charged 2*T, the PAR-2
penalty, where T is the per-query wall cap. Failing fast therefore never
reads as fast, and newly deciding a query can only improve a figure.
"""

import math
import statistics

# Per-query record layout emitted by postr_perf (see src/Main.cpp).
WALL, CPU, VERDICT, OK, WRONG, STOP, CACHE = range(7)

END_TO_END = [
    # name, unit, how it is read
    ("solved", "count", "queries whose verdict equals the expected one"),
    ("par2_s", "s", "sum of charged latencies (PAR-2)"),
    ("geomean_ms", "ms", "geometric mean of charged latency"),
    ("p50_ms", "ms", "median charged latency (five-rank mean)"),
    ("p90_ms", "ms", "90th-percentile charged latency (five-rank mean)"),
    ("qps", "1/s", "queries answered per second (serve-replay; n / par2_s "
     "on the one-shot workloads)"),
    ("peak_rss_mb", "MB", "peak resident memory of the workload process"),
    ("setup_s", "s", "median set-up time before the first timed query"),
]


def charged(latencies_ms, oks, cap_ms):
    """Latency of each query, with failures charged twice the cap."""
    return [lat if ok else 2.0 * cap_ms for lat, ok in zip(latencies_ms, oks)]


def percentile(values, p):
    """Nearest-rank percentile, smoothed: the mean of the five values
    ranked nearest to rank ceil(p*n). Between cost clusters a single order
    statistic jumps with per-query noise; five neighbours do not. Each
    value still moves the estimate only in its own direction, and with
    more than (1-p)*n + 2 failures p90 reads 2T."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    lo = max(0, min(rank - 3, len(ordered) - 5))
    window = ordered[lo:lo + 5]
    return sum(window) / len(window)


def geomean(values, floor=1e-3):
    """Geometric mean; values are floored at 1 us so a 0.0 reading
    cannot collapse it."""
    return math.exp(sum(math.log(max(v, floor)) for v in values) / len(values))


def latency_metrics(latencies_ms, oks, cap_ms, clients=1):
    """solved / par2_s / geomean_ms / p50_ms / p90_ms / qps for one draw.

    qps is the closed-loop throughput by Little's law: with `clients`
    callers that each send the next query as soon as the last one is
    answered, throughput is clients over the mean charged latency (one
    client for a one-shot stream answered back to back, two for the serve
    replay). With one client this is n / par2_s, the same figure as
    par2_s: the one-shot workloads print qps only because every workload
    prints every end-to-end metric. It is a measurement of its own on
    serve-replay alone."""
    ch = charged(latencies_ms, oks, cap_ms)
    par2_s = sum(ch) / 1000.0
    return {
        "solved": float(sum(1 for ok in oks if ok)),
        "par2_s": par2_s,
        "geomean_ms": geomean(ch),
        "p50_ms": percentile(ch, 0.50),
        "p90_ms": percentile(ch, 0.90),
        "qps": clients * len(ch) / par2_s,
    }


def best_of(latencies_per_pass, oks_per_pass):
    """Per-query figures over repeated passes of one draw: the fastest
    reading of each query (host contention only ever adds time), and a
    query counts as answered only if every pass that ran it answered it.
    A negative reading marks a query the pass left out; every query must
    have run in at least one pass."""
    lat, oks = [], []
    for ls, os_ in zip(zip(*latencies_per_pass), zip(*oks_per_pass)):
        ran = [(l, ok) for l, ok in zip(ls, os_) if l >= 0]
        if not ran:
            raise ValueError("a query ran in no pass")
        lat.append(min(l for l, _ in ran))
        oks.append(all(ok for _, ok in ran))
    return lat, oks


def median(values):
    return statistics.median(values)

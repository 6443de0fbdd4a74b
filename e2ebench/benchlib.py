"""Shared pieces of the end-to-end benchmark: host reference, statistics,
output digests, the closed-loop driver and the metric table.

Every end-to-end timing is *host-normalised*: each operation's time is
scaled by ``REF_NOMINAL_MS / ref``, where ``ref`` is the median of a fixed
pure-Python + numpy loop timed just before and just after the operation
(closed loops) or around its due time while the service idles (the open
loop).  The shared VM this was
built on drifts by up to 50% within seconds; the program and the
reference loop slow down together, so the ratio is what stays comparable
between runs.  The raw figures and ``host.ref_ms`` are printed on the line
before the result, so a set of runs made on a slow host stays visible.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: The four representative compositing methods and their metric suffixes.
METHODS = ("bsbrc", "binary-swap:raw", "radix-k:rect-rle", "tile-routed:rle")
METHOD_TAG = {m: m.replace(":", "-") for m in METHODS}

#: Host reference time that normalised timings are expressed against.
REF_NOMINAL_MS = 2.0
#: Reference-loop samples taken before every closed-loop operation.
REF_PER_OP = 3

_REF_DATA = np.random.default_rng(12345).random((2, 192, 192))


def host_ref_once() -> float:
    """One pass of the fixed reference loop; returns its wall time in ms."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += i * 3 % 7
    a, b = _REF_DATA
    for _ in range(8):
        c = a + b * (1.0 - a)
        c = np.sort(c, axis=1)
        acc += int(c[0, 0] > 2.0)
    return (time.perf_counter() - t0) * 1e3


class HostRef:
    """Reference-loop samples, each stamped with when it was taken."""

    def __init__(self) -> None:
        #: ``(time, ms)`` in the order taken (so sorted by time).
        self.samples: list[tuple[float, float]] = []

    def sample(self, n: int = 5) -> float:
        """Take ``n`` samples now; returns their median in ms."""
        batch = [host_ref_once() for _ in range(n)]
        now = time.perf_counter()
        self.samples.extend((now, ms) for ms in batch)
        return statistics.median(batch)

    def scale_at(self, t: float, k: int) -> float:
        """Normalising factor from the ``k`` samples nearest to time ``t``."""
        i = bisect.bisect_left(self.samples, (t,))
        window = self.samples[max(0, i - k): i + k]
        nearest = sorted(window, key=lambda s: abs(s[0] - t))[:k]
        return REF_NOMINAL_MS / statistics.median(ms for _, ms in nearest)

    @property
    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)

    def summary(self) -> dict:
        values = [ms for _, ms in self.samples]
        return {
            "median_ms": self.median_ms,
            "min_ms": min(values),
            "max_ms": max(values),
            "samples": len(values),
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return float(ordered[index])


def image_digest(image) -> str:
    """Digest of both planes of a rendered image, bit for bit."""
    h = hashlib.blake2b(digest_size=16)
    for plane in (image.intensity, image.opacity):
        arr = np.ascontiguousarray(plane)
        h.update(repr((arr.shape, arr.dtype.str)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def transport_counts(rank_stats) -> tuple[int, int]:
    """Total bytes and messages sent over all ranks."""
    return (
        sum(rs.bytes_sent for rs in rank_stats),
        sum(rs.msgs_sent for rs in rank_stats),
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class Reference:
    """Expected output of one operation, computed during set-up."""

    digest: str
    bytes_sent: int
    msgs_sent: int
    #: Modelled SP2 critical-rank T_comp + T_comm, in ms.
    model_ms: float


@dataclass
class OpRecord:
    """One measured operation (or one served job)."""

    method: str
    #: Raw wall time of the operation itself, in seconds.
    dur: float
    ok: bool
    model_ms: float = 0.0
    #: Time the caller waited for the final output (seconds); closed
    #: loops wait exactly ``dur``.
    latency: Optional[float] = None
    #: Time to the first displayable frame (seconds).
    ttff: Optional[float] = None
    extra: dict = field(default_factory=dict)
    #: When the operation ran (``time.perf_counter``), and the
    #: host-normalising factor for its times.
    at: float = 0.0
    scale: float = 1.0
    #: Share of the operation's wall time spent computing; the rest is
    #: spent blocked (fork, pipes, waits) and is not normalised.
    cpu_share: float = 1.0

    def __post_init__(self) -> None:
        if self.latency is None:
            self.latency = self.dur
        if self.ttff is None:
            self.ttff = self.latency


def check_output(ref: Reference, image, rank_stats) -> bool:
    """True when an operation's image and transport counters match ``ref``."""
    return (
        image_digest(image) == ref.digest
        and transport_counts(rank_stats) == (ref.bytes_sent, ref.msgs_sent)
    )


def closed_loop(
    round_keys: Callable[[int], list],
    do_op: Callable[[object], OpRecord],
    seconds: float,
    host: HostRef,
) -> list[OpRecord]:
    """Run whole rounds until the next one would overrun ``seconds``.

    ``round_keys(r)`` gives round ``r``'s operations in their (seeded)
    order, so host drift hits every method equally and every run measures
    the same mix.  The host reference loop runs right before every
    operation; each operation is normalised by the samples nearest to it
    in time (the ones just before and just after it).
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for key in round_keys(rounds):
            host.sample(REF_PER_OP)
            t0 = time.perf_counter()
            record = do_op(key)
            record.at = t0 + record.dur / 2
            records.append(record)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    host.sample(REF_PER_OP)
    for record in records:
        share = record.cpu_share
        record.scale = 1.0 - share + share * host.scale_at(record.at, 2 * REF_PER_OP)
    return records


def end_to_end_metrics(
    records: list[OpRecord],
    host: HostRef,
    *,
    setup_s: float,
    slo_s: float,
    busy_s: Optional[float] = None,
) -> dict[str, float]:
    """The end-to-end metric values of one run (timings host-normalised;
    ``setup_s`` arrives normalised).

    Closed loops (one caller) count throughput over the summed operation
    times.  An open loop passes ``busy_s``, the wall span from the first
    due time to the last completion; its throughput follows the arrival
    schedule, so it is not host-normalised.
    """
    done = [r for r in records if r.dur > 0]
    if busy_s is None:
        throughput = len(done) / sum(r.dur * r.scale for r in done)
    else:
        throughput = len(done) / busy_s
    out: dict[str, float] = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
    }
    for method in METHODS:
        durs = [r.dur * r.scale for r in done if r.method == method]
        out[f"op_ms.{METHOD_TAG[method]}"] = statistics.median(durs) * 1e3
    latencies = [r.latency * 1e3 * r.scale for r in done]
    ttffs = [r.ttff * 1e3 * r.scale for r in done]
    out["latency_p50_ms"] = percentile(latencies, 0.50)
    out["latency_p90_ms"] = percentile(latencies, 0.90)
    out["ttff_p50_ms"] = percentile(ttffs, 0.50)
    out["ttff_p90_ms"] = percentile(ttffs, 0.90)
    out["slo_ok_ratio"] = sum(
        1 for r in records if r.ok and r.latency <= slo_s
    ) / len(records)
    out["ok_ratio"] = sum(1 for r in records if r.ok) / len(records)
    out["model_makespan_ms"] = statistics.fmean(r.model_ms for r in done)
    return out

"""serve-orbit: open-loop arrivals into one RenderService.

One pool worker serves three QoS sessions (``degrade``, ``strict``,
``lossless``) behind a bounded queue under ``shed-lowest-qos``, with a
per-job deadline.  Each job renders a full simulated frame of
``engine_high`` at P=8 and 128 px (ray step 2) from the next angle of an
orbit, with the four representative methods taking turns
(``tile-routed:rle`` takes the fused render+composite path).  Arrivals
follow a fixed rate; the inter-arrival gaps are stratified exponential
quantiles in a seeded order, so every seed offers the same set of gaps.
Latency is timed from each job's due time.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
from concurrent import futures

import numpy as np
from repro import ProgressFeed, RenderJob, RunConfig, SortLastSystem
from repro.errors import JobRejectedError
from repro.serving import RenderService

from benchlib import (
    METHODS,
    OpRecord,
    Reference,
    check_output,
    image_digest,
    percentile,
    transport_counts,
)
from spans import TRACER

DATASET = "engine_high"
NUM_RANKS = 8
IMAGE = 128
#: Ray sampling distance.  Twice the default halves the ray-marching work,
#: so 100 arrivals fit in a 30 s window at a low share of the worker's
#: capacity even on a host running at half speed (queueing stays small).
STEP = 2.0
#: Offered load: arrivals per second (a low share of one worker's capacity).
RATE_PER_S = 3.4
ORBIT = 12
QOS = ("degrade", "strict", "lossless")
QUEUE_LIMIT = 8
DEADLINE_S = 5.0
#: Arrivals per block of the stratified gap order (see ``_gaps``).
GAP_BLOCK = 4
#: The host reference loop is sampled while the service idles, at most
#: every ``SAMPLE_EVERY_S`` and never within ``IDLE_SAMPLE_S`` of an arrival.
IDLE_SAMPLE_S = 0.012
SAMPLE_EVERY_S = 0.04
#: Latency limit behind ``slo_ok_ratio``.
SLO_S = 1.0


class State:
    pass


def _job_spec(index: int):
    """Job ``index``: orbit angle, method and session.  The method shifts by
    one every lap, so over four laps every method renders every angle."""
    angle = index % ORBIT
    method = METHODS[(angle + index // ORBIT) % len(METHODS)]
    return angle, method, QOS[index % len(QOS)]


def setup(seed: int) -> State:
    """Start the service, open the sessions and serve one job per method."""
    rng = np.random.default_rng([seed, 0])
    state = State()
    state.seed = seed
    state.passes = 0
    state.next_job = 0
    offset = float(rng.uniform(0.0, 5.0))
    state.angles = [offset + 360.0 / ORBIT * j for j in range(ORBIT)]
    state.config = RunConfig(
        dataset=DATASET, num_ranks=NUM_RANKS, image_size=IMAGE, rot_x=20.0, step=STEP
    )
    service = RenderService(
        state.config, max_workers=1, queue_limit=QUEUE_LIMIT,
        shed_policy="shed-lowest-qos",
    )
    state.service = service
    for qos in QOS:
        service.open_session(qos, qos=qos)
    for method in METHODS:
        service.submit(
            QOS[0], RenderJob(deltas={"method": method, "rot_y": state.angles[0]})
        ).result()
    return state


def references(state: State) -> None:
    """One-shot sim run of every (orbit angle, method) job config."""
    state.refs = {}
    with tempfile.TemporaryDirectory(prefix="refcache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir  # one render per angle
        try:
            for angle in range(ORBIT):
                for method in METHODS:
                    one = SortLastSystem(
                        state.config.with_(rot_y=state.angles[angle], method=method)
                    ).run()
                    if one.final_image.max_abs_diff(one.reference_image()) > 1e-12:
                        raise AssertionError(
                            f"angle {angle}/{method}: one-shot differs from the "
                            "sequential composite"
                        )
                    stats = one.compositing.stats
                    state.refs[(angle, method)] = Reference(
                        image_digest(one.final_image),
                        *transport_counts(stats.rank_stats),
                        stats.t_total * 1e3,
                    )
        finally:
            del os.environ["REPRO_CACHE_DIR"]


class TimedFeed(ProgressFeed):
    """A client's feed that notes when the first frame appeared."""

    first_at = None

    def _stamp(self, event):
        if self.first_at is None:
            self.first_at = time.perf_counter()
        return event

    def emit_stage(self, **kwargs):
        return self._stamp(super().emit_stage(**kwargs))

    def emit_tile(self, **kwargs):
        return self._stamp(super().emit_tile(**kwargs))

    def emit_final(self, **kwargs):
        return self._stamp(super().emit_final(**kwargs))


def _gaps(seed: int, pass_index: int, count: int) -> np.ndarray:
    """Stratified exponential inter-arrival gaps in a seeded order.

    The gaps are the quantiles ``(k + 0.5) / count`` of the exponential.
    They are dealt round-robin into blocks of ``GAP_BLOCK`` consecutive
    arrivals, and each block is shuffled on its own.  Every seed then
    offers the same gaps, and every block of arrivals offers about the
    same load, so queueing does not depend on where a seed puts its
    bursts.
    """
    quantiles = (np.arange(count) + 0.5) / count
    gaps = -np.log1p(-quantiles) / RATE_PER_S
    blocks = max(1, count // GAP_BLOCK)
    rng = np.random.default_rng([seed, 2, pass_index])
    dealt = [gaps[b::blocks] for b in range(blocks)]
    return np.concatenate([rng.permutation(block) for block in dealt])


def _settle(state: State, entry: dict) -> OpRecord:
    """Check a finished job and keep only what the metrics need (the
    result and its streamed frames are dropped here, so memory stays flat)."""
    ticket = entry.pop("ticket")
    feed = entry.pop("feed")
    result = None
    if ticket is not None:
        try:
            result = ticket.result(timeout=120)
        except Exception:  # shed, deadline or failure: a miss
            pass
    if result is None:
        return OpRecord(entry["method"], 0.0, False, latency=math.inf, extra=entry)
    while entry["done"] is None:  # the future runs its callbacks after waking us
        time.sleep(0.0002)
    stats = result.compositing.stats
    ok = check_output(
        state.refs[(entry["angle"], entry["method"])], result.final_image, stats.rank_stats
    )
    first = feed.first_at or entry["done"]
    entry.update(
        bytes=sum(rs.bytes_sent for rs in stats.rank_stats),
        msgs=sum(rs.msgs_sent for rs in stats.rank_stats),
        over_px=stats.counter_total("over"),
        encode_px=stats.counter_total("encode"),
        lateness=entry["submit"] - entry["due"],
    )
    return OpRecord(
        entry["method"], 0.0, ok,
        model_ms=stats.t_total * 1e3,
        latency=entry["done"] - entry["due"],
        ttff=first - entry["due"],
        extra=entry,
    )


def measure(state: State, seconds: float, host) -> tuple[list[OpRecord], float]:
    service = state.service
    count = max(1, int(RATE_PER_S * seconds))
    gaps = _gaps(state.seed, state.passes, count)
    state.passes += 1
    before = (service.shed_jobs, service.rejected_jobs, service.deadline_jobs,
              len(service.events))
    records: dict[int, OpRecord] = {}
    pending: dict[int, dict] = {}

    def harvest(block: bool) -> None:
        for index, entry in list(pending.items()):
            if block or entry["ticket"] is None or entry["ticket"].done():
                records[index] = _settle(state, pending.pop(index))

    def wait_until(due: float, busy) -> None:
        """Sleep until ``due``; while the worker idles, sample the host
        reference loop (it never runs beside a job)."""
        while True:
            left = due - time.perf_counter()
            if left <= 0:
                return
            if busy is not None and not busy.done():
                futures.wait([busy], timeout=left)
            elif left > IDLE_SAMPLE_S:
                host.sample(1)
                time.sleep(max(0.0, min(
                    SAMPLE_EVERY_S, due - time.perf_counter() - IDLE_SAMPLE_S
                )))
            else:
                time.sleep(left)

    host.sample(10)
    busy = None
    first_due = due = time.perf_counter() + 0.05
    for gap in gaps:
        index = state.next_job
        state.next_job += 1
        angle, method, qos = _job_spec(index)
        label = f"job{index}"
        harvest(block=False)
        wait_until(due, busy)
        entry = {"due": due, "angle": angle, "method": method, "label": label,
                 "feed": TimedFeed(), "ticket": None, "done": None}
        entry["submit"] = time.perf_counter()
        TRACER.op = label
        try:
            ticket = service.submit(qos, RenderJob(
                deltas={"method": method, "rot_y": state.angles[angle]},
                progress=entry["feed"], label=label, deadline_s=DEADLINE_S,
            ))
        except JobRejectedError:
            pass
        else:
            entry["ticket"] = ticket
            busy = ticket.future
            ticket.future.add_done_callback(
                lambda _f, e=entry: e.__setitem__("done", time.perf_counter())
            )
        pending[index] = entry
        due += float(gap)
    harvest(block=True)
    host.sample(10)

    # One pool worker runs jobs in submission order, so a job starts when
    # it was submitted or when the one before it finished, whichever is later.
    last_done = None
    ordered = [records[i] for i in sorted(records)]
    for record in ordered:
        done = record.extra["done"]
        if record.latency == math.inf or done is None:
            record.scale = host.scale_at(record.extra["due"], 9)
            continue
        submit = record.extra["submit"]
        record.dur = done - (submit if last_done is None else max(submit, last_done))
        record.scale = host.scale_at(done - record.dur / 2, 9)
        last_done = done
    state.last_pass = {
        "shed": service.shed_jobs - before[0],
        "rejected": service.rejected_jobs - before[1],
        "deadline": service.deadline_jobs - before[2],
        "events": len(service.events) - before[3],
    }
    finished = [r.extra["done"] for r in ordered if r.extra["done"] is not None]
    busy = (max(finished) - first_due) if finished else 1.0
    return ordered, busy


def layer_extras(state: State, records: list[OpRecord], tracer) -> dict[str, float]:
    waits, execs = [], []
    for r in records:
        span = tracer.session_spans.get(r.extra.get("label"))
        if span is not None:
            waits.append((span[0] - r.extra["due"]) * 1e3)
            execs.append((span[1] - span[0]) * 1e3)
    lateness = [r.extra["lateness"] * 1e3 for r in records if "lateness" in r.extra]
    return {
        "serve.queue_wait_p50_ms": percentile(waits, 0.50) if waits else 0.0,
        "serve.queue_wait_p90_ms": percentile(waits, 0.90) if waits else 0.0,
        "serve.exec_ms": statistics.median(execs) if execs else 0.0,
        "serve.shed": state.last_pass["shed"],
        "serve.rejected": state.last_pass["rejected"],
        "serve.deadline": state.last_pass["deadline"],
        "serve.events_len": state.last_pass["events"],
        "serve.gen_lateness_ms": statistics.median(lateness) if lateness else 0.0,
    }


def close(state: State) -> None:
    state.service.close(drain=False, timeout=10.0)

"""frame-mp: closed loop of frames from a warm mp RenderSession, one caller.

P=2 worker processes (one per core) render and composite ``engine_high``
at 256 px with the four representative methods.  A private render cache
(``REPRO_CACHE_DIR``) is filled during set-up and capped
(``REPRO_CACHE_MAX_BYTES``) at the filled size plus room for about one
more view.  Each round asks every method for each of a few cached views
(cache reads), in a seeded order, and ends with one frame from a fresh
angle, which renders, stores and evicts the previous fresh view (cache
writes).  Tile-routed frames render fused inside the workers.
"""

from __future__ import annotations

import itertools
import os
import resource
import tempfile
import time

import numpy as np
from repro import RenderSession, RunConfig, SortLastSystem

from benchlib import (
    METHODS,
    OpRecord,
    Reference,
    check_output,
    closed_loop,
    image_digest,
    transport_counts,
)
from spans import TRACER, paused

DATASET = "engine_high"
NUM_RANKS = 2
IMAGE = 256
VIEWS = 2
FRESH = 6
#: Fresh-angle frames use the scheduled methods (the ones reading the cache).
FRESH_METHODS = METHODS[:3]
#: Latency limit behind ``slo_ok_ratio``.
SLO_S = 2.0


#: Processes that can compute at once during a frame.
PARALLEL = min(NUM_RANKS, os.cpu_count() or 1)


class State:
    pass


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped workers."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _cache_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, n)) for n in os.listdir(root) if n.endswith(".npz")
    )


def setup(seed: int) -> State:
    """Start the mp session and fill its render cache with the views."""
    rng = np.random.default_rng([seed, 0])
    state = State()
    state.seed = seed
    state.passes = 0
    state.fresh_next = 0
    state.views = [30.0 * (v + 1) + float(rng.uniform(-5.0, 5.0)) for v in range(VIEWS)]
    state.fresh = [100.0 + 12.0 * j + float(rng.uniform(0.0, 6.0)) for j in range(FRESH)]
    state.cache_dir = tempfile.mkdtemp(prefix="cache-")
    os.environ["REPRO_CACHE_DIR"] = state.cache_dir
    state.config = RunConfig(
        dataset=DATASET, num_ranks=NUM_RANKS, image_size=IMAGE, rot_x=20.0, backend="mp"
    )
    state.session = RenderSession(state.config)
    for angle in state.views:
        state.session.submit(method=METHODS[0], rot_y=angle)
    filled = _cache_bytes(state.cache_dir)
    os.environ["REPRO_CACHE_MAX_BYTES"] = str(int(filled * (1.0 + 1.5 / VIEWS)))
    return state


def _key_config(state, key):
    kind, index, method = key
    angle = state.views[index] if kind == "view" else state.fresh[index]
    return state.config.with_(rot_y=angle, method=method, backend="sim")


def _keys(state):
    views = [("view", v, m) for v in range(VIEWS) for m in METHODS]
    fresh = [("fresh", j, FRESH_METHODS[j % len(FRESH_METHODS)]) for j in range(FRESH)]
    return views, fresh


def references(state: State) -> None:
    """One-shot sim run of every frame config the loop can ask for."""
    state.refs = {}
    views, fresh = _keys(state)
    saved = dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="refcache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.environ.pop("REPRO_CACHE_MAX_BYTES", None)
        try:
            for key in views + fresh:
                one = SortLastSystem(_key_config(state, key)).run()
                if one.final_image.max_abs_diff(one.reference_image()) > 1e-12:
                    raise AssertionError(f"{key}: one-shot differs from the sequential composite")
                stats = one.compositing.stats
                state.refs[key] = Reference(
                    image_digest(one.final_image),
                    *transport_counts(stats.rank_stats),
                    stats.t_total * 1e3,
                )
        finally:
            os.environ.clear()
            os.environ.update(saved)


def measure(state: State, seconds: float, host) -> tuple[list[OpRecord], None]:
    views, fresh = _keys(state)
    rng = np.random.default_rng([state.seed, 1, state.passes])
    state.passes += 1
    op_ids = itertools.count(state.passes * 100_000)

    def do_op(key) -> OpRecord:
        _, _, method = key
        cfg = _key_config(state, key)
        TRACER.op = next(op_ids)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result = state.session.submit(method=method, rot_y=cfg.rot_y)
        dur = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        stats = result.compositing.stats
        with paused():
            ok = check_output(state.refs[key], result.final_image, stats.rank_stats)
        return OpRecord(
            method, dur, ok,
            cpu_share=min(1.0, cpu / (dur * PARALLEL)),
            model_ms=state.refs[key].model_ms,
            extra={
                "bytes": sum(rs.bytes_sent for rs in stats.rank_stats),
                "msgs": sum(rs.msgs_sent for rs in stats.rank_stats),
                "over_px": stats.counter_total("over"),
                "encode_px": stats.counter_total("encode"),
            },
        )

    def round_keys(_r):
        state.fresh_next += 1
        tail = fresh[(state.fresh_next - 1) % len(fresh)]
        return [views[i] for i in rng.permutation(len(views))] + [tail]

    return closed_loop(round_keys, do_op, seconds, host), None


def close(state: State) -> None:
    state.session.close()

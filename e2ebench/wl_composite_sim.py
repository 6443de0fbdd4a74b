"""composite-sim: closed loop of ``run_compositing`` calls, one caller.

Subimages of two scenes (dense ``engine_low``, large-sparse-rectangle
``cube``) are rendered once during set-up at P=16 and 256 px; every
operation composites one scene with one method on the simulated SP2.
The renderer does no work inside the loop; codecs, the over operator,
wire packing and the event engine do all of it.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time

import numpy as np
from repro import (
    RunConfig,
    SortLastSystem,
    assemble_final,
    composite_sequential,
    depth_order,
    render_subvolume,
    run_compositing,
)
from repro.analysis.models import StageObservation, predict_bs, predict_bsbrc
from repro.cluster.model import SP2
from repro.cluster.topology import log2_int
from repro.pipeline import phases

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

SCENES = ("engine_low", "cube")
NUM_RANKS = 16
IMAGE = 256
#: Latency limit behind ``slo_ok_ratio``.
SLO_S = 2.0


class State:
    pass


def setup(seed: int) -> State:
    """Build both scenes and render their per-rank subimages."""
    rng = np.random.default_rng([seed, 0])
    state = State()
    state.seed = seed
    state.scenes = {}
    for dataset in SCENES:
        cfg = RunConfig(
            dataset=dataset,
            image_size=IMAGE,
            num_ranks=NUM_RANKS,
            rot_x=20.0 + float(rng.uniform(-4.0, 4.0)),
            rot_y=30.0 + float(rng.uniform(-4.0, 4.0)),
        )
        scene = phases.build_scene(cfg)
        subimages = [
            render_subvolume(scene.volume, scene.transfer, scene.camera, scene.plan.extent(r))
            for r in range(NUM_RANKS)
        ]
        state.scenes[dataset] = (cfg, scene, subimages)
    return state


def references(state: State) -> None:
    """One-shot sim run of every (scene, method) config, checked against
    the set-up subimages and the depth-order sequential composite."""
    state.refs = {}
    state.eq_inputs = {}
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="refcache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir  # one render per scene
        try:
            for dataset, (cfg, scene, subimages) in state.scenes.items():
                sequential = composite_sequential(
                    subimages, depth_order(scene.plan, scene.camera.view_dir)
                )
                for method in METHODS:
                    one = SortLastSystem(cfg.with_(method=method)).run()
                    if [image_digest(s) for s in one.subimages] != [
                        image_digest(s) for s in subimages
                    ]:
                        raise AssertionError(f"{dataset}: set-up render differs from one-shot")
                    if one.final_image.max_abs_diff(sequential) > 1e-12:
                        raise AssertionError(
                            f"{dataset}/{method}: one-shot differs from the sequential composite"
                        )
                    stats = one.compositing.stats
                    state.refs[(dataset, method)] = Reference(
                        image_digest(one.final_image),
                        *transport_counts(stats.rank_stats),
                        stats.t_total * 1e3,
                    )
                    state.eq_inputs[(dataset, method)] = stats
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved


def measure(state: State, seconds: float, host) -> tuple[list[OpRecord], None]:
    keys = [(d, m) for d in SCENES for m in METHODS]
    rng = np.random.default_rng([state.seed, 1])
    op_ids = itertools.count()

    def do_op(key) -> OpRecord:
        dataset, method = key
        cfg, scene, subimages = state.scenes[dataset]
        TRACER.op = next(op_ids)
        t0 = time.perf_counter()
        run = run_compositing(
            subimages, method, scene.plan, scene.camera.view_dir, cfg.machine
        )
        dur = time.perf_counter() - t0
        with paused():
            image = assemble_final(run.outcomes, IMAGE, IMAGE)
            ok = check_output(state.refs[key], image, run.stats.rank_stats)
        ranks = run.stats.rank_stats
        return OpRecord(
            method, dur, ok,
            model_ms=run.stats.t_total * 1e3,
            extra={
                "bytes": sum(rs.bytes_sent for rs in ranks),
                "msgs": sum(rs.msgs_sent for rs in ranks),
                "over_px": run.stats.counter_total("over"),
                "encode_px": run.stats.counter_total("encode"),
                "scene": dataset,
            },
        )

    with paused():  # warm-up round, not recorded
        for key in keys:
            do_op(key)
    records = closed_loop(
        lambda r: [keys[i] for i in rng.permutation(len(keys))], do_op, seconds, host
    )
    return records, None


def layer_extras(state: State, records: list[OpRecord], tracer) -> dict[str, float]:
    """Paper eqs. (1)-(8) against the simulated critical rank."""
    pixels = IMAGE * IMAGE
    stages = log2_int(NUM_RANKS)

    def observations(rank_stats):
        out = []
        for k in range(stages):
            bucket = rank_stats.stages.get(k)
            c = bucket.counters if bucket else {}
            out.append(StageObservation(
                a_rec=c.get("a_rec", 0), a_opaque=c.get("a_opaque", 0),
                r_code=c.get("r_code", 0), a_send=c.get("a_send", 0),
            ))
        return out

    metrics: dict[str, float] = {}
    for method, tag in (("bsbrc", "bsbrc"), ("binary-swap:raw", "binary-swap-raw")):
        errors = []
        for dataset in SCENES:
            stats = state.eq_inputs[(dataset, method)]
            if method == "bsbrc":
                crit = stats.rank_stats[stats.critical_rank]
                predicted = predict_bsbrc(SP2, pixels, observations(crit))
            else:
                predicted = predict_bs(SP2, pixels, NUM_RANKS)
            errors.append(abs(predicted.t_total - stats.t_total) / stats.t_total)
        metrics[f"model.eq_error.{tag}"] = float(np.mean(errors))
    return metrics

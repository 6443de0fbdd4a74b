"""Traced mode: spans recorded around each layer's public entry points.

The wrappers are installed from outside the program (module attributes
and class methods are rebound); the program itself is not edited.  A span
records ``(layer, start, end, parent span, operation id, rank)`` and is
kept in memory; :meth:`Tracer.write` saves them at exit.  A span's self
time is its duration minus the time covered by its child spans.  Spans
only ever wrap synchronous calls, so on one thread they nest strictly; a
span closed out of order is recorded as a violation and fails the run.

Rank attribution on the simulator comes from timing every resumption of
every rank coroutine (``sim.rank`` spans, tagged with the rank): layer
spans opened inside a resumption belong to that rank.  On the mp backend
the wrappers are installed before the fork, each worker aggregates its
own spans, and the aggregates travel back in the worker's perf report
(``rank_perf``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Layers whose self time counts as attributed work inside a rank.
RANK_LAYERS = (
    "render",
    "compositing.encode",
    "compositing.decode",
    "compositing.over",
    "compositing.wire",
    "compositing.tile_fold",
    "pipeline.scene",
    "pipeline.assemble",
    "cache.store",
    "progress.emit",
)

#: Spans kept for the trace file; aggregates cover every span regardless.
MAX_KEPT_SPANS = 400_000

_WORKER_PREFIX = "e2ebench.self_s."
_WORKER_CALLS = "e2ebench.calls."


class _ThreadState:
    """One thread's open spans and accumulators (merged on read)."""

    __slots__ = ("stack", "op", "agg", "rank_wall", "rank_layers")

    def __init__(self) -> None:
        self.stack: list = []
        self.op = None
        #: layer -> [self seconds, calls]
        self.agg: dict[str, list] = defaultdict(lambda: [0.0, 0])
        #: (op, rank) -> summed resumption time / attributed layer self time
        self.rank_wall: dict[tuple, float] = defaultdict(float)
        self.rank_layers: dict[tuple, float] = defaultdict(float)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._next_id = 1
        self.spans: list[tuple] = []
        #: one entry per traced mp run: wall per worker, layer self per worker
        self.mp_runs: list[dict] = []
        #: worker aggregates shipped back from mp runs: layer -> [self s, calls]
        self.worker_agg: dict[str, list] = defaultdict(lambda: [0.0, 0])
        #: label -> (start, end) of RenderSession.submit
        self.session_spans: dict[str, tuple] = {}
        self.violations: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    @property
    def op(self):
        return self._state().op

    @op.setter
    def op(self, value) -> None:
        self._state().op = value

    # ---- span bookkeeping ----------------------------------------------------
    def push(self, layer: str, rank: "int | None" = None) -> None:
        state = self._state()
        st = state.stack
        parent = st[-1] if st else None
        if rank is not None:
            rank_key = (state.op, rank)
        else:
            rank_key = parent[4] if parent is not None else None
        span_id = self._next_id
        self._next_id = span_id + 1
        st.append([layer, time.perf_counter(), 0.0, span_id, rank_key,
                   parent[3] if parent is not None else 0])

    def pop(self, layer: str) -> float:
        end = time.perf_counter()
        state = self._state()
        st = state.stack
        name, start, child, span_id, rank_key, parent_id = st.pop()
        if name != layer:
            self.violations.append(f"span {layer!r} closed inside {name!r}")
        dur = end - start
        self_s = dur - child
        if st:
            st[-1][2] += dur
        slot = state.agg[layer]
        slot[0] += self_s
        slot[1] += 1
        if layer == "sim.rank":
            state.rank_wall[rank_key] += dur
        elif rank_key is not None and layer in RANK_LAYERS:
            state.rank_layers[rank_key] += self_s
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((layer, start, end, parent_id, span_id, state.op,
                               None if rank_key is None else rank_key[1]))
        return dur

    # ---- reductions ----------------------------------------------------------
    def _merged(self, attr: str) -> dict:
        out: dict = defaultdict(float)
        for state in self._threads:
            for key, value in getattr(state, attr).items():
                out[key] += value
        return out

    def self_s(self, layer: str) -> float:
        own = sum(t.agg[layer][0] for t in self._threads if layer in t.agg)
        return own + (self.worker_agg[layer][0] if layer in self.worker_agg else 0.0)

    def calls(self, layer: str) -> int:
        own = sum(t.agg[layer][1] for t in self._threads if layer in t.agg)
        return own + (self.worker_agg[layer][1] if layer in self.worker_agg else 0)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """layer -> (self seconds, calls), this process's threads only."""
        layers = {k for t in self._threads for k in t.agg}
        return {k: (self.self_s(k), self.calls(k)) for k in layers}

    def rank_check(self) -> list[str]:
        """Ranks whose layer self times exceed their wall time."""
        rank_layers = self._merged("rank_layers")
        bad = [
            f"sim rank {key}: layers {rank_layers[key] * 1e3:.3f} ms > "
            f"wall {wall * 1e3:.3f} ms"
            for key, wall in self._merged("rank_wall").items()
            if rank_layers.get(key, 0.0) > wall + 1e-9
        ]
        for run in self.mp_runs:
            for rank, (wall, layers) in enumerate(zip(run["walls"], run["layers"])):
                if layers > wall + 1e-9:
                    bad.append(
                        f"mp worker {rank} of op {run['op']}: layers "
                        f"{layers * 1e3:.3f} ms > wall {wall * 1e3:.3f} ms"
                    )
        return bad + list(self.violations)

    def coverage(self) -> float:
        """Attributed layer self time over rank wall time (sim + mp)."""
        wall = sum(self._merged("rank_wall").values())
        layers = sum(self._merged("rank_layers").values())
        for run in self.mp_runs:
            wall += sum(run["walls"])
            layers += sum(run["layers"])
        return layers / wall if wall > 0 else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "fields": ["layer", "start", "end", "parent", "id", "op", "rank"],
                    "spans": self.spans,
                },
                fh,
            )


TRACER = Tracer()


@contextlib.contextmanager
def paused():
    """Suspend recording (the benchmark's own checks are not program work)."""
    was = TRACER.enabled
    TRACER.enabled = False
    try:
        yield
    finally:
        TRACER.enabled = was


def _wrap(fn, layer: str):
    tracer = TRACER

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.push(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop(layer)

    return traced


def _rebind(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (catches ``from x import f`` copies); returns count."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _wrap_function(module, name: str, layer: str) -> None:
    original = getattr(module, name)
    if _rebind(original, _wrap(original, layer)) == 0:
        raise RuntimeError(f"could not wrap {module.__name__}.{name}")


def _wrap_method(cls, name: str, layer: str) -> None:
    setattr(cls, name, _wrap(cls.__dict__[name], layer))


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class _TimedCoroutine:
    """Coroutine proxy timing each resumption of one simulated rank."""

    __slots__ = ("_coro", "_rank")

    def __init__(self, coro, rank: int):
        self._coro = coro
        self._rank = rank

    def send(self, value):
        TRACER.push("sim.rank", rank=self._rank)
        try:
            return self._coro.send(value)
        finally:
            TRACER.pop("sim.rank")

    def throw(self, *args):
        return self._coro.throw(*args)

    def close(self):
        return self._coro.close()


async def traced_rank_program(ctx, program, *args):
    """mp worker entry: run ``program`` and ship this worker's layer
    aggregates back through the perf report."""
    from repro import perf

    if TRACER.pid != os.getpid():
        TRACER.reset()  # drop the parent's open spans inherited at fork
    result = await program(ctx, *args)
    for layer, (self_s, calls) in TRACER.layer_totals().items():
        perf.incr(_WORKER_PREFIX + layer, self_s)
        perf.incr(_WORKER_CALLS + layer, calls)
    return result


def install() -> None:
    """Install every wrapper (idempotent per process; starts disabled)."""
    import repro.cache as cache
    import repro.cluster.mp_backend  # noqa: F401 - bound names to rebind
    import repro.compositing.codec as codec
    import repro.compositing.tile_engine  # noqa: F401
    import repro.compositing.tiles as tiles
    import repro.compositing.wire as wire
    import repro.pipeline.assemble as assemble
    import repro.pipeline.mp  # noqa: F401
    import repro.pipeline.phases as phases
    import repro.pipeline.system  # noqa: F401
    from repro.cluster.backend import MPBackend
    from repro.cluster.progress import ProgressFeed
    from repro.cluster.simulator import Simulator
    from repro.pipeline.session import RenderSession
    from repro.serving.service import RenderService

    if getattr(install, "done", False):
        return
    install.done = True
    tracer = TRACER

    # render: only where the pipeline phases look the ray caster up.
    phases.render_subvolume = _wrap(phases.render_subvolume, "render")

    # compositing: every codec's encode/decode/composite, the wire
    # pack/unpack kernels and the tile fold.
    layer_of = {"encode": "compositing.encode", "decode": "compositing.decode",
                "composite": "compositing.over"}
    for cls in [codec.PixelCodec, *_all_subclasses(codec.PixelCodec)]:
        for name, layer in layer_of.items():
            fn = cls.__dict__.get(name)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                _wrap_method(cls, name, layer)
    for name in dir(wire):
        if name.startswith(("pack_", "unpack_")) and callable(getattr(wire, name)):
            _wrap_function(wire, name, "compositing.wire")
    _wrap_function(tiles, "fold_tile_planes", "compositing.tile_fold")

    # pipeline and render cache
    _wrap_function(phases, "build_scene", "pipeline.scene")
    _wrap_function(assemble, "assemble_tiles", "pipeline.assemble")
    _wrap_function(cache, "enforce_cache_budget", "cache.store")

    session_submit = RenderSession.submit

    @functools.wraps(session_submit)
    def traced_session_submit(self, job=None, /, **deltas):
        if not tracer.enabled:
            return session_submit(self, job, **deltas)
        label = getattr(job, "label", None)
        if label is not None:
            tracer.op = label
        tracer.push("pipeline.session")
        start = time.perf_counter()
        try:
            return session_submit(self, job, **deltas)
        finally:
            tracer.pop("pipeline.session")
            if label is not None:
                tracer.session_spans[label] = (start, time.perf_counter())

    RenderSession.submit = traced_session_submit

    # serving and progressive delivery
    _wrap_method(RenderService, "submit", "serve.submit")
    for name in ("emit_stage", "emit_tile", "emit_final"):
        _wrap_method(ProgressFeed, name, "progress.emit")

    # cluster.sim: the run, and every rank resumption inside it
    sim_run = Simulator.run

    @functools.wraps(sim_run)
    def traced_sim_run(self, program_factory):
        if not tracer.enabled:
            return sim_run(self, program_factory)

        def factory(ctx):
            return _TimedCoroutine(program_factory(ctx), ctx.rank)

        tracer.push("sim.run")
        try:
            return sim_run(self, factory)
        finally:
            tracer.pop("sim.run")

    Simulator.run = traced_sim_run

    # cluster.mp: the run in the parent, worker aggregates via rank_perf
    mp_run = MPBackend.run

    @functools.wraps(mp_run)
    def traced_mp_run(self, num_ranks, program, args=(), **kwargs):
        if not tracer.enabled or kwargs.get("respawn") is not None:
            return mp_run(self, num_ranks, program, args, **kwargs)
        tracer.push("mp.run")
        try:
            result = mp_run(
                self, num_ranks, traced_rank_program, (program, *args), **kwargs
            )
        finally:
            run_s = tracer.pop("mp.run")
        layers = []
        for report in result.rank_perf:
            counters = report.get("counters", {})
            own = 0.0
            for key, value in counters.items():
                if key.startswith(_WORKER_PREFIX):
                    layer = key[len(_WORKER_PREFIX):]
                    slot = tracer.worker_agg[layer]
                    slot[0] += value
                    slot[1] += int(counters.get(_WORKER_CALLS + layer, 0))
                    if layer in RANK_LAYERS:
                        own += value
            layers.append(own)
        tracer.mp_runs.append({
            "op": tracer.op,
            "run_s": run_s,
            "walls": list(result.wall_times),
            "layers": layers,
            "perf": [r.get("counters", {}) for r in result.rank_perf],
        })
        return result

    MPBackend.run = traced_mp_run

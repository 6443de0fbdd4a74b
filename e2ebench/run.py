"""End-to-end and per-layer benchmark of the sort-last-sparse system.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload composite-sim --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it carries the raw (not host-normalised) figures and ``host.ref_ms``.
Exit code 0 means every operation's output matched its reference; a
mismatch still prints the result, then exits 1.  A checkout without the
program's sources exits 2 without a result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from before the program is imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import benchlib  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Private scratch (run directories, trace files) inside the checkout.
WORK = os.path.join(ROOT, ".e2ebench")

WORKLOADS = {
    "composite-sim": "wl_composite_sim",
    "serve-orbit": "wl_serve_orbit",
    "frame-mp": "wl_frame_mp",
}

#: Set-up is measured this many times per run (the run itself + children).
SETUP_SAMPLES = 3


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, as declared in the checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


_children: list = []
#: (pid, run directory) of the benchmark's main process.
_MAIN: list = [None, None]


def _isolate() -> str:
    """Drop the caller's REPRO_* settings and give this run a private
    scratch directory (also the temp dir of every process it starts)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK)
    for key in ("TMPDIR", "TEMP", "TMP"):
        os.environ[key] = run_dir
    tempfile.tempdir = run_dir
    return run_dir


def _stop_processes() -> None:
    """Stop and reap every process this run started."""
    for proc in _children:
        if proc.poll() is None:
            proc.terminate()  # lets the child remove its own run directory
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def _on_sigterm(signum, frame):
    """Stop at once: reap the workers, remove the run directory, exit.

    Unwinding through the program instead could wait on a half-written
    result from a worker that is being torn down.
    """
    if os.getpid() == _MAIN[0]:
        _stop_processes()
        shutil.rmtree(_MAIN[1], ignore_errors=True)
    os._exit(128 + signum)


def _setup_sample(args) -> float:
    """Set-up time of a fresh process (same workload, seed and code)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    _children.append(proc)
    out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample exited {proc.returncode}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _layer_metrics(wl, state, records, tracer, host, overhead, scene_s) -> dict:
    n = len(records)

    def per_op_ms(layer):
        return tracer.self_s(layer) * 1e3 / n

    def mean_extra(key):
        vals = [r.extra[key] for r in records if key in r.extra]
        return statistics.fmean(vals) if vals else 0.0

    m = dict.fromkeys(_units("per_layer"), 0.0)
    m["render.self_ms"] = per_op_ms("render")
    m["render.calls"] = tracer.calls("render") / n
    for name in ("encode", "decode", "over", "wire", "tile_fold"):
        m[f"compositing.{name}_ms"] = per_op_ms(f"compositing.{name}")
    m["compositing.over_pixels"] = mean_extra("over_px")
    m["compositing.encode_pixels"] = mean_extra("encode_px")
    m["sim.engine_self_ms"] = per_op_ms("sim.run")
    m["sim.steps"] = tracer.calls("sim.rank") / n
    m["transport.bytes"] = mean_extra("bytes")
    m["transport.msgs"] = mean_extra("msgs")
    if tracer.mp_runs:
        runs = tracer.mp_runs
        m["mp.run_ms"] = statistics.fmean(r["run_s"] for r in runs) * 1e3
        m["mp.rank_wall_ms"] = statistics.fmean(max(r["walls"]) for r in runs) * 1e3
        m["mp.overhead_ms"] = m["mp.run_ms"] - m["mp.rank_wall_ms"]
        hits = sum(c.get("pipeline.render_cache_hits", 0) for r in runs for c in r["perf"])
        misses = sum(c.get("pipeline.render_cache_misses", 0) for r in runs for c in r["perf"])
        m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["pipeline.scene_ms"] = scene_s * 1e3
    m["pipeline.assemble_ms"] = per_op_ms("pipeline.assemble")
    m["pipeline.session_self_ms"] = per_op_ms("pipeline.session")
    m["cache.store_ms"] = per_op_ms("cache.store")
    m["progress.emit_ms"] = per_op_ms("progress.emit")
    m["progress.frames_per_job"] = tracer.calls("progress.emit") / n
    for method in benchlib.METHODS:
        mine = [r for r in records if r.method == method and r.model_ms > 0]
        if mine:
            m[f"model.wall_over_model.{benchlib.METHOD_TAG[method]}"] = (
                statistics.median(r.dur for r in mine) * 1e3
                / statistics.fmean(r.model_ms for r in mine)
            )
    if hasattr(wl, "layer_extras"):
        m.update(wl.layer_extras(state, records, tracer))
    m["host.ref_ms"] = host.median_ms
    m["trace.overhead_ratio"] = overhead
    m["layers.coverage"] = tracer.coverage()
    unknown = set(m) - set(_units("per_layer"))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one reference (the failure path must trip)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = _isolate()
    _MAIN[:] = [os.getpid(), run_dir]
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return _run(args)
    finally:
        _stop_processes()
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args) -> int:
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"e2ebench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        spans.install()
        spans.TRACER.enabled = True
    state = wl.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, wl, state, setup_s)
    finally:
        if hasattr(wl, "close"):
            wl.close(state)


def _normalised_mean(records) -> float:
    return statistics.fmean(r.dur * r.scale for r in records if r.dur > 0)


def _measure(args, wl, state, setup_s: float) -> int:
    tracer = spans.TRACER
    tracer.enabled = False
    scene_s = tracer.self_s("pipeline.scene")
    host = benchlib.HostRef()

    phases = {"set-up": setup_s}
    t0 = time.perf_counter()
    wl.references(state)
    phases["references"] = time.perf_counter() - t0
    if args.tamper:
        key = sorted(state.refs, key=repr)[0]
        ref = state.refs[key]
        ref.digest = ref.digest[:-1] + ("0" if ref.digest[-1] != "0" else "1")

    t0 = time.perf_counter()
    if args.trace:
        plain, _ = wl.measure(state, args.seconds / 3.0, host)
        tracer.reset()
        tracer.enabled = True
        records, busy_s = wl.measure(state, args.seconds * 2.0 / 3.0, host)
        tracer.enabled = False
        overhead = _normalised_mean(records) / _normalised_mean(plain)
    else:
        records, busy_s = wl.measure(state, args.seconds, host)
    rss_mb = benchlib.peak_rss_mb()
    phases["measure"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    failed = sum(1 for r in records if not r.ok)
    problems = []
    if args.trace:
        metrics = _layer_metrics(wl, state, records, tracer, host, overhead, scene_s)
        units = _units("per_layer")
        problems = tracer.rank_check()
        tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json.gz"))
    else:
        samples = [setup_s] + [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = benchlib.end_to_end_metrics(
            records, host, slo_s=wl.SLO_S, busy_s=busy_s,
            setup_s=statistics.median(samples) * benchlib.REF_NOMINAL_MS / host.median_ms,
        )
        metrics["peak_rss_mb"] = rss_mb
        units = _units("end_to_end")
        raw = {
            "host.ref_ms": host.summary(),
            "setup_s_raw": samples,
            "op_ms_raw": {
                tag: statistics.median(r.dur for r in records if r.method == m and r.dur > 0) * 1e3
                for m, tag in benchlib.METHOD_TAG.items()
            },
        }
        print("raw " + json.dumps(raw))
    phases["report"] = time.perf_counter() - t0
    print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()), file=sys.stderr)
    for problem in problems:
        print(f"attribution check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

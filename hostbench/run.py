"""Host-time benchmark of the repro simulator, end to end and per layer.

Run from the repository root::

    python3 hostbench/run.py --workload r520-frame --seed 0 --seconds 10 --trace 0

One run of one workload:

1. *Build*: compile (or load) the native kernels.
2. *References*: ``--seed n`` draws input variant
   ``n % workloads.VARIANTS``; load that variant's committed oracle
   fingerprints (or compute them in child processes where none are
   committed, as for other sizes).  Untimed.
3. *Passes*, until they have taken ``--seconds`` and there are at least
   the workload's ``min_passes`` of them: each pass is set up afresh (new
   store, in-process caches dropped) and then timed.  With
   ``--trace 1`` passes alternate untraced and traced; the traced ones run
   with the layer wrappers of :mod:`hostbench.layers` and ``repro.observe``
   spans on, and give the per-layer metrics.
4. *Report*: one JSON line with the provenance and every measurement, then
   the result line ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics come from the untraced passes:

* ``setup_s``: the median wall time of a fresh interpreter importing the
  package and loading its native kernels, plus the median of at least
  :data:`SETUP_SAMPLES` per-pass set-ups (runs with fewer passes set up
  extra, unrun passes after the timed ones).
* ``throughput_per_s``: modelled work per host second over all the
  untraced passes (their total work over their total time).  The work is
  bilinear texture samples on ``r520-frame`` and ``timedemo-store`` (the
  cold pass's samples over the cold plus rerun time) and traced API frames
  on ``api-characterize``.  Each input variant draws a different scene,
  and texture work predicts host time across scenes much better than the
  fragment count does.  The host's speed wanders by tens of percent, in
  spells longer than a pass, so one total over every pass of the run is
  steadier than a median of the few pass rates.

Per-layer metrics come from the traced passes: each layer's self time,
the modelled counts (which must repeat exactly), the farm's own phase
times, ``observe.overhead_pct`` (traced against untraced pass time),
``observe.accounted_pct`` (the driving process's layer self times against
the untraced pass time) and ``bench.*``: fragments and API frames per
second, cold and rerun time, bytes written and peak RSS of the process
tree, and the failed share.  Those last are zero or vary with the scene on
some workload, so they carry no bound.

Exits with status 2, printing no result, when the repository's sources are
not beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("r520-frame", "timedemo-store", "api-characterize")
COLD_START_RUNS = 5
SETUP_SAMPLES = 3
COLD_START = (
    "import sys; sys.path.insert(0, 'src'); "
    "import repro, repro.farm, repro.experiments.paper; "
    "from repro.gpu import _native; _native.available()"
)


def _median(values):
    return statistics.median(values) if values else 0.0


def cold_start_seconds() -> float:
    samples = []
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return _median(samples)


def setup_samples(workload, seed: int, records: list[dict], scratch: str) -> list[float]:
    """The passes' set-up times, topped up to :data:`SETUP_SAMPLES`."""
    samples = [r["setup_s"] for r in records]
    while len(samples) < SETUP_SAMPLES:
        gc.collect()
        start = time.perf_counter()
        state = workload.prepare(seed, scratch)
        samples.append(time.perf_counter() - start)
        workload.cleanup(state)
    return samples


def run_passes(workload, seed: int, seconds: float, trace: bool,
               refs: dict, scratch: str) -> list[dict]:
    """Set up and run passes until they have taken ``seconds``; one record each.

    A run makes at least ``workload.min_passes`` passes, two or more, so
    with ``trace`` at least one untraced and one traced.
    """
    from hostbench import layers

    records = []
    measured = 0.0
    while True:
        traced = trace and len(records) % 2 == 1
        gc.collect()
        start = time.perf_counter()
        state = workload.prepare(seed, scratch)
        record = {"traced": traced, "setup_s": time.perf_counter() - start}
        try:
            if traced:
                record["outcome"], tracks = _traced_pass(workload, state, refs)
                record["layers"] = layers.self_times(tracks)
                # Worker tracks run beside the driving process, so only its
                # own track can account for the pass's wall time.
                record["own_layers"] = layers.self_times(tracks[:1])
            else:
                record["outcome"] = workload.run(state, refs)
        finally:
            workload.cleanup(state)
        records.append(record)
        measured += record["outcome"].seconds
        if measured >= seconds and len(records) >= workload.min_passes:
            return records


def _traced_pass(workload, state, refs):
    from repro import observe

    from hostbench import layers

    layers.install()
    tracer = observe.enable(track="hostbench")
    try:
        with observe.span("hostbench.pass", "hostbench.root"):
            outcome = workload.run(state, refs)
    finally:
        observe.disable()
        layers.uninstall()
    return outcome, tracer.timeline()


def _throughput(outcome) -> float:
    return outcome.work / outcome.seconds


def end_to_end(records: list[dict], cold_start_s: float, setups: list[float]) -> dict:
    passes = [r["outcome"] for r in records if not r["traced"]]
    work = sum(p.work for p in passes)
    seconds = sum(p.seconds for p in passes)
    return {
        "setup_s": (cold_start_s + _median(setups), "s"),
        "throughput_per_s": (work / seconds, "1/s"),
    }


#: Per-layer metrics not derived from a layer span, with their units.
PER_LAYER_EXTRA = {
    "geometry.extrude_shadow_volume.calls": "count",
    "api.batches": "count",
    "api.state_calls": "count",
    "gpu.fragments": "count",
    "gpu.quads": "count",
    "gpu.texture.requests": "count",
    "gpu.texture.bilinear_samples": "count",
    **{f"gpu.cache.{cache}.{kind}": "count"
       for cache in ("color", "texture_l0", "texture_l1", "zstencil")
       for kind in ("hits", "misses")},
    **{f"gpu.mem.{client}.bytes": "count"
       for client in ("vertex", "zstencil", "texture", "color", "dac", "cp")},
    "gpu.mem.zstencil.bytes_vs_oracle": "count",
    **{f"farm.{phase}_s": "s"
       for phase in ("spawn", "trace", "simulate", "harvest", "merge")},
    "farm.checkpoint.bytes": "count",
    "farm.drawcache.hits": "count",
    "farm.drawcache.misses": "count",
    "farm.drawcache.hit_rate": "ratio",
    "farm.retries": "count",
    "observe.overhead_pct": "%",
    "observe.accounted_pct": "%",
    "observe.unattributed_s": "s",
    "bench.fragments_per_s": "1/s",
    "bench.api_frames_per_s": "1/s",
    "bench.cold_s": "s",
    "bench.rerun_s": "s",
    "bench.write_mb": "MB",
    "bench.peak_rss_mb": "MB",
    "bench.failed_frac": "ratio",
}


def per_layer_names() -> dict:
    from hostbench import layers

    names = {f"{layer}_s": "s" for layer in layers.LAYERS}
    names.update(PER_LAYER_EXTRA)
    return names


def per_layer(records: list[dict], workload_name: str) -> dict:
    """Medians over the traced passes of every per-layer metric."""
    from hostbench import layers

    untraced_s = _median([r["outcome"].seconds for r in records if not r["traced"]])
    samples: dict[str, list[float]] = {}
    for record in records:
        if not record["traced"]:
            continue
        outcome, spans = record["outcome"], record["layers"]
        values = dict.fromkeys(per_layer_names(), 0.0)
        values.update(outcome.counts)
        values.update({k: v for k, v in outcome.timings.items() if k.startswith("farm.")})
        for layer in layers.LAYERS:
            values[f"{layer}_s"] = spans["seconds"][layer]
        values["geometry.extrude_shadow_volume.calls"] = spans["calls"][
            "geometry.extrude_shadow_volume"]
        values["farm.checkpoint.bytes"] = spans["attrs"].get(
            "farm.checkpoint.save", {}).get("bytes", 0)
        own = record["own_layers"]["seconds"]
        accounted = sum(own[layer] for layer in layers.LAYERS)
        values["observe.unattributed_s"] = spans["seconds"][layers.UNATTRIBUTED]
        values["observe.overhead_pct"] = 100.0 * (outcome.seconds / untraced_s - 1.0)
        values["observe.accounted_pct"] = 100.0 * accounted / untraced_s
        if workload_name == "api-characterize":
            values["bench.api_frames_per_s"] = _throughput(outcome)
        else:
            values["bench.fragments_per_s"] = outcome.counts.get("gpu.fragments", 0) / (
                outcome.timings.get("cold_s", outcome.seconds))
        values["bench.cold_s"] = outcome.timings.get("cold_s", 0.0)
        values["bench.rerun_s"] = outcome.timings.get("rerun_s", 0.0)
        values["bench.write_mb"] = outcome.written_bytes / 1e6
        values["bench.peak_rss_mb"] = outcome.peak_rss_bytes / 1e6
        values["bench.failed_frac"] = outcome.ops.count(False) / max(1, len(outcome.ops))
        for name, value in values.items():
            samples.setdefault(name, []).append(float(value))
    units = per_layer_names()
    return {name: (_median(samples.get(name, [])), unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro host-time benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp_root = ROOT / ".hostbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch

    from repro.compare.meta import run_meta
    from repro.gpu import _native

    from hostbench import reference
    from hostbench.workloads import WORKLOADS, variant

    workload = WORKLOADS[args.workload]
    inputs = variant(args.seed)
    try:
        build_start = time.perf_counter()
        native = _native.available()
        build_s = time.perf_counter() - build_start
        refs = reference.obtain(workload, inputs)
        cold_start_s = cold_start_seconds()
        records = run_passes(
            workload, inputs, args.seconds, bool(args.trace), refs, scratch
        )
        setups = (
            [] if args.trace else setup_samples(workload, inputs, records, scratch)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcomes = [r["outcome"] for r in records]
    attempted = sum(len(o.ops) for o in outcomes)
    failed = sum(o.ops.count(False) for o in outcomes)
    metrics = (per_layer(records, args.workload) if args.trace
               else end_to_end(records, cold_start_s, setups))
    provenance = {
        "meta": run_meta(ROOT),
        "workload": args.workload,
        "size": workload.size,
        "seed": args.seed,
        "variant": inputs,
        "farm_width": getattr(workload, "farm_width", None),
        "native": native,
        "build_s": build_s,
        "cold_start_s": cold_start_s,
        "setup_samples_s": setups,
        "passes": [
            {"traced": r["traced"], "setup_s": r["setup_s"],
             "seconds": r["outcome"].seconds, "ops": len(r["outcome"].ops),
             "failed": r["outcome"].ops.count(False),
             "timings": r["outcome"].timings,
             "written_mb": r["outcome"].written_bytes / 1e6,
             "peak_rss_mb": r["outcome"].peak_rss_bytes / 1e6}
            for r in records
        ],
        "counts": records[0]["outcome"].counts,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans opened from outside the program, and their self times.

:func:`install` wraps the public calls into each module in ``repro.observe``
spans named after the layer that owns them; :func:`uninstall` puts the
originals back.  The wrappers are installed only around traced passes, so
untraced passes run the program's code unchanged.  Farm pool workers fork
after installation, so their units record the same spans, and the farm's
per-unit span sidecars carry them back to the parent's tracer.

A wrap point that no longer exists is skipped: its layer then reports zero.
"""

from __future__ import annotations

import functools
import importlib
import sys

from repro import observe

#: (module, attribute path, layer span).  Functions are also replaced in
#: every ``repro`` module that imported them by name.
WRAP_POINTS = (
    ("repro.farm.checkpoint", "build_job_workload", "workloads.build"),
    ("repro.workloads.generator", "build_workload", "workloads.build"),
    ("repro.geometry.generators", "extrude_shadow_volume",
     "geometry.extrude_shadow_volume"),
    ("repro.workloads.generator", "GameWorkload.trace", "workloads.trace"),
    ("repro.api.trace", "Trace.materialize", "workloads.trace"),
    ("repro.api.tracer", "ApiTracer.trace_stats", "api.trace_stats"),
    ("repro.workloads.generator", "GameWorkload.simulator", "gpu.pipeline"),
    ("repro.gpu.pipeline", "GpuSimulator.run_trace", "gpu.pipeline"),
    ("repro.gpu.pipeline", "GpuSimulator.run_frame", "gpu.pipeline"),
    ("repro.gpu.vertex", "VertexStage.process", "gpu.vertex"),
    ("repro.gpu.clipper", "clip_and_cull", "gpu.clip"),
    ("repro.gpu.rasterizer", "rasterize_draw", "gpu.raster"),
    ("repro.gpu.zstencil", "ZStencilStage.process", "gpu.zstencil"),
    ("repro.gpu.zstencil", "ZStencilStage.test_write", "gpu.zstencil"),
    ("repro.gpu.zstencil", "ZStencilStage.update_hz", "gpu.zstencil"),
    ("repro.gpu.zstencil", "ZStencilStage.update_hz_quads", "gpu.zstencil"),
    ("repro.gpu.zstencil", "ZStencilStage.account_stream", "gpu.zstencil"),
    ("repro.shader.interpreter", "ShaderInterpreter.run", "gpu.shader"),
    ("repro.gpu.texture", "TextureUnit.__call__", "gpu.texture"),
    ("repro.gpu.color", "ColorStage.process", "gpu.color"),
    ("repro.gpu.color", "ColorStage.process_groups", "gpu.color"),
    ("repro.gpu.color", "ColorStage.flush", "gpu.color"),
    ("repro.farm.executor", "Farm.run", "farm.run"),
    ("repro.farm.store", "ArtifactStore.save", "farm.store.save"),
    ("repro.farm.store", "ArtifactStore.save_trace", "farm.store.save"),
    ("repro.farm.store", "ArtifactStore.load", "farm.store.load"),
    ("repro.farm.store", "ArtifactStore.load_trace", "farm.store.load"),
    ("repro.farm.store", "ArtifactStore.save_checkpoint",
     "farm.checkpoint.save"),
    ("repro.farm.drawcache", "run_trace_incremental", "farm.drawcache"),
    ("repro.farm.drawcache", "DrawCache.load", "farm.drawcache"),
    ("repro.farm.drawcache", "DrawCache.save", "farm.drawcache"),
)

#: Every layer span name, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAP_POINTS))

#: A span of layer ``key`` nested inside a layer in the value set is charged
#: to that outer layer: the vertex stage runs vertex programs through the
#: shader interpreter, and that time belongs to the vertex stage.
FOLD_INTO = {"gpu.shader": frozenset({"gpu.vertex"})}

#: Time in traced spans outside every layer (the benchmark's own loop).
UNATTRIBUTED = "unattributed"

SPAN_CAT = "hostbench"

_installed: list[tuple[object, str, object]] = []


def _wrap(fn, layer: str):
    if layer == "farm.checkpoint.save":
        @functools.wraps(fn)
        def wrapper(store, job, *args, **kwargs):
            with observe.span(layer, SPAN_CAT) as span:
                value = fn(store, job, *args, **kwargs)
                if span:
                    try:
                        size = store.checkpoint_path(job).stat().st_size
                    except OSError:
                        size = 0
                    span.set("bytes", size)
                return value
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with observe.span(layer, SPAN_CAT):
                return fn(*args, **kwargs)
    wrapper.__hostbench_original__ = fn
    return wrapper


def _patch(owner, name: str, value) -> None:
    _installed.append((owner, name, getattr(owner, name)))
    setattr(owner, name, value)


def install() -> None:
    """Wrap every wrap point that exists (idempotent)."""
    if _installed:
        return
    for module_name, path, layer in WRAP_POINTS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None or hasattr(original, "__hostbench_original__"):
            continue
        wrapper = _wrap(original, layer)
        _patch(owner, name, wrapper)
        if parents:
            continue
        for module in list(sys.modules.values()):
            if (
                module is not None
                and module is not owner
                and getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, name, None) is original
            ):
                _patch(module, name, wrapper)


def uninstall() -> None:
    while _installed:
        owner, name, original = _installed.pop()
        setattr(owner, name, original)


def self_times(tracks: list[dict]) -> dict:
    """Layer self times and span counts over serialized span tracks.

    A span's self time is its duration minus the durations of its direct
    children (as in ``repro.experiments.bench``).  It is charged to the
    nearest enclosing layer span, itself included; the program's own spans
    inside a layer are that layer's time.  Returns ``{"seconds": {layer:
    s}, "calls": {layer: n}, "attrs": {layer: {attr: sum}}}``, with
    :data:`UNATTRIBUTED` holding time outside every layer.
    """
    seconds = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)}
    calls = {layer: 0 for layer in LAYERS}
    attrs: dict[str, dict[str, float]] = {}
    for track in tracks:
        spans = track.get("spans", [])
        child_ns = [0] * len(spans)
        for doc in spans:
            if doc["parent"] >= 0:
                child_ns[doc["parent"]] += doc["t1"] - doc["t0"]
        owner: list[str] = []
        for index, doc in enumerate(spans):
            parent = doc["parent"]
            outer = owner[parent] if parent >= 0 else UNATTRIBUTED
            name = doc["name"]
            if (
                doc.get("cat") == SPAN_CAT
                and name in calls
                and outer not in FOLD_INTO.get(name, ())
            ):
                layer = name
                calls[layer] += 1
                for key, value in (doc.get("attrs") or {}).items():
                    if isinstance(value, (int, float)):
                        slot = attrs.setdefault(layer, {})
                        slot[key] = slot.get(key, 0) + value
            else:
                layer = outer
            owner.append(layer)
            self_ns = (doc["t1"] - doc["t0"]) - child_ns[index]
            seconds[layer] += self_ns / 1e9
    return {"seconds": seconds, "calls": calls, "attrs": attrs}

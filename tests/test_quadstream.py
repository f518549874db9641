"""QuadStream equivalence: the draw-level vectorized path and the optional
compiled kernels must match the per-triangle pure-Python reference bit for
bit — same per-frame stats, quad fates, cache counters, per-client memory
bytes, and framebuffer contents on every simulated engine."""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

import repro
from repro.gpu import _native
from repro.gpu.clipper import ScreenTriangles
from repro.gpu.rasterizer import rasterize_draw
from repro.gpu.stats import MemClient
from repro.workloads import build_workload

ENGINES = ["UT2004/Primeval", "Doom3/trdemo2", "Quake4/demo4"]
FRAMES = 1


def _simulate(name: str, vectorized: bool):
    workload = build_workload(name, sim=True)
    sim = workload.simulator()
    sim.config = dataclasses.replace(sim.config, vectorized=vectorized)
    result = sim.run_trace(workload.trace(frames=FRAMES), max_frames=FRAMES)
    return sim, result


def _fingerprint(sim, result) -> dict:
    return {
        "frame_stats": [dataclasses.asdict(fs) for fs in result.frame_stats],
        "quad_fates": [dict(fs.quad_fates) for fs in result.frame_stats],
        "caches": {
            cname: (cache.hits, cache.misses, cache.accesses)
            for cname, cache in result.caches.items()
        },
        "memory": {
            client: (result.memory.reads[client], result.memory.writes[client])
            for client in MemClient
        },
        "fb": _fb_hash(sim.fb),
    }


@functools.lru_cache(maxsize=None)
def _run(name: str, vectorized: bool):
    """One simulation per (engine, path), shared across the test cases."""
    return _fingerprint(*_simulate(name, vectorized))


def _fb_hash(fb) -> str:
    h = hashlib.sha256()
    h.update(fb.color.tobytes())
    h.update(fb.z.tobytes())
    h.update(fb.stencil.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", ENGINES)
def test_quadstream_matches_per_triangle(name):
    stream = _run(name, True)
    classic = _run(name, False)
    assert stream["frame_stats"] == classic["frame_stats"]
    assert stream["quad_fates"] == classic["quad_fates"]
    assert stream["caches"] == classic["caches"]
    for client in MemClient:
        if client is not MemClient.ZSTENCIL:  # see the xfail test below
            assert stream["memory"][client] == classic["memory"][client], client
    assert stream["fb"] == classic["fb"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP 'Make memory traffic exact on the fast paths': the "
        "QuadStream path probes z-block compressibility at dirty "
        "evictions against end-of-draw z contents, so its Z&Stencil "
        "bytes differ from the per-triangle oracle"
    ),
)
@pytest.mark.parametrize("name", ENGINES)
def test_quadstream_zstencil_bytes_match_per_triangle(name):
    stream = _run(name, True)
    classic = _run(name, False)
    assert (
        stream["memory"][MemClient.ZSTENCIL]
        == classic["memory"][MemClient.ZSTENCIL]
    )


def test_native_kernels_match_python(monkeypatch):
    """The compiled kernels are a pure accelerator: forcing the Python
    fallbacks must reproduce the identical simulation, memory bytes and
    framebuffer included."""
    name = ENGINES[0]
    with_native = _run(name, True)
    monkeypatch.setattr(_native, "available", lambda: False)
    without = _fingerprint(*_simulate(name, True))
    assert without == with_native


def _random_triangles(count: int, seed: int = 7) -> ScreenTriangles:
    rng = np.random.default_rng(seed)
    return ScreenTriangles(
        xy=rng.uniform(-8.0, 72.0, size=(count, 3, 2)),
        z=rng.uniform(0.0, 1.0, size=(count, 3)),
        inv_w=rng.uniform(0.5, 2.0, size=(count, 3)),
        uv=rng.uniform(0.0, 8.0, size=(count, 3, 2)),
        color=rng.uniform(0.0, 1.0, size=(count, 3, 4)),
        front=rng.random(count) > 0.3,
        parent=np.arange(count),
    )


def test_rasterize_draw_chunking_invariant():
    """Chunking only bounds peak memory — a tiny chunk budget must emit the
    identical stream, quad for quad and bit for bit."""
    tris = _random_triangles(40)
    whole = rasterize_draw(tris, 64, 64)
    chunked = rasterize_draw(tris, 64, 64, chunk_quads=64)
    assert whole is not None and chunked is not None
    for field in ("qx", "qy", "cover", "z", "uv", "color", "tri", "front"):
        np.testing.assert_array_equal(
            getattr(whole, field), getattr(chunked, field)
        )


def test_facade_exports():
    for attr in (
        "simulate",
        "api_stats",
        "characterize",
        "ExperimentConfig",
        "GpuConfig",
    ):
        assert attr in repro.__all__
        assert callable(getattr(repro, attr))


def test_runner_simulation_shim_removed():
    """The 1.x ``Runner.simulation`` deprecation shim is gone in 2.0."""
    from repro.experiments.runner import ExperimentConfig, Runner

    runner = Runner(ExperimentConfig(sim_frames=1))
    assert not hasattr(runner, "simulation")
    assert repro.__version__.split(".")[0] == "2"

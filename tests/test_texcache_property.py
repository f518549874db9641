"""Property test: the compiled texture kernel against the numpy reference.

``TextureUnit`` runs the covered lanes' bilinear probes through its L0/L1
caches either in one compiled pass (``_native.texcache``) or, with no
native kernels, by building the probe-major reference stream in numpy and
walking it through :class:`repro.gpu.caches.Cache`.  The two must agree
bit for bit on every request and bilinear tally, hit/miss/access counter,
per-set LRU order, texture memory byte and returned color — for any
filter, coverage mask, texture shape and format, across consecutive calls
on warm caches, and for cache geometries of any size.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import _native
from repro.gpu.config import CacheConfig, GpuConfig
from repro.gpu.memory import MemoryController
from repro.gpu.stats import MemClient
from repro.gpu.texture import (
    TextureFilter,
    TextureFormat,
    TextureResource,
    TextureUnit,
)

pytestmark = pytest.mark.skipif(
    not _native.available(), reason="native kernels unavailable"
)

MAX_ANISO = 80  # above the 64 probes per lane the kernel once refused

#: (L0, L1) geometries as (lines, ways, line_bytes): tiny ones that evict
#: constantly, multi-set ones with power-of-two and other set counts, the
#: R520 defaults, and ones above 4096 slots.
GEOMETRIES = [
    ((1, 1, 64), (1, 1, 64)),
    ((2, 2, 64), (4, 2, 32)),
    ((4, 4, 64), (8, 4, 64)),
    ((9, 3, 64), (15, 3, 48)),
    ((8, 1, 64), (16, 4, 64)),
    ((64, 64, 64), (256, 16, 64)),
    ((8192, 8, 64), (16384, 16, 128)),
]


def _cache(lines: int, ways: int, line_bytes: int, name: str) -> CacheConfig:
    return CacheConfig(lines * line_bytes, line_bytes, ways, name)


def _resource(width: int, height: int, fmt: TextureFormat) -> TextureResource:
    rng = np.random.default_rng(width * 131 + height)
    image = rng.random((height, width, 4), dtype=np.float32)
    if width & (width - 1) == 0 and height & (height - 1) == 0:
        return TextureResource.from_image("t", image, fmt)
    # Non-power-of-two chains (wrap by modulo) built by decimation.
    mips = [image]
    while mips[-1].shape[0] > 1 or mips[-1].shape[1] > 1:
        mips.append(np.ascontiguousarray(mips[-1][::2, ::2]))
    return TextureResource("t", mips, fmt)


def _unit(geometry, resource, filter, aniso) -> TextureUnit:
    (l0, l1) = geometry
    config = GpuConfig(
        texture_l0=_cache(*l0, "texture_l0"),
        texture_l1=_cache(*l1, "texture_l1"),
        max_anisotropy=MAX_ANISO,
    )
    unit = TextureUnit(config, MemoryController())
    unit.register(resource)
    unit.bind(0, resource.name)
    unit.set_filter(filter, aniso)
    return unit


def _state(unit: TextureUnit) -> dict:
    return {
        "stats": (unit.stats.requests, unit.stats.bilinear_samples),
        "caches": [
            (cache.hits, cache.misses, cache.accesses)
            for cache in (unit.l0, unit.l1)
        ],
        "lru": [
            [list(cache_set.items()) for cache_set in cache._sets]
            for cache in (unit.l0, unit.l1)
        ],
        "texture_bytes": unit.memory.reads[MemClient.TEXTURE],
    }


coord = st.floats(-2.0, 3.0, allow_nan=False, allow_infinity=False)
deriv = st.one_of(
    st.just(0.0),
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    st.floats(-1e-3, 1e-3, allow_nan=False, allow_infinity=False),
)
quad = st.tuples(coord, coord, deriv, deriv, deriv, deriv)
call = st.tuples(
    st.lists(quad, min_size=1, max_size=16),
    st.one_of(st.none(), st.integers(0, (1 << 48) - 1)),  # coverage bits
    st.booleans(),  # invalidate_caches before the call
)


def _coords(quads) -> np.ndarray:
    rows = []
    for u0, v0, dudx, dvdx, dudy, dvdy in quads:
        rows += [
            (u0, v0),
            (u0 + dudx, v0 + dvdx),
            (u0 + dudy, v0 + dvdy),
            (u0 + dudx + dudy, v0 + dvdx + dvdy),
        ]
    coords = np.zeros((len(rows), 4))
    coords[:, :2] = rows
    coords[:, 3] = 1.0
    return coords


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    width=st.sampled_from([4, 8, 32, 128, 12]),
    height=st.sampled_from([4, 16, 64, 20]),
    fmt=st.sampled_from(list(TextureFormat)),
    filter=st.sampled_from(list(TextureFilter)),
    aniso=st.sampled_from([1, 4, 16, MAX_ANISO]),
    calls=st.lists(call, min_size=1, max_size=4),
)
@example(
    geometry=GEOMETRIES[-1],
    width=128,
    height=64,
    fmt=TextureFormat.DXT1,
    filter=TextureFilter.ANISOTROPIC,
    aniso=MAX_ANISO,
    calls=[
        ([(0.1, 0.2, 1.0, 0.0, 0.0, 1e-4)] * 3, None, False),
        ([(0.4, -0.3, 0.5, 0.01, 0.0, 0.0)], 0b0101, True),
    ],
)
def test_native_texcache_matches_numpy_walk(
    geometry, width, height, fmt, filter, aniso, calls
):
    resource = _resource(width, height, fmt)
    native = _unit(geometry, resource, filter, aniso)
    reference = _unit(geometry, resource, filter, aniso)
    for quads, bits, invalidate in calls:
        coords = _coords(quads)
        coverage = None
        if bits is not None:
            lanes = np.arange(coords.shape[0])
            coverage = ((bits >> (lanes % 48)) & 1).astype(bool)
        results = []
        for unit, use_native in ((native, True), (reference, False)):
            if invalidate:
                unit.invalidate_caches()
            unit.set_coverage(coverage)
            with mock.patch.object(_native, "available", lambda: use_native):
                results.append(unit(0, coords))
        assert np.array_equal(results[0], results[1])
        assert _state(native) == _state(reference)


def test_kernel_runs_past_the_old_bounds():
    """A geometry above 4096 slots and 80-probe lanes run natively
    (two mip levels per probe, two footprint corners per level)."""
    resource = _resource(128, 64, TextureFormat.DXT1)
    unit = _unit(GEOMETRIES[-1], resource, TextureFilter.ANISOTROPIC, MAX_ANISO)
    coords = _coords([(0.1, 0.2, 1.0, 0.0, 0.0, 1e-4)])
    with mock.patch.object(
        TextureUnit, "_simulate_cache_numpy", side_effect=AssertionError
    ):
        unit(0, coords)
    assert unit.stats.bilinear_samples == 4 * MAX_ANISO * 2
    assert unit.l0.accesses == 4 * MAX_ANISO * 2 * 2


def test_non_finite_footprint_rejected():
    resource = _resource(32, 32, TextureFormat.DXT1)
    unit = _unit(GEOMETRIES[1], resource, TextureFilter.BILINEAR, 1)
    coords = _coords([(0.1, 0.2, 0.01, 0.0, 0.0, 0.01)])
    coords[1, 0] = np.nan
    before = _state(unit)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        unit(0, coords)
    assert _state(unit) == before

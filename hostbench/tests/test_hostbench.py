"""Tests of the benchmark itself, on seconds-scale stand-ins of each workload.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from hostbench import layers, reference, run
from hostbench.workloads import TINY, VARIANTS, WORKLOADS, variant

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return {name: reference.obtain(w, 0, tiny=True) for name, w in TINY.items()}


def _passes(name, refs, tmp_path, trace=False, seconds=0.0, tiny_refs=None):
    return run.run_passes(
        TINY[name], 0, seconds, trace, tiny_refs or refs[name], str(tmp_path)
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name, refs, tmp_path):
    records = _passes(name, refs, tmp_path)
    assert len(records) == TINY[name].min_passes
    for outcome in (r["outcome"] for r in records):
        assert outcome.ops and all(outcome.ops)
    setups = run.setup_samples(TINY[name], 0, records, str(tmp_path))
    assert len(setups) == run.SETUP_SAMPLES
    metrics = run.end_to_end(records, 0.5, setups)
    assert set(metrics) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_consecutive_passes_repeat_modelled_counts(refs, tmp_path):
    first, second = (r["outcome"] for r in _passes("timedemo-store", refs, tmp_path))
    assert first.counts == second.counts
    assert first.counts["farm.drawcache.hit_rate"] == 1.0
    assert all(first.ops) and all(second.ops)


def test_traced_pass_repeats_untraced_counts(refs, tmp_path):
    untraced, traced = _passes("r520-frame", refs, tmp_path, trace=True)
    assert not untraced["traced"] and traced["traced"]
    assert untraced["outcome"].counts == traced["outcome"].counts
    seconds = traced["layers"]["seconds"]
    assert seconds["gpu.texture"] > 0 and seconds["gpu.raster"] > 0
    assert layers._installed == []  # wrappers come off after the pass


def test_worker_spans_come_back_through_sidecars(refs, tmp_path):
    workload = TINY["timedemo-store"]
    if workload.farm_width < 2:
        pytest.skip("one CPU: the farm runs in-process, with no workers")
    traced = _passes("timedemo-store", refs, tmp_path, trace=True)[1]
    assert traced["traced"]
    assert traced["outcome"].timings["farm.spawn_s"] > 0
    # Every game was simulated and stored in a worker, never in the parent.
    assert traced["layers"]["calls"]["farm.store.save"] >= len(workload.games)
    assert traced["layers"]["seconds"]["gpu.texture"] > 0


def test_corrupted_reference_is_a_counted_failure(refs, tmp_path):
    bad = copy.deepcopy(refs["r520-frame"])
    (game,) = bad
    bad[game]["frames"][0]["fragments_rasterized"] += 1
    for record in _passes("r520-frame", refs, tmp_path, tiny_refs=bad):
        assert record["outcome"].ops == [False]

    bad = copy.deepcopy(refs["api-characterize"])
    first = sorted(bad)[0]
    bad[first]["frames"][0]["batches"] += 1
    for record in _passes("api-characterize", refs, tmp_path, tiny_refs=bad):
        assert record["outcome"].ops.count(False) == 1


def test_zstencil_gap_is_reported_not_failed(refs, tmp_path):
    bad = copy.deepcopy(refs["timedemo-store"])
    for ref in bad.values():
        ref["memory"]["zstencil"][0] += 64
    outcome = _passes("timedemo-store", refs, tmp_path, tiny_refs=bad)[0]["outcome"]
    assert all(outcome.ops)
    games = len(TINY["timedemo-store"].games)
    gap = outcome.counts["gpu.mem.zstencil.bytes_vs_oracle"]
    assert gap == pytest.approx(-64 * games + _gap(refs["timedemo-store"], outcome))


def _gap(refs, outcome):
    return outcome.counts["gpu.mem.zstencil.bytes"] - sum(
        sum(ref["memory"]["zstencil"]) for ref in refs.values()
    )


def test_every_input_variant_has_committed_references():
    assert variant(VARIANTS + 3) == 3
    for workload in WORKLOADS.values():
        for seed in range(VARIANTS):
            doc = json.loads(reference.committed_path(workload, seed).read_text())
            assert (doc["seed"], doc["size"]) == (seed, workload.size)
            assert sorted(doc["runs"]) == sorted(workload.games)


def test_metric_names_and_units():
    spec = _spec()
    per_layer = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    for metric in spec["per_layer"]:
        assert metric["unit"] == per_layer[metric["name"]]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])


def test_benchmark_records_why_each_workload():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    assert spec["command"] == ["python3", "hostbench/run.py"]


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "hostbench", tmp_path / "hostbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "r520-frame",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

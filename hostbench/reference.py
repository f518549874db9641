"""Reference fingerprints, the per-triangle oracle, and their comparison.

GPU references come from the per-triangle oracle (``GpuConfig(vectorized=
False)``): per-frame ``FrameGpuStats.as_dict``, the hit/miss/access triple
of every cache, per-client memory bytes and, where the simulator is at
hand, the framebuffer digest.  API references are the per-frame
``WorkloadApiStats`` contents.  The references of every input variant
(``workloads.VARIANTS``) at full size are committed under
``hostbench/refs/``; any other seed or size is computed in child processes
(by the oracle, for the GPU workloads) before the timed passes, outside
set-up, and kept under ``.hostbench/refs/`` keyed by the source
fingerprint.

The default QuadStream path reads and writes fewer Z&Stencil bytes than the
oracle (a known approximation of eviction-time compressibility).  That gap
is reported as ``gpu.mem.zstencil.bytes_vs_oracle`` rather than checked;
every other byte count must match exactly.

Regenerate the committed references (about 15 minutes on two CPUs) with::

    python3 hostbench/reference.py --write
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

if __name__ == "__main__":
    _ROOT = pathlib.Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.gpu.stats import MemClient

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
COMMITTED = HERE / "refs"
CACHE = ROOT / ".hostbench" / "refs"

#: The client whose bytes the fast path approximates (see module docstring).
GAP_CLIENT = MemClient.ZSTENCIL.name.lower()


def _normal(doc):
    """JSON round trip, so fingerprints compare like their stored form."""
    return json.loads(json.dumps(doc, sort_keys=True))


def gpu_fingerprint(result, fb=None) -> dict:
    doc = {
        "frames": [fs.as_dict() for fs in result.frame_stats],
        "caches": {
            name: [cache.hits, cache.misses, cache.accesses]
            for name, cache in sorted(result.caches.items())
        },
        "memory": {
            client.name.lower(): [
                result.memory.reads[client], result.memory.writes[client]
            ]
            for client in MemClient
        },
    }
    if fb is not None:
        digest = hashlib.sha256()
        for plane in (fb.color, fb.z, fb.stencil):
            digest.update(plane.tobytes())
        doc["framebuffer"] = digest.hexdigest()
    return _normal(doc)


def api_fingerprint(stats) -> dict:
    frames = []
    for frame in stats.frames:
        doc = dataclasses.asdict(frame)
        doc["primitives"] = {
            prim.name: count for prim, count in sorted(
                frame.primitives.items(), key=lambda item: item[0].name
            )
        }
        frames.append(doc)
    return _normal({
        "name": stats.name,
        "index_size_bytes": stats.index_size_bytes,
        "frames": frames,
    })


def check_gpu(fingerprints: dict, refs: dict, missing_frames: int = 1):
    """Per-frame pass/fail against ``refs``, plus the pass's modelled counts.

    Run-level fields (caches, memory, framebuffer) are checked with the
    run's last frame.  A game missing from ``fingerprints`` fails
    ``missing_frames`` operations.
    """
    ops: list[bool] = []
    counts: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    for game, ref in sorted(refs.items()):
        got = fingerprints.get(game)
        if got is None:
            ops.extend([False] * missing_frames)
            continue
        frames = [
            i < len(got["frames"]) and got["frames"][i] == expected
            for i, expected in enumerate(ref["frames"])
        ]
        run_ok = (
            len(got["frames"]) == len(ref["frames"])
            and got["caches"] == ref["caches"]
            and got.get("framebuffer") == ref.get("framebuffer")
            and all(
                got["memory"][client] == bytes_
                for client, bytes_ in ref["memory"].items()
                if client != GAP_CLIENT
            )
        )
        if frames and not run_ok:
            frames[-1] = False
        ops.extend(frames)
        add(
            f"gpu.mem.{GAP_CLIENT}.bytes_vs_oracle",
            sum(got["memory"][GAP_CLIENT]) - sum(ref["memory"][GAP_CLIENT]),
        )
    for got in fingerprints.values():
        for fs in got["frames"]:
            add("gpu.fragments", fs["fragments_rasterized"])
            add("gpu.quads", fs["quads_rasterized"])
            add("gpu.texture.requests", fs["texture_requests"])
            add("gpu.texture.bilinear_samples", fs["bilinear_samples"])
        for name, (hits, misses, _) in got["caches"].items():
            add(f"gpu.cache.{name}.hits", hits)
            add(f"gpu.cache.{name}.misses", misses)
        for client, (reads, writes) in got["memory"].items():
            add(f"gpu.mem.{client}.bytes", reads + writes)
    return ops, counts


#: Child processes the oracle's games are split across.  References are
#: computed before any timed pass, so they cannot disturb a measurement.
ORACLE_PROCESSES = 2


def committed_path(workload, seed: int) -> pathlib.Path:
    return COMMITTED / f"{workload.name}-s{seed}.json"


def cache_path(workload, seed: int) -> pathlib.Path:
    from repro.farm.version import code_version

    return CACHE / f"{workload.name}-{workload.size}-s{seed}-{code_version()}.json"


def load(workload, seed: int) -> dict | None:
    """Stored references for ``workload`` at ``seed``, or ``None``."""
    for path in (committed_path(workload, seed), cache_path(workload, seed)):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if doc.get("size") == workload.size and doc.get("seed") == seed:
            return doc["runs"]
    return None


def save(workload, seed: int, runs: dict, path: pathlib.Path) -> None:
    doc = {"workload": workload.name, "seed": seed, "size": workload.size,
           "runs": runs}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


def obtain(workload, seed: int, tiny: bool = False) -> dict:
    """References for a run: stored ones, or computed by the oracle now."""
    refs = load(workload, seed)
    if refs is None:
        refs = compute(workload, seed, tiny)
        save(workload, seed, refs, cache_path(workload, seed))
    return refs


def compute(workload, seed: int, tiny: bool = False) -> dict:
    """References computed now, by the oracle for the GPU workloads.

    The games are split across :data:`ORACLE_PROCESSES` child processes,
    each printing its share as JSON.
    """
    shares = [workload.games[i::ORACLE_PROCESSES] for i in range(ORACLE_PROCESSES)]
    children = []
    for games in filter(None, shares):
        command = [sys.executable, str(HERE / "reference.py"),
                   "--workload", workload.name, "--seed", str(seed),
                   "--games", ",".join(games)]
        if tiny:
            command.append("--tiny")
        children.append(subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE))
    outputs = [child.communicate()[0] for child in children]
    refs = {}
    for child, out in zip(children, outputs):
        if child.returncode != 0:
            raise RuntimeError(f"oracle for {workload.name} exited {child.returncode}")
        refs.update(json.loads(out))
    return refs


def main(argv=None) -> int:
    from hostbench.workloads import TINY, VARIANTS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--games", help="comma-separated share of the games")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the committed references of every workload and variant",
    )
    args = parser.parse_args(argv)
    if args.write:
        for workload in WORKLOADS.values():
            for seed in range(VARIANTS):
                path = committed_path(workload, seed)
                save(workload, seed, compute(workload, seed), path)
                print(f"wrote {path}")
        return 0
    if args.workload is None or args.games is None:
        parser.error("--write, or --workload with --games, is required")
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    json.dump(workload.reference(args.seed, args.games.split(",")), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: set-up, one timed pass, and its checks.

Each workload is a closed loop with one client: a pass is issued only after
the previous one finished.  ``prepare`` builds a pass's inputs from the
benchmark seed and is timed as set-up; ``run`` is the timed pass.  The
benchmark seed ``n`` picks the input variant ``n % VARIANTS``
(:func:`variant`), which reaches the program only as
``JobSpec(seed=registered + variant)`` for each game, so seed 0 is the
paper's registered inputs.

An *operation* is a frame on ``r520-frame`` and ``timedemo-store`` (the
cold and rerun passes each simulate every frame once) and a game on
``api-characterize``.  Every operation is checked against a reference; a
mismatch or an exception fails that operation and the pass goes on.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback

from repro import observe
from repro.api.tracer import ApiTracer
from repro.experiments import paper
from repro.farm import checkpoint, drawcache
from repro.farm.executor import Farm
from repro.farm.job import JobSpec
from repro.farm.store import ArtifactStore
from repro.gpu.config import GpuConfig
from repro.workloads.registry import workload as lookup

from hostbench import procstat, reference


#: Input variants.  Their oracle references are committed, so a full-size
#: run never spends its time computing references, and ten consecutive
#: seeds still draw ten different scenes.
VARIANTS = 16


def variant(seed: int) -> int:
    """The input variant benchmark seed ``seed`` draws."""
    return seed % VARIANTS


def job_seed(game: str, seed: int) -> int:
    return lookup(game).seed + seed


def isolate() -> None:
    """Drop in-process state a previous pass could hand to the next one."""
    checkpoint.clear_trace_cache()
    observe.metrics.reset()


def _report(where: str) -> None:
    print(f"hostbench: {where} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


#: Fewest passes a run makes.  The host's speed wanders by tens of percent
#: in spells of seconds to minutes, so a run averages over at least two.
MIN_PASSES = 2


@dataclasses.dataclass
class PassOutcome:
    seconds: float
    ops: list[bool]
    #: Modelled work done: bilinear texture samples on the GPU workloads,
    #: traced API frames on ``api-characterize``.
    work: int
    counts: dict[str, float] = dataclasses.field(default_factory=dict)
    timings: dict[str, float] = dataclasses.field(default_factory=dict)
    written_bytes: int = 0
    peak_rss_bytes: int = 0


class R520Frame:
    """UT2004/Primeval frame 1 on the Table II R520 at full resolution.

    The default QuadStream path through ``GpuSimulator.run_trace``, with no
    farm and no store: the GPU stages do nearly all the work, texture
    sampling the largest share of it.
    """

    name = "r520-frame"
    games = ("UT2004/Primeval",)
    min_passes = MIN_PASSES

    def __init__(self, width: int = 1024, height: int = 768):
        self.width = width
        self.height = height
        self.size = f"{width}x{height}"

    def jobs(self, seed: int, games=None) -> list[JobSpec]:
        return [
            JobSpec("api", game, 1, seed=job_seed(game, seed))
            for game in games or self.games
        ]

    def config(self, oracle: bool = False) -> GpuConfig:
        config = GpuConfig.r520(self.width, self.height)
        return dataclasses.replace(config, vectorized=False) if oracle else config

    def reference(self, seed: int, games) -> dict:
        (job,) = self.jobs(seed, games)
        workload = checkpoint.build_job_workload(job)
        sim = workload.simulator(self.config(oracle=True))
        result = sim.run_trace(workload.trace(frames=1).materialize(), max_frames=1)
        return {job.workload: reference.gpu_fingerprint(result, sim.fb)}

    def prepare(self, seed: int, scratch: str):
        isolate()
        (job,) = self.jobs(seed)
        workload = checkpoint.build_job_workload(job)
        trace = workload.trace(frames=1).materialize()
        return workload.simulator(self.config()), trace

    def run(self, state, refs: dict) -> PassOutcome:
        sim, trace = state
        snap = procstat.TreeSnapshot()
        start = time.perf_counter()
        result = sim.run_trace(trace, max_frames=1)
        seconds = time.perf_counter() - start
        ops, counts = reference.check_gpu(
            {self.games[0]: reference.gpu_fingerprint(result, sim.fb)}, refs
        )
        return PassOutcome(
            seconds, ops, result.stats.bilinear_samples, counts,
            written_bytes=snap.written(), peak_rss_bytes=snap.peak_rss(),
        )

    def cleanup(self, state) -> None:
        pass


class TimedemoStore:
    """The simulated engines through the farm and store, cold then rerun.

    Cold: ``Farm.run`` on a fresh store, checkpointing every frame and
    recording draw-cache frames.  Rerun: each game replayed from that store
    through ``run_trace_incremental`` with a fresh draw cache and a fresh
    simulator, which only reads.  The simulators are built in set-up, as
    ``r520-frame`` builds its own, so the rerun times the store and the
    draw cache.
    """

    name = "timedemo-store"
    min_passes = MIN_PASSES

    def __init__(self, frames: int = 2, games=tuple(paper.SIMULATED)):
        self.frames = frames
        self.games = tuple(games)
        self.farm_width = min(2, os.cpu_count() or 1)
        self.size = f"{frames}f-{len(self.games)}g"

    def jobs(self, seed: int, games=None) -> list[JobSpec]:
        return [
            JobSpec("sim", game, self.frames, seed=job_seed(game, seed))
            for game in games or self.games
        ]

    def reference(self, seed: int, games) -> dict:
        refs = {}
        for job in self.jobs(seed, games):
            workload = checkpoint.build_job_workload(job)
            fast = workload.simulator(job.config).config
            sim = workload.simulator(dataclasses.replace(fast, vectorized=False))
            trace = workload.trace(frames=job.frames).materialize()
            result = sim.run_trace(trace, max_frames=job.frames)
            refs[job.workload] = reference.gpu_fingerprint(result)
        return refs

    def prepare(self, seed: int, scratch: str):
        isolate()
        root = tempfile.mkdtemp(prefix="store-", dir=scratch)
        farm = Farm(
            store=ArtifactStore(root), jobs=self.farm_width, incremental=True,
            strict=False,
        )
        jobs = self.jobs(seed)
        sims = [checkpoint.build_job_workload(job).simulator(job.config)
                for job in jobs]
        return farm, jobs, sims

    def run(self, state, refs: dict) -> PassOutcome:
        farm, jobs, sims = state
        store = farm.store
        snap = procstat.TreeSnapshot()
        start = time.perf_counter()
        try:
            cold = farm.run(jobs)
        except Exception:
            _report("cold pass")
            cold = {}
        cold_s = time.perf_counter() - start
        snap.workers()
        farm.close()
        _wait_for_children()

        rerun, hits, misses = {}, 0, 0
        mark = time.perf_counter()
        for job, sim in zip(jobs, sims):
            try:
                cache = drawcache.job_drawcache(job, store)
                rerun[job.workload] = drawcache.run_trace_incremental(
                    sim, store.load_trace(job), cache, max_frames=job.frames
                )
            except Exception:
                _report(f"rerun of {job.workload}")
                continue
            hits += cache.hits
            misses += cache.misses
        rerun_s = time.perf_counter() - mark

        samples = sum(r.stats.bilinear_samples for r in cold.values())
        ops, counts = reference.check_gpu(
            {job.workload: reference.gpu_fingerprint(cold[job])
             for job in jobs if job in cold}, refs, missing_frames=self.frames,
        )
        rerun_ops, _ = reference.check_gpu(
            {name: reference.gpu_fingerprint(r) for name, r in rerun.items()},
            refs, missing_frames=self.frames,
        )
        counts.update({
            "farm.drawcache.hits": hits,
            "farm.drawcache.misses": misses,
            "farm.drawcache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "farm.retries": farm.telemetry.retries,
        })
        timings = {f"farm.{phase}_s": seconds
                   for phase, seconds in farm.telemetry.phases.items()}
        timings.update({"cold_s": cold_s, "rerun_s": rerun_s})
        return PassOutcome(
            cold_s + rerun_s, ops + rerun_ops, samples, counts, timings,
            written_bytes=snap.written(), peak_rss_bytes=snap.peak_rss(),
        )

    def cleanup(self, state) -> None:
        farm = state[0]
        farm.close()
        _wait_for_children()
        shutil.rmtree(farm.store.root, ignore_errors=True)


class ApiCharacterize:
    """Every Table I game at the full API profile, with no farm and no GPU.

    Each game is built, its call stream generated and traced with
    ``ApiTracer.trace_stats``: the inputs of Tables I, III-VI and XII and
    Figs. 1-4.  Scene build (Doom3/Quake4 shadow-volume extrusion)
    dominates.
    """

    name = "api-characterize"
    #: A pass takes 10-17 s, longer than a run's ``--seconds``.  On a shared
    #: two-CPU host, ten runs timed on one or two passes each spread by up
    #: to 28% of their median between quartiles.
    min_passes = 3

    def __init__(self, frames: int = 4, games=tuple(paper.WORKLOAD_ORDER)):
        self.frames = frames
        self.games = tuple(games)
        self.size = f"{frames}f-{len(self.games)}g"

    def jobs(self, seed: int, games=None) -> list[JobSpec]:
        return [
            JobSpec("api", game, self.frames, seed=job_seed(game, seed))
            for game in games or self.games
        ]

    def reference(self, seed: int, games) -> dict:
        # There is no second API path to check against: the reference is a
        # clean run of the same calls in a fresh process.
        return {
            job.workload: reference.api_fingerprint(self._stats(job))
            for job in self.jobs(seed, games)
        }

    @staticmethod
    def _stats(job: JobSpec):
        workload = checkpoint.build_job_workload(job)
        trace = workload.trace(frames=job.frames).materialize()
        return ApiTracer(workload.programs).trace_stats(trace)

    def prepare(self, seed: int, scratch: str):
        isolate()
        return self.jobs(seed)

    def run(self, state, refs: dict) -> PassOutcome:
        snap = procstat.TreeSnapshot()
        stats = {}
        start = time.perf_counter()
        for job in state:
            try:
                stats[job.workload] = self._stats(job)
            except Exception:
                _report(f"{job.workload}")
        seconds = time.perf_counter() - start
        ops = [
            job.workload in stats
            and reference.api_fingerprint(stats[job.workload]) == refs.get(job.workload)
            for job in state
        ]
        counts = {
            "api.batches": sum(s.total_batches for s in stats.values()),
            "api.state_calls": sum(
                f.state_calls for s in stats.values() for f in s.frames
            ),
        }
        frames = sum(s.frame_count for s in stats.values())
        return PassOutcome(
            seconds, ops, frames, counts,
            written_bytes=snap.written(), peak_rss_bytes=snap.peak_rss(),
        )

    def cleanup(self, state) -> None:
        pass


def _wait_for_children(timeout: float = 60.0) -> None:
    """Block until every process this one started has exited.

    Pool workers get ``timeout`` seconds to finish on their own, then are
    killed.
    """
    deadline = time.monotonic() + timeout
    while pids := procstat.descendants():
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


WORKLOADS = {w.name: w for w in (R520Frame(), TimedemoStore(), ApiCharacterize())}

#: Seconds-scale stand-ins for the tests: same code paths, tiny inputs.
TINY = {
    w.name: w
    for w in (
        R520Frame(64, 48),
        TimedemoStore(frames=1, games=("UT2004/Primeval", "Riddick/MainFrame")),
        ApiCharacterize(frames=1, games=("UT2004/Primeval", "Riddick/MainFrame")),
    )
}

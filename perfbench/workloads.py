"""The benchmark's workloads and the closed loops that drive them.

Every workload is a closed loop: one caller sends a request and waits for
the reply before it sends the next.  Inputs are generated from the
benchmark seed; each timed iteration gets a distinct input of the same
shape, so no result cache can answer it (``rt_service`` repeats every
third submission on purpose, to measure cache hits).  The workloads set
only ``persistence``, ``ranks``, ``merge_radix``, ``hierarchy`` and
``workers``; every other knob stays at the program's default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

import repro
from repro import ExecutionOptions
from repro.core.merge import pack_complex, unpack_complex
from repro.data.datasets import rayleigh_taylor_sequence
from repro.io.mscfile import read_msc_file, serialize_payload
from repro.morse.msc import MorseSmaleComplex
from repro.morse.validate import assert_ms_complex_valid

from benchlib import Tally, derive_seed, euler_sum, sha256_blobs

#: the seed the committed reference outputs were made with
DEFAULT_SEED = 1
#: compute-pool width; fits a 2-core host
WORKERS = 2
#: cold set-ups per timed run (the median is reported)
SETUPS = 3
#: queries after each service job; every fourth one asks for a top-k
QUERIES_PER_JOB = 200
#: RT steps per generated sequence
RT_STEPS = 8
#: submissions per sequence: 8 new steps and 4 repeats
RT_CYCLE = 3 * RT_STEPS // 2
#: input index of the set-up / reference input; never a timed index
WARM_INDEX = RT_STEPS * 999_999 + RT_STEPS - 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dims: tuple[int, int, int]
    ranks: int
    merge_radix: int
    persistence: float
    #: capture the cancellation hierarchy (service workload only)
    hierarchy: bool = False
    #: run through ``repro.open_service`` instead of a session
    service: bool = False

    @property
    def vertices(self) -> int:
        return int(np.prod(self.dims))

    def input(self, seed: int, i: int) -> np.ndarray:
        """Input ``i`` of this workload under benchmark seed ``seed``."""
        return _make_input(self.name, self.dims, seed, i)

    def reference_input(self) -> np.ndarray:
        """The set-up and reference input; the same under every seed."""
        return self.input(DEFAULT_SEED, WARM_INDEX)

    def options(self, workers: int = WORKERS) -> ExecutionOptions:
        return ExecutionOptions(workers=workers, hierarchy=self.hierarchy)

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in about a second."""
        return replace(self, dims=SMOKE_DIMS[self.name])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noise_merge",
            why="uniform noise on 64 tiny blocks merged in 3 radix-4 "
                "rounds: most critical points per vertex, so glue and "
                "re-simplification dominate",
            dims=(21, 21, 21), ranks=64, merge_radix=4, persistence=0.02,
        ),
        Workload(
            name="rt_service",
            why="Rayleigh-Taylor steps through the service: mmap volume "
                "reads, .msc v2 writes, 1/3 cache hits and 200 "
                "hierarchy queries per job",
            dims=(48, 48, 48), ranks=8, merge_radix=8, persistence=0.02,
            hierarchy=True, service=True,
        ),
    )
}

SMOKE_DIMS = {
    "noise_merge": (11, 11, 11),
    "rt_service": (16, 16, 16),
}


def _make_input(name, dims, seed, i) -> np.ndarray:
    if name == "noise_merge":
        rng = np.random.default_rng(derive_seed(seed, i))
        return rng.random(dims)
    if name == "rt_service":
        # step i % 8 of an 8-step sequence; a fresh sequence every 8
        return _rt_round(dims, seed, i // RT_STEPS)[i % RT_STEPS]
    raise KeyError(name)


@lru_cache(maxsize=2)
def _rt_round(dims, seed, round_idx) -> tuple[np.ndarray, ...]:
    return tuple(
        f for _t, f in rayleigh_taylor_sequence(
            dims, RT_STEPS, seed=derive_seed(seed, round_idx)
        )
    )


# -- output digests and checks -------------------------------------------

def result_blobs(result) -> list[bytes]:
    """Packed merged output of a pipeline result, in block-id order."""
    blobs = result.output_blobs or {}
    if set(blobs) != set(result.output_blocks):
        blobs = {b: pack_complex(m) for b, m in result.output_blocks.items()}
    return [blobs[b] for b in sorted(blobs)]


def image_blobs(image: bytes) -> list[bytes]:
    """Packed output blocks of an ``.msc`` file image."""
    blocks = read_msc_file(image)
    return [serialize_payload(blocks[b]) for b in sorted(blocks)]


def check_complexes(tally: Tally, complexes: list[MorseSmaleComplex],
                    what: str) -> None:
    """Merged complexes are well formed and span a contractible domain."""
    for msc in complexes:
        try:
            assert_ms_complex_valid(msc)
            problem = None
        except AssertionError as exc:
            problem = str(exc)
        tally.check(problem is None, f"{what}: invalid complex: {problem}")
    if len(complexes) == 1:
        counts = complexes[0].node_counts_by_index()
        tally.check(euler_sum(counts) == 1,
                    f"{what}: merged Euler sum of {counts} is not 1")


def check_result(tally: Tally, result, what: str) -> str:
    """Validity checks on one pipeline result; returns its digest."""
    check_complexes(tally, result.merged_complexes, what)
    bad = [b.block_id for b in result.stats.block_stats
           if euler_sum(b.critical_counts) != 1]
    tally.check(not bad, f"{what}: Euler sum != 1 in blocks {bad[:5]}")
    return sha256_blobs(result_blobs(result))


def virtual_times(stats) -> dict[str, float]:
    """Virtual Blue Gene/P stage seconds of a run (exact counts model)."""
    return {k: float(v) for k, v in stats.stage_breakdown().items()}


# -- callers: one closed-loop caller over the public facade ---------------

class SessionCaller:
    """``repro.open_session``: one session, one run per request."""

    def __init__(self, wl: Workload, work: Path) -> None:
        self.wl = wl
        self.session = None

    def open(self) -> None:
        wl = self.wl
        self.session = repro.open_session(
            persistence=wl.persistence, ranks=wl.ranks,
            merge_radix=wl.merge_radix, options=wl.options(),
        )

    def request(self, values):
        return self.session.run(values)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class ServiceCaller:
    """``repro.open_service`` over a fresh, empty cache directory."""

    def __init__(self, wl: Workload, work: Path) -> None:
        self.wl = wl
        self.work = work
        self.svc = None
        self._opened = 0

    def open(self) -> None:
        self._opened += 1
        cache = self.work / f"cache{self._opened}"
        self.svc = repro.open_service(str(cache), max_jobs=1)

    def request(self, values):
        wl = self.wl
        job = self.svc.submit(
            values, persistence=wl.persistence, ranks=wl.ranks,
            merge_radix=wl.merge_radix, hierarchy=wl.hierarchy,
            options=wl.options(), wait=True,
        )
        if job.state != "done":
            raise RuntimeError(f"job {job.job_id} {job.state}: {job.error}")
        return job

    def image(self, job) -> bytes:
        return self.svc.artifact_path(job.key).read_bytes()

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


def make_caller(wl: Workload, work: Path):
    return (ServiceCaller if wl.service else SessionCaller)(wl, work)


def query_plan(seed: int, i: int) -> list[tuple[str, float]]:
    """The 200 queries asked after job ``i``: 3/4 thresholds, 1/4 top-k."""
    rng = np.random.default_rng(derive_seed(seed, i, 7))
    out = []
    for q in range(QUERIES_PER_JOB):
        if q % 4 == 3:
            out.append(("top_k", int(rng.integers(1, 40))))
        else:
            out.append(("persistence", float(rng.uniform(0.0, 1.5))))
    return out


def check_image(tally: Tally, image: bytes, what: str) -> str:
    """Validity checks on a service artifact; returns its digest."""
    blobs = image_blobs(image)
    check_complexes(tally, [unpack_complex(b) for b in blobs], what)
    return sha256_blobs(blobs)


@dataclass
class LoopResult:
    """Raw samples of one timed window."""

    #: wall seconds of each pipeline run (service: each cache miss)
    run_s: list = field(default_factory=list)
    #: summed wall seconds of every timed request and query
    window_s: float = 0.0
    #: input vertices of every request sent
    vertices: int = 0
    #: digest of the output of timed input 0 (the replay's input)
    first_digest: str | None = None
    first_image: bytes | None = None
    #: ``result.stats`` of each session run
    stats: list = field(default_factory=list)
    hit_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    query_first_s: list = field(default_factory=list)
    hits: int = 0
    misses: int = 0


def session_loop(drv: SessionCaller, wl: Workload, seed: int,
                 seconds: float, tally: Tally) -> LoopResult:
    """Back-to-back session runs on distinct inputs for ``seconds``."""
    out = LoopResult()
    i = 0
    while out.window_s < seconds:
        values = wl.input(seed, i)
        t = time.perf_counter()
        ok, result = tally.attempt(drv.request, values)
        dt = time.perf_counter() - t
        out.window_s += dt
        out.vertices += wl.vertices
        if ok:
            out.run_s.append(dt)
            out.stats.append(result.stats)
            digest = check_result(tally, result, f"{wl.name} input {i}")
            if i == 0:
                out.first_digest = digest
        i += 1
    return out


def service_loop(drv: ServiceCaller, wl: Workload, seed: int,
                 seconds: float, tally: Tally) -> LoopResult:
    """Submissions with every third one a repeat, 200 queries after each.

    Submission ``j`` sends new step ``2*(j//3) + j%3`` unless
    ``j % 3 == 2``, which repeats the step sent two submissions earlier.
    """
    out = LoopResult()
    first: dict[int, object] = {}
    j = 0
    # stop only after a whole sequence of 8 steps (12 submissions), so
    # every window has the same steps and the same 1/3 share of hits
    while out.window_s < seconds or j % RT_CYCLE:
        repeat = j % 3 == 2
        i = 2 * (j // 3) + (0 if repeat else j % 3)
        values = wl.input(seed, i)
        t = time.perf_counter()
        ok, job = tally.attempt(drv.request, values)
        dt = time.perf_counter() - t
        out.window_s += dt
        out.vertices += wl.vertices
        if ok:
            if repeat:
                out.hits += 1
                out.hit_s.append(dt)
                orig = first.get(i)
                tally.check(
                    job.source == "cache" and orig is not None
                    and job.record == orig.record,
                    f"repeat of step {i} was not answered from the cache "
                    f"with the first answer",
                )
            else:
                out.misses += 1
                out.run_s.append(dt)
                first[i] = job
                image = drv.image(job)
                digest = check_image(tally, image, f"{wl.name} step {i}")
                if i == 0:
                    out.first_digest, out.first_image = digest, image
            out.window_s += _queries(drv, job, query_plan(seed, j),
                                     tally, out)
        j += 1
    return out


def _queries(drv, job, plan, tally: Tally, out: LoopResult) -> float:
    spent = 0.0
    for q, (kind, arg) in enumerate(plan):
        t = time.perf_counter()
        ok, answer = tally.attempt(drv.svc.query, key=job.key,
                                   **{kind: arg})
        dt = time.perf_counter() - t
        spent += dt
        if not ok:
            continue
        (out.query_first_s if q == 0 else out.query_s).append(dt)
        tally.check(euler_sum(answer["node_counts_by_index"]) == 1,
                    f"query {kind}={arg} Euler sum is not 1")
    return spent

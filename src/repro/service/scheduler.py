"""Async job scheduler: many concurrent requests, one computation each.

The scheduler is the service's admission and execution layer.  Every
compute request resolves — in this order — to:

1. a **cache hit**: the content key (volume hash + config result
   fingerprint, :func:`repro.service.store.cache_key`) is already in the
   :class:`~repro.service.store.ResultStore`; the job is born ``done``
   and never touches a pipeline;
2. a **coalesced join**: an identical request is already queued or
   running; the submission attaches to the in-flight job, so N
   identical concurrent submissions run the pipeline exactly once;
3. a **cold compute**: the job is queued, picked up by one of
   ``max_concurrency`` async workers, and executed on a thread-pool
   slot through a long-lived :class:`~repro.core.session.PipelineSession`
   (pools, shm slot, and plans reused across jobs of the same
   configuration — the PR 8 machinery).

Job states: ``queued → running → done | failed``, plus ``cancelled``
for jobs withdrawn before a worker picked them up.  A running pipeline
is never preempted — per-*block* timeouts/retries (the PR 2
fault-tolerance knobs, carried in the request's
:class:`~repro.core.options.ExecutionOptions`) bound the compute from
the inside, while the scheduler's per-*job* timeout bounds how long the
job may hold a worker slot before being declared failed.

Failure isolation: a job whose pipeline raises (e.g. a worker crash
with degradation disabled) becomes ``failed`` with a readable error,
its session is discarded (the next job of that configuration gets a
fresh one), and the scheduler keeps serving subsequent jobs — the chaos
suite pins this.

Everything is observable through the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``service.cache.*``,
``service.coalesced``, ``service.jobs.*``) and tracer spans covering
the request lifecycle (``service.submit``, ``service.job.run``).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Sequence

from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.core.session import PipelineSession
from repro.io.volume import VolumeSpec, content_hash
from repro.obs.metrics import MetricsRegistry, SECONDS_BUCKETS
from repro.obs.trace import Tracer, get_tracer
from repro.service.store import ResultRecord, ResultStore, cache_key

__all__ = [
    "ComputeRequest",
    "Job",
    "JobScheduler",
    "JOB_STATES",
]

#: the job lifecycle vocabulary, in order of appearance
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass(frozen=True)
class ComputeRequest:
    """One service compute request (the body of ``POST /v1/submit``).

    Mirrors the :func:`repro.api.compute` keywords: ``volume`` names
    the input (the service computes over volume files — content the
    cache can address), the rest configure the run.  ``options`` is
    pure scheduling and therefore *not* part of the cache key;
    ``timeout`` bounds the whole job in wall seconds; ``faults`` is the
    deterministic chaos-testing hook and never reaches production
    requests.
    """

    volume: VolumeSpec
    persistence: float = 0.0
    ranks: int = 1
    merge_radix: int | Sequence[int] | str = 2
    hierarchy: bool = False
    options: ExecutionOptions | None = None
    timeout: float | None = None
    faults: Any = None

    def __post_init__(self) -> None:
        if self.timeout is not None and not (
            math.isfinite(self.timeout) and self.timeout > 0
        ):
            raise ValueError(
                "timeout must be None or a finite number > 0, got "
                f"{self.timeout!r}"
            )

    def pipeline_config(self) -> PipelineConfig:
        """The canonical :class:`PipelineConfig` of this request.

        Delegates to the same facade translation every other entry
        point uses (:func:`repro.api._facade_config`), so a request and
        the equivalent ``repro.compute`` / CLI call produce configs with
        identical fingerprints — the spelling-independence the
        fingerprint property suite pins.
        """
        from repro.api import _facade_config

        opts = self.options or ExecutionOptions()
        if self.hierarchy and not opts.hierarchy:
            opts = replace(opts, hierarchy=True)
        return _facade_config(
            persistence=self.persistence,
            ranks=self.ranks,
            merge_radix=self.merge_radix,
            validate=False,
            options=opts,
            faults=self.faults,
            trace=False,
            metrics=False,
        )


@dataclass
class Job:
    """One tracked unit of service work."""

    job_id: str
    key: str
    request: ComputeRequest
    state: str = "queued"
    #: how this job's answer was (or will be) produced: ``cold`` ran
    #: the pipeline, ``cache`` was answered from the store at submit
    source: str = "cold"
    record: ResultRecord | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    #: additional identical submissions that joined this job
    coalesced_submits: int = 0
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self) -> dict:
        """JSON-able status body (the ``GET /v1/jobs/<id>`` answer)."""
        return {
            "job_id": self.job_id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "error": self.error,
            "coalesced_submits": self.coalesced_submits,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "result": self.record.to_dict() if self.record else None,
        }


class _SessionSlot:
    """One configuration's persistent session plus its use lock."""

    __slots__ = ("session", "lock")

    def __init__(self, session: PipelineSession) -> None:
        self.session = session
        self.lock = threading.Lock()


class JobScheduler:
    """Bounded-concurrency asyncio queue feeding persistent sessions.

    Create, ``await start()``, ``await submit(...)`` any number of
    times, ``await close()``.  All coroutine methods must run on one
    event loop; the synchronous pipeline work runs on an internal
    thread pool of ``max_concurrency`` slots, so the loop stays
    responsive while computes are in flight.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        max_concurrency: int = 2,
        default_timeout: float | None = None,
        session_reuse: bool = True,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.store = store
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self.session_reuse = session_reuse
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._workers: list[asyncio.Task] = []
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrency,
            thread_name_prefix="repro-service",
        )
        self._sessions: dict[str, _SessionSlot] = {}
        self._sessions_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._scratch = TemporaryDirectory(prefix="repro-service-")
        self._closed = False

    # -- the public surface ------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._workers:
            return
        self._workers = [
            asyncio.create_task(self._worker(i), name=f"service-worker-{i}")
            for i in range(self.max_concurrency)
        ]

    async def submit(self, request: ComputeRequest) -> Job:
        """Admit one request: cache hit, coalesced join, or fresh job."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        with self.tracer.span("service.submit", cat="service") as span:
            config = request.pipeline_config()
            loop = asyncio.get_running_loop()
            volume_hash = await loop.run_in_executor(
                None, content_hash, request.volume
            )
            key = cache_key(volume_hash, config)
            span.annotate(key=key)

            cached = self.store.get(key)
            if cached is not None:
                record, _image = cached
                job = self._new_job(request, key, state="done",
                                    source="cache")
                job.record = record
                job.finished_at = time.time()
                job.done_event.set()
                self.metrics.counter("service.cache.hits").inc()
                self._journal("cache_hit", job)
                span.annotate(outcome="cache-hit", job=job.job_id)
                return job

            self.metrics.counter("service.cache.misses").inc()
            inflight = self._inflight.get(key)
            if inflight is not None and not inflight.done:
                inflight.coalesced_submits += 1
                self.metrics.counter("service.coalesced").inc()
                self._journal("coalesced", inflight)
                span.annotate(outcome="coalesced", job=inflight.job_id)
                return inflight

            job = self._new_job(request, key)
            job._volume_hash = volume_hash  # avoids a re-hash at run time
            self._inflight[key] = job
            self._journal("submitted", job)
            await self._queue.put(job)
            span.annotate(outcome="queued", job=job.job_id)
            return job

    def job(self, job_id: str) -> Job:
        """The tracked job of ``job_id`` (:class:`KeyError` if unknown)."""
        return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        """All tracked jobs, oldest first."""
        return list(self._jobs.values())

    async def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes; returns it in its final state."""
        job = self.job(job_id)
        await asyncio.wait_for(job.done_event.wait(), timeout)
        return job

    async def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job.  Running jobs are never preempted.

        Returns ``True`` when the job moved to ``cancelled``; ``False``
        when it was already running or finished (per-block timeouts
        inside the run are the tool for bounding started work).
        """
        job = self.job(job_id)
        if job.state != "queued":
            return False
        job.state = "cancelled"
        job.error = "cancelled before execution"
        job.finished_at = time.time()
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        job.done_event.set()
        self.metrics.counter("service.jobs.cancelled").inc()
        self._journal("cancelled", job)
        return True

    async def close(self) -> None:
        """Stop the workers and release every session and pool."""
        if self._closed:
            return
        self._closed = True
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._pool.shutdown(wait=True)
        with self._sessions_lock:
            slots, self._sessions = list(self._sessions.values()), {}
        for slot in slots:
            slot.session.close()
        self._scratch.cleanup()

    # -- workers -----------------------------------------------------------

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job.state != "queued":  # cancelled while waiting
                continue
            job.state = "running"
            self._journal("started", job)
            timeout = (
                job.request.timeout
                if job.request.timeout is not None
                else self.default_timeout
            )
            started = time.perf_counter()
            with self.tracer.span(
                "service.job.run", cat="service", job=job.job_id,
                key=job.key, worker=index,
            ) as span:
                try:
                    record = await asyncio.wait_for(
                        loop.run_in_executor(
                            self._pool, self._execute, job
                        ),
                        timeout,
                    )
                except asyncio.TimeoutError:
                    self._finish(
                        job, "failed",
                        error=(
                            f"job timed out after {timeout:g}s "
                            "(per-job limit; tune the request timeout "
                            "or the per-block fault-tolerance knobs)"
                        ),
                    )
                except asyncio.CancelledError:
                    self._finish(job, "failed",
                                 error="scheduler shut down mid-job")
                    raise
                except Exception as exc:
                    self._finish(
                        job, "failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    job.record = record
                    self._finish(job, "done")
                span.annotate(state=job.state)
            self.metrics.histogram(
                "service.job.seconds", SECONDS_BUCKETS
            ).observe(time.perf_counter() - started)

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        job.state = state
        job.error = error
        job.finished_at = time.time()
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        job.done_event.set()
        self.metrics.counter(f"service.jobs.{state}").inc()
        self._journal(state, job)

    # -- the synchronous compute path (thread-pool side) -------------------

    def _execute(self, job: Job) -> ResultRecord:
        """Run one cold compute and store its artifact.

        Runs on a thread-pool slot.  Prefers the persistent session of
        this configuration; when that session is busy (another slot
        runs the same configuration) or reuse is disabled, falls back
        to a one-shot pipeline — results are bit-identical either way.
        """
        request = job.request
        config = request.pipeline_config()
        slot = self._session_slot(config) if self.session_reuse else None
        if slot is not None and slot.lock.acquire(blocking=False):
            try:
                result = slot.session.run(request.volume)
            except Exception:
                # the session may be mid-degrade or hold a poisoned
                # pool; discard it so the next job starts fresh
                self._discard_session(config, slot)
                raise
            finally:
                slot.lock.release()
        else:
            result = ParallelMSComplexPipeline(config).run(
                volume=request.volume
            )

        # write through the canonical writer, then hand the image to the
        # store — the cached artifact is bit-identical to what a cold
        # `result.write(path)` would have produced
        scratch = Path(self._scratch.name) / f"{job.job_id}.msc"
        try:
            result.write(scratch)
            image = scratch.read_bytes()
        finally:
            scratch.unlink(missing_ok=True)
        volume_hash = getattr(job, "_volume_hash", None)
        if volume_hash is None:
            volume_hash = content_hash(request.volume)
        return self.store.put(
            job.key,
            volume_hash=volume_hash,
            config=config,
            msc_image=image,
            num_output_blocks=result.num_output_blocks,
            node_counts=result.combined_node_counts(),
        )

    def _session_slot(self, config: PipelineConfig) -> _SessionSlot:
        fp = config.fingerprint()
        with self._sessions_lock:
            slot = self._sessions.get(fp)
            if slot is None:
                slot = _SessionSlot(PipelineSession(config))
                self._sessions[fp] = slot
                self.metrics.counter("service.sessions.created").inc()
            return slot

    def _discard_session(self, config: PipelineConfig,
                         slot: _SessionSlot) -> None:
        fp = config.fingerprint()
        with self._sessions_lock:
            if self._sessions.get(fp) is slot:
                del self._sessions[fp]
        slot.session.close()
        self.metrics.counter("service.sessions.discarded").inc()

    # -- bookkeeping -------------------------------------------------------

    def _new_job(self, request: ComputeRequest, key: str,
                 state: str = "queued", source: str = "cold") -> Job:
        job = Job(
            job_id=f"job-{next(self._ids):06d}",
            key=key,
            request=request,
            state=state,
            source=source,
        )
        self._jobs[job.job_id] = job
        return job

    def _journal(self, event: str, job: Job) -> None:
        self.store.provider.persist_job_event(
            {
                "event": event,
                "job_id": job.job_id,
                "key": job.key,
                "state": job.state,
                "time": time.time(),
            }
        )

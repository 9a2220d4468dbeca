"""Pipeline configuration.

Bundles the tunable parameters the paper exposes: "blocking strategy,
merging strategy, and simplification level of the topology" (§I), plus
the virtual machine parameters of this reproduction and the
shared-memory execution backend of the compute stage.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

from typing import Any

from repro.core.options import (
    BACKEND_KNOB_KINDS,
    ExecutionOptions,
    canonical_fingerprint,
    validate_choice,
)
from repro.machine.bgp import BlueGenePParams
from repro.parallel.executor import RetryPolicy
from repro.parallel.radixk import MergeSchedule, full_merge_radices

__all__ = [
    "ExecutionOptions",
    "PipelineConfig",
    "MergeSchedule",
]


@dataclass
class PipelineConfig:
    """Configuration of one parallel MS complex computation.

    Parameters
    ----------
    num_blocks:
        Number of blocks of the domain decomposition (power of two for
        the paper's bisection; otherwise pass explicit ``splits``).
    num_procs:
        Number of virtual processes; defaults to one block per process,
        the configuration the paper uses in all its studies.  May be
        smaller than ``num_blocks`` (block-cyclic assignment).
    splits:
        Optional explicit per-axis block counts overriding bisection.
    persistence_threshold:
        Per-block and per-merge simplification threshold (absolute
        function-value difference).  0 disables simplification except
        for the zero-persistence pairs produced by ties.
    merge_radices:
        ``"full"`` (merge to one block using the paper's guideline
        schedule), ``"none"`` (skip merging entirely), or an explicit
        sequence of radices in {2, 4, 8} for a partial merge.
    max_radix:
        Highest radix used when ``merge_radices="full"``.
    machine:
        Virtual Blue Gene/P parameters for the cost model.
    validate:
        Run structural invariant checks after every stage (slow; meant
        for tests and small volumes).
    simplify_at_zero_persistence:
        Cancel zero-persistence pairs even when the threshold is 0;
        matches the paper's handling of boundary artifacts, whose
        cancellation "directly connects important critical points in the
        interiors of neighboring blocks".
    workers:
        Width of the shared-memory worker pool the compute stage and
        the merge rounds run on.  ``1`` (default) runs both serially
        in-process; ``>1`` fans blocks and each round's merges out over
        OS processes.  Results are bit-identical either way — the
        boundary-restricted pairing makes every block independent and
        merging is deterministic, so this is purely a scheduling
        choice.
    executor:
        Backend of the compute stage and of the merge rounds:
        ``"auto"`` (worker pool exactly when ``workers > 1``),
        ``"serial"``, or ``"process"``.
    transport:
        How block vertex data reaches compute workers: ``"pickle"``
        ships each block's subarray by value inside its spec;
        ``"shm"`` publishes the volume once into a POSIX shared-memory
        segment and ships only a tiny handle per block (zero-copy,
        retries re-read from the segment); ``"mmap"`` (volume-file
        inputs only) ships just the file spec + box and workers
        subarray-read straight from disk — the driver never
        materializes the volume.  ``"auto"`` (default) picks ``"shm"``
        exactly when the compute stage runs on a process pool, and
        ``"mmap"`` whenever the input is a
        :class:`repro.io.volume.VolumeSpec`.  Results are bit-identical
        on every transport.
    kernel_backend:
        V-path tracing backend inside each block's compute: ``"dfs"``
        (the per-path depth-first tracer), ``"pointer"`` (the
        vectorized pointer-jumping tracer), or ``"auto"`` (default;
        pointer exactly when the block is large enough to amortize the
        whole-array passes, see :mod:`repro.morse.tracing`).  The
        constructed complex is bit-identical on either backend.
    block_timeout:
        Per-block compute timeout in seconds, enforced on the process
        backend; ``None`` (default) waits forever.  A timed-out block is
        retried like any other failure.
    max_retries:
        Extra attempts granted to a failed block (and to a failed root
        merge) before the fault-tolerance layer degrades or errors out.
    retry_backoff:
        Base of the exponential backoff slept between attempts of one
        block; ``0`` disables sleeping.
    degrade_on_failure:
        Fall back to the in-process serial executor — recording the
        event in the run's stats — when the worker pool is unhealthy,
        instead of failing the pipeline.
    max_pool_restarts:
        Worker-pool rebuilds (after worker deaths or a fully clogged
        pool) tolerated before declaring the pool unhealthy.
    hierarchy:
        Capture the cancellation hierarchy of every output block after
        the merge stage (an infinite-persistence sweep over a throwaway
        copy; the output complexes are untouched) and persist it in the
        ``.msc`` v2 hierarchy footer on result write, enabling
        re-simplification-free multiscale queries
        (:func:`repro.api.query`).  Off by default.
    merge_spill_budget_bytes:
        Resident-byte budget of the merge stage's packed-blob
        spool.  ``None`` (default) never spills — every blob stays in
        driver memory, byte-for-byte the pre-spool pipeline.  A bound
        spills least-recently-used blobs to disk between radix rounds
        (see :class:`repro.io.spool.BlobSpool`), keeping peak driver
        RSS roughly flat as block count grows.  Pure scheduling:
        outputs are bit-identical at any budget.
    faults:
        Optional :class:`repro.parallel.faults.FaultPlan` injecting
        deterministic failures into the compute and merge stages — the
        chaos-testing hook; ``None`` in production use.
    trace:
        Record a span-based timeline of the run (driver, virtual-rank
        and pool-worker lanes) into ``result.stats.trace``, exportable
        as Chrome ``trace_event`` JSON (see :mod:`repro.obs`).  Off by
        default; pipeline outputs are bit-identical either way.
    metrics:
        Aggregate run metrics (counters / gauges / histograms, workers
        included) into ``result.stats.metrics`` (see
        :mod:`repro.obs.metrics`).  Off by default; outputs are
        bit-identical either way.

    The execution knobs (``workers`` through ``hierarchy``) may
    equivalently be passed grouped, as
    ``PipelineConfig(..., options=ExecutionOptions(...))``; passing a
    knob both ways is a :class:`TypeError`.  Deprecated keyword aliases
    ``persistence`` (for ``persistence_threshold``), ``blocks``
    (``num_blocks``) and ``procs`` (``num_procs``) are accepted with a
    :class:`DeprecationWarning` for one release; new code should use the
    canonical names or the :func:`repro.api.compute` facade.
    """

    num_blocks: int
    num_procs: int | None = None
    splits: tuple[int, int, int] | None = None
    persistence_threshold: float = 0.0
    merge_radices: Sequence[int] | str = "full"
    max_radix: int = 8
    machine: BlueGenePParams = field(default_factory=BlueGenePParams)
    validate: bool = False
    simplify_at_zero_persistence: bool = True
    workers: int = 1
    executor: str = "auto"
    transport: str = "auto"
    kernel_backend: str = "auto"
    block_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    degrade_on_failure: bool = True
    max_pool_restarts: int = 2
    hierarchy: bool = False
    merge_spill_budget_bytes: int | None = None
    faults: Any = None
    trace: bool = False
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.num_procs is not None and self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.persistence_threshold < 0:
            raise ValueError("persistence_threshold must be >= 0")
        if isinstance(self.merge_radices, str):
            if self.merge_radices not in ("full", "none"):
                raise ValueError(
                    "merge_radices must be 'full', 'none', or a sequence"
                )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.merge_spill_budget_bytes is not None:
            if (
                not isinstance(self.merge_spill_budget_bytes, int)
                or isinstance(self.merge_spill_budget_bytes, bool)
                or self.merge_spill_budget_bytes < 0
            ):
                raise ValueError(
                    "merge_spill_budget_bytes must be None or an int >= 0"
                )
        # all backend knobs fail early, at config construction, with
        # the uniform "choose one of {...}" error — never deep inside
        # the pipeline
        for name, kinds in BACKEND_KNOB_KINDS.items():
            validate_choice(name, getattr(self, name), kinds)
        # RetryPolicy validates the fault-tolerance knobs; fail at
        # config-construction time, not mid-pipeline
        self.retry_policy()

    def retry_policy(self) -> RetryPolicy:
        """The compute-stage retry policy these settings describe."""
        return RetryPolicy(
            block_timeout=self.block_timeout,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            degrade_on_failure=self.degrade_on_failure,
            max_pool_restarts=self.max_pool_restarts,
        )

    @property
    def resolved_num_procs(self) -> int:
        return self.num_procs if self.num_procs is not None else self.num_blocks

    @property
    def resolved_executor(self) -> str:
        """Concrete executor kind after resolving ``"auto"``."""
        if self.executor == "auto":
            return "process" if self.workers > 1 else "serial"
        return self.executor

    @property
    def resolved_transport(self) -> str:
        """Concrete transport kind after resolving ``"auto"``, for an
        in-memory input.

        Shared memory pays off exactly when block data crosses a process
        boundary; in-process (serial) execution reads the driver's own
        arrays, so ``"auto"`` keeps the plain by-value path there.
        Volume-file inputs resolve differently — see
        :meth:`resolve_transport`.
        """
        return self.resolve_transport("memory")

    def resolve_transport(self, input_kind: str = "memory") -> str:
        """Concrete transport after resolving ``"auto"`` for an input.

        ``input_kind`` is ``"memory"`` (a vertex array / grid held by
        the driver) or ``"volume"`` (a :class:`repro.io.volume.VolumeSpec`
        file).  Impossible combinations fail here, readably, instead of
        silently falling back mid-pipeline:

        - ``shm`` + volume input: there is no in-memory array to
          publish — the out-of-core point is that the driver never
          holds one.  Use ``mmap`` (or ``auto``).
        - ``mmap`` + in-memory input: there is no file for workers to
          map.  Use ``shm``/``pickle`` (or ``auto``), or write the
          field with :func:`repro.io.volume.write_volume` first.
        """
        if input_kind not in ("memory", "volume"):
            raise ValueError(
                f"input_kind must be 'memory' or 'volume', got "
                f"{input_kind!r}"
            )
        if input_kind == "volume":
            if self.transport in ("auto", "mmap"):
                return "mmap"
            if self.transport == "shm":
                raise ValueError(
                    "transport 'shm' needs an in-memory input to publish; "
                    "a volume-file input streams blocks straight from "
                    "disk — use transport='mmap' (or 'auto'), or load "
                    "the volume yourself with repro.io.volume.read_volume"
                )
            return "pickle"
        if self.transport == "mmap":
            raise ValueError(
                "transport 'mmap' needs a volume-file input "
                "(repro.io.volume.VolumeSpec) for workers to map; "
                "an in-memory field uses 'pickle' or 'shm' (or 'auto'), "
                "or write it out first with repro.io.volume.write_volume"
            )
        if self.transport == "auto":
            return "shm" if self.resolved_executor == "process" else "pickle"
        return self.transport

    @property
    def execution_options(self) -> ExecutionOptions:
        """The execution knobs of this config, as one grouped value.

        ``kernel_backend="auto"`` is *not* resolved here: the pointer /
        dfs choice is made per block, by size, inside
        :func:`repro.morse.tracing.extract_ms_complex`.
        """
        return ExecutionOptions(
            **{
                name: getattr(self, name)
                for name in _OPTION_FIELD_NAMES
            }
        )

    def result_fingerprint(self) -> str:
        """Content hash of everything that determines the *output*.

        This is the config half of the service cache key (the other
        half is the volume content hash, see
        :func:`repro.io.volume.content_hash`).  It covers the fields
        the computed complex depends on — decomposition, persistence
        threshold, the *resolved* merge schedule, tie handling — plus
        the additive ``hierarchy`` artifact flag, and deliberately
        excludes every pure-scheduling knob: results are bit-identical
        across workers/executors/transports/kernel backends (the
        invariant the golden tests pin), so a request computed with
        ``workers=1`` must be a cache hit for the same volume requested
        with ``workers=8``.

        The merge schedule is fingerprinted resolved
        (:meth:`resolve_radices`), so equivalent spellings —
        ``merge_radices="full", max_radix=2`` vs the explicit
        ``[2, 2, 2]`` on 8 blocks — key identically.
        """
        return canonical_fingerprint(
            "pipeline-result",
            {
                "num_blocks": self.num_blocks,
                "num_procs": self.resolved_num_procs,
                "splits": list(self.splits) if self.splits else None,
                "persistence_threshold": float(self.persistence_threshold),
                "radices": self.resolve_radices(),
                "simplify_at_zero_persistence": (
                    self.simplify_at_zero_persistence
                ),
                "hierarchy": self.hierarchy,
            },
        )

    def fingerprint(self) -> str:
        """Content hash over the full configuration, execution included.

        Combines :meth:`result_fingerprint` with the
        :meth:`~repro.core.options.ExecutionOptions.fingerprint` of the
        grouped execution knobs: equal configs spelled any way (flat
        keywords, ``options=``, CLI flags) hash identically, and any
        knob change — scheduling or not — changes the digest.  Use
        :meth:`result_fingerprint` for cache keying and this for exact
        run-configuration identity (journals, provenance records).
        """
        return canonical_fingerprint(
            "pipeline-config",
            {
                "result": self.result_fingerprint(),
                "options": self.execution_options.fingerprint(),
                "validate": self.validate,
            },
        )

    def resolve_radices(self) -> list[int]:
        """Concrete list of merge-round radices."""
        if self.merge_radices == "none":
            return []
        if self.merge_radices == "full":
            if self.num_blocks == 1:
                return []
            return full_merge_radices(self.num_blocks, self.max_radix)
        return [int(r) for r in self.merge_radices]


#: deprecated keyword alias -> canonical field (one-release shim)
_FIELD_ALIASES = {
    "persistence": "persistence_threshold",
    "blocks": "num_blocks",
    "procs": "num_procs",
}

#: PipelineConfig fields ExecutionOptions groups (names match 1:1)
_OPTION_FIELD_NAMES = tuple(
    f.name for f in dataclasses.fields(ExecutionOptions)
)

_dataclass_init = PipelineConfig.__init__


def _init_with_aliases(self, *args, **kwargs):
    options = kwargs.pop("options", None)
    if options is not None:
        if not isinstance(options, ExecutionOptions):
            raise TypeError(
                "PipelineConfig(options=...) expects an "
                f"ExecutionOptions, got {type(options).__name__}"
            )
        for name in _OPTION_FIELD_NAMES:
            if name in kwargs:
                raise TypeError(
                    f"PipelineConfig() got both options= and the flat "
                    f"keyword {name!r}"
                )
            kwargs[name] = getattr(options, name)
    for alias, canonical in _FIELD_ALIASES.items():
        if alias in kwargs:
            if canonical in kwargs:
                raise TypeError(
                    f"PipelineConfig() got both {alias!r} and its "
                    f"canonical name {canonical!r}"
                )
            warnings.warn(
                f"PipelineConfig({alias}=...) is deprecated; "
                f"use {canonical}=... (or the repro.api.compute facade)",
                DeprecationWarning,
                stacklevel=2,
            )
            kwargs[canonical] = kwargs.pop(alias)
    _dataclass_init(self, *args, **kwargs)


_init_with_aliases.__doc__ = _dataclass_init.__doc__
_init_with_aliases.__wrapped__ = _dataclass_init
PipelineConfig.__init__ = _init_with_aliases

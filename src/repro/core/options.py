"""The execution-options schema: the one declaration of every knob that
schedules a run without changing its output.

The paper tunes three things — the blocking, the merge strategy and the
simplification level — and those live on
:class:`repro.core.config.PipelineConfig`.  Everything else is this
reproduction's scheduling layer: how the work is scheduled (worker
pool, transports, per-stage backends) and how failures are handled
(timeouts, retries, degradation).  None of it changes the computed
complex by a single byte.  It is declared once, here, as the frozen
dataclass :class:`ExecutionOptions`; every front end reads it or derives
from it:

- ``repro.compute(..., options=ExecutionOptions(...))`` and
  ``PipelineConfig(..., options=...)`` (read back as ``cfg.options``);
- the CLI, whose ``compute`` and ``stream`` flags are generated from
  :func:`dataclasses.fields` of this class (names, choices and the help
  text in each field's ``metadata``);
- the HTTP service, which parses ``ExecutionOptions(**body["options"])``.

Every field is validated in :meth:`ExecutionOptions.__post_init__`, so a
bad value fails at construction with one readable error whatever the
front end (``choose one of {...}`` for the backend knobs)::

    import repro
    from repro.core.options import ExecutionOptions

    opts = ExecutionOptions(workers=4, transport="shm",
                            kernel_backend="pointer")
    result = repro.compute(field, persistence=0.05, ranks=8,
                           options=opts)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.morse.tracing import KERNEL_BACKENDS
from repro.parallel.executor import EXECUTOR_KINDS, RetryPolicy
from repro.parallel.transport import TRANSPORT_KINDS

__all__ = [
    "ExecutionOptions",
    "canonical_fingerprint",
    "validate_choice",
]


def canonical_fingerprint(kind: str, payload: dict) -> str:
    """Stable SHA-256 hex digest of a keyword payload.

    The canonical encoding — sorted-key JSON over plain
    str/int/float/bool/None/list values — is what makes every
    fingerprint in the package *spelling-independent*: any two code
    paths (``options=``, CLI flags, a parsed HTTP request) that arrive
    at equal field values produce the same digest, and any field change
    produces a different one.  ``kind`` namespaces the digest so an
    options fingerprint can never collide with a config fingerprint
    built from coincidentally equal payloads.
    """
    try:
        body = json.dumps(payload, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{kind} fingerprint payload is not canonically "
            f"JSON-encodable: {exc}"
        ) from None
    return hashlib.sha256(f"{kind}:{body}".encode()).hexdigest()

#: every backend knob, its allowed values, in one table — the single
#: source the options validation, the CLI choices and the docs knob
#: tables read
BACKEND_KNOB_KINDS = {
    "executor": EXECUTOR_KINDS,
    "transport": TRANSPORT_KINDS,
    "kernel_backend": KERNEL_BACKENDS,
}


def validate_choice(name: str, value: object, kinds: tuple[str, ...]) -> None:
    """Raise the uniform readable error for an invalid knob value.

    All backend knobs (``executor``, ``transport``, ``kernel_backend``)
    fail with the same shape at configuration time::

        invalid transport 'smh': choose one of {auto, pickle, shm}
    """
    if value not in kinds:
        raise ValueError(
            f"invalid {name} {value!r}: choose one of "
            f"{{{', '.join(kinds)}}}"
        )


def _check_count(name: str, value: object, minimum: int,
                 optional: bool = False) -> None:
    """A count knob must be a plain int (not a bool) >= ``minimum``."""
    if optional and value is None:
        return
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or value < minimum
    ):
        kind = "None or an int" if optional else "an int"
        raise ValueError(f"{name} must be {kind} >= {minimum}, got {value!r}")


def _check_seconds(name: str, value: object, positive: bool,
                   optional: bool = False) -> None:
    """A seconds knob must be a finite real number (> 0 or >= 0)."""
    if optional and value is None:
        return
    ok = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    )
    if not ok:
        bound = "> 0" if positive else ">= 0"
        kind = "None or a finite number" if optional else "a finite number"
        raise ValueError(f"{name} must be {kind} {bound}, got {value!r}")


def _knob(default, text: str, **cli):
    """A field with its help text (and optional CLI ``flag`` /
    ``metavar`` spelling) in ``metadata``, where the CLI reads it."""
    return field(default=default, metadata={"help": text, **cli})


@dataclass(frozen=True)
class ExecutionOptions:
    """How one pipeline run executes — scheduling and fault handling.

    Every scheduling field is a pure scheduling choice: the computed
    complex is bit-identical across all settings.  The one additive
    knob, ``hierarchy``, never changes the complex either — it only
    captures an extra artifact (the cancellation hierarchy) alongside
    it.  Accepted by :func:`repro.api.compute`,
    :func:`repro.api.open_session` and
    :class:`repro.core.config.PipelineConfig` as ``options=``.  Each
    field's ``metadata["help"]`` documents it; the same text is the CLI
    ``--help`` of its flag.
    """

    workers: int = _knob(
        1,
        "width of the shared-memory worker pool the compute stage and "
        "the merge rounds run on (default: 1, serial in-process); "
        "results are bit-identical at any width",
    )
    executor: str = _knob(
        "auto",
        "backend of the compute stage and the merge rounds (default: "
        "auto — a process pool exactly when --workers > 1)",
    )
    transport: str = _knob(
        "auto",
        "block-data transport to pool workers: pickle ships subarrays "
        "by value, shm publishes an in-memory volume once into shared "
        "memory, mmap (volume-file inputs) lets workers subarray-read "
        "straight from disk without the driver ever materializing the "
        "volume (default: auto — mmap for file inputs, shm exactly when "
        "a process pool runs)",
    )
    kernel_backend: str = _knob(
        "auto",
        "V-path tracing backend: dfs traces each path depth-first, "
        "pointer compresses descents with vectorized pointer jumping "
        "(default: auto — pointer exactly when the block is large "
        "enough to amortize the whole-array passes; results are "
        "bit-identical either way)",
    )
    block_timeout: float | None = _knob(
        None,
        "per-block compute timeout in seconds (process executor); "
        "timed-out blocks are retried (default: wait forever)",
        metavar="SECONDS",
    )
    max_retries: int = _knob(
        2,
        "extra attempts a failed block or root merge gets before the "
        "run degrades or errors out (default: 2)",
        metavar="N",
    )
    retry_backoff: float = _knob(
        0.05,
        "base of the exponential backoff between attempts of one "
        "block; 0 retries immediately (default: 0.05)",
        metavar="SECONDS",
    )
    degrade_on_failure: bool = _knob(
        True,
        "fall back to the in-process serial executor when the worker "
        "pool is unhealthy, instead of failing the run (on by default)",
        flag="--no-degrade",
    )
    max_pool_restarts: int = _knob(
        2,
        "worker-pool rebuilds (after worker deaths or a fully clogged "
        "pool) tolerated before the pool is declared unhealthy "
        "(default: 2)",
        metavar="N",
    )
    hierarchy: bool = _knob(
        False,
        "capture the cancellation hierarchy of every output block and "
        "persist it in the .msc v2 footer, enabling `repro query` "
        "threshold lookups with zero re-simplification; the complex "
        "bytes are unchanged",
    )
    merge_spill_budget_bytes: int | None = _knob(
        None,
        "resident-byte budget of the merge stage's packed-blob spool "
        "(e.g. 64M, 2G, or plain bytes; 0 spills everything).  Over "
        "budget, merged snapshots spill LRU-first to a run-scoped temp "
        "dir between radix rounds, keeping driver memory roughly flat "
        "as block count grows; outputs are bit-identical at any budget "
        "(default: unbounded, never spills)",
        flag="--merge-spill-budget", metavar="SIZE",
    )

    def __post_init__(self) -> None:
        _check_count("workers", self.workers, 1)
        _check_count("max_retries", self.max_retries, 0)
        _check_count("max_pool_restarts", self.max_pool_restarts, 0)
        _check_count("merge_spill_budget_bytes",
                     self.merge_spill_budget_bytes, 0, optional=True)
        _check_seconds("block_timeout", self.block_timeout, positive=True,
                       optional=True)
        _check_seconds("retry_backoff", self.retry_backoff, positive=False)
        for name in ("degrade_on_failure", "hierarchy"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        for name, kinds in BACKEND_KNOB_KINDS.items():
            validate_choice(name, getattr(self, name), kinds)

    def retry_policy(self) -> RetryPolicy:
        """The compute- and merge-stage retry policy these options
        describe."""
        return RetryPolicy(
            block_timeout=self.block_timeout,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            degrade_on_failure=self.degrade_on_failure,
            max_pool_restarts=self.max_pool_restarts,
        )

    @property
    def resolved_executor(self) -> str:
        """Concrete executor kind after resolving ``"auto"``."""
        if self.executor == "auto":
            return "process" if self.workers > 1 else "serial"
        return self.executor

    def resolve_transport(self, input_kind: str = "memory") -> str:
        """Concrete transport after resolving ``"auto"`` for an input.

        ``input_kind`` is ``"memory"`` (a vertex array / grid held by
        the driver) or ``"volume"`` (a :class:`repro.io.volume.VolumeSpec`
        file).  For an in-memory input, ``"auto"`` picks ``"shm"``
        exactly when block data crosses a process boundary (a process
        executor) and the plain by-value ``"pickle"`` otherwise; a
        volume input resolves to ``"mmap"``.  Impossible combinations
        fail here, readably, instead of silently falling back
        mid-pipeline:

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

    def fingerprint(self) -> str:
        """Stable content hash over every execution knob.

        Spelling-independent: equal option values — whether built in
        code, from CLI flags, or from a service request — always
        produce the same digest, and changing any knob produces a
        different one (the property suite pins both directions).  Note
        this fingerprints *how* a run executes; the result cache keys on
        :meth:`repro.core.config.PipelineConfig.result_fingerprint`
        instead, which deliberately excludes the pure-scheduling knobs.
        """
        return canonical_fingerprint(
            "execution-options", dataclasses.asdict(self)
        )

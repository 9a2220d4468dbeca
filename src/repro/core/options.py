"""The grouped execution-options surface of the public API.

The pipeline has grown a family of *execution* knobs — how the work is
scheduled (worker pool, transports, per-stage backends) and how failures
are handled (timeouts, retries, degradation) — that are pure scheduling:
none of them changes the computed complex by a single byte.  They are
grouped here into one frozen dataclass, :class:`ExecutionOptions`, so
the public entry points take a single ``options=`` argument instead of
a dozen flat keywords, and so every backend knob is validated in one
place with one readable error shape (``choose one of {...}``) at
configuration time rather than deep inside the pipeline.

::

    import repro
    from repro.core.options import ExecutionOptions

    opts = ExecutionOptions(workers=4, transport="shm",
                            kernel_backend="pointer")
    result = repro.compute(field, persistence=0.05, ranks=8,
                           options=opts)

The flat keyword spellings (``repro.compute(..., workers=4)``) keep
working for one release behind a :class:`DeprecationWarning`; see
``docs/API.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from repro.morse.tracing import KERNEL_BACKENDS
from repro.parallel.executor import EXECUTOR_KINDS
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
    paths (flat keywords, ``options=``, CLI flags, a parsed HTTP
    request) that arrive at equal field values produce the same digest,
    and any field change produces a different one.  ``kind`` namespaces
    the digest so an options fingerprint can never collide with a
    config fingerprint built from coincidentally equal payloads.
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
#: source the config/CLI validation and the docs knob tables read
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


@dataclass(frozen=True)
class ExecutionOptions:
    """How one pipeline run executes — scheduling and fault handling.

    Every scheduling field is a pure scheduling choice: the computed
    complex is bit-identical across all settings.  The one additive
    knob, ``hierarchy``, never changes the complex either — it only
    captures an extra artifact (the cancellation hierarchy) alongside
    it.  Accepted by :func:`repro.api.compute` and
    :class:`repro.core.config.PipelineConfig` as ``options=``; field
    names match the flat ``PipelineConfig`` fields one-to-one.

    Parameters
    ----------
    workers:
        Width of the shared-memory worker pool the compute stage and
        the merge rounds run on; ``1`` (default) runs both serially
        in-process.
    executor:
        Backend of the compute stage and of the merge rounds:
        ``"auto"`` (worker pool exactly when ``workers > 1``),
        ``"serial"``, or ``"process"``.
    transport:
        Block-data transport to pool workers: ``"pickle"``, ``"shm"``,
        ``"mmap"`` (volume-file inputs only; workers subarray-read from
        disk and the driver never materializes the volume), or
        ``"auto"`` (shm exactly when a process pool runs; mmap whenever
        the input is a :class:`repro.io.volume.VolumeSpec`).
    kernel_backend:
        V-path tracing backend: ``"dfs"`` (per-path depth-first),
        ``"pointer"`` (vectorized pointer jumping), or ``"auto"``
        (by block size; see :mod:`repro.morse.tracing`).
    block_timeout:
        Per-block compute timeout in seconds (process executor);
        ``None`` waits forever.  Timed-out blocks are retried.
    max_retries:
        Extra attempts a failed block (or root merge) gets before the
        run degrades or errors out.
    retry_backoff:
        Base of the exponential backoff between attempts; ``0`` retries
        immediately.
    degrade_on_failure:
        Fall back to in-process serial execution when the worker pool
        is unhealthy, instead of failing the run.
    max_pool_restarts:
        Worker-pool rebuilds tolerated before declaring the pool
        unhealthy.
    hierarchy:
        Capture the cancellation hierarchy of every output block after
        the merge stage and persist it in the ``.msc`` v2 hierarchy
        footer on :meth:`~repro.core.result.PipelineResult.write`, so
        any persistence threshold can later be answered as a pure query
        (:func:`repro.api.query`) with zero re-simplification.  The
        output complex bytes are unchanged; off by default.
    merge_spill_budget_bytes:
        Resident-byte budget of the merge stage's packed-blob spool.
        ``None`` (default) keeps every blob in driver memory.  A bound
        spills least-recently-used blobs to content-addressed files
        under a run-scoped temp directory between radix rounds, keeping
        peak driver RSS roughly flat as block count grows; ``0`` spills
        everything.  Pure scheduling: outputs are bit-identical at any
        budget (see ``docs/PERFORMANCE.md``, "Out-of-core merge").
    """

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

    def __post_init__(self) -> None:
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
        for name, kinds in BACKEND_KNOB_KINDS.items():
            validate_choice(name, getattr(self, name), kinds)

    def to_kwargs(self) -> dict:
        """The options as flat ``PipelineConfig`` keyword arguments."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fingerprint(self) -> str:
        """Stable content hash over every execution knob.

        Spelling-independent: equal option values — whether built from
        flat keywords, ``options=``, CLI flags, or a service request —
        always produce the same digest, and changing any knob produces
        a different one (the property suite pins both directions).
        Note this fingerprints *how* a run executes; the result cache
        keys on :meth:`repro.core.config.PipelineConfig.result_fingerprint`
        instead, which deliberately excludes the pure-scheduling knobs.
        """
        return canonical_fingerprint("execution-options", self.to_kwargs())

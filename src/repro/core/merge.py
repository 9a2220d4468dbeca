"""Per-round merge computation at group roots (paper §IV-F).

The three steps of the merge stage:

1. *Preparing for communication* (§IV-F1): each member compacts its
   simplified complex (dead hierarchy levels dropped, composite geometry
   flattened) and serializes it; node addresses are already global.
2. *Communication* (§IV-F2): members send their complexes to the group
   root (the scheduler delivers; the machine model prices the bytes).
3. *Merge computation* (§IV-F3): the root glues each incoming complex at
   shared-boundary nodes, updates node boundary flags against the cut
   planes that remain after the round, re-simplifies the newly interior
   nodes, and compacts.

Within one radix-k round the per-root merges are independent, so the
pipeline dispatches them through the run's executor (in-process or a
worker pool): :class:`MergeSpec` is the picklable work order (root and member blobs plus round parameters),
:func:`merge_task` the pure worker function, and :class:`MergePayload`
the result shipped back (merged blob, outcome counters, this merge's
cancellation records, a CRC for corruption detection).
"""

from __future__ import annotations

import zlib

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from typing import Any

from repro.core.glue import AddressIndex, GlueStats, glue_into
from repro.io.mscfile import deserialize_payload, serialize_payload
from repro.io.spool import SpilledBlobRef, blob_bytes
from repro.morse.msc import Cancellation, MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.morse.validate import assert_ms_complex_valid
from repro.obs.trace import Tracer
from repro.parallel.executor import CorruptPayloadError, FaultToleranceError

__all__ = [
    "MergeOutcome",
    "MergeSpec",
    "MergePayload",
    "MergeStageError",
    "merge_task",
    "pack_complex",
    "unpack_complex",
    "perform_merge",
    "validate_merge_payload",
]


class MergeStageError(FaultToleranceError):
    """A root merge could not be completed within the retry budget."""


@dataclass
class MergeOutcome:
    """Result counters of one root merge."""

    glue: GlueStats
    boundary_nodes_freed: int
    cancellations: int
    nodes_after: int
    arcs_after: int


def pack_complex(msc: MorseSmaleComplex) -> bytes:
    """Serialize a compacted complex for communication."""
    return serialize_payload(msc.to_payload())


def unpack_complex(blob) -> MorseSmaleComplex:
    """Inverse of :func:`pack_complex`.

    Accepts packed ``bytes`` or a :class:`repro.io.spool.SpilledBlobRef`
    handle — a spilled blob is materialized from its spool file first,
    so every consumer of the packed-blob currency (merge workers,
    merge retries, the write stage) reads through the spool
    transparently.
    """
    return MorseSmaleComplex.from_payload(deserialize_payload(blob_bytes(blob)))


def perform_merge(
    root: MorseSmaleComplex,
    incoming: list[MorseSmaleComplex],
    remaining_cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray],
    persistence_threshold: float,
    validate: bool = False,
    incremental: bool = True,
) -> MergeOutcome:
    """Glue ``incoming`` complexes into ``root`` and re-simplify.

    ``remaining_cut_planes`` are the decomposition cut planes that still
    separate distinct merged blocks *after* this round; nodes no longer
    on any of them become interior and cancellable.

    With ``incremental=True`` (the default) the re-simplification heap
    is seeded only from nodes the merge actually disturbed — glued,
    matched, unghosted, and boundary-freed nodes — instead of re-heaping
    every living arc.  This is exact (identical hierarchy and surviving
    complex) *provided* the root and every incoming complex were
    previously simplified at this same ``persistence_threshold`` with
    ``respect_boundary=True``, which holds for every pipeline merge
    round over simplified blocks; pass ``incremental=False`` when the
    inputs have never been simplified at this threshold (e.g. a
    zero-persistence compute stage that skipped block simplification).
    """
    addr_index = AddressIndex.from_complex(root)
    glue_total = GlueStats()
    touched: set[int] | None = set() if incremental else None
    for other in incoming:
        glue_total += glue_into(root, other, addr_index, touched=touched)

    freed = root.update_boundary_flags(remaining_cut_planes, return_ids=True)
    if touched is not None:
        touched.update(freed)
    cancels = simplify_ms_complex(
        root, persistence_threshold, respect_boundary=True,
        seed_nodes=touched,
    )
    root.compact()
    if validate:
        assert_ms_complex_valid(root)
    return MergeOutcome(
        glue=glue_total,
        boundary_nodes_freed=len(freed),
        cancellations=len(cancels),
        nodes_after=root.num_alive_nodes(),
        arcs_after=root.num_alive_arcs(),
    )


@dataclass(frozen=True)
class MergeSpec:
    """Picklable work order for one group-root merge.

    Blob fields hold either packed bytes or picklable
    :class:`~repro.io.spool.SpilledBlobRef` handles; a worker
    materializes refs from their spool files on unpack, so specs stay
    tiny however large the complexes are.
    """

    round_idx: int
    root_block: int
    root_blob: bytes | SpilledBlobRef
    member_blobs: tuple[bytes | SpilledBlobRef, ...]
    #: cut planes remaining *after* this round, one array per axis
    cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray]
    persistence_threshold: float
    incremental: bool = True
    validate: bool = False
    trace: bool = False

    @property
    def block_id(self) -> tuple[int, int]:
        """Executor bookkeeping label — ``(round, root block)``."""
        return (self.round_idx, self.root_block)


@dataclass
class MergePayload:
    """Result of one group-root merge, shipped back from a worker."""

    round_idx: int
    root_block: int
    #: the merged, compacted, re-packed root complex
    blob: bytes
    outcome: MergeOutcome
    #: cancellation records of *this* merge only (packed blobs carry no
    #: hierarchy; the driver accumulates per-root across rounds)
    hierarchy: list[Cancellation]
    #: worker-measured wall seconds of the merge computation proper
    real_seconds: float
    checksum: int = 0
    worker_pid: int = 0
    trace_events: list[Any] = field(default_factory=list)


def merge_task(spec: MergeSpec) -> MergePayload:
    """Perform one root merge from packed blobs (pure and pickle-safe).

    The deterministic function behind the merge stage: unpack the root
    and member blobs, :func:`perform_merge`, re-pack.  Because the
    inputs are immutable bytes, an executor-level retry simply reruns
    this function — a fresh unpack *is* the pristine snapshot, so no
    explicit restore path is needed.
    """
    tracer = Tracer(enabled=True)
    ambient = tracer.installed() if spec.trace else nullcontext()
    with ambient:
        with tracer.span(
            "merge.block", cat="merge",
            round=spec.round_idx, root=spec.root_block,
        ):
            root = unpack_complex(spec.root_blob)
            incoming = [unpack_complex(b) for b in spec.member_blobs]
            with tracer.span("merge.compute", cat="merge") as work:
                outcome = perform_merge(
                    root,
                    incoming,
                    spec.cut_planes,
                    spec.persistence_threshold,
                    validate=spec.validate,
                    incremental=spec.incremental,
                )
            blob = pack_complex(root)
    return MergePayload(
        round_idx=spec.round_idx,
        root_block=spec.root_block,
        blob=blob,
        outcome=outcome,
        hierarchy=list(root.hierarchy),
        real_seconds=work.duration,
        checksum=zlib.crc32(blob),
        worker_pid=tracer.pid,
        trace_events=tracer.events if spec.trace else [],
    )


def validate_merge_payload(spec: MergeSpec, payload: MergePayload) -> None:
    """Executor validator: reject mismatched or corrupted merge results."""
    if not isinstance(payload, MergePayload):
        raise CorruptPayloadError(
            f"merge {spec.block_id}: expected a MergePayload, got "
            f"{type(payload).__name__}"
        )
    if (payload.round_idx, payload.root_block) != spec.block_id:
        raise CorruptPayloadError(
            f"merge {spec.block_id}: payload labeled "
            f"({payload.round_idx}, {payload.root_block})"
        )
    if zlib.crc32(payload.blob) != payload.checksum:
        raise CorruptPayloadError(
            f"merge {spec.block_id}: blob checksum mismatch"
        )

"""Deterministic, seedable fault injection for chaos testing.

The fault-tolerance layer (per-block retries, timeouts, pool restarts,
degradation — see :class:`repro.parallel.executor.FaultTolerantExecutor`,
which runs both the compute blocks and the merge rounds) exists for
failure modes that are, by nature, rare and racy.  This module makes
those paths exercisable by ordinary pytest runs: a :class:`FaultPlan`
describes *exactly* which (block, attempt) pairs fail and how, so every
chaos scenario is reproducible bit-for-bit, with no wall-clock or
scheduling luck involved.

Fault kinds:

``crash``
    Raise :class:`InjectedCrash` inside the worker — models a worker
    hitting an unhandled exception (OOM, cosmic-ray assertion).
``hang``
    By default *simulated*: raise :class:`InjectedHang`, a subclass of
    :class:`~repro.parallel.executor.BlockTimeoutError`, which the
    executor classifies exactly like a real per-block timeout — minus
    the waiting.  With ``simulate=False`` the worker really sleeps
    ``hang_seconds``, for end-to-end tests of the timeout machinery.
``exit``
    Kill the worker process with ``os._exit`` — models a segfault /
    OOM-killer death and exercises the broken-pool restart path.  Only
    honored in the ``"pool"`` context (in-process it would kill the
    driver).
``corrupt``
    Let the block compute normally, then flip bytes of the payload's
    serialized complex — models transport/storage corruption; caught by
    the pipeline's payload checksum validation.

A plan is picklable (plain frozen dataclasses and ints), so it rides
into pool workers unchanged.  Faults are keyed by attempt number —
``attempts=(0,)`` (the default) makes a fault *transient*: the first
try fails, the retry succeeds, and the run must end bit-identical to a
fault-free run.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from repro.parallel.executor import BlockTimeoutError

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "MergeFaultAdapter",
    "MergeFaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
]

_KINDS = ("crash", "hang", "exit", "corrupt")
_CONTEXTS = ("pool", "serial")


class InjectedFault(RuntimeError):
    """Base of all injected failures (so tests can tell them apart)."""


class InjectedCrash(InjectedFault):
    """A deterministic, injected worker crash."""


class InjectedHang(BlockTimeoutError, InjectedFault):
    """A simulated hang: classified by the executor as a timeout."""


@dataclass(frozen=True)
class FaultSpec:
    """One compute-stage fault: what goes wrong, where, and when.

    ``attempts`` lists the attempt numbers (0-based) on which the fault
    fires; ``contexts`` restricts it to the pooled and/or serial
    execution path (an ``exit`` fault is forced pool-only regardless).
    """

    kind: str
    block_id: int
    attempts: tuple[int, ...] = (0,)
    contexts: tuple[str, ...] = _CONTEXTS
    hang_seconds: float = 0.0
    simulate: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for c in self.contexts:
            if c not in _CONTEXTS:
                raise ValueError(f"unknown context {c!r}")
        if self.kind == "exit":
            object.__setattr__(self, "contexts", ("pool",))

    def matches(self, block_id: Any, attempt: int, context: str) -> bool:
        return (
            self.block_id == block_id
            and attempt in self.attempts
            and context in self.contexts
        )


@dataclass(frozen=True)
class MergeFaultSpec:
    """One merge-round fault at a group root.

    ``kind`` is ``"crash"`` (raise before the merge computation),
    ``"corrupt"`` (truncate one incoming member blob, so unpacking
    fails and the merge retries from its immutable input blobs), or
    ``"exit"`` (kill the worker process — only honored when the merge
    runs on a worker pool; in-process execution ignores it, since it
    would kill the driver).
    """

    kind: str
    round_idx: int
    root_block: int
    attempts: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "corrupt", "exit"):
            raise ValueError(
                f"merge fault kind must be 'crash', 'corrupt' or "
                f"'exit', got {self.kind!r}"
            )

    def matches(self, round_idx: int, root_block: int, attempt: int) -> bool:
        return (
            self.round_idx == round_idx
            and self.root_block == root_block
            and attempt in self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one pipeline run.

    Implements the injection protocol the executor dispatches through
    (:meth:`run`); :class:`MergeFaultAdapter` routes the plan's
    ``merge_faults`` to the merge stage.  Compose plans with ``+``;
    build common single-fault plans with the ``crash_on`` /
    ``hang_on`` / ``corrupt_on`` / ``exit_on`` constructors.
    """

    faults: tuple[FaultSpec, ...] = ()
    merge_faults: tuple[MergeFaultSpec, ...] = ()
    seed: int = 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def crash_on(
        cls,
        block_ids: Iterable[int],
        attempts: tuple[int, ...] = (0,),
        contexts: tuple[str, ...] = _CONTEXTS,
    ) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec("crash", b, attempts, contexts) for b in block_ids
        ))

    @classmethod
    def hang_on(
        cls,
        block_ids: Iterable[int],
        attempts: tuple[int, ...] = (0,),
        *,
        simulate: bool = True,
        hang_seconds: float = 0.0,
        contexts: tuple[str, ...] = _CONTEXTS,
    ) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec("hang", b, attempts, contexts,
                      hang_seconds=hang_seconds, simulate=simulate)
            for b in block_ids
        ))

    @classmethod
    def corrupt_on(
        cls,
        block_ids: Iterable[int],
        attempts: tuple[int, ...] = (0,),
        seed: int = 0,
        contexts: tuple[str, ...] = _CONTEXTS,
    ) -> "FaultPlan":
        return cls(
            faults=tuple(
                FaultSpec("corrupt", b, attempts, contexts)
                for b in block_ids
            ),
            seed=seed,
        )

    @classmethod
    def exit_on(
        cls, block_ids: Iterable[int], attempts: tuple[int, ...] = (0,)
    ) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec("exit", b, attempts) for b in block_ids
        ))

    @classmethod
    def merge_crash_on(
        cls,
        events: Iterable[tuple[int, int]],
        attempts: tuple[int, ...] = (0,),
    ) -> "FaultPlan":
        """Crash the merge at each ``(round_idx, root_block)`` event."""
        return cls(merge_faults=tuple(
            MergeFaultSpec("crash", r, b, attempts) for r, b in events
        ))

    @classmethod
    def merge_corrupt_on(
        cls,
        events: Iterable[tuple[int, int]],
        attempts: tuple[int, ...] = (0,),
    ) -> "FaultPlan":
        """Corrupt an incoming blob at each ``(round, root)`` event."""
        return cls(merge_faults=tuple(
            MergeFaultSpec("corrupt", r, b, attempts) for r, b in events
        ))

    @classmethod
    def merge_exit_on(
        cls,
        events: Iterable[tuple[int, int]],
        attempts: tuple[int, ...] = (0,),
    ) -> "FaultPlan":
        """Kill the merge pool worker at each ``(round, root)`` event."""
        return cls(merge_faults=tuple(
            MergeFaultSpec("exit", r, b, attempts) for r, b in events
        ))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return replace(
            self,
            faults=self.faults + other.faults,
            merge_faults=self.merge_faults + other.merge_faults,
            seed=self.seed or other.seed,
        )

    # -- compute-stage injection (the executor's plan protocol) ----------

    def run(
        self, fn: Callable[[Any], Any], spec: Any, attempt: int, context: str
    ) -> Any:
        """Run one block attempt, injecting any scheduled faults."""
        block_id = getattr(spec, "block_id", None)
        matching = [
            f for f in self.faults if f.matches(block_id, attempt, context)
        ]
        for f in matching:
            if f.kind == "crash":
                raise InjectedCrash(
                    f"injected crash: block {block_id} attempt {attempt}"
                )
            if f.kind == "hang":
                if f.simulate:
                    raise InjectedHang(
                        f"injected hang: block {block_id} attempt {attempt}"
                    )
                time.sleep(f.hang_seconds)
            if f.kind == "exit" and context == "pool":
                os._exit(1)
        payload = fn(spec)
        for f in matching:
            if f.kind == "corrupt":
                payload = self._corrupt_payload(payload, block_id, attempt)
        return payload

    def _corrupt_payload(self, payload: Any, block_id: Any, attempt: int) -> Any:
        """Flip a few interior bytes of ``payload.blob``, deterministically.

        Interior flips (rather than truncation) model silent bit-rot:
        the blob may still *parse*, so only checksum validation can
        catch it — which is exactly what the pipeline's validator does.
        """
        blob = bytearray(payload.blob)
        if not blob:
            return payload
        rng = random.Random(f"{self.seed}:{block_id}:{attempt}")
        for _ in range(3):
            pos = rng.randrange(len(blob))
            blob[pos] ^= 0xFF
        payload.blob = bytes(blob)
        return payload


@dataclass(frozen=True)
class MergeFaultAdapter:
    """Adapts a plan's *merge* faults to the executor's plan protocol.

    The merge stage dispatches :class:`repro.core.merge.MergeSpec` work
    orders through the same
    :class:`~repro.parallel.executor.FaultTolerantExecutor` kind as the
    compute stage; this wrapper routes only the plan's
    :class:`MergeFaultSpec` entries to those dispatches (matched by the
    spec's ``(round_idx, root_block)``, never by the compute-stage
    ``block_id`` faults).  Crash and corrupt faults land the same way
    in-process and on a pool — a raised :class:`InjectedCrash`, or one
    truncated member blob from a deterministic rng stream — so a
    scenario behaves identically at any worker count; ``exit`` kills
    the pool worker to exercise the broken-pool restart and
    degrade-to-serial paths.
    """

    plan: FaultPlan

    def run(
        self, fn: Callable[[Any], Any], spec: Any, attempt: int, context: str
    ) -> Any:
        matching = [
            f for f in self.plan.merge_faults
            if f.matches(spec.round_idx, spec.root_block, attempt)
        ]
        for f in matching:
            if f.kind == "crash":
                raise InjectedCrash(
                    f"injected merge crash: round {spec.round_idx} "
                    f"root {spec.root_block} attempt {attempt}"
                )
            if f.kind == "exit" and context == "pool":
                os._exit(1)
        if any(f.kind == "corrupt" for f in matching) and spec.member_blobs:
            from repro.io.spool import blob_bytes

            rng = random.Random(
                f"{self.plan.seed}:{spec.round_idx}:"
                f"{spec.root_block}:{attempt}"
            )
            blobs = list(spec.member_blobs)
            i = rng.randrange(len(blobs))
            # a spilled handle is materialized before truncation so the
            # corruption hits the unpacked bytes, not the tiny ref
            whole = blob_bytes(blobs[i])
            blobs[i] = whole[: max(1, len(whole) // 2)]
            spec = replace(spec, member_blobs=tuple(blobs))
        return fn(spec)

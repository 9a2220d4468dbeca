"""Virtual distributed-memory substrate.

The paper's implementation is MPI on an IBM Blue Gene/P.  The execution
environment of this reproduction has no MPI, so this subpackage provides
a deterministic virtual equivalent:

- :mod:`repro.parallel.decomposition` — bisection domain decomposition
  and block-cyclic process assignment (§IV-A),
- :mod:`repro.parallel.radixk` — configurable merge-round schedules
  (rounds × radix, §IV-F2), modeled on the Radix-k compositing algorithm,
- :mod:`repro.parallel.comm` — message-passing primitives and collectives
  expressed as coroutine requests,
- :mod:`repro.parallel.runtime` — the :class:`VirtualMPI` scheduler that
  executes SPMD rank programs (generators) with deterministic delivery,
  deadlock detection, and a byte-accurate message log for the machine
  model,
- :mod:`repro.parallel.executor` — real shared-memory backends
  (:class:`SerialExecutor`, :class:`ProcessPoolBlockExecutor`) that the
  compute stage and the merge rounds fan their work out over.

The rank programs exercise exactly the communication structure a real
MPI run would (point-to-point merge-group sends, barriers, gathers); the
transport is simulated, and the ranks replay work the executors already
computed to price it on the virtual machine.
"""

from repro.parallel.decomposition import BlockDecomposition, decompose
from repro.parallel.executor import (
    BlockExecutor,
    BlockTimeoutError,
    ComputeStageError,
    CorruptPayloadError,
    FaultTolerantExecutor,
    FaultToleranceError,
    ProcessPoolBlockExecutor,
    RetryPolicy,
    SerialExecutor,
    make_executor,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.radixk import MergeSchedule, MergeRound, full_merge_radices
from repro.parallel.runtime import VirtualMPI, pool_makespan
from repro.parallel.comm import Comm

__all__ = [
    "BlockDecomposition",
    "BlockExecutor",
    "BlockTimeoutError",
    "Comm",
    "ComputeStageError",
    "CorruptPayloadError",
    "FaultPlan",
    "FaultTolerantExecutor",
    "FaultToleranceError",
    "MergeRound",
    "MergeSchedule",
    "ProcessPoolBlockExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "VirtualMPI",
    "decompose",
    "full_merge_radices",
    "make_executor",
    "pool_makespan",
]

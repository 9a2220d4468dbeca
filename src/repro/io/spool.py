"""Disk-backed blob spool: bounded driver memory for the merge stage.

The merge pre-pass (:mod:`repro.core.pipeline`) is a pipeline of
packed MS-complex blobs: every compute payload, every round's merged
snapshot, and the final write-stage bytes are the same
:func:`~repro.core.merge.pack_complex` currency.  Holding them all in
driver RAM makes peak RSS grow with block count and volume size — the
opposite of what the paper's 1152³ regime needs.  :class:`BlobSpool`
bounds that: blobs stay resident under a byte budget (the bit-identical
fast path), and are spilled LRU-first to content-addressed files under a
run-scoped spool directory when the budget is exceeded.

Handles, not copies, circulate through the pipeline:

- a *resident* blob's handle is the ``bytes`` object itself;
- a *spilled* blob's handle is a tiny picklable :class:`SpilledBlobRef`
  that any process (driver, pool worker, degraded-serial fallback) can
  materialize on demand with an mmap read of the spool file.

:func:`blob_bytes` / :func:`blob_nbytes` accept either form, so merge
workers, the fault-injection harness, and the write stage never branch
on where a blob lives.  Files are written atomically (temp name +
``os.replace``) and named by content digest, so identical blobs share
one file and a retry can never observe a half-written spill.

Crash safety: spool directories embed the owning pid
(``repro-spool-<pid>-<token>``); :func:`sweep_stale_spool_dirs` reaps
directories whose owner is dead and whose mtime is older than an age
guard, and runs once per process from session/spool startup, so a
crashed driver's spill files do not accumulate forever.
"""

from __future__ import annotations

import errno
import hashlib
import mmap
import os
import shutil
import tempfile
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import get_tracer

__all__ = [
    "BlobSpool",
    "SpilledBlobRef",
    "SpoolStats",
    "blob_bytes",
    "blob_nbytes",
    "process_spool_totals",
    "sweep_stale_spool_dirs",
]

#: prefix of every run-scoped spool directory (followed by ``<pid>-<token>``)
SPOOL_PREFIX = "repro-spool-"

#: default age guard of the stale-directory sweep: a dead-owner dir is
#: only reaped when untouched for this long, so a directory another
#: process is *just creating* (pid recorded before first write) or a
#: pid-reuse collision can never be swept out from under a live run
STALE_AGE_SECONDS = 3600.0


@dataclass(frozen=True)
class SpilledBlobRef:
    """Picklable handle to one spilled blob: path, size, content digest.

    Self-contained by design — a pool worker that receives a ref inside
    a :class:`~repro.core.merge.MergeSpec` materializes it with
    :meth:`bytes` (an mmap read of the spool file) without any spool
    object, and the driver's spool bookkeeping never crosses the
    process boundary.
    """

    path: str
    nbytes: int
    digest: str

    def bytes(self) -> bytes:
        """Materialize the blob from its spool file (mmap read)."""
        with open(self.path, "rb") as fh:
            if self.nbytes == 0:
                return b""
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                data = bytes(mm)
        if len(data) != self.nbytes:
            raise OSError(
                f"spool file {self.path} holds {len(data)} bytes, "
                f"expected {self.nbytes} (truncated spill?)"
            )
        return data


def blob_bytes(blob: bytes | SpilledBlobRef) -> bytes:
    """The packed bytes of a blob handle — resident or spilled."""
    if isinstance(blob, (bytes, bytearray, memoryview)):
        return bytes(blob)
    return blob.bytes()


def blob_nbytes(blob: bytes | SpilledBlobRef) -> int:
    """Size in bytes of a blob handle, without materializing it."""
    if isinstance(blob, (bytes, bytearray, memoryview)):
        return len(blob)
    return blob.nbytes


@dataclass
class SpoolStats:
    """Observability counters of one :class:`BlobSpool`."""

    #: blobs stored through :meth:`BlobSpool.put`
    puts: int = 0
    #: total bytes stored through :meth:`BlobSpool.put`
    bytes_put: int = 0
    #: blobs evicted from residency to disk (LRU-first)
    spills: int = 0
    #: bytes of spilled blobs whose file was actually written
    bytes_spilled: int = 0
    #: spills answered by an existing content-addressed file (dedup)
    dedup_hits: int = 0
    #: spilled blobs the driver materialized back from disk
    read_backs: int = 0
    #: bytes the driver read back from spool files
    bytes_read_back: int = 0
    #: resident blob bytes right now
    resident_bytes: int = 0
    #: highest resident byte count ever observed (the RSS-bound claim)
    resident_peak_bytes: int = 0
    #: resident blob count right now
    resident_blobs: int = 0
    #: logical bytes currently living on disk (per-key, dedup ignored)
    spilled_bytes: int = 0

    def to_dict(self) -> dict:
        """Stable scalar snapshot (benchmarks, ``/v1/stats``)."""
        return {
            "puts": self.puts,
            "bytes_put": self.bytes_put,
            "spills": self.spills,
            "bytes_spilled": self.bytes_spilled,
            "dedup_hits": self.dedup_hits,
            "read_backs": self.read_backs,
            "bytes_read_back": self.bytes_read_back,
            "resident_bytes": self.resident_bytes,
            "resident_peak_bytes": self.resident_peak_bytes,
            "resident_blobs": self.resident_blobs,
            "spilled_bytes": self.spilled_bytes,
        }


#: process-wide aggregate over every spool ever used here, updated live
#: on spill/read-back — the counters ``repro serve`` exposes through
#: ``GET /v1/stats`` so operators see merge memory pressure
_PROCESS_TOTALS = {
    "spools_opened": 0,
    "spills": 0,
    "bytes_spilled": 0,
    "read_backs": 0,
    "bytes_read_back": 0,
    "resident_blobs": 0,
    "resident_bytes": 0,
    "resident_peak_bytes": 0,
}


def process_spool_totals() -> dict:
    """Process-wide spool counters (all spools, live and closed)."""
    return dict(_PROCESS_TOTALS)


class BlobSpool:
    """LRU blob store with a resident-byte budget and disk spill-over.

    Parameters
    ----------
    budget_bytes:
        Resident-byte ceiling.  ``None`` (default) never spills: the
        spool is a pure in-memory table, touches no disk, and creates
        no directory — the fast path is byte-for-byte the pre-spool
        pipeline.  ``0`` spills everything immediately.
    base_dir:
        Parent of the run-scoped spool directory (default: the system
        temp dir).  The directory itself is created lazily, on the
        first spill only.

    Keys are arbitrary hashables (the pipeline uses
    ``("b", block_id)`` for compute blobs and ``("m", round, root)``
    for merge snapshots).  :meth:`put` stores a blob and eagerly
    enforces the budget by spilling least-recently-used entries;
    :meth:`handle` returns the blob's current form (bytes or
    :class:`SpilledBlobRef`) without any I/O; :meth:`get` always
    materializes bytes.  :meth:`close` removes the whole spool
    directory — spill files are immutable until then, which is what
    lets retries and the write stage re-read them instead of
    re-packing.
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        base_dir: str | Path | None = None,
        tracer=None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        self.budget_bytes = budget_bytes
        self.base_dir = Path(base_dir) if base_dir else None
        self.stats = SpoolStats()
        self._tracer = tracer
        self._resident: OrderedDict = OrderedDict()
        self._spilled: dict = {}
        self._dir: Path | None = None
        self._closed = False
        _PROCESS_TOTALS["spools_opened"] += 1
        if budget_bytes is not None:
            # a bounded spool may touch disk; make sure orphans from
            # crashed earlier drivers get reaped (once per process)
            maybe_sweep_stale_spool_dirs(self.base_dir)

    # -- the blob table ----------------------------------------------------

    def put(self, key, blob: bytes) -> None:
        """Store ``blob`` under ``key`` and enforce the budget.

        The new blob enters as most-recently-used; when the resident
        total exceeds the budget, least-recently-used entries are
        spilled until it fits (the newest entry itself spills last —
        and only when it alone exceeds the budget).
        """
        if self._closed:
            raise RuntimeError("spool is closed")
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"spool stores packed bytes, got {type(blob).__name__}"
            )
        blob = bytes(blob)
        self.discard(key)
        self._resident[key] = blob
        self.stats.puts += 1
        self.stats.bytes_put += len(blob)
        self._account_resident(len(blob))
        if self.budget_bytes is not None:
            while (
                self.stats.resident_bytes > self.budget_bytes
                and self._resident
            ):
                old_key, old_blob = self._resident.popitem(last=False)
                self._spill(old_key, old_blob)

    def handle(self, key) -> bytes | SpilledBlobRef:
        """The blob's current form — resident bytes or a spilled ref.

        Never performs I/O; touching a resident entry marks it
        most-recently-used.
        """
        blob = self._resident.get(key)
        if blob is not None:
            self._resident.move_to_end(key)
            return blob
        ref = self._spilled.get(key)
        if ref is None:
            raise KeyError(f"no blob spooled under {key!r}")
        return ref

    def get(self, key) -> bytes:
        """The blob's bytes, read back from disk when spilled."""
        return self.materialize(self.handle(key))

    def materialize(self, blob: bytes | SpilledBlobRef) -> bytes:
        """Like :func:`blob_bytes`, with driver-side read-back stats."""
        if isinstance(blob, SpilledBlobRef):
            self.stats.read_backs += 1
            self.stats.bytes_read_back += blob.nbytes
            _PROCESS_TOTALS["read_backs"] += 1
            _PROCESS_TOTALS["bytes_read_back"] += blob.nbytes
            if self._tracer is not None:
                self._tracer.event(
                    "spool.read_back", cat="spool", bytes=blob.nbytes,
                )
        return blob_bytes(blob)

    def discard(self, key) -> None:
        """Drop ``key`` from the table (no-op when absent).

        A spilled entry's file is deliberately left on disk until
        :meth:`close` — content addressing may share it with other
        keys, and in-flight workers may still hold refs to it.
        """
        blob = self._resident.pop(key, None)
        if blob is not None:
            self._account_resident(-len(blob))
        ref = self._spilled.pop(key, None)
        if ref is not None:
            self.stats.spilled_bytes -= ref.nbytes

    def __contains__(self, key) -> bool:
        return key in self._resident or key in self._spilled

    def __len__(self) -> int:
        return len(self._resident) + len(self._spilled)

    # -- lifecycle ---------------------------------------------------------

    @property
    def spool_dir(self) -> Path | None:
        """The run-scoped directory (``None`` until the first spill)."""
        return self._dir

    def close(self) -> None:
        """Drop the table and remove the spool directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        resident_total = sum(len(b) for b in self._resident.values())
        self._resident.clear()
        self._account_resident(-resident_total)
        self._spilled.clear()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "BlobSpool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _account_resident(self, delta_bytes: int) -> None:
        prev_blobs = self.stats.resident_blobs
        self.stats.resident_bytes += delta_bytes
        self.stats.resident_blobs = len(self._resident)
        _PROCESS_TOTALS["resident_bytes"] += delta_bytes
        _PROCESS_TOTALS["resident_blobs"] += self.stats.resident_blobs - prev_blobs
        if self.stats.resident_bytes > self.stats.resident_peak_bytes:
            self.stats.resident_peak_bytes = self.stats.resident_bytes
        if (
            _PROCESS_TOTALS["resident_bytes"]
            > _PROCESS_TOTALS["resident_peak_bytes"]
        ):
            _PROCESS_TOTALS["resident_peak_bytes"] = _PROCESS_TOTALS[
                "resident_bytes"
            ]

    def _ensure_dir(self) -> Path:
        if self._dir is None:
            base = self.base_dir or Path(tempfile.gettempdir())
            base.mkdir(parents=True, exist_ok=True)
            self._dir = (
                base / f"{SPOOL_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
            )
            self._dir.mkdir()
        return self._dir

    def _spill(self, key, blob: bytes) -> None:
        """Write one evicted blob to its content-addressed file."""
        digest = hashlib.sha256(blob).hexdigest()
        path = self._ensure_dir() / f"{digest}.blob"
        if path.exists():
            self.stats.dedup_hits += 1
        else:
            # atomic publish: a crash mid-write leaves only a temp file
            # (reaped with the dir); readers never see partial bytes
            tmp = path.with_name(f"tmp-{os.getpid()}-{path.name}")
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            self.stats.bytes_spilled += len(blob)
            _PROCESS_TOTALS["bytes_spilled"] += len(blob)
        ref = SpilledBlobRef(str(path), len(blob), digest)
        self._spilled[key] = ref
        self._account_resident(-len(blob))
        self.stats.spills += 1
        self.stats.spilled_bytes += len(blob)
        _PROCESS_TOTALS["spills"] += 1
        if self._tracer is not None:
            self._tracer.event(
                "spool.spill", cat="spool",
                bytes=len(blob), resident=self.stats.resident_bytes,
            )


# ---------------------------------------------------------------------------
# stale-directory sweep (crash recovery)
# ---------------------------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError as exc:  # pragma: no cover - exotic platforms
        return exc.errno != errno.ESRCH
    return True


def _spool_dir_pid(name: str) -> int | None:
    """The owner pid embedded in a spool directory name, if any."""
    if not name.startswith(SPOOL_PREFIX):
        return None
    rest = name[len(SPOOL_PREFIX):]
    pid_text = rest.split("-", 1)[0]
    try:
        return int(pid_text)
    except ValueError:
        return None


def sweep_stale_spool_dirs(
    base_dir: str | Path | None = None,
    min_age_seconds: float = STALE_AGE_SECONDS,
    now: float | None = None,
) -> list[Path]:
    """Reap spool directories orphaned by crashed drivers.

    A directory is stale exactly when (a) its name carries the
    ``repro-spool-<pid>-`` shape, (b) no process with that pid exists,
    and (c) its mtime is older than ``min_age_seconds`` — the age guard
    that protects both a directory mid-creation and a pid that was
    recycled since the crash.  Live directories (owner running) are
    never touched, whatever their age.  Returns the removed paths.

    Normal runs never need this — :meth:`BlobSpool.close` removes the
    run's directory — but a SIGKILLed or OOM-killed driver leaves its
    spill files behind; :class:`repro.core.session.PipelineSession`
    startup and the first bounded spool of a process each run one sweep.
    """
    import time as _time

    base = Path(base_dir) if base_dir else Path(tempfile.gettempdir())
    if now is None:
        now = _time.time()
    removed: list[Path] = []
    try:
        entries = list(base.iterdir())
    except OSError:
        return removed
    for entry in entries:
        pid = _spool_dir_pid(entry.name)
        if pid is None or not entry.is_dir():
            continue
        if _pid_alive(pid):
            continue
        try:
            age = now - entry.stat().st_mtime
        except OSError:
            continue  # vanished under us (concurrent sweep)
        if age < min_age_seconds:
            continue
        shutil.rmtree(entry, ignore_errors=True)
        removed.append(entry)
        get_tracer().event(
            "spool.sweep", cat="spool", path=str(entry), owner_pid=pid,
        )
    return removed


#: once-per-process latch of the startup sweep
_SWEPT = False


def maybe_sweep_stale_spool_dirs(
    base_dir: str | Path | None = None,
) -> list[Path]:
    """Run :func:`sweep_stale_spool_dirs` once per process (cheap no-op
    afterwards)."""
    global _SWEPT
    if _SWEPT:
        return []
    _SWEPT = True
    return sweep_stale_spool_dirs(base_dir)

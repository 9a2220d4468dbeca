"""Small helpers shared by the benchmark: statistics, names, records.

Nothing here imports :mod:`repro`, so the helpers (and their tests) work
in any interpreter that has numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: metric and workload names: a letter or digit, then at most 63 of
#: letters, digits, ``_``, ``.`` and ``-``
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: metric units, e.g. ``ms``, ``s``, ``1/s``, ``count``
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: a tail percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def median(samples) -> float | None:
    """Median of ``samples``; ``None`` for an empty sample."""
    samples = list(samples)
    return statistics.median(samples) if samples else None


def tail_percentile(samples, q: float) -> float | None:
    """The ``q``-quantile (0.5 < q < 1) when it is well supported.

    Returns ``None`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie strictly above the quantile's rank, so a p99 needs at least
    1000 samples.  Uses the nearest-rank definition.
    """
    if not 0.5 < q < 1.0:
        raise ValueError(f"tail percentile needs 0.5 < q < 1, got {q}")
    xs = sorted(samples)
    if not xs:
        return None
    rank = max(1, math.ceil(q * len(xs)))  # 1-based nearest rank
    if len(xs) - rank < MIN_TAIL_SAMPLES:
        return None
    return xs[rank - 1]


def quartile_spread(values) -> float:
    """Inter-quartile distance over the median (``statistics`` quartiles)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def derive_seed(*parts: int) -> int:
    """A 32-bit generator seed derived from the benchmark seed and indices."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1)[0])


def sha256_blobs(blobs) -> str:
    """One digest over packed output blocks, given in block-id order."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def euler_sum(counts) -> int:
    """#min - #1-saddle + #2-saddle - #max."""
    c0, c1, c2, c3 = counts
    return c0 - c1 + c2 - c3


def peak_rss_mib() -> float:
    """This process's peak resident set size in MiB (Linux ru_maxrss)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations of one run.

    An operation fails when it raises or when a correctness check on
    its output fails; both count once against ``attempted``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, fn, *args, **kwargs):
        """Run ``fn``; count it, and count and swallow what it raises.

        Returns ``(ok, value)``; ``value`` is ``None`` on failure.
        """
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must report, not die
            self.failed += 1
            self._note(f"{getattr(fn, '__name__', fn)}: "
                       f"{type(exc).__name__}: {exc}")
            return False, None

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"check failed: {what}")
        return ok

    def fail(self, what: str) -> None:
        """Mark an already-counted operation as failed."""
        self.failed += 1
        self._note(what)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def _note(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)


@dataclass
class Span:
    """One benchmark-side span around a call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder; written out once, at the end.

    ``span(name)`` nests: the innermost open span is the parent of the
    next one.  A disabled recorder (the untraced replay) does nothing
    but run the body.
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        sp = Span(
            span_id=len(self.spans), name=name, start=time.perf_counter(),
            end=0.0, parent=self._open[-1] if self._open else None,
            run_id=self.run_id, attrs=attrs,
        )
        self.spans.append(sp)
        self._open.append(sp.span_id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [
            {"id": s.span_id, "name": s.name, "start": s.start,
             "end": s.end, "parent": s.parent, "run_id": s.run_id,
             "attrs": s.attrs}
            for s in self.spans
        ]


def host_fingerprint() -> dict:
    """Cores, interpreter and numpy version of the measuring host."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``root/.git`` without git.

    Reads nothing outside ``root``; a checkout without ``.git`` (an
    exported tree) reports ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def dump_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")

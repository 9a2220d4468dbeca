"""Golden per-rank virtual timelines of the golden ``.msc`` run.

The virtual clock every rank advances (read, compute, each merge round,
write) and the bytes the ranks exchange are a pure function of the
recorded work, so where the work ran — which executor, how many
workers — must never show in them.  ``tests/data/golden_timelines.json``
pins them exactly for the golden run of :mod:`tests.test_golden_mscfile`
at ``workers=1`` and ``workers=2``; it regenerates as::

    PYTHONPATH=src python -c "import tests.test_golden_timelines as g; \
        g.write_golden()"
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ExecutionOptions

GOLDEN_TIMELINES = Path(__file__).parent / "data" / "golden_timelines.json"


def timelines(workers: int) -> dict:
    """Per-rank virtual timelines of the golden run at ``workers``."""
    field = np.random.default_rng(42).random((9, 9, 9))
    stats = repro.compute(
        field, persistence=0.1, ranks=8,
        options=ExecutionOptions(workers=workers, retry_backoff=0.0),
    ).stats
    return {
        "message_bytes": stats.message_bytes,
        "ranks": [
            {
                "rank": t.rank,
                "read": t.read,
                "compute": t.compute,
                "after_round": list(t.after_round),
                "write": t.write,
                "final_clock": t.final_clock,
            }
            for t in sorted(stats.timelines, key=lambda t: t.rank)
        ],
    }


def write_golden() -> None:
    GOLDEN_TIMELINES.write_text(
        json.dumps({f"workers={w}": timelines(w) for w in (1, 2)}, indent=1)
        + "\n"
    )


def _golden(workers: int) -> dict:
    return json.loads(GOLDEN_TIMELINES.read_text())[f"workers={workers}"]


def test_serial_timelines_match_golden():
    assert timelines(1) == _golden(1)


@pytest.mark.slow
def test_pooled_timelines_match_golden():
    assert timelines(2) == _golden(2)

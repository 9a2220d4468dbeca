"""Tests for the out-of-core merge spool (repro.io.spool) and the
spilled-mode pipeline: budget enforcement, LRU spill order, crash-safe
cleanup, and bit-identity of fully spilled runs against the golden file.
"""

import os
import pickle
import time

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.io import spool as spoolmod
from repro.io.spool import (
    SPOOL_PREFIX,
    BlobSpool,
    SpilledBlobRef,
    blob_bytes,
    blob_nbytes,
    process_spool_totals,
    sweep_stale_spool_dirs,
)

from tests.test_golden_mscfile import GOLDEN


class TestBlobHelpers:
    def test_blob_bytes_passthrough(self):
        assert blob_bytes(b"abc") == b"abc"
        assert blob_bytes(bytearray(b"abc")) == b"abc"
        assert blob_bytes(memoryview(b"abc")) == b"abc"

    def test_blob_nbytes(self, tmp_path):
        assert blob_nbytes(b"abcd") == 4
        ref = SpilledBlobRef(str(tmp_path / "x.blob"), 17, "d" * 64)
        assert blob_nbytes(ref) == 17  # no I/O, the file doesn't exist

    def test_ref_roundtrip_and_pickle(self, tmp_path):
        path = tmp_path / "r.blob"
        path.write_bytes(b"payload")
        ref = SpilledBlobRef(str(path), 7, "x")
        assert ref.bytes() == b"payload"
        clone = pickle.loads(pickle.dumps(ref))
        assert clone.bytes() == b"payload"

    def test_truncated_spill_detected(self, tmp_path):
        path = tmp_path / "t.blob"
        path.write_bytes(b"half")
        with pytest.raises(OSError, match="truncated"):
            SpilledBlobRef(str(path), 8, "x").bytes()


class TestUnboundedSpool:
    def test_pure_passthrough_no_disk(self, tmp_path):
        with BlobSpool(base_dir=tmp_path) as sp:
            blob = b"z" * 100
            sp.put(("b", 0), blob)
            assert sp.handle(("b", 0)) is blob
            assert sp.get(("b", 0)) == blob
            assert sp.stats.spills == 0
            assert sp.spool_dir is None
            assert list(tmp_path.iterdir()) == []

    def test_missing_key_raises(self):
        with BlobSpool() as sp:
            with pytest.raises(KeyError):
                sp.handle(("b", 99))


class TestBudgetEnforcement:
    def test_lru_spills_first(self, tmp_path):
        with BlobSpool(budget_bytes=25, base_dir=tmp_path) as sp:
            sp.put("a", b"a" * 10)
            sp.put("b", b"b" * 10)
            sp.handle("a")  # touch: "a" becomes most-recently-used
            sp.put("c", b"c" * 10)  # over budget -> evict LRU ("b")
            assert isinstance(sp.handle("b"), SpilledBlobRef)
            assert isinstance(sp.handle("a"), bytes)
            assert isinstance(sp.handle("c"), bytes)
            assert sp.stats.spills == 1
            assert sp.stats.resident_bytes == 20

    def test_budget_bound_holds_under_churn(self, tmp_path):
        budget = 64
        with BlobSpool(budget_bytes=budget, base_dir=tmp_path) as sp:
            for i in range(50):
                sp.put(i, bytes([i % 251]) * 16)
                assert sp.stats.resident_bytes <= budget
            assert sp.stats.resident_peak_bytes <= budget + 16
            assert len(sp) == 50  # nothing lost, spilled or resident
            for i in range(50):
                assert sp.get(i) == bytes([i % 251]) * 16

    def test_zero_budget_spills_everything(self, tmp_path):
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("k", b"data")
            assert sp.stats.resident_bytes == 0
            ref = sp.handle("k")
            assert isinstance(ref, SpilledBlobRef)
            assert sp.materialize(ref) == b"data"
            assert sp.stats.read_backs == 1

    def test_content_addressed_dedup(self, tmp_path):
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("x", b"same-bytes")
            sp.put("y", b"same-bytes")
            assert sp.stats.spills == 2
            assert sp.stats.dedup_hits == 1
            files = list(sp.spool_dir.glob("*.blob"))
            assert len(files) == 1  # one file serves both keys
            assert sp.get("x") == sp.get("y") == b"same-bytes"

    def test_rejects_non_bytes(self):
        with BlobSpool() as sp:
            with pytest.raises(TypeError):
                sp.put("k", 123)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlobSpool(budget_bytes=-1)

    def test_close_removes_spool_dir(self, tmp_path):
        sp = BlobSpool(budget_bytes=0, base_dir=tmp_path)
        sp.put("k", b"spilled")
        spool_dir = sp.spool_dir
        assert spool_dir is not None and spool_dir.exists()
        assert spool_dir.name.startswith(f"{SPOOL_PREFIX}{os.getpid()}-")
        sp.close()
        assert not spool_dir.exists()
        sp.close()  # idempotent
        with pytest.raises(RuntimeError):
            sp.put("k", b"after close")

    def test_process_totals_track_spills(self, tmp_path):
        before = process_spool_totals()
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("k", b"counted")
            sp.get("k")
        after = process_spool_totals()
        assert after["spills"] == before["spills"] + 1
        assert after["read_backs"] == before["read_backs"] + 1
        assert after["resident_bytes"] == before["resident_bytes"]


class TestStaleSweep:
    def _make_spool_dir(self, base, pid, age_seconds):
        d = base / f"{SPOOL_PREFIX}{pid}-deadbeef"
        d.mkdir()
        (d / "x.blob").write_bytes(b"orphan")
        old = time.time() - age_seconds
        os.utime(d, (old, old))
        return d

    def test_dead_owner_old_dir_is_reaped(self, tmp_path):
        # regression: crashed-driver leftovers used to live forever
        dead = self._make_spool_dir(tmp_path, 2**22 + 12345, 7200)
        removed = sweep_stale_spool_dirs(tmp_path, min_age_seconds=3600)
        assert removed == [dead]
        assert not dead.exists()

    def test_age_guard_protects_recent_dirs(self, tmp_path):
        recent = self._make_spool_dir(tmp_path, 2**22 + 12345, 10)
        assert sweep_stale_spool_dirs(tmp_path, min_age_seconds=3600) == []
        assert recent.exists()

    def test_live_owner_never_swept(self, tmp_path):
        live = self._make_spool_dir(tmp_path, os.getpid(), 7200)
        assert sweep_stale_spool_dirs(tmp_path, min_age_seconds=0) == []
        assert live.exists()

    def test_foreign_dirs_untouched(self, tmp_path):
        other = tmp_path / "not-a-spool-dir"
        other.mkdir()
        unparsable = tmp_path / f"{SPOOL_PREFIX}notapid-x"
        unparsable.mkdir()
        assert sweep_stale_spool_dirs(tmp_path, min_age_seconds=0) == []
        assert other.exists() and unparsable.exists()

    def test_maybe_sweep_runs_once_per_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spoolmod, "_SWEPT", False)
        dead = self._make_spool_dir(tmp_path, 2**22 + 54321, 7200)
        assert spoolmod.maybe_sweep_stale_spool_dirs(tmp_path) == [dead]
        # latched: a second call does not even scan
        again = self._make_spool_dir(tmp_path, 2**22 + 54321, 7200)
        assert spoolmod.maybe_sweep_stale_spool_dirs(tmp_path) == []
        assert again.exists()


@pytest.mark.slow
class TestSpilledPipelineGolden:
    """Tier-1 smoke: a fully spilled merge stage writes bytes identical
    to the committed golden file."""

    def test_spilled_golden_bit_identity(self, tmp_path):
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(
            field, persistence=0.1, ranks=8,
            options=ExecutionOptions(workers=2, retry_backoff=0.0,
                                     merge_spill_budget_bytes=0),
        )
        out = tmp_path / "spilled.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        # the run genuinely went through disk
        assert result.stats.spool is not None
        assert result.stats.spool["spills"] > 0
        assert result.stats.spool["resident_bytes"] == 0

    def test_tiny_budget_golden_bit_identity(self, tmp_path):
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(
            field, persistence=0.1, ranks=8,
            options=ExecutionOptions(workers=2, retry_backoff=0.0,
                                     merge_spill_budget_bytes=4096),
        )
        out = tmp_path / "tiny_budget.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] > 0

    def test_unlimited_budget_never_spills(self):
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(
            field, persistence=0.1, ranks=8,
            options=ExecutionOptions(workers=2, retry_backoff=0.0),
        )
        assert result.stats.spool is not None
        assert result.stats.spool["spills"] == 0
        assert result.stats.spool["read_backs"] == 0

    def test_serial_merge_spills_bit_identically(self, tmp_path):
        """At one worker the merge rounds spool exactly like pooled ones."""
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(
            field, persistence=0.1, ranks=8,
            options=ExecutionOptions(retry_backoff=0.0,
                                     merge_spill_budget_bytes=0),
        )
        out = tmp_path / "serial_spilled.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] > 0

    def test_spool_dir_removed_after_run(self, tmp_path, monkeypatch):
        import tempfile as _tempfile

        monkeypatch.setattr(_tempfile, "gettempdir", lambda: str(tmp_path))
        field = np.random.default_rng(42).random((9, 9, 9))
        repro.compute(
            field, persistence=0.1, ranks=8,
            options=ExecutionOptions(workers=2, retry_backoff=0.0,
                                     merge_spill_budget_bytes=0),
        )
        leftovers = [
            p for p in tmp_path.iterdir()
            if p.name.startswith(SPOOL_PREFIX)
        ]
        assert leftovers == []

    @pytest.mark.chaos
    def test_spilled_run_with_faults_recovers_bit_identical(self, tmp_path):
        """Merge retries materialize their snapshots through the spool;
        injected compute and merge faults must not perturb spilled-mode
        bytes."""
        from repro.parallel.faults import FaultPlan

        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(
            field, persistence=0.1, ranks=8,
            options=ExecutionOptions(workers=2, retry_backoff=0.0, max_retries=3,
                                     merge_spill_budget_bytes=0),
            faults=FaultPlan.corrupt_on([1], seed=7)
            + FaultPlan.merge_corrupt_on([(0, 0)]),
        )
        out = tmp_path / "faulted_spill.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] > 0

"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q

They are not part of the program's test suite (``tests/``); the smoke
tests run every workload at a small size and take about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import benchlib as bl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- BENCHMARK.json and metric names --------------------------------------

def test_benchmark_json_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_metric_and_workload_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(bl.valid_name(n) for n in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(bl.valid_unit(u) for u in units)
    assert all(m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_name_validator_rejects_bad_names():
    assert bl.valid_name("run_s_p50")
    assert bl.valid_name("merge.unpack_s")
    assert not bl.valid_name("_leading")
    assert not bl.valid_name("has space")
    assert not bl.valid_name("x" * 65)
    assert bl.valid_unit("Mvox/s") and bl.valid_unit("%")
    assert not bl.valid_unit("m s")


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# -- statistics helpers ---------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    # p99 of 1000 samples has exactly 10 beyond it
    xs = list(range(1, 1001))
    assert bl.tail_percentile(xs, 0.99) == 990
    assert bl.tail_percentile(xs[:999], 0.99) is None
    # p90 needs 100 samples
    assert bl.tail_percentile(range(100), 0.9) == 89
    assert bl.tail_percentile(range(99), 0.9) is None
    assert bl.tail_percentile([], 0.99) is None
    with pytest.raises(ValueError):
        bl.tail_percentile(xs, 0.5)


def test_median_and_spread():
    assert bl.median([3.0, 1.0, 2.0]) == 2.0
    assert bl.median([]) is None
    assert bl.quartile_spread([1.0] * 10) == 0.0
    assert math.isclose(bl.quartile_spread(range(1, 11)), 5.5 / 5.5)


def test_derive_seed_is_stable_and_distinct():
    assert bl.derive_seed(1, 0) == bl.derive_seed(1, 0)
    assert bl.derive_seed(1, 0) != bl.derive_seed(1, 1)
    assert bl.derive_seed(1, 0) != bl.derive_seed(2, 0)


# -- failure accounting ---------------------------------------------------

def test_tally_counts_raised_job_and_wrong_digest():
    tally = bl.Tally()

    def job():
        raise RuntimeError("worker died")

    ok, value = tally.attempt(job)
    assert not ok and value is None
    ok, value = tally.attempt(lambda: "abc")
    assert ok and value == "abc"
    tally.check(bl.sha256_blobs([b"x"]) == bl.sha256_blobs([b"y"]),
                "wrong digest")
    tally.check(True, "fine")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert any("worker died" in e for e in tally.errors)
    assert any("wrong digest" in e for e in tally.errors)


def test_session_loop_counts_a_raising_run(tmp_path):
    from workloads import WORKLOADS, session_loop

    class FlakyCaller:
        calls = 0

        def request(self, values):
            self.calls += 1
            raise RuntimeError("pool broke")

    tally = bl.Tally()
    wl = WORKLOADS["noise_merge"].smoke()
    out = session_loop(FlakyCaller(), wl, 1, 1e-6, tally)
    assert out.run_s == []
    assert tally.failed == tally.attempted == 1


def test_reference_mismatch_is_a_failure(tmp_path, monkeypatch):
    import bench
    from workloads import WORKLOADS, make_caller

    wl = WORKLOADS["noise_merge"].smoke()
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({wl.name: {
        "dims": list(wl.dims), "sha256": "0" * 64,
        "virtual_w1": {"total": 0.0},
    }}))
    monkeypatch.setattr(bench, "REFERENCE", ref)
    tally = bl.Tally()
    drv = make_caller(wl, tmp_path)
    try:
        drv.open()
        _, out = bench.reference_phase(drv, wl, None, tally, tmp_path,
                                       write=False)
    finally:
        drv.close()
    assert tally.failed >= 2  # digest and virtual times
    assert any("reference digest" in e for e in tally.errors)
    assert out["matches_committed"] is False


def test_span_parents_and_run_id():
    spans = bl.Spans(run_id="r")
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    outer, inner = spans.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.run_id == outer.run_id == "r"
    assert bl.Spans("r", enabled=False).spans == []


# -- whole runs at smoke size ---------------------------------------------

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("host", "git_rev", "seed", "samples"):
        assert key in record
    assert record["host"]["cores"] >= 1


def _session_pids(sid: int) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after "(comm)": state, ppid, pgrp, session
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                    reason="needs Linux /proc")
def test_run_leaves_no_process_behind():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "noise_merge",
         "--seed", "3", "--seconds", "0.5", "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    _, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    # its own session holds the runner and everything it started
    assert _session_pids(proc.pid) == []


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "noise_merge", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

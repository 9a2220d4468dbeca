"""Out-of-core merge benchmark: bounded driver memory, bit-identity.

Measures the three claims the spill-to-disk merge rework makes:

- ``rss_flatness``: peak driver RSS of full pipeline runs (measured in
  a fresh subprocess per configuration, so each probe sees its own
  high-water mark) stays roughly flat as the block count grows 4x at a
  fixed small ``merge_spill_budget_bytes``.  The sweep holds per-block
  size fixed and grows the volume with the block count — the paper's
  weak-scaling regime, and the one the spool addresses: more blocks
  mean more packed blobs, and without a budget the driver's blob
  residency grows linearly with them (driver transients that scale with
  per-*block* size, by contrast, are compute/write-stage behavior the
  merge spool does not touch).  The sharp companion metric is the
  spool's ``resident_peak_bytes`` gauge — the packed-blob bytes the
  driver actually held — which the budget bounds directly while the
  unbounded run's gauge grows ~4x across the sweep.
- ``bit_identity``: the ``.msc`` written by a fully spilled run
  (budget 0, every snapshot round-trips through disk) is byte-identical
  to the resident-mode golden file (unlimited budget).
- ``unlimited_overhead``: merge-stage wall seconds with the budget left
  unlimited (the spool in pure pass-through) versus the pre-spool
  baseline, captured with this exact harness on the commit immediately
  before the rework.  The fast path must stay within 10%.

Run directly for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_outofcore.py          # full
    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke  # CI

The full run regenerates the repo-root ``BENCH_outofcore.json``;
``--smoke`` runs a scaled-down pass and only checks the invariants
(spills happened, outputs bit-identical, probes finite) without the
timing or RSS-ratio gates.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field, write_volume_chunked

PERS = 0.05

#: the RSS-flatness sweep: 4x block growth at fixed per-block size
#: (weak scaling — the volume grows along z with the block count), big
#: enough that packed blobs are a visible share of driver memory, small
#: enough for a nightly run
RSS_SWEEP = (
    (8, (64, 64, 64)),
    (32, (64, 64, 256)),
)

#: the fixed spill budget of the sweep: far below the total packed-blob
#: bytes at either block count, so both runs are genuinely spilling
RSS_BUDGET = 1 << 20

#: merge-wall seconds of this exact harness (same field, configs, reps,
#: ``min`` aggregation) measured on the commit immediately before the
#: spool rework — the pooled merge pre-pass holding every packed blob
#: in driver dicts.  The acceptance gate compares the unlimited-budget
#: (pass-through spool) merge wall against this record.
PRE_PR_BASELINE = {
    "merge_wall_b16_r2_s": 0.8084980249986984,
    "merge_wall_b8_r8_s": 0.33222760500029835,
}

#: the overhead configs: (key, num_blocks, radices) — multi-round and
#: single-round shapes, matching the baseline capture
OVERHEAD_CONFIGS = [
    ("b16_r2", 16, [2, 2, 2, 2]),
    ("b8_r8", 8, [8]),
]

#: subprocess probe: one full pipeline run at (blocks, budget), peak
#: RSS and spool stats printed as JSON.  A fresh process per probe is
#: the only way ru_maxrss isolates one configuration — the high-water
#: mark never goes back down.
_CHILD = r"""
import json, resource, sys
from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.io.volume import VolumeSpec

volume, nx, ny, nz, blocks, budget, out_path = sys.argv[1:8]
dims = (int(nx), int(ny), int(nz))
blocks = int(blocks)
budget = None if budget == "none" else int(budget)
rounds = max(1, blocks.bit_length() - 1)
cfg = PipelineConfig(
    num_blocks=blocks,
    persistence_threshold=0.05,
    merge_radices=[2] * rounds,
    options=ExecutionOptions(
        workers=2, transport="mmap",
        retry_backoff=0.0, merge_spill_budget_bytes=budget,
    ),
)
r = ParallelMSComplexPipeline(cfg).run(
    volume=VolumeSpec(volume, dims, "float32")
)
if out_path != "-":
    r.write(out_path)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    peak //= 1024
print(json.dumps({
    "peak_rss_kib": int(peak),
    "merge_wall_s": r.stats.merge_wall_seconds,
    "spool": r.stats.spool,
}))
"""


def run_probe(
    volume: Path, dims, blocks: int, budget: int | None,
    out_path: Path | None = None,
) -> dict:
    """One fresh-process pipeline run; its peak RSS and spool stats."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(volume),
         *[str(n) for n in dims], str(blocks),
         "none" if budget is None else str(budget),
         str(out_path) if out_path is not None else "-"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_volume(tmp_dir: Path, dims) -> Path:
    """The probe input, streamed to disk by the chunked writer — the
    bench itself never materializes it either."""
    path = tmp_dir / f"probe_{'x'.join(str(n) for n in dims)}.raw"
    write_volume_chunked(
        path, "bumps", dims=tuple(dims), num_bumps=10, seed=1,
        slab_depth=8,
    )
    return path


def measure_rss_flatness(
    tmp_dir: Path, sweep=RSS_SWEEP, budget: int = RSS_BUDGET,
) -> dict:
    """Peak driver RSS across a 4x block-count growth at fixed budget.

    Weak scaling: each sweep point keeps per-block dims identical and
    grows the volume with the block count.  Also runs each point
    unbounded, so the record shows what the budget buys: the spilled
    runs' ``resident_peak_bytes`` pinned near the budget while the
    unbounded gauge grows with the block count.
    """
    rows = []
    for blocks, dims in sweep:
        volume = probe_volume(tmp_dir, dims)
        spilled = run_probe(volume, dims, blocks, budget)
        resident = run_probe(volume, dims, blocks, None)
        assert spilled["spool"]["spills"] > 0, spilled
        assert resident["spool"]["spills"] == 0, resident
        rows.append(
            {
                "blocks": blocks,
                "dims": list(dims),
                "budget_bytes": budget,
                "peak_rss_kib": spilled["peak_rss_kib"],
                "unbounded_peak_rss_kib": resident["peak_rss_kib"],
                "spool": spilled["spool"],
                "unbounded_resident_peak_bytes": (
                    resident["spool"]["resident_peak_bytes"]
                ),
            }
        )
    peaks = [r["peak_rss_kib"] for r in rows]
    return {
        "rows": rows,
        "rss_ratio_max_over_min": max(peaks) / min(peaks),
    }


def measure_bit_identity(tmp_dir: Path, dims=(24, 24, 24), blocks=8) -> dict:
    """Golden check: fully spilled output == resident-mode output."""
    volume = probe_volume(tmp_dir, dims)
    golden = tmp_dir / "golden_resident.msc"
    spilled = tmp_dir / "spilled.msc"
    resident_probe = run_probe(volume, dims, blocks, None, golden)
    spilled_probe = run_probe(volume, dims, blocks, 0, spilled)
    assert spilled_probe["spool"]["spills"] > 0, spilled_probe
    return {
        "blocks": blocks,
        "spilled_budget_bytes": 0,
        "spills": spilled_probe["spool"]["spills"],
        "bytes_spilled": spilled_probe["spool"]["bytes_spilled"],
        "read_backs": spilled_probe["spool"]["read_backs"],
        "resident_spills": resident_probe["spool"]["spills"],
        "identical": golden.read_bytes() == spilled.read_bytes(),
    }


def measure_unlimited_overhead(reps: int = 5) -> dict:
    """Merge wall with the budget unlimited, vs the pre-spool baseline.

    In-process (the metric is the merge stage's own wall clock, not
    RSS), ``min`` over reps like the baseline capture.
    """
    field = gaussian_bumps_field((32, 32, 32), 10, seed=1, noise=0.005)
    out = {}
    for key, blocks, radices in OVERHEAD_CONFIGS:
        best = float("inf")
        for _ in range(reps):
            cfg = PipelineConfig(
                num_blocks=blocks,
                persistence_threshold=PERS,
                merge_radices=radices,
                options=ExecutionOptions(workers=2, retry_backoff=0.0),
            )
            r = ParallelMSComplexPipeline(cfg).run(field)
            assert r.stats.executor == "process"
            assert r.stats.spool is not None
            assert r.stats.spool["spills"] == 0
            best = min(best, r.stats.merge_wall_seconds)
        out[f"merge_wall_{key}_s"] = best
    overhead = {
        k.removeprefix("merge_wall_").removesuffix("_s"): (
            out[k] / PRE_PR_BASELINE[k] - 1.0
        )
        for k in PRE_PR_BASELINE
    }
    return {
        "merge_wall_s": out,
        "baseline_merge_wall_s": dict(PRE_PR_BASELINE),
        "overhead_vs_baseline": overhead,
    }


def collect_record() -> dict:
    """The full record ``BENCH_outofcore.json`` holds."""
    import os

    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        rss = measure_rss_flatness(tmp)
        identity = measure_bit_identity(tmp)
    overhead = measure_unlimited_overhead()
    return {
        "field": "gaussian_bumps, 10 bumps, seed 1 (chunked writer)",
        "harness": {
            "persistence_threshold": PERS,
            "workers": 2,
            "metric": (
                "peak driver ru_maxrss per fresh subprocess at fixed "
                "merge_spill_budget_bytes; merge_wall_seconds min over "
                "reps for the unlimited-budget overhead"
            ),
        },
        "host": {
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "rss_flatness": rss,
        "bit_identity": identity,
        "unlimited_overhead": overhead,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_smoke() -> dict:
    """Scaled-down CI pass: invariants only, no timing or RSS gates."""
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        identity = measure_bit_identity(tmp, dims=(16, 16, 16), blocks=8)
        assert identity["identical"], identity
        assert identity["spills"] > 0, identity
        assert identity["resident_spills"] == 0, identity
        volume = probe_volume(tmp, (16, 16, 16))
        probe = run_probe(volume, (16, 16, 16), 8, 4096)
        assert probe["peak_rss_kib"] > 0
        assert probe["spool"]["spills"] > 0
        assert np.isfinite(probe["merge_wall_s"])
    return {"bit_identity": identity, "budget_4096_probe": probe}


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def bench_outofcore_bit_identity(benchmark):
    """Fully spilled merge output is byte-identical to resident mode."""
    res = benchmark.pedantic(run_smoke, rounds=1, iterations=1)
    assert res["bit_identity"]["identical"]


def bench_outofcore_before_after_json(benchmark):
    """Regenerate the repo-root ``BENCH_outofcore.json`` record."""
    from bench_util import attach_peak_rss, emit_json

    record = attach_peak_rss(collect_record())
    path = emit_json(
        "BENCH_outofcore",
        record,
        path=Path(__file__).resolve().parent.parent
        / "BENCH_outofcore.json",
    )
    ratio = record["rss_flatness"]["rss_ratio_max_over_min"]
    print(f"\nwrote {path}; rss ratio {ratio:.3f}")
    assert record["bit_identity"]["identical"]
    assert ratio <= 1.15
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down CI pass; no JSON output")
    args = ap.parse_args()

    if args.smoke:
        res = run_smoke()
        ident = res["bit_identity"]
        print("out-of-core smoke ok:")
        print(f"  spilled vs resident .msc identical: {ident['identical']}")
        print(f"  spills: {ident['spills']} "
              f"({ident['bytes_spilled']}B), "
              f"read-backs: {ident['read_backs']}")
        probe = res["budget_4096_probe"]
        print(f"  4 KiB-budget probe: peak rss "
              f"{probe['peak_rss_kib']} KiB, "
              f"spills {probe['spool']['spills']}")
    else:
        sys.path.insert(0, str(Path(__file__).parent))
        from bench_util import attach_peak_rss

        record = attach_peak_rss(collect_record())
        out = Path(__file__).resolve().parent.parent / "BENCH_outofcore.json"
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        rss = record["rss_flatness"]
        for r in rss["rows"]:
            print(
                f"  blocks={r['blocks']:>3} dims={tuple(r['dims'])} "
                f"budget="
                f"{r['budget_bytes']}B: peak rss "
                f"{r['peak_rss_kib'] >> 10} MiB (unbounded "
                f"{r['unbounded_peak_rss_kib'] >> 10} MiB), spool "
                f"resident peak {r['spool']['resident_peak_bytes']}B "
                f"(unbounded {r['unbounded_resident_peak_bytes']}B)"
            )
        print(f"  rss ratio (4x blocks): "
              f"{rss['rss_ratio_max_over_min']:.3f}")
        ident = record["bit_identity"]
        print(f"  spilled vs resident .msc identical: "
              f"{ident['identical']} "
              f"({ident['spills']} spills, {ident['read_backs']} "
              f"read-backs)")
        over = record["unlimited_overhead"]["overhead_vs_baseline"]
        for k, v in sorted(over.items()):
            print(f"  unlimited-budget merge wall {k}: {v:+.1%} "
                  f"vs pre-spool baseline")
        assert ident["identical"]
        assert rss["rss_ratio_max_over_min"] <= 1.15, rss
        assert all(v <= 0.10 for v in over.values()), over

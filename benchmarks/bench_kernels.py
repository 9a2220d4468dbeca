"""Microbenchmarks of the pipeline's computational kernels.

Not a paper table — these time the stages the cost model prices
(gradient sweep, V-path tracing, simplification, gluing, serialization)
so that regressions in the hot paths are visible, and so the calibrated
cells/second constants in :mod:`repro.machine.bgp` can be compared with
what this Python implementation actually achieves.

Besides the pytest-benchmark entry points, the module is runnable::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke  # CI

The full run regenerates the repo-root ``BENCH_kernels.json``,
including a dfs-vs-pointer A/B of the two V-path tracing backends;
``--smoke`` runs a scaled-down single-rep pass that checks every timer
fires and that both tracing backends produce identical complexes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.glue import glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.data.synthetic import gaussian_bumps_field
from repro.parallel.decomposition import decompose

# mild noise: heavy noise on overlapping bumps drives the (documented)
# quadratic hub behavior of exact persistence simplification, which is a
# stress case, not a representative kernel timing
FIELD = gaussian_bumps_field((24, 24, 24), 8, seed=1, noise=0.005)


@pytest.fixture(scope="module")
def complex_():
    return CubicalComplex(FIELD)


@pytest.fixture(scope="module")
def field_(complex_):
    return compute_discrete_gradient(complex_)


@pytest.fixture(scope="module")
def msc_(field_):
    return extract_ms_complex(field_)


def bench_kernel_complex_build(benchmark):
    cx = benchmark(lambda: CubicalComplex(FIELD))
    assert cx.euler_characteristic() == 1


def bench_kernel_gradient_sweep(complex_, benchmark):
    g = benchmark(lambda: compute_discrete_gradient(complex_))
    assert g.morse_euler_characteristic() == 1


def bench_kernel_vpath_tracing(field_, benchmark):
    msc = benchmark(lambda: extract_ms_complex(field_))
    assert msc.num_alive_nodes() > 0


def bench_kernel_simplification(field_, benchmark):
    def run():
        msc = extract_ms_complex(field_)
        simplify_ms_complex(
            msc, 0.1, respect_boundary=False, max_new_arcs=5000
        )
        return msc

    msc = benchmark(run)
    assert msc.num_alive_nodes() >= 1


def bench_kernel_pack_unpack(msc_, benchmark):
    import copy

    compacted = copy.deepcopy(msc_)
    compacted.compact()

    def run():
        return unpack_complex(pack_complex(compacted))

    back = benchmark(run)
    assert back.num_alive_nodes() == compacted.num_alive_nodes()


def bench_kernel_glue(benchmark):
    decomp = decompose(FIELD.shape, 2)
    parts = []
    for b in range(2):
        box = decomp.block_box(decomp.block_coords(b))
        cx = CubicalComplex(
            FIELD[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=decomp.global_refined_dims,
            cut_planes=decomp.cut_planes,
        )
        msc = extract_ms_complex(compute_discrete_gradient(cx))
        msc.compact()
        parts.append(msc)

    def run():
        root = unpack_complex(pack_complex(parts[0]))
        other = unpack_complex(pack_complex(parts[1]))
        return glue_into(root, other, root.address_index())

    stats = benchmark(run)
    assert stats.shared_nodes > 0


# ---------------------------------------------------------------------------
# machine-readable before/after record (repo-root BENCH_kernels.json)
# ---------------------------------------------------------------------------

#: kernel and end-to-end timings of this exact harness measured on the
#: commit before the array-pass gradient kernel (per-cell greedy sweep),
#: on the host the emitted JSON records (2 cores, Python 3.11.7); min
#: over reps, see ``harness`` in the emitted JSON
PRE_PR_BASELINE = {
    "complex_build_s": 0.05081246699955955,
    "gradient_s": 0.10400729200046044,
    "trace_s": 0.0930835390008724,
    "pool_nosimp_wall_s": 0.2256173099995067,
}

#: the end-to-end harness: the 24^3 bumps field in 8 blocks on a
#: 2-worker process pool, no simplification, no retry backoff — the
#: configuration both the baseline and the "after" wall are measured on
E2E_CONFIG = dict(
    num_blocks=8,
    persistence_threshold=0.0,
    simplify_at_zero_persistence=False,
    workers=2,
    executor="process",
    retry_backoff=0.0,
)


def _best_of(fn, reps: int) -> float:
    import time

    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: per-field caches extract_ms_complex memoizes; dropped between reps so
#: every timing pays the one-time build the pipeline pays per block
_TRACE_CACHE_ATTRS = ("_trace_state", "_pointer_state",
                      "_continuation_tables")


def _cold_trace(grad, kernel_backend: str = "auto"):
    for attr in _TRACE_CACHE_ATTRS:
        if hasattr(grad, attr):
            delattr(grad, attr)
    return extract_ms_complex(grad, kernel_backend=kernel_backend)


def measure_kernels(reps: int = 7) -> dict:
    """Serial kernel timings on the full field (min over ``reps``)."""
    out = {}
    out["complex_build_s"] = _best_of(lambda: CubicalComplex(FIELD), reps)
    cx = CubicalComplex(FIELD)
    out["gradient_s"] = _best_of(
        lambda: compute_discrete_gradient(cx), reps
    )
    grad = compute_discrete_gradient(cx)
    out["trace_s"] = _best_of(lambda: _cold_trace(grad), reps)
    return out


def measure_backend_ab(reps: int = 7) -> dict:
    """Cold dfs-vs-pointer A/B of the tracing kernel on the full field.

    Both numbers include the per-block one-time costs (continuation
    tables, pointer arrays) so the ratio reflects what a pipeline block
    actually pays when the backend knob flips.
    """
    grad = compute_discrete_gradient(CubicalComplex(FIELD))
    out = {
        "trace_dfs_s": _best_of(lambda: _cold_trace(grad, "dfs"), reps),
        "trace_pointer_s": _best_of(
            lambda: _cold_trace(grad, "pointer"), reps
        ),
    }
    out["tracing_backend_ab"] = out["trace_dfs_s"] / out["trace_pointer_s"]
    return out


def measure_compute_wall(transport: str = "shm", reps: int = 5) -> float:
    """End-to-end compute-stage wall on the pool (min over ``reps``)."""
    from bench_util import run_pipeline

    walls = []
    for _ in range(reps):
        res = run_pipeline(FIELD, transport=transport, **E2E_CONFIG)
        walls.append(res.stats.compute_wall_seconds)
    return min(walls)


def collect_before_after(
    kernel_reps: int = 7, e2e_reps: int = 5
) -> dict:
    """The full before/after record ``BENCH_kernels.json`` holds."""
    import os
    import sys

    after = measure_kernels(kernel_reps)
    ab = measure_backend_ab(kernel_reps)
    after["trace_dfs_s"] = ab["trace_dfs_s"]
    after["trace_pointer_s"] = ab["trace_pointer_s"]
    after["pool_nosimp_wall_s"] = measure_compute_wall("shm", e2e_reps)
    after["transport"] = "shm"
    before = dict(PRE_PR_BASELINE)
    speedup = {
        k.removesuffix("_s"): before[k] / after[k]
        for k in before
        if after.get(k)
    }
    speedup["compute_stage_end_to_end"] = (
        before["pool_nosimp_wall_s"] / after["pool_nosimp_wall_s"]
    )
    speedup["tracing_backend_ab"] = ab["tracing_backend_ab"]
    return {
        "field": "gaussian_bumps 24^3, 8 bumps, seed 1, noise 0.005",
        "harness": {
            **E2E_CONFIG,
            "metric": "stats.compute_wall_seconds, min over reps",
            "kernel_reps": kernel_reps,
            "e2e_reps": e2e_reps,
        },
        "host": {
            "cores": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "before": before,
        "after": after,
        "speedup": speedup,
    }


def bench_kernel_before_after_json(benchmark):
    """Regenerate the repo-root ``BENCH_kernels.json`` record."""
    from pathlib import Path

    from bench_util import attach_peak_rss, emit_json

    record = attach_peak_rss(collect_before_after())
    path = emit_json(
        "BENCH_kernels",
        record,
        path=Path(__file__).resolve().parent.parent / "BENCH_kernels.json",
    )
    print(f"\nwrote {path}; speedups: " + " ".join(
        f"{k}={v:.2f}x" for k, v in sorted(record["speedup"].items())
    ))
    assert record["speedup"]["compute_stage_end_to_end"] > 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def run_smoke() -> dict:
    """Scaled-down single-rep CI pass: every timer must fire, and the
    two tracing backends must produce identical complexes."""
    res = measure_kernels(reps=1)
    res.update(measure_backend_ab(reps=1))
    for k, v in res.items():
        assert np.isfinite(v) and v > 0, f"{k} produced {v!r}"
    grad = compute_discrete_gradient(CubicalComplex(FIELD))
    dfs = pack_complex(_cold_trace(grad, "dfs"))
    pointer = pack_complex(_cold_trace(grad, "pointer"))
    assert dfs == pointer, "tracing backends diverged on the bench field"
    return res


if __name__ == "__main__":
    import argparse
    import json
    from pathlib import Path

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down single-rep CI pass; no JSON output")
    args = ap.parse_args()

    if args.smoke:
        res = run_smoke()
        print("kernel smoke ok (backends bit-identical):")
        for k, v in sorted(res.items()):
            print(f"  {k}: {v:.4f}{'x' if k.endswith('_ab') else 's'}")
    else:
        from bench_util import attach_peak_rss

        record = attach_peak_rss(collect_before_after())
        out = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        for k, v in sorted(record["speedup"].items()):
            print(f"  {k}: {v:.3f}x")

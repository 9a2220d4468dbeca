"""One benchmark run: set-up, timed window, checks, optional traced replay."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import repro

import benchlib as bl
from replay import UNREACHED, replay
from workloads import (
    SETUPS,
    WORKLOADS,
    WORKERS,
    check_image,
    check_result,
    make_caller,
    query_plan,
    service_loop,
    session_loop,
    virtual_times,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: traced and untraced replays per traced run (medians reported)
REPLAYS = 2


def run(args, spec: dict, run_dir: Path) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    tally = bl.Tally()
    record: dict = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "config": {"dims": list(wl.dims), "ranks": wl.ranks,
                   "merge_radix": wl.merge_radix,
                   "persistence": wl.persistence,
                   "hierarchy": wl.hierarchy, "workers": WORKERS},
        "host": bl.host_fingerprint(), "git_rev": bl.git_rev(HERE.parent),
    }
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    put = _putter(values, samples)
    drv = make_caller(wl, run_dir)
    try:
        setup_s, setup_digest = setup_phase(drv, wl, tally)
        # read before the timed loop: the set-ups run the same input under
        # every seed, so this peak does not depend on the seed's inputs or
        # on how many requests a faster program fits into the window
        peak = bl.peak_rss_mib()
        loop_fn = service_loop if wl.service else session_loop
        loop = loop_fn(drv, wl, args.seed, args.seconds, tally)
        ref_stats, ref_out = reference_phase(
            drv, wl, setup_digest, tally, run_dir,
            write=args.write_reference,
        )
        record["reference"] = ref_out
        put("setup_s", bl.median(setup_s), len(setup_s))
        put("run_s_p50", bl.median(loop.run_s), len(loop.run_s))
        put("throughput_mvox_s", loop.vertices / loop.window_s / 1e6,
            len(loop.run_s) + len(loop.hit_s))
        put("peak_rss_mib", peak, 1)
        record["raw"] = {"setup_s": setup_s, "run_s": loop.run_s,
                         "window_s": loop.window_s}
        if args.trace:
            traced_metrics(put, drv, wl, args.seed, loop, ref_stats,
                           tally, run_dir, record)
    finally:
        drv.close()
    put("failed_frac", tally.failed_frac, tally.attempted)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            tally.fail(f"metric {m['name']} was not measured")
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    record["samples"] = {m["name"]: samples.get(m["name"], 0)
                         for m in wanted}
    record["errors"] = tally.errors
    record["metrics"] = metrics
    name = f"{wl.name}-s{args.seed}-t{args.trace}"
    bl.dump_json(HERE / ".work" / "records" / f"{name}.json", record)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


def _putter(values, samples):
    def put(name, value, n):
        if value is not None:
            values[name] = float(value)
            samples[name] = int(n)
    return put


def setup_phase(drv, wl, tally) -> tuple[list[float], str | None]:
    """Open + first cold run, ``SETUPS`` times; the last one stays open.

    Every set-up runs the reference input, which is the same under every
    seed, so set-up time does not vary with the seed's inputs, and the
    digests double as the repeat check: the same input must give the
    same output each time.
    """
    ref_in = wl.reference_input()
    times, digests = [], []
    for k in range(SETUPS):
        if k:
            drv.close()
        t = time.perf_counter()
        drv.open()
        ok, out = tally.attempt(drv.request, ref_in)
        times.append(time.perf_counter() - t)
        if ok:
            digests.append(_digest(drv, wl, out, tally, "reference"))
    tally.check(len(set(digests)) == 1 and len(digests) == SETUPS,
                "reference input gave different outputs on repeat")
    return times, (digests[0] if digests else None)


def _digest(drv, wl, out, tally, what) -> str:
    if wl.service:
        return check_image(tally, drv.image(out), f"{wl.name} {what}")
    return check_result(tally, out, f"{wl.name} {what}")


def reference_phase(drv, wl, d2, tally, run_dir, write):
    """Reference input: workers=1 equals workers=2 equals the record.

    ``d2`` is the digest of the set-ups' workers=2 output of the
    reference input (session or service); the workers=1 output comes
    from a one-shot ``repro.compute``.  On the full workload size both
    must match the digest and virtual stage times committed in
    ``reference.json``.
    """
    ref_in = wl.reference_input()
    source = drv.svc.stage_field(ref_in) if wl.service else ref_in
    ok, res1 = tally.attempt(
        repro.compute, source, persistence=wl.persistence, ranks=wl.ranks,
        merge_radix=wl.merge_radix, options=wl.options(workers=1),
    )
    if not ok:
        return None, {}
    d1 = check_result(tally, res1, f"{wl.name} reference workers=1")
    tally.check(d1 == d2, "workers=1 and workers=2 outputs differ")
    if wl.service:
        # the service artifact is byte-identical to a direct write
        path = run_dir / "reference.msc"
        res1.write(path)
        job = drv.request(ref_in)
        tally.check(path.read_bytes() == drv.image(job),
                    "service artifact differs from a direct compute write")
    virt = virtual_times(res1.stats)
    out = {"dims": list(wl.dims), "sha256": d1, "virtual_w1": virt}
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if write:
        refs[wl.name] = out
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True)
                             + "\n")
    elif refs.get(wl.name, {}).get("dims") == list(wl.dims):
        ref = refs[wl.name]
        same_digest = tally.check(
            d1 == ref["sha256"],
            f"reference digest {d1[:12]} != {ref['sha256'][:12]}")
        same_virtual = tally.check(
            virt == ref["virtual_w1"],
            f"reference virtual stage times {virt} != {ref['virtual_w1']}")
        out["matches_committed"] = same_digest and same_virtual
    return res1.stats, out


def traced_metrics(put, drv, wl, seed, loop, ref_stats, tally, run_dir,
                   record) -> None:
    """Per-layer metrics: timed-run counters plus the traced replay."""
    stats = loop.stats
    if wl.service:
        stats = _session_stats(wl, drv, seed, tally)
    _parallel_metrics(put, stats)
    _service_metrics(put, wl, loop)
    if ref_stats is not None:
        put("machine.virtual_total_s", ref_stats.total_time, 1)
        put("machine.virtual_merge_s", ref_stats.merge_time, 1)
        put("machine.message_bytes", ref_stats.message_bytes, 1)
        put("machine.output_bytes", ref_stats.output_bytes, 1)

    source = wl.input(seed, 0)
    if wl.service:
        source = drv.svc.stage_field(source)
    queries = query_plan(seed, 0) if wl.service else []
    untraced, traced, all_spans = [], [], []
    for k in range(REPLAYS):
        spans_off = bl.Spans(run_id="", enabled=False)
        ok, u = tally.attempt(replay, source, wl, spans_off, run_dir,
                              queries)
        if ok:
            untraced.append(u)
        spans = bl.Spans(run_id=f"{wl.name}-s{seed}-replay{k}")
        ok, tr = tally.attempt(replay, source, wl, spans, run_dir, queries)
        if ok:
            traced.append((tr, spans))
            all_spans.extend(spans.to_json())
    for out in untraced + [t for t, _ in traced]:
        tally.check(out.euler_ok, "replay block Euler sum is not 1")
        tally.check(out.digest == loop.first_digest,
                    "replay output differs from the timed run's output")
        if wl.service:
            tally.check(out.msc_image == loop.first_image,
                        "replay .msc differs from the service artifact")
    record["unreached_layers"] = UNREACHED
    spans_path = HERE / ".work" / "spans" / f"{wl.name}-s{seed}.json"
    bl.dump_json(spans_path, all_spans)
    record["spans_file"] = str(spans_path.relative_to(HERE.parent))
    if not traced or not untraced:
        return
    n = len(traced)
    for metric, span in (
        ("mesh.build_s", "mesh.build"),
        ("morse.gradient_s", "morse.gradient"),
        ("morse.trace_s", "morse.trace"),
        ("morse.simplify_s", "morse.simplify"),
        ("morse.compact_s", "morse.compact"),
        ("merge.unpack_s", "merge.unpack"),
        ("glue.glue_s", "glue.glue"),
        ("merge.boundary_s", "merge.boundary"),
        ("merge.resimplify_s", "merge.resimplify"),
        ("merge.compact_s", "merge.compact"),
        ("merge.pack_s", "merge.pack"),
        ("io.read_block_s", "io.read_block"),
        ("hierarchy.capture_s", "hierarchy.capture"),
        ("io.write_msc_s", "io.write_msc"),
        ("query.load_s", "query.load"),
    ):
        put(metric, bl.median(s.total(span) for _, s in traced), n)
    counts = traced[0][0].counts
    for name, v in counts.items():
        put(name, v, 1)
    lookups = [d for _, s in traced for d in s.durations("query.lookup")]
    put("query.lookup_us_p50",
        bl.median(lookups) * 1e6 if lookups else 0.0, len(lookups))
    serial = bl.median(u.wall_s for u in untraced)
    put("replay.serial_s", serial, len(untraced))
    put("replay.trace_overhead_s",
        bl.median(t.wall_s for t, _ in traced) - serial, n)


def _session_stats(wl, drv, seed, tally) -> list:
    """Run stats of the service's pipeline path, outside the service.

    The service reports no per-run stats, so the same configuration runs
    in a session of its own on two staged inputs (the mmap path the
    service scheduler takes); the second, warm run's stats are used.
    """
    sources = [drv.svc.stage_field(wl.input(seed, i)) for i in (0, 1)]
    session = repro.open_session(
        persistence=wl.persistence, ranks=wl.ranks,
        merge_radix=wl.merge_radix, options=wl.options(),
    )
    try:
        stats = []
        for src in sources:
            ok, res = tally.attempt(session.run, src)
            if ok:
                stats.append(res.stats)
        return stats[1:]
    finally:
        session.close()


def _parallel_metrics(put, stats) -> None:
    if not stats:
        return
    n = len(stats)

    def med(fn):
        return bl.median(fn(s) for s in stats)

    put("parallel.compute_wall_s", med(lambda s: s.compute_wall_seconds), n)
    put("parallel.compute_cpu_s", med(lambda s: s.compute_cpu_seconds), n)
    put("parallel.speedup", med(lambda s: s.compute_speedup), n)
    put("parallel.merge_wall_s", med(lambda s: s.merge_wall_seconds), n)
    put("parallel.dispatches", med(lambda s: s.transport.dispatches), n)
    put("parallel.dispatch_bytes",
        med(lambda s: s.transport.dispatch_bytes), n)
    put("parallel.retries",
        sum(s.faults.retries + s.faults.merge_retries for s in stats), n)
    put("parallel.pool_restarts",
        sum(s.faults.pool_restarts for s in stats), n)
    put("pipeline.driver_s", med(
        lambda s: s.real_seconds_total - s.compute_wall_seconds
        - s.merge_wall_seconds), n)


def _service_metrics(put, wl, loop) -> None:
    """Service-side latencies; zero on workloads without a service."""
    if not wl.service:
        for name in ("service.hit_ms_p50", "service.cache_hit_ratio",
                     "service.query_first_ms", "service.query_ms_p50",
                     "service.query_ms_p99"):
            put(name, 0.0, 0)
        return
    put("service.hit_ms_p50", bl.median(loop.hit_s) * 1e3,
        len(loop.hit_s))
    put("service.cache_hit_ratio",
        loop.hits / max(1, loop.hits + loop.misses),
        loop.hits + loop.misses)
    put("service.query_first_ms", bl.median(loop.query_first_s) * 1e3,
        len(loop.query_first_s))
    put("service.query_ms_p50", bl.median(loop.query_s) * 1e3,
        len(loop.query_s))
    p99 = bl.tail_percentile(loop.query_s, 0.99)
    put("service.query_ms_p99", p99 * 1e3 if p99 is not None else None,
        len(loop.query_s))

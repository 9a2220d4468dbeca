"""Command-line interface.

A thin operational wrapper over the library, mirroring how the paper's
tool was driven on the Blue Gene/P: point it at a raw volume, choose a
blocking, a persistence threshold and a merge strategy, and get an MS
complex block file plus a timing report.

Commands::

    python -m repro.cli compute volume.raw --dims 64 64 64 --dtype float32 \
        --blocks 8 --persistence 0.05 --radices 8 --output out.msc
    python -m repro.cli stream step_*.raw --dims 64 64 64 --blocks 8 \
        --workers 4 --persistence 0.05 --output-dir out/
    python -m repro.cli info out.msc
    python -m repro.cli query out.msc --persistence 0.01 0.05 0.2
    python -m repro.cli serve --cache-dir ./msc-cache --port 8643
    python -m repro.cli gen sinusoid out.raw --points 64 --features 4
    python -m repro.cli gen sinusoid big.raw --dims 1152 1152 1152
    python -m repro.cli gen jet jet.raw --points 64

``query`` serves thresholds out of the hierarchy footer a
``compute --hierarchy`` run persisted — every row is a pure lookup, the
volume is never re-simplified.  ``stream`` pushes a whole time series of
volume files through one persistent session: worker pools, shared
memory, and the decomposition plan are reused across steps, and the
``mmap`` transport keeps the driver from ever materializing a volume.
``serve`` runs the MS-complex service daemon: concurrent submissions
over JSON HTTP, identical in-flight requests coalesced into one
pipeline run, repeats answered from a content-addressed result cache
(see ``docs/SERVICE.md``).  ``gen`` writes a synthetic volume: the
elementwise families (sinusoid, bumps) stream to disk slab-by-slab
without ever materializing the field, so paper-scale inputs (1152³ ≈
5.7 GiB at float32) can be generated on any machine — pair with
``compute --merge-spill-budget`` for a fully out-of-core run; the
dataset proxies (jet, rayleigh-taylor, hydrogen) are built in memory.
``compute`` and ``stream`` derive their execution flags from
:class:`repro.core.options.ExecutionOptions`, so both accept every
knob under the same spelling.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

__all__ = ["main", "build_parser"]

#: marker attached to the handler :func:`_configure_logging` installs,
#: so repeated main() calls (tests) stay idempotent
_LOG_HANDLER_FLAG = "_repro_cli_handler"


def _configure_logging(verbosity: int) -> None:
    """Wire the ``repro.*`` logger hierarchy to stderr.

    ``-v`` shows INFO (stage progress), ``-vv`` DEBUG; the default
    surfaces only WARNING and above (retries, pool restarts, degrades).
    """
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[
        min(verbosity, 2)
    ]
    root = logging.getLogger("repro")
    root.setLevel(level)
    for handler in root.handlers:
        if getattr(handler, _LOG_HANDLER_FLAG, False):
            handler.setLevel(level)
            return
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(level)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    setattr(handler, _LOG_HANDLER_FLAG, True)
    root.addHandler(handler)


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (readable, exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (>= 1), got {value}"
        )
    return value


#: multipliers of the ``--merge-spill-budget`` size suffixes
_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _size_bytes(text: str) -> int:
    """argparse type for byte sizes with optional K/M/G suffix.

    Accepts plain byte counts (``1048576``, ``0``) and suffixed sizes
    (``64M``, ``2G``, ``512k``, optionally with a trailing ``B`` as in
    ``64MB``); suffixes are binary (K = 1024).
    """
    raw = text.strip().lower().removesuffix("b")
    mult = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        mult = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte size like 1048576, 64M, or 2G, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"byte size must be >= 0, got {text!r}"
        )
    return value * mult


#: `gen` field families written slab-by-slab (elementwise) and built
#: whole in memory
_CHUNKED_KINDS = ("sinusoid", "bumps")
_IN_MEMORY_KINDS = ("jet", "rayleigh-taylor", "hydrogen")

#: argparse converters of the execution knobs that need more than
#: their annotation's plain int/float
_FLAG_TYPES = {
    "workers": _positive_int,
    "merge_spill_budget_bytes": _size_bytes,
}


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`~repro.core.options.ExecutionOptions` field.

    Derived from the schema, never written by hand: the flag is the
    field name in kebab case (or the field's ``metadata["flag"]``), the
    choices of the backend knobs come from ``BACKEND_KNOB_KINDS``, the
    default is the field default, and the help is the field's
    ``metadata["help"]``.  A bool field defaulting to ``False`` becomes
    a switch that sets it; one defaulting to ``True`` a switch that
    clears it (``--no-degrade``).  Every flag stores into the field's
    own name, so :func:`_execution_options` is one comprehension.
    """
    from repro.core.options import BACKEND_KNOB_KINDS, ExecutionOptions

    for f in dataclasses.fields(ExecutionOptions):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        kwargs = {"dest": f.name, "help": f.metadata["help"]}
        if f.name in BACKEND_KNOB_KINDS:
            kwargs.update(default=f.default,
                          choices=BACKEND_KNOB_KINDS[f.name])
        elif f.default is True:
            kwargs.update(action="store_false",
                          help="turn off: " + f.metadata["help"])
        elif f.default is False:
            kwargs["action"] = "store_true"
        else:
            kwargs.update(
                default=f.default,
                type=_FLAG_TYPES.get(
                    f.name, float if "float" in str(f.type) else int
                ),
                metavar=f.metadata.get("metavar"),
            )
        parser.add_argument(flag, **kwargs)


def _execution_options(args: argparse.Namespace):
    """The :class:`~repro.core.options.ExecutionOptions` a parsed
    ``compute`` / ``stream`` command line describes (validated there;
    a bad value raises :class:`ValueError`)."""
    from repro.core.options import ExecutionOptions

    return ExecutionOptions(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExecutionOptions)
    })


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``compute`` and ``stream`` share: the volume layout,
    the paper's three knobs (blocking, merge schedule, persistence),
    and every execution knob."""
    parser.add_argument("--dims", nargs=3, type=int, required=True,
                        metavar=("NX", "NY", "NZ"))
    parser.add_argument("--dtype", default="float32",
                        choices=("uint8", "float32", "float64"))
    parser.add_argument("--blocks", type=_positive_int, default=1,
                        help="number of blocks (power of two)")
    parser.add_argument("--procs", type=_positive_int, default=None,
                        help="virtual processes (default: one per block)")
    parser.add_argument("--persistence", type=float, default=0.0,
                        help="simplification threshold")
    parser.add_argument("--radices", nargs="*", type=int, default=None,
                        help="merge radices (default: full merge)")
    parser.add_argument("--no-merge", action="store_true",
                        help="skip the merge stage entirely")
    _add_execution_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Morse-Smale complex computation "
        "(IPDPS 2012 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-v: INFO, "
                             "-vv: DEBUG; default shows warnings only)")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute an MS complex of a volume")
    c.add_argument("volume", help="raw volume file (x fastest)")
    _add_run_flags(c)
    c.add_argument("--output", default=None, help="output .msc file")
    c.add_argument("--trace", default=None, metavar="PATH",
                   help="record a span timeline of the run and write it "
                        "as Chrome trace_event JSON (open in "
                        "chrome://tracing or ui.perfetto.dev)")
    c.add_argument("--metrics", default=None, metavar="PATH",
                   help="aggregate run metrics (counters/gauges/"
                        "histograms across all workers) and write them "
                        "as JSON")

    st = sub.add_parser(
        "stream",
        help="stream a time series of volumes through one persistent "
             "session (pools, shared memory, and the plan are reused "
             "across steps; out-of-core via the mmap transport)",
    )
    st.add_argument("volumes", nargs="+",
                    help="raw volume files, one per timestep "
                         "(identical dims and dtype)")
    _add_run_flags(st)
    st.add_argument("--min-value", type=float, default=None,
                    help="value floor for the significant-extrema "
                         "monitoring series")
    st.add_argument("--max-value", type=float, default=None,
                    help="value ceiling for the significant-extrema "
                         "monitoring series")
    st.add_argument("--output-dir", default=None,
                    help="write each step's complex to "
                         "DIR/step_NNNN.msc")
    st.add_argument("--json", action="store_true",
                    help="emit the per-step records and session "
                         "summary as JSON on stdout")

    i = sub.add_parser("info", help="summarize an MS complex file")
    i.add_argument("mscfile")

    q = sub.add_parser(
        "query",
        help="answer persistence thresholds from a persisted hierarchy "
             "(.msc v2) without re-simplifying",
    )
    q.add_argument("mscfile")
    q.add_argument("--persistence", nargs="+", type=float, default=None,
                   metavar="P",
                   help="one or more thresholds to sweep")
    q.add_argument("--top-k", type=_positive_int, default=None,
                   metavar="K",
                   help="keep the K coarsest-scale cancellations undone "
                        "instead of querying a threshold")
    q.add_argument("--json", action="store_true",
                   help="emit the query records as JSON on stdout")

    sv = sub.add_parser(
        "serve",
        help="run the MS-complex service daemon: accept concurrent "
             "compute/query requests over JSON HTTP, deduplicate "
             "identical work, and answer repeats from a "
             "content-addressed result cache",
    )
    sv.add_argument("--cache-dir", default="./msc-cache",
                    help="root of the content-addressed result store "
                         "(created if missing; a restarted daemon over "
                         "the same directory starts warm; default: "
                         "./msc-cache)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8643,
                    help="bind port; 0 picks a free one (default: 8643)")
    sv.add_argument("--max-jobs", type=_positive_int, default=2,
                    help="concurrent pipeline executions; further jobs "
                         "queue (default: 2)")
    sv.add_argument("--mem-cache-entries", type=int, default=64,
                    help="hot results kept in memory ahead of the disk "
                         "layer; 0 disables the memory layer "
                         "(default: 64)")
    sv.add_argument("--job-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="default per-job wall-time bound applied to "
                         "requests that carry none (default: unbounded)")
    sv.add_argument("--no-session-reuse", action="store_true",
                    help="run every job on a one-shot pipeline instead "
                         "of persistent per-configuration sessions")

    g = sub.add_parser(
        "gen",
        help="generate a synthetic volume file (sinusoid and bumps "
             "stream to disk slab-by-slab in bounded memory at any "
             "size; pair with compute --merge-spill-budget for a fully "
             "out-of-core run)",
    )
    g.add_argument("kind", choices=_CHUNKED_KINDS + _IN_MEMORY_KINDS,
                   help="field family: sinusoid and bumps are "
                        "elementwise and stream slab-by-slab; jet, "
                        "rayleigh-taylor and hydrogen (a cube, "
                        "--points only) are built whole in memory")
    g.add_argument("output")
    g.add_argument("--dims", nargs=3, type=_positive_int, default=None,
                   metavar=("NX", "NY", "NZ"),
                   help="volume dims (alternative to --points)")
    g.add_argument("--points", type=_positive_int, default=None,
                   help="points per side of a cubic volume")
    g.add_argument("--features", type=_positive_int, default=4,
                   help="features per side (sinusoid) or bump count "
                        "(default: 4)")
    g.add_argument("--seed", type=int, default=0,
                   help="rng seed of bumps, jet and rayleigh-taylor")
    g.add_argument("--dtype", default="float32",
                   choices=("uint8", "float32", "float64"))
    g.add_argument("--slab-depth", type=_positive_int, default=16,
                   metavar="DZ",
                   help="z-planes generated per slab of sinusoid and "
                        "bumps; peak memory is one NX*NY*DZ float64 slab "
                        "(default: 16)")
    return parser


def _fail(message: str) -> int:
    """Print a readable error to stderr; the non-zero CLI exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _checked_volume(path: str, args: argparse.Namespace):
    """The :class:`~repro.io.volume.VolumeSpec` of ``path`` under
    ``--dims``/``--dtype``; raises :class:`ValueError` (readable) when
    the file cannot be read or holds a different number of bytes."""
    from repro.io.volume import VolumeSpec

    spec = VolumeSpec(path, tuple(args.dims), args.dtype)
    try:
        size = os.stat(path).st_size
    except OSError as exc:
        raise ValueError(
            f"cannot read volume {path!r}: {exc.strerror or exc}"
        ) from None
    if size != spec.nbytes:
        raise ValueError(
            f"volume {path!r} holds {size} bytes but dims "
            f"{tuple(args.dims)} with dtype {args.dtype} require "
            f"{spec.nbytes}"
        )
    return spec


def _run_config(args: argparse.Namespace, **extra):
    """The :class:`~repro.core.config.PipelineConfig` of a parsed
    ``compute`` / ``stream`` command line (``extra`` adds the
    command's own fields); raises :class:`ValueError` on bad values."""
    from repro.core.config import PipelineConfig

    if args.no_merge:
        radices = "none"
    elif args.radices is None:
        radices = "full"
    else:
        radices = args.radices
    return PipelineConfig(
        num_blocks=args.blocks,
        num_procs=args.procs,
        persistence_threshold=args.persistence,
        merge_radices=radices,
        options=_execution_options(args),
        **extra,
    )


def _cmd_compute(args) -> int:
    from repro.core.pipeline import ParallelMSComplexPipeline
    from repro.parallel.executor import FaultToleranceError

    try:
        spec = _checked_volume(args.volume, args)
        cfg = _run_config(
            args,
            trace=args.trace is not None,
            metrics=args.metrics is not None,
        )
        result = ParallelMSComplexPipeline(cfg).run(volume=spec)
    except (OSError, ValueError, FaultToleranceError) as exc:
        return _fail(str(exc))
    print(result.stats.describe())
    if result.stats.faults.any_faults():
        print(result.stats.faults.describe())
    counts = result.combined_node_counts()
    print(
        f"critical points: min={counts[0]} 1sad={counts[1]} "
        f"2sad={counts[2]} max={counts[3]} "
        f"in {result.num_output_blocks} output block(s)"
    )
    if args.output:
        nbytes = result.write(args.output)
        print(f"wrote {nbytes} bytes to {args.output}")
    if args.trace:
        nbytes = result.stats.trace.write(args.trace)
        print(f"wrote trace ({nbytes} bytes) to {args.trace}")
    if args.metrics:
        from repro.obs.export import write_metrics_json

        nbytes = write_metrics_json(args.metrics, result.stats.metrics)
        print(f"wrote metrics ({nbytes} bytes) to {args.metrics}")
    return 0


def _cmd_stream(args) -> int:
    import json

    from repro.core.insitu import InSituAnalyzer
    from repro.parallel.executor import FaultToleranceError

    try:
        specs = [_checked_volume(path, args) for path in args.volumes]
        cfg = _run_config(args)
        # fail on impossible transport/input combinations before the
        # first step, not midway through the series
        cfg.options.resolve_transport("volume")
    except ValueError as exc:
        return _fail(str(exc))
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
    rows = []
    try:
        with InSituAnalyzer(
            cfg,
            feature_min_value=args.min_value,
            feature_max_value=args.max_value,
        ) as analyzer:
            if not args.json:
                print(f"{'step':>4} {'volume':<24} {'min':>5} "
                      f"{'1sad':>5} {'2sad':>5} {'max':>5} "
                      f"{'seconds':>8}")
            for idx, spec in enumerate(specs):
                record, result = analyzer.step(spec)
                c = record.node_counts
                if not args.json:
                    name = os.path.basename(spec.path)
                    print(f"{idx:>4} {name:<24} {c[0]:>5} {c[1]:>5} "
                          f"{c[2]:>5} {c[3]:>5} "
                          f"{record.real_seconds:>8.3f}")
                if args.output_dir:
                    out = os.path.join(
                        args.output_dir, f"step_{idx:04d}.msc"
                    )
                    result.write(out)
                rows.append(
                    {
                        "step": idx,
                        "volume": spec.path,
                        "node_counts": list(c),
                        "significant_minima": record.significant_minima,
                        "significant_maxima": record.significant_maxima,
                        "output_bytes": record.output_bytes,
                        "real_seconds": record.real_seconds,
                    }
                )
            stats = analyzer.session.stats
            if args.json:
                print(json.dumps(
                    {
                        "steps": rows,
                        "session": {
                            "runs": stats.runs,
                            "pool_reuse_hits": stats.pool_reuse_hits,
                            "plan_cache_hits": stats.plan_cache_hits,
                            "shm_rebinds": stats.shm_rebinds,
                            "shm_republishes": stats.shm_republishes,
                            "steady_state_steps_per_sec": (
                                stats.steady_state_steps_per_sec()
                            ),
                        },
                    },
                    indent=2, sort_keys=True,
                ))
            else:
                print(stats.describe())
    except (OSError, ValueError, FaultToleranceError) as exc:
        return _fail(str(exc))
    return 0


def _cmd_info(args) -> int:
    from repro.io.mscfile import read_msc_file
    from repro.morse.msc import MorseSmaleComplex

    blocks = read_msc_file(args.mscfile)
    print(f"{args.mscfile}: {len(blocks)} block(s)")
    for bid in sorted(blocks):
        msc = MorseSmaleComplex.from_payload(blocks[bid])
        print(f"  block {bid}: {msc.summary()}")
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.analysis.query import load_hierarchy, query

    if (args.persistence is None) == (args.top_k is None):
        return _fail(
            "query needs exactly one of --persistence and --top-k"
        )
    try:
        hierarchies = load_hierarchy(args.mscfile)
    except OSError as exc:
        return _fail(
            f"cannot read {args.mscfile!r}: {exc.strerror or exc}"
        )
    except ValueError as exc:
        return _fail(str(exc))
    depth = max(h.num_levels for h in hierarchies.values())
    if args.top_k is not None:
        results = [query(hierarchies, top_k=args.top_k)]
    else:
        results = [
            query(hierarchies, persistence=p) for p in args.persistence
        ]
    if args.json:
        print(json.dumps(
            {
                "file": args.mscfile,
                "blocks": len(hierarchies),
                "hierarchy_depth": depth,
                "queries": [r.to_dict() for r in results],
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{args.mscfile}: {len(hierarchies)} block(s), "
          f"hierarchy depth {depth}")
    print(f"{'persistence':>12} {'level':>6} {'min':>5} {'1sad':>5} "
          f"{'2sad':>5} {'max':>5} {'arcs':>6}")
    for r in results:
        c = r.node_counts_by_index()
        level = max(r.levels.values(), default=0)
        print(f"{r.persistence:>12.5f} {level:>6} {c[0]:>5} {c[1]:>5} "
              f"{c[2]:>5} {c[3]:>5} {r.num_arcs:>6}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service.client import ServiceClient
    from repro.service.server import make_server

    try:
        client = ServiceClient(
            args.cache_dir,
            max_jobs=args.max_jobs,
            max_memory_entries=args.mem_cache_entries,
            default_timeout=args.job_timeout,
            session_reuse=not args.no_session_reuse,
        )
    except OSError as exc:
        return _fail(
            f"cannot open cache dir {args.cache_dir!r}: "
            f"{exc.strerror or exc}"
        )
    try:
        server = make_server(client, args.host, args.port)
    except OSError as exc:
        client.close()
        return _fail(
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}"
        )
    host, port = server.server_address[:2]
    print(f"repro service on http://{host}:{port} "
          f"(cache: {args.cache_dir}, max jobs: {args.max_jobs})")
    print("endpoints: POST /v1/submit · GET /v1/jobs[/<id>[/result]] · "
          "GET /v1/query · GET /v1/stats · GET /v1/healthz")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown_service()
    return 0


def _cmd_gen(args) -> int:
    from repro.data import (
        hydrogen_atom,
        jet_mixture_fraction_proxy,
        rayleigh_taylor_proxy,
        write_volume_chunked,
    )
    from repro.io.volume import write_volume

    if (args.dims is None) == (args.points is None):
        return _fail("gen needs exactly one of --dims and --points")
    n = args.points
    streamed = args.kind in _CHUNKED_KINDS
    try:
        if streamed:
            kwargs = dict(dtype=args.dtype, slab_depth=args.slab_depth)
            if args.dims is not None:
                kwargs["dims"] = tuple(args.dims)
            else:
                kwargs["points_per_side"] = n
            if args.kind == "sinusoid":
                kwargs["features_per_side"] = args.features
            else:
                kwargs["num_bumps"] = args.features
                kwargs["seed"] = args.seed
            spec = write_volume_chunked(args.output, args.kind, **kwargs)
        else:
            if args.kind == "hydrogen":
                if n is None:
                    return _fail("gen hydrogen is a cube: pass --points")
                field = hydrogen_atom(n)
            elif args.kind == "jet":
                dims = args.dims or (n, n + n // 6, (2 * n) // 3)
                field = jet_mixture_fraction_proxy(tuple(dims),
                                                   seed=args.seed)
            else:
                dims = args.dims or (n, n, n)
                field = rayleigh_taylor_proxy(tuple(dims), seed=args.seed)
            spec = write_volume(args.output, field, dtype=args.dtype)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    how = f", streamed in z-slabs of {args.slab_depth}" if streamed else ""
    print(f"wrote {spec.path}: dims={spec.dims} dtype={spec.dtype} "
          f"({spec.nbytes} bytes{how})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    handlers = {
        "compute": _cmd_compute,
        "stream": _cmd_stream,
        "info": _cmd_info,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "gen": _cmd_gen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

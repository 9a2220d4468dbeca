"""Serial, traced replay of one pipeline run through the layers' public calls.

The timed runs go through the facade (``repro.open_session`` /
``repro.open_service``), which hides where the time goes.  This module
runs the same work again in one process, one call at a time, and wraps
each call into a layer in a benchmark-side span:

==================  ===================================================
layer               calls (all public)
==================  ===================================================
``core.pipeline``   ``build_plan`` (decomposition, merge schedule)
``io``              ``read_block``, ``write_msc_file``
``mesh``            ``CubicalComplex``
``morse``           ``compute_discrete_gradient``, ``extract_ms_complex``,
                    ``simplify_ms_complex``, ``MorseSmaleComplex.compact``
``core.merge``      ``pack_complex``, ``unpack_complex``,
                    ``MorseSmaleComplex.update_boundary_flags``
``core.glue``       ``AddressIndex.from_complex``, ``glue_into``
``analysis``        ``MSComplexHierarchy.capture``, ``load_hierarchy``,
                    ``query``
==================  ===================================================

The merge follows ``repro.core.merge.perform_merge`` step by step (glue
every member, free boundary nodes, re-simplify seeded from the touched
nodes, compact) so that glue, boundary update and re-simplification get
spans of their own.  Its packed output must equal the timed runs' output
byte for byte; the caller checks that, so a replay that drifted from the
program is reported as a failure instead of timing different work.

Layers the replay cannot reach through a public call are listed in
:data:`UNREACHED` and in every traced record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.hierarchy import MSComplexHierarchy
from repro.analysis.query import load_hierarchy, query
from repro.core.config import PipelineConfig
from repro.core.glue import AddressIndex, GlueStats, glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.core.pipeline import build_plan
from repro.io.mscfile import write_msc_file
from repro.io.volume import VolumeSpec, read_block
from repro.mesh.cubical import CubicalComplex
from repro.mesh.grid import StructuredGrid
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex

from benchlib import Spans, euler_sum, sha256_blobs

#: layers with no public entry point the serial replay could time; their
#: cost shows only in the timed runs' counters (``parallel.*``,
#: ``pipeline.driver_s``, ``machine.*``)
UNREACHED = {
    "parallel.executor": "worker-pool dispatch happens inside the "
                         "session run; the replay is serial by design",
    "parallel.transport": "shm/mmap block transport is chosen and used "
                          "inside the session run",
    "parallel.runtime": "the virtual MPI rank program (_rank_main) and "
                        "its cost-model clock are private to "
                        "core.pipeline",
    "service": "scheduler, store and client are timed end to end in the "
               "rt_service workload; they have no per-call layer below "
               "the client",
}


@dataclass
class ReplayOutput:
    """What one replay produced, plus its exact work counts."""

    blobs: dict[int, bytes]
    wall_s: float
    counts: dict[str, int] = field(default_factory=dict)
    msc_image: bytes | None = None
    query_s: list[float] = field(default_factory=list)
    euler_ok: bool = True

    @property
    def digest(self) -> str:
        return sha256_blobs(self.blobs[b] for b in sorted(self.blobs))


def replay(source, wl, spans: Spans, work_dir: Path,
           queries: list[tuple[str, float]] = ()) -> ReplayOutput:
    """Replay one run of workload ``wl`` on ``source`` serially.

    ``source`` is an in-memory field or a :class:`VolumeSpec`.  With
    ``wl.hierarchy`` the replay also captures the hierarchy, writes the
    ``.msc`` v2 file into ``work_dir``, loads it back and answers
    ``queries`` (``("persistence", p)`` or ``("top_k", k)``) from it.
    """
    counts = {k: 0 for k in (
        "mesh.cells", "morse.critical_cells", "morse.geometry_cells",
        "morse.cancellations", "glue.nodes_glued", "glue.arcs_glued",
        "merge.cancellations", "merge.blob_bytes", "io.msc_bytes",
    )}
    euler_ok = True
    t0 = time.perf_counter()
    with spans.span("replay.run", workload=wl.name):
        cfg = PipelineConfig(
            num_blocks=wl.ranks, num_procs=wl.ranks,
            persistence_threshold=wl.persistence,
            merge_radices="full", max_radix=wl.merge_radix,
        )
        volume = source if isinstance(source, VolumeSpec) else None
        grid = None if volume is not None else StructuredGrid(source)
        dims = volume.dims if volume is not None else grid.dims
        with spans.span("pipeline.plan"):
            plan = build_plan(cfg, tuple(dims))
        decomp = plan.decomp

        current: dict[int, bytes] = {}
        with spans.span("compute.stage"):
            for bid in range(decomp.num_blocks):
                box = decomp.block_box(decomp.block_coords(bid))
                with spans.span("compute.block", block=bid):
                    if volume is not None:
                        with spans.span("io.read_block"):
                            values = read_block(volume, box)
                    else:
                        with spans.span("pipeline.extract_block"):
                            values = np.ascontiguousarray(
                                grid.extract_block(box), dtype=np.float64
                            )
                    with spans.span("mesh.build"):
                        cx = CubicalComplex(
                            values,
                            refined_origin=box.refined_origin,
                            global_refined_dims=decomp.global_refined_dims,
                            cut_planes=decomp.cut_planes,
                        )
                    with spans.span("morse.gradient"):
                        gradient = compute_discrete_gradient(cx)
                    with spans.span("morse.trace"):
                        msc = extract_ms_complex(gradient)
                    crit = gradient.critical_counts()
                    euler_ok &= euler_sum(crit) == 1
                    counts["mesh.cells"] += cx.num_cells
                    counts["morse.critical_cells"] += sum(crit)
                    counts["morse.geometry_cells"] += (
                        msc.total_geometry_length()
                    )
                    with spans.span("morse.simplify"):
                        cancels = simplify_ms_complex(
                            msc, wl.persistence, respect_boundary=True
                        )
                    counts["morse.cancellations"] += len(cancels)
                    with spans.span("morse.compact"):
                        msc.compact()
                    with spans.span("compute.pack"):
                        current[bid] = pack_complex(msc)

        with spans.span("merge.stage"):
            for round_idx, groups in enumerate(plan.groups_by_round):
                cuts = plan.cuts_by_round[round_idx]
                for root_bid, _root_rank, members in groups:
                    with spans.span("merge.block", round=round_idx,
                                    root=root_bid):
                        current[root_bid] = _merge_group(
                            spans, counts, wl.persistence,
                            current[root_bid],
                            [current.pop(m) for m, _ in members], cuts,
                        )

        out = ReplayOutput(blobs=current, wall_s=0.0, counts=counts)
        if wl.hierarchy:
            _write_and_query(spans, counts, out, work_dir, queries)
    out.wall_s = time.perf_counter() - t0
    out.euler_ok = euler_ok
    return out


def _merge_group(spans, counts, persistence, root_blob, member_blobs,
                 cuts) -> bytes:
    """One group-root merge, one span per step of ``perform_merge``."""
    with spans.span("merge.unpack"):
        root = unpack_complex(root_blob)
        incoming = [unpack_complex(b) for b in member_blobs]
    with spans.span("glue.glue"):
        index = AddressIndex.from_complex(root)
        touched: set[int] = set()
        glued = GlueStats()
        for other in incoming:
            glued += glue_into(root, other, index, touched=touched)
    counts["glue.nodes_glued"] += glued.nodes_added
    counts["glue.arcs_glued"] += glued.arcs_added
    with spans.span("merge.boundary"):
        freed = root.update_boundary_flags(cuts, return_ids=True)
        touched.update(freed)
    with spans.span("merge.resimplify"):
        cancels = simplify_ms_complex(
            root, persistence, respect_boundary=True, seed_nodes=touched
        )
    counts["merge.cancellations"] += len(cancels)
    with spans.span("merge.compact"):
        root.compact()
    with spans.span("merge.pack"):
        blob = pack_complex(root)
    counts["merge.blob_bytes"] += len(blob)
    return blob


def _write_and_query(spans, counts, out: ReplayOutput, work_dir: Path,
                     queries) -> None:
    """The write stage of a hierarchy run, then queries from the file."""
    blobs = out.blobs
    with spans.span("hierarchy.capture"):
        arrays = {
            bid: MSComplexHierarchy.capture(
                unpack_complex(blobs[bid])
            ).to_arrays()
            for bid in sorted(blobs)
        }
    path = work_dir / "replay.msc"
    with spans.span("io.write_msc"):
        counts["io.msc_bytes"] = write_msc_file(
            path, [(bid, blobs[bid]) for bid in sorted(blobs)],
            hierarchies=arrays,
        )
    out.msc_image = path.read_bytes()
    with spans.span("query.load"):
        hier = load_hierarchy(path)
    for kind, arg in queries:
        t = time.perf_counter()
        with spans.span("query.lookup"):
            query(hier, **{kind: arg})
        out.query_s.append(time.perf_counter() - t)
    path.unlink()

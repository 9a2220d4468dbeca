"""Discrete gradient vector field construction (paper §IV-C).

The algorithm is the greedy assignment of Gyulassy et al. [10] adapted to
the parallel setting: cells are processed "sorted by increasing dimension,
and then by increasing function value"; in this order a cell is "paired in
gradient arrows in the direction of steepest descent, if possible,
otherwise marked critical"; a d-cell can be paired with a co-facet only
when it is "the only unassigned facet of one of its unassigned co-facets".
Function-value ties are broken by the improved simulation of simplicity
(the complex's precomputed SoS rank), which "greatly reduces the number of
zero-persistence critical points found" in flat regions.

Boundary restriction
--------------------
"For a cell on the boundary of two or more blocks, we only consider for
pairing other cells also on the boundary of those same blocks."  We
realize this with the boundary signature of each cell (the set of internal
cut planes of the global decomposition it lies on): a pairing is allowed
only between cells of *equal* signature, and signature classes are
processed from most constrained to least (block corners, then block edges,
then block faces, then interiors).  Because the signature is a global
property of the decomposition and the processing order inside a class
depends only on global cell addresses and vertex values, two blocks
sharing a face compute bit-identical gradient arrows on it — the property
that anchors the gluing step of the merge stage (§IV-F3).

Pass formulation
----------------
The sweep visits cells in *passes*: one pass per (signature popcount,
dimension) group, so there are at most 16.  Each pass is one array
program over the ``assigned`` state at its start; no per-cell loop runs.

Take a pass and a cell ``a`` of it that is unassigned when the pass
starts (pass cells have one dimension ``d``, and a d-cell can only be
claimed by a (d-1)-cell of an earlier pass, so this is also its state at
its own turn).  At ``a``'s turn in the greedy order, ``a`` may pair with
a cofacet ``b`` exactly when

- ``b`` is unassigned at the start of the pass,
- ``sig[b] == sig[a]``, and
- every other facet of ``b`` is assigned at the start of the pass or is
  a member of this pass that comes before ``a`` in sweep order.

The last condition holds because every cell of a finished pass is
assigned, and a facet of ``b`` carries ``b``'s signature bits, so it lies
in this pass or in an earlier one.  No two cells of a pass compete: if
an earlier cell ``a'`` claimed ``b``, every other facet of ``b`` —
``a`` among them — was assigned at ``a'``'s turn, but ``a`` is
unassigned until its own turn.  So each cell's candidates depend only on
the state at the start of the pass, and each cell takes the candidate of
lowest SoS rank, as the loop does.  The kernel writes the facet test as
``tick[f] < tick[a]``, where ``tick`` holds each unassigned cell's sweep
position and -1 for assigned cells; a pass member after ``a`` and any
unassigned cell of a later pass have a larger tick.  Dimension-3 passes
have no cofacets, so every cell they still hold becomes critical.

Acyclicity
----------
A cell ``a`` is paired with a cofacet ``b`` only when every *other*
facet of ``b`` is assigned before ``a``'s position in the sweep —
before its pass, or earlier in the same pass.  A V-path step leaves the
head ``b`` through one of those other facets; if the path continues,
that facet is the tail of its own pair, made at its own turn, strictly
before ``a``'s.  The sweep positions of the tails strictly decrease
along any V-path, so no V-path can revisit a cell and the constructed
vector field is a discrete *gradient* field.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.cubical import CubicalComplex
from repro.morse.vectorfield import (
    CRITICAL,
    SENTINEL,
    UNASSIGNED,
    GradientField,
)
from repro.obs.trace import get_tracer

__all__ = ["compute_discrete_gradient"]

#: sweep pass of a valid cell by (boundary signature, dimension):
#: signature popcount 3, 2, 1, 0, then dimension 0..3, as 0..15
#: (hoisted: built once at import, not per block)
_PASS_OF = np.array(
    [[(3 - bin(v).count("1")) * 4 + d for d in range(4)] for v in range(8)],
    dtype=np.uint8,
)

#: cofacet slot index, added to the low bits of a candidate's key
_COFACET = np.arange(6, dtype=np.int64)[:, None]

#: key of a cell with no qualifying cofacet
_NONE = np.iinfo(np.int64).max


def compute_discrete_gradient(complex_: CubicalComplex) -> GradientField:
    """Compute the discrete gradient vector field of a block.

    Returns a :class:`~repro.morse.vectorfield.GradientField` in which
    every valid cell is either paired or critical.  The computation is
    deterministic and, for cells on shared block boundaries, depends only
    on data available identically to all blocks sharing that boundary.
    """
    tracer = get_tracer()
    tables = complex_.tables
    sig = complex_.boundary_sig
    celltype = tables.celltype

    with tracer.span("gradient.prepare", cat="kernel"):
        # Sweep order: signature classes from most constrained to least
        # (popcount 3, 2, 1, 0), then increasing dimension, then SoS
        # rank.  The rank is a dense permutation of the valid cells, so
        # scattering by rank and one stable sort of the 16 pass ids
        # (a radix sort on uint8) is the whole order.
        cells = tables.interior_index
        n = cells.size
        by_rank = np.empty(n, dtype=np.intp)
        by_rank[complex_.order_rank[cells]] = cells
        pass_of = _PASS_OF[sig[by_rank], tables.cell_dim[by_rank]]
        perm = np.argsort(pass_of, kind="stable")
        sweep = by_rank[perm]
        pass_of = pass_of[perm]
        bounds = np.flatnonzero(np.diff(pass_of)) + 1
        starts = np.concatenate(([0], bounds)).tolist()
        ends = np.concatenate((bounds, [n])).tolist()
        # tick: sweep position of an unassigned cell, -1 once assigned
        # (sentinels start assigned)
        tick = np.full(complex_.num_padded, -1, dtype=np.int64)
        tick[sweep] = np.arange(n, dtype=np.int64)
        pairing = np.full(complex_.num_padded, SENTINEL, dtype=np.uint8)
        pairing[cells] = UNASSIGNED

    with tracer.span("gradient.sweep", cat="kernel", cells=n,
                     passes=len(starts)):
        for s, e in zip(starts, ends):
            a = sweep[s:e]
            ta = tick[a]
            live = ta >= 0
            a = a[live]
            ta = ta[live]
            d = int(pass_of[s]) & 3
            if d == 3:
                pairing[a] = CRITICAL
                tick[a] = -1
                continue
            # (cofacets, cells) arrays: every candidate head of every
            # live cell, kept when it is unassigned, has the cell's
            # signature, and has every other facet assigned before the
            # cell's turn.  A sentinel head fails the signature test but
            # its facet offsets can step one cell past the padding, so
            # those gathers clip.
            ct = celltype[a]
            b = a + tables.pair_offsets[d][:, ct]
            tb = tick[b]
            ok = (tb >= 0) & (sig[b] == sig[a])
            for others in tables.pair_others[d]:
                ok &= tick.take(b + others[:, ct], mode="clip") < ta
            # The lowest-ranked qualifying head has the lowest tick (all
            # heads of one cell share one pass); the low bits carry
            # which cofacet it is.
            key = np.where(ok, tb * 8 + _COFACET[: len(b)], _NONE)
            key = key.min(axis=0)
            paired = key != _NONE
            key = key[paired]
            head = sweep[key >> 3]
            code = tables.pair_codes[d][key & 7, ct[paired]]
            pairing[a[paired]] = code
            pairing[head] = code ^ 1
            pairing[a[~paired]] = CRITICAL
            tick[a] = -1
            tick[head] = -1

    return GradientField(complex_, pairing)

"""Reference greedy gradient sweep: the test oracle of the array kernel.

This is the per-cell loop that
:func:`repro.morse.gradient.compute_discrete_gradient` ran before it
became one array program per sweep pass.  It visits every
valid cell in sweep order (boundary-popcount class from most constrained
to least, then dimension, then SoS rank) and pairs the cell with its
lowest-ranked cofacet of equal boundary signature of which it is the
only unassigned facet; otherwise the cell is critical.  It is kept
verbatim — only the candidate tables, which the mesh now stores as
arrays, are rebuilt here in their original tuple form — so the property
suite can assert the array kernel reproduces it byte for byte.
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

__all__ = ["reference_gradient"]

_POP_OF_SIG = np.array(
    [bin(v).count("1") for v in range(256)], dtype=np.uint8
)


def _pair_candidates(complex_: CubicalComplex):
    """Per-celltype ``(offset, code_tail, code_head, other_facet_offsets)``
    for each cofacet of a t-cell."""
    steps = complex_.steps
    facet_offsets = complex_.facet_offsets
    sx, sy, sz = steps
    dir_offsets = (sx, -sx, sy, -sy, sz, -sz)
    code_of_offset = {off: code for code, off in enumerate(dir_offsets)}
    pair_candidates = []
    for t in range(8):
        cands = []
        for off in complex_.cofacet_offsets[t]:
            head_type = int(
                t | (1 << [abs(off) == s for s in steps].index(True))
            )
            others = tuple(
                foff for foff in facet_offsets[head_type] if foff != -off
            )
            fwd = code_of_offset[off]
            cands.append((off, fwd, fwd ^ 1, others))
        pair_candidates.append(tuple(cands))
    return tuple(pair_candidates)


def reference_gradient(complex_: CubicalComplex) -> GradientField:
    """The greedy sweep, one Python iteration per valid cell."""
    valid = complex_.valid
    rank_np = complex_.order_rank
    sig_np = complex_.boundary_sig

    pairing = np.where(valid, np.uint8(UNASSIGNED), np.uint8(SENTINEL))
    assigned = bytearray((~valid).view(np.uint8).tobytes())

    valid_cells = np.flatnonzero(valid)
    neg_pop = -_POP_OF_SIG[sig_np[valid_cells]].astype(np.int8)
    # np.lexsort: last key is primary
    perm = np.lexsort(
        (rank_np[valid_cells], complex_.cell_dim[valid_cells], neg_pop)
    )
    sweep = valid_cells[perm].tolist()

    pairing = pairing.tolist()
    celltype = complex_.celltype.tolist()
    sig = sig_np.tolist()
    rank = rank_np.tolist()
    candidates = _pair_candidates(complex_)

    for a in sweep:
        if assigned[a]:
            continue
        sa = sig[a]
        ta = celltype[a]
        best = -1
        best_rank = 0
        best_fwd = 0
        best_back = 0
        for off, fwd, back, others in candidates[ta]:
            b = a + off
            # sentinel cells carry signature 255, so they can
            # never match sa and are skipped without a bounds test
            if assigned[b] or sig[b] != sa:
                continue
            ok = True
            for foff in others:
                if not assigned[b + foff]:
                    ok = False
                    break
            if ok:
                rb = rank[b]
                if best < 0 or rb < best_rank:
                    best = b
                    best_rank = rb
                    best_fwd = fwd
                    best_back = back
        if best >= 0:
            pairing[a] = best_fwd
            pairing[best] = best_back
            assigned[a] = 1
            assigned[best] = 1
        else:
            pairing[a] = CRITICAL
            assigned[a] = 1

    return GradientField(complex_, np.asarray(pairing, dtype=np.uint8))

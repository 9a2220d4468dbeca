"""Property test: the array-pass gradient kernel equals the greedy loop.

:func:`repro.morse.gradient.compute_discrete_gradient` runs the paper's
greedy sweep as one array program per (boundary class, dimension) pass.
Hypothesis drives tie-heavy fields — uniform random, integer values in
0..2, float16-quantised and constant — through every block of 1-, 2-,
8- and 27-block decompositions (so cut planes of every popcount are
exercised) and asserts the pairing bytes equal those of the per-cell
reference sweep in :mod:`tests.reference_gradient`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.parallel.decomposition import decompose
from tests.reference_gradient import reference_gradient

FIELD_KINDS = ("random", "integer", "float16", "constant")


def _field(kind: str, shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random(shape)
    if kind == "integer":
        return rng.integers(0, 3, shape).astype(np.float64)
    if kind == "float16":
        return rng.random(shape).astype(np.float16).astype(np.float64)
    return np.full(shape, 0.5)


@st.composite
def gradient_cases(draw):
    splits = draw(st.sampled_from(
        [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2), (3, 3, 3)]
    ))
    shape = tuple(
        draw(st.integers(max(2, s + 1), 13)) for s in splits
    )
    kind = draw(st.sampled_from(FIELD_KINDS))
    seed = draw(st.integers(0, 2**31 - 1))
    return _field(kind, shape, seed), splits


@settings(max_examples=40, deadline=None)
@given(gradient_cases())
def test_array_kernel_pairing_equals_reference_sweep(case):
    field, splits = case
    decomp = decompose(field.shape, int(np.prod(splits)), splits=splits)
    for bid in range(decomp.num_blocks):
        box = decomp.block_box(decomp.block_coords(bid))
        cx = CubicalComplex(
            field[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=decomp.global_refined_dims,
            cut_planes=decomp.cut_planes,
        )
        got = compute_discrete_gradient(cx).pairing
        want = reference_gradient(cx).pairing
        assert got.dtype == want.dtype == np.uint8
        assert got.tobytes() == want.tobytes(), f"block {bid}"

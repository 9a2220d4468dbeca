"""Golden-file regression test for the MSC block file format (§IV-G).

``tests/data/golden_bumps8.msc`` was produced by :func:`golden_result`
below (a fully deterministic 8-rank pipeline run over a seeded uniform
random volume — pure-arithmetic input, so the bytes are stable across
platforms) and committed.  If the on-disk format, the serialization
order, or the pipeline's numeric output ever drifts, the byte-for-byte
comparison here fails and the change has to be made deliberately: either
fix the regression, or regenerate the golden file::

    PYTHONPATH=src python -c "import tests.test_golden_mscfile as g; \
        g.golden_result().write(str(g.GOLDEN))"

and justify the format change in the commit.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.analysis.query import load_hierarchy
from repro.io.mscfile import (
    MAGIC,
    MAGIC_V2,
    read_msc_file,
    read_msc_hierarchies,
    write_msc_file,
)
from repro.morse.msc import MorseSmaleComplex

GOLDEN = Path(__file__).parent / "data" / "golden_bumps8.msc"
GOLDEN_HIER = Path(__file__).parent / "data" / "golden_bumps8_hier.msc"


def golden_result():
    """The exact pipeline run the committed golden file captures."""
    # default_rng avoids libm transcendentals => bit-stable across hosts
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(field, persistence=0.1, ranks=8,
                         options=ExecutionOptions(retry_backoff=0.0))


def golden_hier_result(**extra):
    """Same run as :func:`golden_result` with the hierarchy captured —
    the committed ``golden_bumps8_hier.msc`` (v2) regenerates as::

        PYTHONPATH=src python -c "import tests.test_golden_mscfile as g; \
            g.golden_hier_result().write(str(g.GOLDEN_HIER))"
    """
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(field, persistence=0.1, ranks=8,
                         options=ExecutionOptions(retry_backoff=0.0,
                                                  hierarchy=True,
                                                  **extra))


def test_pipeline_output_matches_golden_bytes(tmp_path):
    out = tmp_path / "regen.msc"
    golden_result().write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_with_observability_enabled(tmp_path):
    """Tracing and metrics must never perturb the output bytes."""
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(retry_backoff=0.0),
                           trace=True, metrics=True)
    out = tmp_path / "traced.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.trace is not None
    assert result.stats.metrics is not None


@pytest.mark.slow
def test_golden_bytes_with_observability_enabled_pooled(tmp_path):
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(workers=2,
                                                    transport="shm",
                                                    retry_backoff=0.0),
                           trace=True, metrics=True)
    out = tmp_path / "traced_pooled.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.slow
def test_golden_bytes_pointer_backend_pooled_traced(tmp_path):
    """The pointer-jumping tracing backend is bit-identical to DFS in
    the most composed configuration: pooled workers, shm transport, and
    tracing enabled all at once."""
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(
                               workers=2, transport="shm",
                               kernel_backend="pointer",
                               retry_backoff=0.0),
                           trace=True)
    out = tmp_path / "pointer_pooled.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_pointer_backend_serial(tmp_path):
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(
                               kernel_backend="pointer",
                               retry_backoff=0.0))
    out = tmp_path / "pointer_serial.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_explicit_serial_executor(tmp_path):
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(executor="serial",
                                                    retry_backoff=0.0))
    out = tmp_path / "serial_merge.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.executor == "serial"


def test_golden_bytes_one_worker_never_forks(tmp_path, monkeypatch):
    """At one worker both the compute blocks and the merge rounds run
    in-process: a process pool that cannot be built changes nothing."""
    import repro.parallel.executor as executor_mod

    built = []

    def no_pool(*args, **kwargs):
        built.append(kwargs)
        raise AssertionError("a one-worker run built a process pool")

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", no_pool)
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(workers=1,
                                                    retry_backoff=0.0))
    out = tmp_path / "one_worker.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert built == []
    assert result.stats.merge_events  # the merge rounds did run


@pytest.mark.slow
@pytest.mark.parametrize("trace", [False, True])
def test_golden_bytes_pooled_executor(tmp_path, trace):
    """Merge rounds on the worker pool are bit-identical to serial,
    traced or not — merging is deterministic, so where it runs cannot
    show in the output bytes."""
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(workers=2,
                                                    retry_backoff=0.0),
                           trace=trace)
    out = tmp_path / "pooled_merge.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.executor == "process"


def test_golden_bytes_mmap_volume_run(tmp_path):
    """A volume-file input streamed block-wise over the ``mmap``
    transport produces the same bytes as the in-memory golden run — and
    the driver stages none of the volume."""
    from repro.io.volume import write_volume

    field = np.random.default_rng(42).random((9, 9, 9))
    spec = write_volume(tmp_path / "golden.raw", field, dtype="float64")
    result = repro.compute(spec, persistence=0.1, ranks=8,
                           options=ExecutionOptions(transport="mmap",
                                                    retry_backoff=0.0))
    out = tmp_path / "mmap.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.transport.driver_staged_bytes == 0


def test_golden_bytes_pickle_volume_run(tmp_path):
    from repro.io.volume import write_volume

    field = np.random.default_rng(42).random((9, 9, 9))
    spec = write_volume(tmp_path / "golden.raw", field, dtype="float64")
    result = repro.compute(spec, persistence=0.1, ranks=8,
                           options=ExecutionOptions(transport="pickle",
                                                    retry_backoff=0.0))
    out = tmp_path / "pickle_vol.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_session_steps(tmp_path):
    """Every step of a persistent session matches the one-shot golden
    bytes — pools, plan cache, and warmed tables must not show."""
    field = np.random.default_rng(42).random((9, 9, 9))
    with repro.open_session(
        persistence=0.1, ranks=8,
        options=ExecutionOptions(retry_backoff=0.0),
    ) as session:
        for step in range(2):
            out = tmp_path / f"session{step}.msc"
            session.run(field).write(str(out))
            assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_reads_back_to_valid_complex():
    blocks = read_msc_file(GOLDEN)
    assert set(blocks) == {0}  # full merge leaves the root block only
    msc = MorseSmaleComplex.from_payload(blocks[0])
    counts = msc.node_counts_by_index()
    assert sum(counts) == msc.num_alive_nodes() > 0
    assert msc.num_alive_arcs() > 0
    # content matches an in-memory recomputation, not just the bytes
    ref = golden_result().output_blocks[0]
    ref_payload = ref.to_payload()
    for key, arr in blocks[0].items():
        np.testing.assert_array_equal(arr, ref_payload[key])


def test_write_read_write_is_identity(tmp_path):
    """write∘read == identity on the golden file's records."""
    blocks = read_msc_file(GOLDEN)
    out = tmp_path / "rewritten.msc"
    write_msc_file(out, sorted(blocks.items()))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_footer_index_is_consistent():
    data = GOLDEN.read_bytes()
    assert data[-4:] == MAGIC
    (footer_offset,) = struct.unpack_from("<Q", data, len(data) - 12)
    (count,) = struct.unpack_from("<Q", data, footer_offset)
    assert count == 1
    pos = footer_offset + 8
    end = 0
    for _ in range(count):
        block_id, off, ln = struct.unpack_from("<qQQ", data, pos)
        pos += 24
        assert block_id == 0
        assert off == end  # records are packed back to back
        end = off + ln
    assert end == footer_offset  # index spans exactly all records


class TestGoldenHierarchy:
    """Pins for the v2 golden (same run with ``hierarchy=True``)."""

    def test_pipeline_output_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "regen_hier.msc"
        golden_hier_result().write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    def test_traced_run_matches_golden_bytes(self, tmp_path):
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(field, persistence=0.1, ranks=8,
                               options=ExecutionOptions(retry_backoff=0.0,
                                                        hierarchy=True),
                               trace=True, metrics=True)
        out = tmp_path / "traced_hier.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    @pytest.mark.slow
    def test_pooled_shm_run_matches_golden_bytes(self, tmp_path):
        """Hierarchy capture happens on the merged global complex, so
        the persisted hierarchy is identical however compute ran."""
        result = golden_hier_result(workers=2, transport="shm")
        out = tmp_path / "pooled_hier.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    def test_v2_magic_and_block_region_extends_v1(self):
        data = GOLDEN_HIER.read_bytes()
        assert data[-4:] == MAGIC_V2
        v1 = GOLDEN.read_bytes()
        (v1_footer,) = struct.unpack_from("<Q", v1, len(v1) - 12)
        # v2 appends the hierarchy after the v1 block-record region:
        # the stored complexes are byte-identical across the versions
        assert data[:v1_footer] == v1[:v1_footer]

    def test_blocks_read_back_identical_to_v1_golden(self):
        v1_blocks = read_msc_file(GOLDEN)
        v2_blocks = read_msc_file(GOLDEN_HIER)
        assert set(v2_blocks) == set(v1_blocks) == {0}
        for key, arr in v1_blocks[0].items():
            np.testing.assert_array_equal(v2_blocks[0][key], arr)

    def test_hierarchy_reads_back(self):
        arrays = read_msc_hierarchies(GOLDEN_HIER)
        assert set(arrays) == {0}
        hierarchies = load_hierarchy(GOLDEN_HIER)
        assert hierarchies[0].num_levels == len(
            arrays[0]["persistences"]
        ) >= 100
        # the persisted hierarchy matches an in-memory recomputation
        ref = golden_hier_result().hierarchies[0]
        for key, arr in ref.to_arrays().items():
            np.testing.assert_array_equal(arrays[0][key], arr)

    def test_v1_golden_has_no_hierarchy(self):
        with pytest.raises(ValueError, match="no hierarchy recorded"):
            read_msc_hierarchies(GOLDEN)

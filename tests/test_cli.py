"""Tests for repro.cli: the command-line interface."""

import dataclasses

import numpy as np
import pytest

from repro.cli import _execution_options, build_parser, main
from repro.core.options import ExecutionOptions
from repro.data import (
    hydrogen_atom,
    jet_mixture_fraction_proxy,
    rayleigh_taylor_proxy,
)
from repro.io.volume import VolumeSpec, write_volume
from repro.data.synthetic import gaussian_bumps_field


@pytest.fixture
def volume(tmp_path):
    field = gaussian_bumps_field((13, 13, 13), 3, seed=1)
    spec = write_volume(tmp_path / "f.raw", field, dtype="float32")
    return spec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compute_args(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8", "--blocks", "4"]
        )
        assert args.command == "compute"
        assert args.dims == [8, 8, 8]
        assert args.blocks == 4

    def test_bad_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "v.raw", "--dims", "8", "8", "8",
                 "--dtype", "int16"]
            )


class TestCompute:
    def test_compute_and_info_roundtrip(self, volume, tmp_path, capsys):
        out = tmp_path / "out.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--dtype", "float32",
            "--blocks", "8",
            "--persistence", "0.05",
            "--output", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "critical points" in stdout
        assert out.exists()

        rc = main(["info", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "block 0" in stdout
        assert "MS complex" in stdout

    def test_no_merge(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "8", "--no-merge",
        ])
        assert rc == 0
        assert "8 output block(s)" in capsys.readouterr().out

    def test_workers_flags_parse_and_run(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "4", "--workers", "1", "--executor", "serial",
        ])
        assert rc == 0
        assert "workers=1" in capsys.readouterr().out

    def test_kernel_backend_flag_parses(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8",
             "--kernel-backend", "pointer"]
        )
        assert args.kernel_backend == "pointer"

    def test_kernel_backend_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "v.raw", "--dims", "8", "8", "8",
                 "--kernel-backend", "bfs"]
            )

    def test_kernel_backend_runs_bit_identical(self, volume, tmp_path,
                                               capsys):
        outputs = {}
        for backend in ("dfs", "pointer"):
            out = tmp_path / f"{backend}.msc"
            rc = main([
                "compute", volume.path,
                "--dims", *map(str, volume.dims),
                "--blocks", "4", "--persistence", "0.05",
                "--kernel-backend", backend,
                "--output", str(out),
            ])
            assert rc == 0
            capsys.readouterr()
            outputs[backend] = out.read_bytes()
        assert outputs["pointer"] == outputs["dfs"]


class TestComputeErrors:
    def test_missing_volume_fails_readably(self, tmp_path, capsys):
        rc = main([
            "compute", str(tmp_path / "nope.raw"),
            "--dims", "8", "8", "8",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read volume")
        assert "nope.raw" in captured.err
        assert "Traceback" not in captured.err

    def test_unreadable_directory_fails_readably(self, tmp_path, capsys):
        rc = main([
            "compute", str(tmp_path),  # a directory, not a file
            "--dims", "8", "8", "8",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_size_mismatch_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", "64", "64", "64",  # wrong dims for this file
            "--dtype", "float32",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "require" in err and "bytes" in err

    def test_bad_config_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "3",  # not a power of two
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSynth:
    """Synthetic volumes of every family through ``repro gen``."""

    @pytest.mark.parametrize(
        "kind", ["sinusoid", "bumps", "jet", "rayleigh-taylor", "hydrogen"]
    )
    def test_synth_kinds(self, kind, tmp_path, capsys):
        out = tmp_path / f"{kind}.raw"
        rc = main(["gen", kind, str(out), "--points", "12"])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_synth_then_compute(self, tmp_path, capsys):
        out = tmp_path / "s.raw"
        main(["gen", "sinusoid", str(out), "--points", "12",
              "--features", "2"])
        msg = capsys.readouterr().out
        # parse dims back out of the gen report
        dims = msg.split("dims=(")[1].split(")")[0].replace(",", " ").split()
        rc = main([
            "compute", str(out), "--dims", *dims, "--dtype", "float32",
            "--blocks", "2", "--persistence", "0.1",
        ])
        assert rc == 0


class TestWorkerCountValidation:
    """--workers/--blocks/--procs must be >= 1: exit code 2, readable."""

    @pytest.mark.parametrize("flag", ["--workers", "--blocks", "--procs"])
    @pytest.mark.parametrize("value", ["0", "-1", "-8"])
    def test_nonpositive_rejected_with_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["compute", "v.raw", "--dims", "8", "8", "8",
                  flag, value])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err  # argparse names the offending flag
        assert "positive integer" in err

    @pytest.mark.parametrize("flag", ["--workers", "--blocks", "--procs"])
    def test_non_numeric_rejected_with_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["compute", "v.raw", "--dims", "8", "8", "8",
                  flag, "two"])
        assert exc_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_one_is_accepted(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8",
             "--workers", "1"]
        )
        assert args.workers == 1


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        import repro

        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    @pytest.mark.slow
    def test_module_entry_point(self):
        """``python -m repro.cli --version`` works as a real process."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("repro ")


class TestVerboseFlag:
    def test_verbose_parses_and_counts(self):
        args = build_parser().parse_args(["-vv", "info", "x.msc"])
        assert args.verbose == 2
        args = build_parser().parse_args(["info", "x.msc"])
        assert args.verbose == 0

    def test_verbose_enables_info_logging(self, volume, caplog):
        import logging

        rc = main([
            "-v", "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        assert logging.getLogger("repro").level == logging.INFO
        assert any("compute stage done" in r.message
                   for r in caplog.records)

    def test_default_keeps_warnings_only(self, volume, caplog):
        import logging

        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        assert logging.getLogger("repro").level == logging.WARNING
        assert not any("compute stage done" in r.message
                       for r in caplog.records)

    def test_repeat_main_adds_one_handler(self, volume, capsys):
        import logging

        for _ in range(2):
            main(["-v", "compute", volume.path,
                  "--dims", *map(str, volume.dims), "--blocks", "2"])
        handlers = [
            h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_cli_handler", False)
        ]
        assert len(handlers) == 1


class TestObservabilityFlags:
    def test_trace_and_metrics_files_written(self, volume, tmp_path,
                                             capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "4", "--persistence", "0.05",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "metrics:" in stdout

        import json

        doc = json.loads(trace.read_text())
        assert {e["name"] for e in doc["traceEvents"]} >= {
            "pipeline.run", "compute.block", "merge.round"
        }
        snap = json.loads(metrics.read_text())
        assert snap["compute.blocks"]["value"] == 4

    @pytest.mark.slow
    def test_pooled_mmap_trace_covers_every_block(self, volume, tmp_path,
                                                  capsys):
        """Worker lanes of a pooled --trace file cover all blocks."""
        trace = tmp_path / "pooled.json"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "8", "--workers", "2", "--transport", "mmap",
            "--trace", str(trace),
        ])
        assert rc == 0
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        block_spans = [e for e in events if e["name"] == "compute.block"]
        assert {e["args"]["block"] for e in block_spans} == set(range(8))
        worker_pids = {
            e["pid"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"].startswith("worker")
        }
        assert {e["pid"] for e in block_spans} <= worker_pids
        assert worker_pids  # blocks really ran off-driver

    def test_no_flags_leaves_stats_dark(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "trace:" not in stdout
        assert "metrics:" not in stdout


class TestFaultToleranceFlags:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8"]
        )
        assert args.block_timeout is None
        assert args.max_retries == 2
        assert args.retry_backoff == pytest.approx(0.05)
        assert args.degrade_on_failure is True

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8",
             "--block-timeout", "1.5", "--max-retries", "4",
             "--retry-backoff", "0", "--no-degrade"]
        )
        assert args.block_timeout == pytest.approx(1.5)
        assert args.max_retries == 4
        assert args.retry_backoff == 0.0
        assert args.degrade_on_failure is False

    def test_negative_max_retries_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--max-retries", "-1",
        ])
        assert rc == 2  # RetryPolicy validation, surfaced as CLI error
        assert "error:" in capsys.readouterr().err

    def test_compute_runs_with_fault_flags(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "4",
            "--max-retries", "3",
            "--retry-backoff", "0",
        ])
        assert rc == 0
        assert "critical points" in capsys.readouterr().out


class TestQuery:
    @pytest.fixture
    def hier_msc(self, volume, tmp_path, capsys):
        """A v2 .msc produced by `compute --hierarchy`."""
        path = tmp_path / "hier.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "2", "--retry-backoff", "0",
            "--hierarchy", "--output", str(path),
        ])
        assert rc == 0
        capsys.readouterr()
        return path

    def test_parser_accepts_hierarchy_flag(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8", "--hierarchy"]
        )
        assert args.hierarchy is True

    def test_threshold_sweep(self, hier_msc, capsys):
        rc = main([
            "query", str(hier_msc),
            "--persistence", "0.0", "0.05", "0.2", "10.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchy depth" in out
        assert "persistence" in out and "arcs" in out
        # header + per-threshold rows under the two banner lines
        assert len(out.strip().splitlines()) == 2 + 4

    def test_top_k(self, hier_msc, capsys):
        rc = main(["query", str(hier_msc), "--top-k", "3"])
        assert rc == 0
        assert "hierarchy depth" in capsys.readouterr().out

    def test_json_output(self, hier_msc, capsys):
        import json

        rc = main([
            "query", str(hier_msc), "--json",
            "--persistence", "0.0", "0.1",
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["file"] == str(hier_msc)
        assert record["hierarchy_depth"] >= 1
        assert len(record["queries"]) == 2
        for q in record["queries"]:
            assert set(q) >= {"persistence", "levels", "num_nodes",
                              "num_arcs", "node_counts_by_index"}

    def test_query_matches_library_answer(self, hier_msc, capsys):
        import json

        from repro.analysis.query import query as lib_query

        rc = main([
            "query", str(hier_msc), "--json", "--persistence", "0.07",
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        ref = lib_query(str(hier_msc), persistence=0.07)
        assert record["queries"][0] == ref.to_dict()

    def test_v1_file_fails_readably(self, volume, tmp_path, capsys):
        path = tmp_path / "v1.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--retry-backoff", "0", "--output", str(path),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["query", str(path), "--persistence", "0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "no hierarchy recorded" in err

    def test_missing_file_fails_readably(self, tmp_path, capsys):
        rc = main([
            "query", str(tmp_path / "nope.msc"), "--persistence", "0.1",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_selector_required(self, hier_msc, capsys):
        rc = main(["query", str(hier_msc)])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_selectors_exclusive(self, hier_msc, capsys):
        rc = main([
            "query", str(hier_msc), "--persistence", "0.1",
            "--top-k", "2",
        ])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_negative_top_k_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "f.msc", "--top-k", "-1"])


class TestStream:
    @pytest.fixture
    def series(self, tmp_path):
        """Two small volume files with identical dims."""
        specs = []
        for step in range(2):
            field = gaussian_bumps_field((9, 9, 9), 3, seed=step)
            specs.append(write_volume(
                tmp_path / f"t{step}.raw", field, dtype="float64"
            ))
        return specs

    def test_parser_accepts_stream_args(self):
        args = build_parser().parse_args([
            "stream", "a.raw", "b.raw", "--dims", "9", "9", "9",
            "--dtype", "float64", "--blocks", "8",
            "--transport", "mmap",
        ])
        assert args.command == "stream"
        assert args.volumes == ["a.raw", "b.raw"]
        assert args.transport == "mmap"

    def test_stream_table_and_outputs(self, series, tmp_path, capsys):
        out_dir = tmp_path / "steps"
        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--persistence", "0.05",
            "--retry-backoff", "0.0",
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "session: 2 steps" in stdout
        for step in range(2):
            assert (out_dir / f"step_{step:04d}.msc").exists()

    def test_stream_steps_match_oneshot_pipeline(self, series, tmp_path):
        from repro.core.config import ExecutionOptions, PipelineConfig
        from repro.core.pipeline import ParallelMSComplexPipeline

        out_dir = tmp_path / "steps"
        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--persistence", "0.05",
            "--retry-backoff", "0.0",
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        # the exact one-shot configuration the stream command builds
        cfg = PipelineConfig(
            num_blocks=8,
            persistence_threshold=0.05,
            merge_radices="full",
            options=ExecutionOptions(retry_backoff=0.0),
        )
        for step, spec in enumerate(series):
            ref = tmp_path / f"ref{step}.msc"
            ParallelMSComplexPipeline(cfg).run(volume=spec).write(str(ref))
            streamed = out_dir / f"step_{step:04d}.msc"
            assert streamed.read_bytes() == ref.read_bytes()

    def test_stream_json_records_session_reuse(self, series, capsys):
        import json

        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--retry-backoff", "0.0", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["steps"]) == 2
        assert payload["session"]["runs"] == 2
        assert payload["session"]["plan_cache_hits"] == 1

    def test_wrong_size_volume_fails_before_first_step(
        self, series, tmp_path, capsys
    ):
        rc = main([
            "stream", series[0].path,
            "--dims", "10", "9", "9", "--dtype", "float64",
            "--blocks", "8",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "require" in err

    def test_missing_volume_fails_readably(self, tmp_path, capsys):
        rc = main([
            "stream", str(tmp_path / "nope.raw"),
            "--dims", "9", "9", "9",
        ])
        assert rc == 2
        assert "cannot read volume" in capsys.readouterr().err

    def test_shm_transport_rejected_for_file_streams(self, series, capsys):
        rc = main([
            "stream", series[0].path,
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--transport", "shm",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "in-memory input" in err and "mmap" in err


    def test_stream_hierarchy_flag_persists_queryable_steps(
        self, series, tmp_path, capsys
    ):
        """``--hierarchy`` (and the other execution flags ``compute``
        always had) reach every streamed step."""
        out_dir = tmp_path / "steps"
        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--persistence", "0.05",
            "--retry-backoff", "0.0", "--hierarchy",
            "--block-timeout", "60", "--max-pool-restarts", "1",
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        capsys.readouterr()
        for step in range(2):
            rc = main(["query", str(out_dir / f"step_{step:04d}.msc"),
                       "--top-k", "3"])
            assert rc == 0
            assert "hierarchy depth" in capsys.readouterr().out


#: one non-default command-line spelling per ExecutionOptions field and
#: the value it must parse into
_NON_DEFAULT_FLAGS = {
    "workers": (["--workers", "3"], 3),
    "executor": (["--executor", "process"], "process"),
    "transport": (["--transport", "pickle"], "pickle"),
    "kernel_backend": (["--kernel-backend", "dfs"], "dfs"),
    "block_timeout": (["--block-timeout", "60"], 60.0),
    "max_retries": (["--max-retries", "4"], 4),
    "retry_backoff": (["--retry-backoff", "0"], 0.0),
    "degrade_on_failure": (["--no-degrade"], False),
    "max_pool_restarts": (["--max-pool-restarts", "1"], 1),
    "hierarchy": (["--hierarchy"], True),
    "merge_spill_budget_bytes": (["--merge-spill-budget", "64K"], 65536),
}


class TestExecutionFlagParity:
    """``compute`` and ``stream`` accept every execution knob alike."""

    def test_table_covers_every_field(self):
        assert set(_NON_DEFAULT_FLAGS) == {
            f.name for f in dataclasses.fields(ExecutionOptions)
        }

    @pytest.mark.parametrize("command", ["compute", "stream"])
    @pytest.mark.parametrize("name", sorted(_NON_DEFAULT_FLAGS))
    def test_flag_parses_into_field(self, command, name):
        argv, expected = _NON_DEFAULT_FLAGS[name]
        args = build_parser().parse_args(
            [command, "v.raw", "--dims", "8", "8", "8", *argv]
        )
        opts = _execution_options(args)
        assert getattr(opts, name) == expected
        assert getattr(ExecutionOptions(), name) != expected
        # every other field keeps its default
        default = getattr(ExecutionOptions(), name)
        assert dataclasses.replace(opts, **{name: default}) == \
            ExecutionOptions()

    @pytest.mark.parametrize("command", ["compute", "stream"])
    @pytest.mark.parametrize(
        "argv",
        [["--max-retries", "-1"], ["--retry-backoff", "nan"],
         ["--block-timeout", "-3"], ["--max-pool-restarts", "-1"]],
    )
    def test_bad_flag_value_exits_2_readably(
        self, command, argv, volume, capsys
    ):
        rc = main([command, volume.path,
                   "--dims", *map(str, volume.dims), *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and argv[0][2:].replace("-", "_") in err


class TestGen:
    """``gen`` writes exactly what the generators produce."""

    @pytest.mark.parametrize("dtype", ["uint8", "float32", "float64"])
    @pytest.mark.parametrize(
        "kind,make",
        [
            ("jet", lambda n: jet_mixture_fraction_proxy(
                (n, n + n // 6, (2 * n) // 3), seed=0)),
            ("rayleigh-taylor", lambda n: rayleigh_taylor_proxy(
                (n, n, n), seed=0)),
            ("hydrogen", hydrogen_atom),
        ],
    )
    def test_in_memory_kinds_match_their_generator(
        self, kind, make, dtype, tmp_path, capsys
    ):
        out, ref = tmp_path / "gen.raw", tmp_path / "ref.raw"
        rc = main(["gen", kind, str(out), "--points", "12",
                   "--dtype", dtype])
        assert rc == 0
        write_volume(ref, make(12), dtype=dtype)
        assert out.read_bytes() == ref.read_bytes()

    def test_hydrogen_needs_points(self, tmp_path, capsys):
        rc = main(["gen", "hydrogen", str(tmp_path / "h.raw"),
                   "--dims", "8", "8", "8"])
        assert rc == 2
        assert "--points" in capsys.readouterr().err

    def test_jet_accepts_explicit_dims(self, tmp_path, capsys):
        rc = main(["gen", "jet", str(tmp_path / "j.raw"),
                   "--dims", "10", "12", "8"])
        assert rc == 0
        assert "dims=(10, 12, 8)" in capsys.readouterr().out

    def test_synth_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synth", "sinusoid", "x.raw"])


class TestServe:
    def test_serve_args(self):
        args = build_parser().parse_args([
            "serve", "--cache-dir", "/tmp/msc", "--port", "0",
            "--max-jobs", "3", "--mem-cache-entries", "8",
            "--job-timeout", "30", "--no-session-reuse",
        ])
        assert args.command == "serve"
        assert args.cache_dir == "/tmp/msc"
        assert args.port == 0
        assert args.max_jobs == 3
        assert args.mem_cache_entries == 8
        assert args.job_timeout == 30.0
        assert args.no_session_reuse is True

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.cache_dir == "./msc-cache"
        assert args.host == "127.0.0.1"
        assert args.port == 8643
        assert args.max_jobs == 2
        assert args.job_timeout is None
        assert args.no_session_reuse is False

    def test_unwritable_cache_dir_fails_readably(self, capsys):
        rc = main([
            "serve", "--cache-dir", "/proc/nope/cache", "--port", "0",
        ])
        assert rc == 2
        assert "cache dir" in capsys.readouterr().err

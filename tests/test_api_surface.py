"""Meta tests: public API surface, documentation coverage, and the
`repro.api` facade contract (routing, round-trips, removed spellings)."""

import dataclasses
import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.data",
    "repro.io",
    "repro.machine",
    "repro.mesh",
    "repro.morse",
    "repro.parallel",
]


def _public_members(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        yield name, getattr(mod, name)


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    mod = importlib.import_module(pkg)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{pkg}.__all__ lists missing {name}"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_package_docstrings(pkg):
    mod = importlib.import_module(pkg)
    assert mod.__doc__ and mod.__doc__.strip(), f"{pkg} lacks a docstring"


def _walk_modules():
    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        if hasattr(mod, "__path__"):
            for info in pkgutil.iter_modules(mod.__path__):
                yield importlib.import_module(f"{pkg}.{info.name}")
        else:
            yield mod


def test_every_module_documented():
    undocumented = [
        m.__name__ for m in _walk_modules()
        if not (m.__doc__ and m.__doc__.strip())
    ]
    assert not undocumented, undocumented


def test_public_functions_and_classes_documented():
    missing = []
    for mod in _walk_modules():
        if not mod.__name__.startswith("repro"):
            continue
        for name, obj in _public_members(mod):
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if getattr(obj, "__module__", "").startswith("repro"):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        missing.append(f"{mod.__name__}.{name}")
    assert not missing, f"undocumented public items: {sorted(set(missing))}"


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


def test_top_level_quickstart_names():
    # the README quickstart must keep working
    assert callable(repro.compute)
    assert callable(repro.compute_morse_smale_complex)
    assert callable(repro.ParallelMSComplexPipeline)
    assert callable(repro.PipelineConfig)


def test_top_level_all_is_curated_and_sorted():
    public = repro.__all__
    assert "compute" in public and "api" in public
    names = [n for n in public if not n.startswith("_")]
    assert names == sorted(names)


# ---------------------------------------------------------------------------
# the repro.api facade
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def facade_field():
    from repro.data.synthetic import gaussian_bumps_field

    return gaussian_bumps_field((17, 17, 17), 5, seed=4)


class TestFacade:
    def test_serial_route_returns_pipeline_result(self, facade_field):
        res = repro.compute(facade_field, persistence=0.05)
        assert isinstance(res, repro.PipelineResult)
        assert res.num_output_blocks == 1
        assert res.stats.num_blocks == 1
        assert res.stats.executor == "serial"
        assert res.stats.workers == 1
        assert res.stats.merge_round_times() == []

    def test_serial_route_matches_legacy_entry_point(self, facade_field):
        legacy = repro.compute_morse_smale_complex(
            facade_field, persistence_threshold=0.05
        )
        facade = repro.compute(facade_field, persistence=0.05)
        assert (
            facade.merged_complexes[0].node_counts_by_index()
            == legacy.node_counts_by_index()
        )

    def test_pipeline_route_matches_legacy_pipeline(self, facade_field):
        from repro.core.merge import pack_complex

        cfg = repro.PipelineConfig(
            num_blocks=8, persistence_threshold=0.05, max_radix=8
        )
        legacy = repro.ParallelMSComplexPipeline(cfg).run(facade_field)
        facade = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix=8
        )
        assert pack_complex(facade.merged_complexes[0]) == pack_complex(
            legacy.merged_complexes[0]
        )

    @pytest.mark.slow
    def test_workers_do_not_change_bits(self, facade_field):
        from repro.core.merge import pack_complex

        serial = repro.compute(facade_field, persistence=0.05, ranks=8)
        pooled = repro.compute(
            facade_field, persistence=0.05, ranks=8,
            options=repro.ExecutionOptions(workers=2),
        )
        assert pooled.stats.executor == "process"
        assert pack_complex(pooled.merged_complexes[0]) == pack_complex(
            serial.merged_complexes[0]
        )

    def test_merge_radix_forms(self, facade_field):
        none = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix="none"
        )
        assert none.num_output_blocks == 8
        partial = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix=[2]
        )
        assert partial.num_output_blocks == 4
        radix2 = repro.compute(
            facade_field, persistence=0.05, ranks=8, merge_radix=2
        )
        assert radix2.num_output_blocks == 1
        assert radix2.stats.radices == [2, 2, 2]

    def test_volume_spec_input(self, facade_field, tmp_path):
        from repro.io.volume import write_volume

        spec = write_volume(tmp_path / "f.raw", facade_field,
                            dtype="float64")
        res = repro.compute(spec, persistence=0.05, ranks=8)
        ref = repro.compute(facade_field, persistence=0.05, ranks=8)
        assert (
            res.merged_complexes[0].node_counts_by_index()
            == ref.merged_complexes[0].node_counts_by_index()
        )

    def test_keyword_only_and_validation(self, facade_field):
        with pytest.raises(TypeError):
            repro.compute(facade_field, 0.05)  # options are keyword-only
        with pytest.raises(ValueError):
            repro.compute(facade_field, ranks=0)
        with pytest.raises(ValueError):
            repro.compute(
                facade_field, options=repro.ExecutionOptions(workers=0)
            )
        with pytest.raises(ValueError):
            repro.compute(facade_field, merge_radix=3)
        with pytest.raises(ValueError):
            repro.compute(facade_field, merge_radix="full-ish")

    def test_result_write_round_trip(self, facade_field, tmp_path):
        from repro.io.mscfile import read_msc_file
        from repro.morse.msc import MorseSmaleComplex

        res = repro.compute(facade_field, persistence=0.05, ranks=8)
        path = tmp_path / "facade.msc"
        res.write(path)
        blocks = read_msc_file(path)
        assert len(blocks) == 1
        msc = MorseSmaleComplex.from_payload(blocks[0])
        assert (
            msc.node_counts_by_index()
            == res.merged_complexes[0].node_counts_by_index()
        )


# ---------------------------------------------------------------------------
# ExecutionOptions: the grouped execution-knob surface
# ---------------------------------------------------------------------------


class TestExecutionOptions:
    def test_defaults_and_round_trip(self):
        opts = repro.ExecutionOptions()
        assert opts.workers == 1
        assert opts.executor == "auto"
        assert opts.transport == "auto"
        assert opts.kernel_backend == "auto"
        cfg = repro.PipelineConfig(num_blocks=8, options=opts)
        assert cfg.options == opts
        assert repro.PipelineConfig(num_blocks=8).options == opts

    def test_options_is_frozen(self):
        opts = repro.ExecutionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.workers = 4

    def test_config_accepts_options_bundle(self):
        opts = repro.ExecutionOptions(workers=2, transport="shm",
                                      kernel_backend="pointer",
                                      retry_backoff=0.0)
        cfg = repro.PipelineConfig(num_blocks=8, options=opts)
        assert cfg.options is opts
        assert cfg.options.workers == 2
        assert cfg.options.transport == "shm"
        assert cfg.options.kernel_backend == "pointer"
        assert cfg.options.retry_backoff == 0.0

    def test_config_rejects_options_plus_flat(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.PipelineConfig(
                num_blocks=8, workers=2,
                options=repro.ExecutionOptions(workers=2),
            )

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("workers", 0), ("workers", 2.5), ("workers", True),
            ("workers", "2"),
            ("max_retries", -1), ("max_retries", 1.5),
            ("max_retries", False),
            ("max_pool_restarts", -1), ("max_pool_restarts", 1.0),
            ("merge_spill_budget_bytes", -1),
            ("merge_spill_budget_bytes", 4096.0),
            ("merge_spill_budget_bytes", True),
            ("block_timeout", 0), ("block_timeout", -3),
            ("block_timeout", float("nan")),
            ("block_timeout", float("inf")), ("block_timeout", True),
            ("retry_backoff", -1), ("retry_backoff", float("nan")),
            ("retry_backoff", float("inf")), ("retry_backoff", None),
            ("degrade_on_failure", 1), ("hierarchy", "yes"),
        ],
    )
    def test_bad_values_rejected_readably(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            repro.ExecutionOptions(**{knob: value})

    @pytest.mark.parametrize(
        "persistence", [float("nan"), float("inf"), -0.1]
    )
    def test_config_rejects_bad_persistence(self, persistence):
        with pytest.raises(ValueError, match="persistence_threshold"):
            repro.PipelineConfig(num_blocks=8,
                                 persistence_threshold=persistence)
        with pytest.raises(ValueError, match="persistence_threshold"):
            repro.compute(np.zeros((4, 4, 4)), persistence=persistence)

    def test_config_rejects_non_options_value(self):
        with pytest.raises(TypeError, match="ExecutionOptions"):
            repro.PipelineConfig(num_blocks=8, options={"workers": 2})

    @pytest.mark.parametrize(
        "knob", ["executor", "transport", "kernel_backend"]
    )
    def test_choice_knobs_validate_early(self, knob):
        with pytest.raises(ValueError, match="choose one of"):
            repro.ExecutionOptions(**{knob: "bogus"})

    def test_compute_options_spelling_does_not_warn(self, facade_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.compute(facade_field, persistence=0.05,
                          options=repro.ExecutionOptions())

    def test_compute_rejects_options_plus_flat(self, facade_field):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.compute(
                facade_field, persistence=0.05, workers=2,
                options=repro.ExecutionOptions(workers=2),
            )


# ---------------------------------------------------------------------------
# the expired deprecation shims stay removed
# ---------------------------------------------------------------------------

#: every spelling whose one-release shim has expired, as
#: (entry point, keyword, value): the flat execution keywords of
#: repro.compute, the short PipelineConfig aliases, and the flat
#: PipelineConfig execution fields (one per ExecutionOptions field)
_REMOVED_SPELLINGS = (
    [("compute", name, value) for name, value in (
        ("workers", 1), ("transport", "auto"), ("kernel_backend", "auto"),
        ("block_timeout", None), ("max_retries", 2),
        ("retry_backoff", 0.05), ("degrade_on_failure", True),
        ("hierarchy", False),
    )]
    + [("config", alias, value) for alias, value in (
        ("persistence", 0.25), ("blocks", 8), ("procs", 2),
    )]
    + [("config", f.name, f.default)
       for f in dataclasses.fields(repro.ExecutionOptions)]
)


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "entry,name,value", _REMOVED_SPELLINGS,
        ids=[f"{e}-{n}" for e, n, _ in _REMOVED_SPELLINGS],
    )
    def test_removed_spelling_raises_type_error(
        self, facade_field, entry, name, value
    ):
        with pytest.raises(TypeError, match=name):
            if entry == "compute":
                repro.compute(facade_field, **{name: value})
            else:
                repro.PipelineConfig(num_blocks=8, **{name: value})

    def test_too_many_positionals_raise(self, facade_field):
        """The options are keyword-only: one positional is too many."""
        with pytest.raises(TypeError):
            repro.compute_morse_smale_complex(facade_field, 0.05)

    def test_keyword_use_does_not_warn(self, facade_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.compute_morse_smale_complex(
                facade_field, persistence_threshold=0.05, simplify=True
            )

    def test_alias_conflict_raises(self):
        with pytest.raises(TypeError, match="blocks"):
            repro.PipelineConfig(num_blocks=8, blocks=8)

    def test_canonical_config_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.PipelineConfig(num_blocks=8, persistence_threshold=0.1)


# ---------------------------------------------------------------------------
# the hierarchy knob and the multiscale query surface
# ---------------------------------------------------------------------------


class TestHierarchyKnob:
    def test_default_off(self, facade_field):
        res = repro.compute(
            facade_field, persistence=0.05,
            options=repro.ExecutionOptions(),
        )
        assert res.hierarchies is None

    def test_options_spelling(self, facade_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = repro.compute(
                facade_field, persistence=0.05,
                options=repro.ExecutionOptions(hierarchy=True),
            )
        assert set(res.hierarchies) == set(res.output_blocks)
        assert all(h.num_levels >= 0 for h in res.hierarchies.values())

    def test_both_spellings_rejected(self, facade_field):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.compute(
                facade_field, persistence=0.05, hierarchy=True,
                options=repro.ExecutionOptions(hierarchy=True),
            )

    def test_config_spelling(self, facade_field):
        cfg = repro.PipelineConfig(
            num_blocks=1, persistence_threshold=0.05,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        res = repro.ParallelMSComplexPipeline(cfg).run(facade_field)
        assert res.hierarchies is not None
        assert cfg.options.hierarchy is True

    def test_knob_is_additive(self, facade_field):
        """hierarchy=True never changes the complex by a byte."""
        from repro.core.merge import pack_complex

        plain = repro.compute(
            facade_field, persistence=0.05, ranks=4,
            options=repro.ExecutionOptions(retry_backoff=0.0),
        )
        with_h = repro.compute(
            facade_field, persistence=0.05, ranks=4,
            options=repro.ExecutionOptions(retry_backoff=0.0,
                                           hierarchy=True),
        )
        assert pack_complex(plain.merged_complexes[0]) == pack_complex(
            with_h.merged_complexes[0]
        )


class TestQuerySurface:
    def test_exported_at_top_level(self):
        assert repro.query is repro.api.query
        assert repro.load_hierarchy is repro.api.load_hierarchy
        assert "query" in repro.__all__
        assert "load_hierarchy" in repro.__all__

    def test_end_to_end(self, facade_field, tmp_path):
        res = repro.compute(
            facade_field, persistence=0.05,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        path = tmp_path / "h.msc"
        res.write(str(path))
        hierarchies = repro.load_hierarchy(str(path))
        assert set(hierarchies) == set(res.hierarchies)
        answer = repro.query(str(path), persistence=0.1)
        assert answer.num_nodes >= 1
        assert answer.to_dict()["persistence"] == 0.1

    def test_query_selector_validation(self, facade_field, tmp_path):
        res = repro.compute(
            facade_field, persistence=0.05,
            options=repro.ExecutionOptions(hierarchy=True),
        )
        path = tmp_path / "h.msc"
        res.write(str(path))
        with pytest.raises(ValueError, match="exactly one"):
            repro.query(str(path))
        with pytest.raises(ValueError, match="exactly one"):
            repro.query(str(path), persistence=0.1, top_k=1)

    def test_write_without_hierarchy_then_query_errors(
        self, facade_field, tmp_path
    ):
        res = repro.compute(facade_field, persistence=0.05)
        path = tmp_path / "v1.msc"
        res.write(str(path))
        with pytest.raises(ValueError, match="no hierarchy recorded"):
            repro.query(str(path), persistence=0.1)

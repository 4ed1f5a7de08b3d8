"""Tests for the content-keyed compile memo and the parallel sweep
runner: digest stability/sensitivity, artifact identity, memory-only
storage, serial/parallel bit-identity and the warm-run zero-compile
guarantee."""

import dataclasses
import json

import pytest

from repro.arch.presets import load_preset, single_precision_node
from repro.bench import clear_caches
from repro.bench import runner as bench_runner
from repro.bench.export import write_sweep_csv, write_sweep_json
from repro.compiler.fingerprint import compile_digest, network_fingerprint
from repro.dnn.zoo.tiny import tiny_cnn, tiny_mlp
from repro.errors import ConfigError
from repro.sweep import (
    CompileCache,
    SweepJob,
    cached_mapping,
    cached_simulation,
    expand_jobs,
    fan_out,
    get_cache,
    run_sweep,
    set_cache,
    simulation_digest,
)

TINY = ("TinyCNN", "TinyMLP")


@pytest.fixture(autouse=True)
def fresh_cache():
    """Give every test its own memory-only cache and restore after."""
    previous = set_cache(CompileCache())
    yield
    set_cache(previous)


@pytest.fixture(scope="module")
def node():
    return single_precision_node()


class TestDigest:
    def test_rebuilt_inputs_same_digest(self, node):
        assert compile_digest(tiny_cnn(), node) == compile_digest(
            tiny_cnn(), single_precision_node()
        )

    def test_layer_shape_changes_digest(self, node):
        base = compile_digest(tiny_cnn(), node)
        assert compile_digest(tiny_cnn(num_classes=11), node) != base
        assert compile_digest(tiny_cnn(in_size=32), node) != base
        assert compile_digest(tiny_cnn(in_features=1), node) != base

    def test_network_display_name_ignored(self):
        from repro.dnn.network import Network

        net = tiny_mlp()
        renamed = Network(
            "SomethingElse",
            [node.spec for node in net.nodes],
            {
                node.name: node.input_names
                for node in net.nodes
                if node.input_names
            },
        )
        assert network_fingerprint(net) == network_fingerprint(renamed)

    def test_preset_field_changes_digest(self, node):
        net = tiny_mlp()
        base = compile_digest(net, node)
        tweaked = dataclasses.replace(node, ring_bandwidth=1e9)
        assert compile_digest(net, tweaked) != base

    def test_node_name_ignored(self, node):
        net = tiny_mlp()
        renamed = dataclasses.replace(node, name="custom-node")
        assert compile_digest(net, renamed) == compile_digest(net, node)

    def test_compiler_version_changes_digest(self, node, monkeypatch):
        net = tiny_mlp()
        base = compile_digest(net, node)
        monkeypatch.setattr(
            "repro.compiler.fingerprint.COMPILER_VERSION", "999-test"
        )
        assert compile_digest(net, node) != base

    def test_artifact_kind_and_extras_change_digest(self, node):
        net = tiny_mlp()
        assert compile_digest(net, node, artifact="mapping") != \
            compile_digest(net, node, artifact="simulation")
        assert simulation_digest(net, node, 256) != \
            simulation_digest(net, node, 128)


class TestCompileCache:
    def test_same_digest_identical_artifact(self, node):
        net = tiny_cnn()
        first = cached_mapping(net, node)
        second = cached_mapping(tiny_cnn(), single_precision_node())
        assert first is second  # memory layer returns the same object

    def test_simulation_cached(self, node):
        net = tiny_mlp()
        assert cached_simulation(net, node) is cached_simulation(net, node)
        stats = get_cache().stats
        assert stats["simulation_hits"] == 1
        assert stats["simulation_misses"] == 1

    def test_clear_drops_memory_and_disk(self, tmp_path, node,
                                         monkeypatch):
        # The memo lives in memory only: a directory in the environment
        # gets no entries, and clear() leaves nothing behind anywhere.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        set_cache(None)
        cache = get_cache()
        first = cached_mapping(tiny_cnn(), node)
        cached_simulation(tiny_mlp(), node)  # its mapping + simulation
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cached_mapping(tiny_cnn(), node) is not first
        assert list(tmp_path.iterdir()) == []

    def test_bench_clear_caches_covers_shared_cache(self, node):
        first = bench_runner.cached_mapping("tiny")
        assert bench_runner.cached_mapping("tiny") is first
        clear_caches()
        assert bench_runner.cached_mapping("tiny") is not first

    def test_bench_runner_spelling_insensitive(self):
        # "alexnet" and "AlexNet" hash to the same topology digest.
        assert bench_runner.cached_mapping("tiny") is \
            bench_runner.cached_mapping("TinyCNN")


class TestExpandJobs:
    def test_defaults_cover_fig15_suite(self):
        jobs = expand_jobs()
        assert len(jobs) == 11
        assert jobs[0] == SweepJob("AlexNet", "sp", 256)

    def test_grid_order(self):
        jobs = expand_jobs(TINY, presets=("sp", "hp"), minibatches=(64,))
        assert [(j.network, j.preset) for j in jobs] == [
            ("TinyCNN", "sp"), ("TinyCNN", "hp"),
            ("TinyMLP", "sp"), ("TinyMLP", "hp"),
        ]

    def test_unknown_network_raises_before_work(self):
        with pytest.raises(KeyError, match="unknown network"):
            expand_jobs(["nope"])

    def test_unknown_preset_raises_before_work(self):
        with pytest.raises(ConfigError, match="unknown chip preset"):
            expand_jobs(TINY, presets=("fp8",))

    def test_hybrid_group_clamps_to_small_systems(self):
        # As make_system does: hybrid:4 on 1 or 2 nodes spans them all.
        jobs = expand_jobs(TINY, nodes=(1, 2), strategies=("hybrid:4",))
        assert len(jobs) == 4

    def test_preset_factories_agree_with_bench(self):
        assert load_preset("sp").name == single_precision_node().name


class TestRunSweep:
    def test_serial_results(self):
        report = run_sweep(expand_jobs(TINY), workers=1)
        assert [r.network for r in report.results] == list(TINY)
        assert all(r.train_images_per_s > 0 for r in report.results)
        assert report.cache_misses > 0 and report.cache_hits == 0

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_config_errors(self, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            fan_out(abs, [1, 2], workers=workers)
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            fan_out(abs, [], workers=workers)
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_sweep(expand_jobs(TINY), workers=workers)

    def test_parallel_bit_identical_to_serial(self):
        jobs = expand_jobs(TINY, presets=("sp", "hp"))
        serial = run_sweep(jobs, workers=1)
        set_cache(CompileCache())  # cold cache for the parallel run
        parallel = run_sweep(jobs, workers=2)
        assert [r.to_row() for r in serial.results] == [
            r.to_row() for r in parallel.results
        ]

    def test_warm_rerun_answers_from_cache_without_compiling(self):
        jobs = expand_jobs(TINY)
        run_sweep(jobs, workers=2)  # cold: workers warm the parent cache
        warm = run_sweep(jobs, workers=2)
        assert all(r.cache_hit for r in warm.results)
        assert warm.cache_misses == 0
        # Zero STEP1-6 work: every job is one simulation hit, and no
        # mapping is looked up, let alone built.
        assert warm.cache_stats == {"simulation_hits": len(jobs)}


class TestSweepExport:
    def test_json_and_csv_round_trip(self, tmp_path):
        report = run_sweep(expand_jobs(["TinyMLP"]))
        jpath = write_sweep_json(report.results, tmp_path / "s.json")
        cpath = write_sweep_csv(report.results, tmp_path / "s.csv")
        rows = json.loads(jpath.read_text())
        assert rows == [r.to_row() for r in report.results]
        header = cpath.read_text().splitlines()[0].split(",")
        assert tuple(header) == type(report.results[0]).EXPORT_FIELDS
        assert "cache_hit" not in header

    def test_export_files_identical_across_worker_counts(self, tmp_path):
        jobs = expand_jobs(TINY)
        serial = run_sweep(jobs, workers=1)
        set_cache(CompileCache())
        parallel = run_sweep(jobs, workers=2)
        a = write_sweep_json(serial.results, tmp_path / "a.json")
        b = write_sweep_json(parallel.results, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()


class TestSweepCli:
    def test_cli_sweep_writes_results(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "tiny", "--workers", "2", "--out", str(out),
        ]) == 0
        rows = json.loads(out.read_text())
        assert rows and rows[0]["network"] == "TinyCNN"
        assert "cache:" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_cli_workers_below_one_exit_2(self, workers, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "tinycnn", "--workers", workers,
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.strip() == f"repro: workers must be >= 1, got {workers}"
        assert not out.exists()  # refused before running

    def test_cli_unknown_network_exits_2(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "nope", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("nodes, strategy, group, count", [
        ("3", "hybrid:2", 2, 3),
        ("2,3", "data,hybrid:2", 2, 3),
        ("4,6", "hybrid:4", 4, 6),
    ])
    def test_cli_strategy_that_does_not_fit_the_nodes_exits_2(
        self, nodes, strategy, group, count, tmp_path, capsys
    ):
        # As `report --nodes 3 --strategy hybrid:2` refuses it: one
        # line, exit 2, and no job run or quarantined.
        from repro.cli import main

        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "alexnet", "--nodes", nodes, "--strategy",
                  strategy, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip() == (
            f"repro: model group {group} does not divide the "
            f"{count}-node system"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "tiny", "--cache-dir", "{dir}"],
        ["sweep", "tiny", "--clear-cache"],
        ["sweep", "tiny", "--no-cache"],
        ["report", "tiny", "--cache-dir", "{dir}"],
    ])
    def test_cli_cache_flags_are_usage_errors(self, argv, tmp_path):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        argv = [a.format(dir=cache_dir) for a in argv]
        if argv[0] == "sweep":
            argv += ["--out", str(tmp_path / "x.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not cache_dir.exists()

    def test_cli_sweep_writes_nothing_to_env_cache_dir(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        set_cache(None)  # the process default is built afresh
        assert main([
            "sweep", "tiny", "--out", str(tmp_path / "sweep.json"),
        ]) == 0
        assert list(cache_dir.iterdir()) == []

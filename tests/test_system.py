"""Tests for the multi-node scale-out layer: SystemConfig, parallelism
strategies, the inter-node collective, system performance/TCO overlays,
fingerprint folding and the sweep's nodes/strategy axes."""

import json

import pytest

from repro.arch import load_preset, single_precision_node
from repro.arch.system import (
    DEFAULT_FABRIC_BANDWIDTH,
    GradientSync,
    Parallelism,
    ParallelismStrategy,
    SystemConfig,
    TCOModel,
    make_system,
)
from repro.compiler import fingerprint
from repro.compiler.fingerprint import compile_digest, system_fingerprint
from repro.dnn import zoo
from repro.errors import ConfigError, SimulationError
from repro.sim.allreduce import internode_allreduce_cycles
from repro.sim.perf import simulate, simulate_system
from repro.sim.tco import tco_report
from repro.sweep.runner import SweepResult, expand_jobs, run_sweep

FREQ = 600e6


@pytest.fixture(scope="module")
def node():
    return single_precision_node()


@pytest.fixture(scope="module")
def googlenet_result(node):
    return simulate(zoo.googlenet(), node)


# ---------------------------------------------------------------------------
# ParallelismStrategy
# ---------------------------------------------------------------------------
class TestParallelismStrategy:
    @pytest.mark.parametrize(
        "token, kind, sync, group",
        [
            ("data", Parallelism.DATA, GradientSync.RING, 1),
            ("data/tree", Parallelism.DATA, GradientSync.TREE, 1),
            ("model", Parallelism.MODEL, GradientSync.RING, 1),
            ("hybrid", Parallelism.HYBRID, GradientSync.RING, 2),
            ("hybrid:4", Parallelism.HYBRID, GradientSync.RING, 4),
            ("hybrid:2/tree", Parallelism.HYBRID, GradientSync.TREE, 2),
            ("  DATA/RING ", Parallelism.DATA, GradientSync.RING, 1),
        ],
    )
    def test_parse(self, token, kind, sync, group):
        s = ParallelismStrategy.parse(token)
        assert s.kind is kind
        assert s.gradient_sync is sync
        assert s.model_group == group

    def test_token_round_trips(self):
        for token in ("data/ring", "model/tree", "hybrid:4/ring"):
            s = ParallelismStrategy.parse(token)
            assert s.token == token
            assert ParallelismStrategy.parse(s.token) == s

    @pytest.mark.parametrize(
        "bad", ["pipeline", "data/mesh", "hybrid:x", "hybrid:0", ""]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigError):
            ParallelismStrategy.parse(bad)

    def test_group_only_for_hybrid(self):
        with pytest.raises(ConfigError):
            ParallelismStrategy(kind=Parallelism.DATA, model_group=2)

    def test_describe(self):
        text = ParallelismStrategy.parse("hybrid:2/tree").describe()
        assert "hybrid" in text and "tree" in text


# ---------------------------------------------------------------------------
# SystemConfig / make_system
# ---------------------------------------------------------------------------
class TestSystemConfig:
    def test_single_node_defaults(self, node):
        system = make_system(node)
        assert system.node_count == 1
        assert system.replicas == 1
        assert system.model_shards == 1
        assert system.peak_flops == node.peak_flops
        assert system.tile_count == node.tile_count

    def test_system_scales_node_quantities(self, node):
        system = make_system(node, 4)
        assert system.peak_flops == 4 * node.peak_flops
        assert system.comp_tile_count == 4 * node.comp_tile_count
        assert system.mem_tile_count == 4 * node.mem_tile_count

    def test_replica_shard_split(self, node):
        system = make_system(node, 8, "hybrid:2")
        assert system.model_shards == 2
        assert system.replicas == 4
        model = make_system(node, 4, "model")
        assert model.model_shards == 4
        assert model.replicas == 1

    def test_hybrid_group_clamps_to_node_count(self, node):
        system = make_system(node, 2, "hybrid:4")
        assert system.strategy.model_group == 2
        degenerate = make_system(node, 1, "hybrid:4")
        assert degenerate.strategy.model_group == 1
        assert degenerate.replicas == 1

    def test_indivisible_group_rejected(self, node):
        with pytest.raises(ConfigError):
            make_system(node, 6, "hybrid:4")

    def test_validation(self, node):
        with pytest.raises(ConfigError):
            make_system(node, 0)
        with pytest.raises(ConfigError):
            make_system(node, 2, fabric_bandwidth=0.0)
        with pytest.raises(ConfigError):
            make_system(node, 2, fabric_latency_s=-1.0)

    def test_describe_labels_scopes(self, node):
        text = make_system(node, 4).describe()
        assert "per-node:" in text
        assert "system:" in text
        assert "4 node(s)" in text


# ---------------------------------------------------------------------------
# Inter-node collective
# ---------------------------------------------------------------------------
class TestInternodeAllReduce:
    def test_single_node_free(self):
        assert internode_allreduce_cycles(1e6, 1, 50e9, FREQ) == 0.0

    def test_zero_payload_free(self):
        assert internode_allreduce_cycles(0.0, 8, 50e9, FREQ) == 0.0

    def test_ring_matches_closed_form(self):
        cycles = internode_allreduce_cycles(1e6, 4, 50e9, FREQ)
        assert cycles == pytest.approx(2 * 3 / 4 * 1e6 / (50e9 / FREQ))

    def test_tree_matches_closed_form(self):
        cycles = internode_allreduce_cycles(
            1e6, 4, 50e9, FREQ, sync=GradientSync.TREE
        )
        assert cycles == pytest.approx(2 * 2 * 1e6 / (50e9 / FREQ))

    def test_latency_term(self):
        base = internode_allreduce_cycles(1e6, 4, 50e9, FREQ)
        with_lat = internode_allreduce_cycles(
            1e6, 4, 50e9, FREQ, latency_s=1e-6
        )
        assert with_lat == pytest.approx(base + 2 * 3 * 1e-6 * FREQ)

    def test_tree_wins_on_latency_ring_on_bandwidth(self):
        """The classic crossover: tiny payloads favour the log-depth
        tree, huge payloads the bandwidth-optimal ring."""
        kw = dict(nodes=16, fabric_bandwidth=50e9, frequency_hz=FREQ,
                  latency_s=5e-6)
        tiny_ring = internode_allreduce_cycles(1e3, sync=GradientSync.RING, **kw)
        tiny_tree = internode_allreduce_cycles(1e3, sync=GradientSync.TREE, **kw)
        assert tiny_tree < tiny_ring
        big_ring = internode_allreduce_cycles(1e9, sync=GradientSync.RING, **kw)
        big_tree = internode_allreduce_cycles(1e9, sync=GradientSync.TREE, **kw)
        assert big_ring < big_tree

    def test_validation(self):
        with pytest.raises(SimulationError):
            internode_allreduce_cycles(1e6, 0, 50e9, FREQ)
        with pytest.raises(SimulationError):
            internode_allreduce_cycles(1e6, 4, 0.0, FREQ)
        with pytest.raises(SimulationError):
            internode_allreduce_cycles(-1.0, 4, 50e9, FREQ)


# ---------------------------------------------------------------------------
# simulate_system
# ---------------------------------------------------------------------------
class TestSimulateSystem:
    def test_one_node_is_exactly_the_node(self, node, googlenet_result):
        """The byte-compatibility contract: N=1 system quantities equal
        their per-node twins to the last bit, not approximately."""
        system = make_system(node)
        res = simulate_system(
            zoo.googlenet(), system, node_result=googlenet_result
        )
        assert res.system_training_images_per_s == (
            googlenet_result.training_images_per_s
        )
        assert res.system_evaluation_images_per_s == (
            googlenet_result.evaluation_images_per_s
        )
        assert res.system_gflops_per_watt == googlenet_result.gflops_per_watt
        assert res.system_power_w == googlenet_result.average_power.total_w
        assert res.internode_sync_s == 0.0
        assert res.sync_fraction == 0.0
        assert res.scaling_efficiency == 1.0
        assert res.speedup == 1.0

    def test_data_parallel_speedup_monotonic_with_rolloff(
        self, node, googlenet_result
    ):
        """More nodes always help, but each one helps less: the
        serialized gradient all-reduce bends the curve away from
        linear."""
        net = zoo.googlenet()
        results = [
            simulate_system(
                net, make_system(node, n), node_result=googlenet_result
            )
            for n in (1, 2, 4, 8)
        ]
        rates = [r.system_training_images_per_s for r in results]
        assert rates == sorted(rates)
        effs = [r.scaling_efficiency for r in results]
        assert effs[0] == 1.0
        assert all(a >= b for a, b in zip(effs, effs[1:]))
        assert effs[-1] < 0.95  # rolloff is visible by 8 nodes
        assert results[-1].speedup > 4.0  # but still clearly scaling

    def test_eval_scales_linearly_under_data_parallelism(
        self, node, googlenet_result
    ):
        """Inference has no gradients to reduce: evaluation throughput
        is embarrassingly parallel across replicas."""
        res = simulate_system(
            zoo.googlenet(), make_system(node, 8),
            node_result=googlenet_result,
        )
        assert res.system_evaluation_images_per_s == pytest.approx(
            8 * googlenet_result.evaluation_images_per_s
        )

    def test_sync_fraction_grows_with_nodes(self, node, googlenet_result):
        net = zoo.googlenet()
        two = simulate_system(
            net, make_system(node, 2), node_result=googlenet_result
        )
        eight = simulate_system(
            net, make_system(node, 8), node_result=googlenet_result
        )
        assert 0.0 < two.sync_fraction < eight.sync_fraction < 1.0

    def test_model_parallel_is_fabric_capped(self, node):
        """Sharding AlexNet layers across nodes ships boundary
        activations over the fabric — far slower than the on-node
        links, so the fabric caps throughput below linear scaling."""
        net = zoo.alexnet()
        base = simulate(net, node)
        res = simulate_system(
            net, make_system(node, 4, "model"), node_result=base
        )
        assert res.system_training_images_per_s < (
            4 * base.training_images_per_s
        )

    def test_hybrid_shrinks_gradient_payload(self, node, googlenet_result):
        """hybrid:2 halves the all-reduced payload per replica group,
        so its sync time stays below pure data parallelism's."""
        net = zoo.googlenet()
        data = simulate_system(
            net, make_system(node, 8, "data"), node_result=googlenet_result
        )
        hybrid = simulate_system(
            net, make_system(node, 8, "hybrid:2"),
            node_result=googlenet_result,
        )
        assert hybrid.internode_sync_s < data.internode_sync_s

    def test_power_scales_with_node_count(self, node, googlenet_result):
        res = simulate_system(
            zoo.googlenet(), make_system(node, 4),
            node_result=googlenet_result,
        )
        assert res.system_power_w == pytest.approx(
            4 * googlenet_result.average_power.total_w
        )

    def test_describe(self, node, googlenet_result):
        res = simulate_system(
            zoo.googlenet(), make_system(node, 4),
            node_result=googlenet_result,
        )
        text = res.describe()
        assert "per node" in text
        assert "scaling efficiency" in text
        assert "data/ring" in text


# ---------------------------------------------------------------------------
# TCO
# ---------------------------------------------------------------------------
class TestTCO:
    def test_capex_per_node_hour(self):
        model = TCOModel(
            node_capex_usd=10_000.0,
            fabric_capex_usd_per_node=500.0,
            depreciation_years=3.0,
            electricity_usd_per_kwh=0.10,
            pue=1.5,
            opex_factor=0.5,
        )
        assert model.capex_usd_per_node_hour() == pytest.approx(
            10_500.0 / (3.0 * 8760.0) * 1.5
        )

    def test_model_validation(self):
        kw = dict(
            node_capex_usd=1.0, fabric_capex_usd_per_node=0.0,
            depreciation_years=1.0, electricity_usd_per_kwh=0.1,
            pue=1.2, opex_factor=0.0,
        )
        with pytest.raises(ConfigError):
            TCOModel(**{**kw, "depreciation_years": 0.0})
        with pytest.raises(ConfigError):
            TCOModel(**{**kw, "pue": 0.9})
        with pytest.raises(ConfigError):
            TCOModel(**{**kw, "node_capex_usd": -1.0})

    def test_report_composition(self, node, googlenet_result):
        res = simulate_system(
            zoo.googlenet(), make_system(node, 4),
            node_result=googlenet_result,
        )
        tco = tco_report(res)
        assert tco.dollars_per_hour == pytest.approx(
            tco.capex_dollars_per_hour + tco.energy_dollars_per_hour
        )
        assert tco.dollars_per_training_run == pytest.approx(
            tco.training_run_hours * tco.dollars_per_hour
        )
        assert tco.dollars_per_1m_inferences > 0
        assert "$" in tco.describe()

    def test_more_nodes_cost_more_per_hour_but_train_faster(
        self, node, googlenet_result
    ):
        net = zoo.googlenet()
        one = tco_report(simulate_system(
            net, make_system(node, 1), node_result=googlenet_result
        ))
        eight = tco_report(simulate_system(
            net, make_system(node, 8), node_result=googlenet_result
        ))
        assert eight.dollars_per_hour > one.dollars_per_hour
        assert eight.training_run_hours < one.training_run_hours
        # Sub-linear scaling means the bigger system trains the run at
        # a higher total cost — TCO surfaces the efficiency loss as $.
        assert eight.dollars_per_training_run > (
            one.dollars_per_training_run
        )

    def test_rejects_degenerate_inputs(self, node, googlenet_result):
        res = simulate_system(
            zoo.googlenet(), make_system(node),
            node_result=googlenet_result,
        )
        with pytest.raises(SimulationError):
            tco_report(res, epochs=0)


# ---------------------------------------------------------------------------
# Fingerprints and cache eviction
# ---------------------------------------------------------------------------
class TestSystemFingerprint:
    def test_digest_has_a_system_slot(self, node):
        net = zoo.load("TinyMLP")
        single = compile_digest(net, node)
        scaled = compile_digest(
            net, node, system=make_system(node, 4)
        )
        assert single != scaled

    def test_system_shape_changes_the_digest(self, node):
        net = zoo.load("TinyMLP")
        a = compile_digest(net, node, system=make_system(node, 4))
        b = compile_digest(net, node, system=make_system(node, 8))
        c = compile_digest(
            net, node, system=make_system(node, 4, "hybrid:2")
        )
        assert len({a, b, c}) == 3

    def test_system_fingerprint_drops_names(self, node):
        """Cache keys follow structure, not labels: renaming the system
        or its node must not evict anything."""
        from dataclasses import replace

        sys_a = make_system(node, 4)
        sys_b = replace(sys_a, name="something-else")
        assert system_fingerprint(sys_a) == system_fingerprint(sys_b)

    def test_compiler_version_4_evicts_version_3_artifacts(
        self, monkeypatch, node
    ):
        """Artifacts fingerprinted under the pre-system compiler ("3")
        are unreachable under "4": the cache rebuilds instead of
        serving a row that lacks the system slot."""
        from repro.sweep.cache import CompileCache

        net = zoo.load("TinyMLP")
        cache = CompileCache()
        builds = []

        monkeypatch.setattr(fingerprint, "COMPILER_VERSION", "3")
        old_digest = compile_digest(net, node, artifact="mapping")
        cache.get("mapping", old_digest, lambda: builds.append("old") or 1)

        monkeypatch.setattr(fingerprint, "COMPILER_VERSION", "4")
        new_digest = compile_digest(net, node, artifact="mapping")
        assert new_digest != old_digest
        cache.get("mapping", new_digest, lambda: builds.append("new") or 2)
        assert builds == ["old", "new"]


# ---------------------------------------------------------------------------
# Sweep axes
# ---------------------------------------------------------------------------
class TestSweepScaleOut:
    def test_expand_jobs_grid(self):
        jobs = expand_jobs(
            networks=["lenet5"], presets=("sp",),
            nodes=(1, 4), strategies=("data", "hybrid:2"),
        )
        assert len(jobs) == 4
        assert {(j.nodes, j.strategy) for j in jobs} == {
            (1, "data"), (1, "hybrid:2"), (4, "data"), (4, "hybrid:2"),
        }

    def test_expand_jobs_validates_eagerly(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError):
            expand_jobs(networks=["lenet5"], nodes=(0,))
        with pytest.raises(ConfigError):
            expand_jobs(networks=["lenet5"], strategies=("warp",))

    def test_export_fields_cover_scale_out(self):
        for field in (
            "nodes", "strategy", "system_train_images_per_s",
            "scaling_efficiency", "dollars_per_training_run",
            "dollars_per_1m_inferences",
        ):
            assert field in SweepResult.EXPORT_FIELDS

    def test_default_node_sweep_matches_legacy_rows(self):
        """`sweep X` and `sweep X --nodes 1` export identical rows —
        same digests, same numbers, canonicalized strategy token."""
        legacy = run_sweep(expand_jobs(networks=["lenet5"])).results
        explicit = run_sweep(
            expand_jobs(networks=["lenet5"], nodes=(1,),
                        strategies=("data",)),
        ).results
        assert [r.to_row() for r in legacy] == [
            r.to_row() for r in explicit
        ]
        row = legacy[0].to_row()
        assert row["nodes"] == 1
        assert row["strategy"] == "data/ring"
        assert row["system_train_images_per_s"] == (
            row["train_images_per_s"]
        )

    def test_scaled_rows_carry_system_numbers(self):
        report = run_sweep(expand_jobs(networks=["lenet5"], nodes=(4,)))
        row = report.results[0].to_row()
        assert row["nodes"] == 4
        assert row["status"] == "ok"
        assert 0.0 < row["scaling_efficiency"] <= 1.0
        # LeNet-5's minibatch slice is so cheap the serialized sync
        # dominates — system throughput is positive but bounded by the
        # ideal 4x (for conv-heavy nets it approaches it; see
        # TestSimulateSystem for the curve).
        assert 0.0 < row["system_train_images_per_s"] <= (
            4 * row["train_images_per_s"]
        )
        assert row["dollars_per_training_run"] > 0
        assert row["dollars_per_1m_inferences"] > 0
        assert row["system_power_w"] == pytest.approx(
            4 * row["total_power_w"]
        )

    def test_node_counts_share_one_simulation(self):
        """The memo keys the per-node simulation, which no scale-out
        axis changes: one miss per (network, preset, minibatch)."""
        from repro.sweep import CompileCache, set_cache

        previous = set_cache(CompileCache())
        try:
            report = run_sweep(expand_jobs(
                networks=["lenet5"], nodes=(1, 2, 4),
                strategies=("data", "hybrid:2"),
            ))
        finally:
            set_cache(previous)
        assert report.cache_stats["simulation_misses"] == 1
        assert report.cache_stats["simulation_hits"] == 5
        assert len({r.digest for r in report.results}) == 1
        assert len({r.system_train_images_per_s
                    for r in report.results}) > 1

    def test_rows_serialize(self):
        report = run_sweep(expand_jobs(networks=["lenet5"], nodes=(2,)))
        payload = json.dumps([r.to_row() for r in report.results])
        assert "dollars_per_training_run" in payload


# ---------------------------------------------------------------------------
# Scaling-curve export and dashboard
# ---------------------------------------------------------------------------
class TestScalingDashboard:
    @pytest.fixture(scope="class")
    def results(self):
        return run_sweep(
            expand_jobs(
                networks=["lenet5"], nodes=(1, 2, 4),
                strategies=("data", "hybrid:2"),
            ),
        ).results

    def test_series_grouping(self, results):
        from repro.bench.export import sweep_scaling_series

        series = sweep_scaling_series(results)
        # hybrid:2 clamps to hybrid:1 at N=1 — a third strategy token.
        keys = {key[2] for key in series}
        assert "data/ring" in keys and "hybrid:2/ring" in keys
        data = series[("LeNet-5", "sp", "data/ring")]
        assert [row["nodes"] for row in data] == [1, 2, 4]

    def test_series_drop_failed_rows(self, results):
        from dataclasses import replace

        from repro.bench.export import sweep_scaling_series

        broken = [replace(r, status="failed") for r in results]
        assert sweep_scaling_series(broken) == {}

    def test_html_renders_curve_and_tco(self, results, tmp_path):
        from repro.bench.dashboard import sweep_html, write_html

        html = sweep_html(results)
        assert "Scaling curve" in html
        assert "LeNet-5" in html
        assert "$/training run" in html
        assert "Cheapest training run" in html
        assert html.startswith("<!DOCTYPE html>")
        path = write_html(html, tmp_path / "scaling.html")
        assert path.read_text() == html


# ---------------------------------------------------------------------------
# Cross-node placement
# ---------------------------------------------------------------------------
class TestSystemPlacement:
    def test_system_contributes_all_clusters(self, node):
        from repro.serve.placement import place_networks

        nets = [zoo.alexnet(), zoo.googlenet()]
        single = place_networks(nets, node)
        scaled = place_networks(nets, make_system(node, 4))
        assert scaled.nodes == 4
        assert sum(t.clusters for t in scaled.tenants) == (
            4 * node.cluster_count
        )
        assert sum(t.rate_qps for t in scaled.tenants) > sum(
            t.rate_qps for t in single.tenants
        )
        assert "on 4 nodes" in scaled.describe()

    def test_one_node_system_matches_bare_node(self, node):
        from repro.serve.placement import place_networks

        nets = [zoo.alexnet(), zoo.googlenet()]
        bare = place_networks(nets, node)
        system = place_networks(nets, make_system(node, 1))
        # Same text modulo the system's name; in particular no
        # "on N nodes" suffix leaks into the 1-node describe().
        assert system.describe().replace(
            system.node, bare.node
        ) == bare.describe()
        assert "nodes" not in system.describe()
        assert [
            (t.network, t.clusters, t.rate_qps) for t in bare.tenants
        ] == [
            (t.network, t.clusters, t.rate_qps) for t in system.tenants
        ]


# ---------------------------------------------------------------------------
# Power / energy scope labels (satellite: per-node vs system labelling)
# ---------------------------------------------------------------------------
class TestScopeLabels:
    def test_power_describe_scopes(self, node, googlenet_result):
        power = googlenet_result.average_power
        assert power.describe().startswith("per-node average power")
        assert power.describe(scope="system").startswith(
            "system average power"
        )

    def test_scaled_power(self, googlenet_result):
        power = googlenet_result.average_power
        scaled = power.scaled(4)
        assert scaled.total_w == pytest.approx(4 * power.total_w)
        assert scaled.logic_w == pytest.approx(4 * power.logic_w)

    def test_estimate_system_power(self, node):
        from repro.arch.power import (
            estimate_node_power,
            estimate_system_power,
        )

        system = make_system(node, 4)
        assert estimate_system_power(system) == pytest.approx(
            4 * estimate_node_power(node)
        )

    def test_system_energy_report_scope(self, node, googlenet_result):
        from repro.sim.energy import energy_report, system_energy_report

        res = simulate_system(
            zoo.googlenet(), make_system(node, 4),
            node_result=googlenet_result,
        )
        node_energy = energy_report(googlenet_result)
        sys_energy = system_energy_report(res)
        assert "[per-node]" in node_energy.describe()
        assert "[system/4 nodes]" in sys_energy.describe()
        # 4x the power at <4x the throughput: each image costs more
        # joules at scale (the sync tax shows up in energy too).
        assert sys_energy.joules_per_training_image > (
            node_energy.joules_per_training_image
        )

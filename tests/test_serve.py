"""Tests for the serving simulator: generator determinism, batcher
edge cases (empty queue, max-wait expiry exactly on a beat, shed
accounting), multi-tenant placement invariants, byte-identical reruns
of full runs and curves, exports, and the CLI verb."""

import json

import pytest

from repro.arch import single_precision_node
from repro.bench.dashboard import curve_html, run_html, write_html
from repro.bench.export import write_serve_csv, write_serve_json
from repro.dnn import zoo
from repro.errors import ConfigError
from repro.serve import (
    CURVE_FIELDS,
    BatchPolicy,
    DynamicBatcher,
    FailureConfig,
    Request,
    ServeConfig,
    generate_requests,
    place_networks,
    run_curve,
    simulate_serving,
)
from repro import cli

NODE = single_precision_node()

#: Short but non-trivial: a few hundred requests in the default runs.
FAST = ServeConfig(qps=5_000.0, duration_s=0.05, seed=7)


def _nets(*names):
    return [zoo.load(name) for name in names]


class TestGenerator:
    def test_poisson_is_seeded_and_sorted(self):
        a = generate_requests(["A", "B"], qps=1000.0, duration_s=0.1,
                              seed=3)
        b = generate_requests(["A", "B"], qps=1000.0, duration_s=0.1,
                              seed=3)
        assert a == b
        times = [r.arrival_s for r in a]
        assert times == sorted(times)
        assert {r.network for r in a} == {"A", "B"}

    def test_different_seeds_differ(self):
        a = generate_requests(["A"], qps=1000.0, duration_s=0.1, seed=0)
        b = generate_requests(["A"], qps=1000.0, duration_s=0.1, seed=1)
        assert a != b

    def test_uniform_arrivals_honour_weights(self):
        reqs = generate_requests(
            ["A", "B"], qps=1000.0, duration_s=0.1,
            arrivals="uniform", weights=(0.75, 0.25),
        )
        share = sum(r.network == "A" for r in reqs) / len(reqs)
        assert share == pytest.approx(0.75, abs=0.02)

    def test_max_requests_caps_the_stream(self):
        reqs = generate_requests(
            ["A"], qps=1e6, duration_s=10.0, max_requests=100
        )
        assert len(reqs) == 100

    @pytest.mark.parametrize("kwargs", [
        dict(qps=0.0, duration_s=1.0),
        dict(qps=100.0, duration_s=0.0),
        dict(qps=100.0, duration_s=1.0, arrivals="bursty"),
        dict(qps=100.0, duration_s=1.0, weights=(0.5,)),
        dict(qps=100.0, duration_s=1.0, weights=(2.0, -1.0)),
    ])
    def test_invalid_specs_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            generate_requests(["A", "B"], **kwargs)


class TestBatcher:
    def test_empty_queue_yields_nothing(self):
        batcher = DynamicBatcher(BatchPolicy())
        assert batcher.take(1.0) == []
        assert batcher.deadline() is None

    def test_greedy_dispatches_partial_batches(self):
        batcher = DynamicBatcher(BatchPolicy(kind="greedy", max_batch=8))
        batcher.offer(Request(0, "A", 0.0))
        assert len(batcher.take(0.0)) == 1
        assert batcher.deadline() is None  # greedy never arms timers

    def test_wait_holds_until_full(self):
        policy = BatchPolicy(kind="wait", max_batch=2, max_wait_s=1.0)
        batcher = DynamicBatcher(policy)
        batcher.offer(Request(0, "A", 0.0))
        assert batcher.take(0.0) == []  # neither full nor expired
        batcher.offer(Request(1, "A", 0.1))
        assert len(batcher.take(0.1)) == 2  # full: dispatch

    def test_expiry_exactly_on_the_deadline_dispatches(self):
        # The regression the event loop depends on: the timer fires at
        # exactly ``arrival + max_wait`` and ``take`` must release the
        # batch at that instant, not one float ulp later.
        policy = BatchPolicy(kind="wait", max_batch=8, max_wait_s=0.002)
        batcher = DynamicBatcher(policy)
        batcher.offer(Request(0, "A", 0.1))
        deadline = batcher.deadline()
        assert deadline == 0.1 + 0.002
        assert batcher.take(deadline) == [Request(0, "A", 0.1)]

    def test_shed_past_queue_depth(self):
        policy = BatchPolicy(max_batch=8, queue_depth=2)
        batcher = DynamicBatcher(policy)
        results = [
            batcher.offer(Request(i, "A", 0.0)) for i in range(5)
        ]
        assert results == [True, True, False, False, False]
        assert batcher.admitted == 2
        assert batcher.shed == 3

    def test_invalid_policies_are_config_errors(self):
        with pytest.raises(ConfigError):
            BatchPolicy(kind="eager")
        with pytest.raises(ConfigError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigError):
            BatchPolicy(max_wait_s=-1.0)
        with pytest.raises(ConfigError):
            BatchPolicy(queue_depth=0)

    def test_drain_flushes_the_queue(self):
        # The down-tenant transition flushes queued requests as failed
        # copies; drain must hand back the queue in arrival order and
        # leave the batcher reusable.
        policy = BatchPolicy(kind="wait", max_batch=8, max_wait_s=1.0)
        batcher = DynamicBatcher(policy)
        reqs = [Request(i, "A", i * 0.01) for i in range(3)]
        for req in reqs:
            batcher.offer(req)
        assert batcher.drain() == reqs
        assert batcher.drain() == []
        assert batcher.deadline() is None
        assert batcher.offer(Request(9, "A", 1.0))


class TestPlacement:
    def test_shares_and_clusters_partition_the_node(self):
        placement = place_networks(_nets("LeNet-5", "AlexNet"), NODE)
        assert sum(t.clusters for t in placement.tenants) == \
            NODE.cluster_count
        assert sum(t.share for t in placement.tenants) == \
            pytest.approx(1.0)
        assert all(t.clusters >= 1 for t in placement.tenants)

    def test_single_tenant_owns_the_node(self):
        placement = place_networks(_nets("AlexNet"), NODE)
        (tenant,) = placement.tenants
        assert tenant.clusters == NODE.cluster_count
        assert tenant.share == pytest.approx(1.0)

    def test_duplicate_networks_rejected(self):
        with pytest.raises(ConfigError):
            place_networks(_nets("AlexNet", "AlexNet"), NODE)

    def test_saturation_grows_with_batch(self):
        placement = place_networks(_nets("AlexNet"), NODE)
        assert placement.saturation_qps(8) > placement.saturation_qps(1)

    def test_largest_remainder_ties_go_to_the_earlier_tenant(self):
        # Three equal-weight tenants on four clusters: everyone's
        # deficit against the 4/3 ideal ties, so the single leftover
        # cluster must land on the first tenant (strict comparison),
        # deterministically across reruns.
        nets = _nets("LeNet-5", "TinyCNN", "TinyMLP")
        for _ in range(3):
            placement = place_networks(nets, NODE, weights=(1.0,) * 3)
            assert [t.clusters for t in placement.tenants] == [2, 1, 1]

    def test_zero_weights_degrade_to_an_equal_split(self):
        placement = place_networks(
            _nets("LeNet-5", "AlexNet"), NODE, weights=(0.0, 0.0)
        )
        assert [t.clusters for t in placement.tenants] == [2, 2]

    def test_single_tenant_with_zero_weight_owns_the_node(self):
        placement = place_networks(
            _nets("AlexNet"), NODE, weights=(0.0,)
        )
        (tenant,) = placement.tenants
        assert tenant.clusters == NODE.cluster_count

    def test_weight_validation(self):
        nets = _nets("LeNet-5", "AlexNet")
        with pytest.raises(ConfigError):
            place_networks(nets, NODE, weights=(1.0,))
        with pytest.raises(ConfigError):
            place_networks(nets, NODE, weights=(1.0, -2.0))

    def test_minimum_spans_beyond_capacity_are_rejected(self):
        # Five tenants each need at least one cluster; a four-cluster
        # node cannot host them no matter the weights.
        nets = _nets("LeNet-5", "TinyCNN", "TinyMLP", "AlexNet", "ZF")
        with pytest.raises(ConfigError):
            place_networks(nets, NODE)

    def test_minimum_spans_survive_skewed_weights(self):
        # A tiny weight cannot push a tenant below the clusters one
        # copy of its mapping spans.
        placement = place_networks(
            _nets("LeNet-5", "AlexNet"), NODE, weights=(1e-9, 1.0)
        )
        assert all(t.clusters >= 1 for t in placement.tenants)
        assert sum(t.clusters for t in placement.tenants) == \
            NODE.cluster_count


class TestSimulator:
    def test_rerun_is_byte_identical(self):
        nets = _nets("LeNet-5", "AlexNet")
        dumps = [
            json.dumps(
                simulate_serving(nets, NODE, FAST).to_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_conservation_offered_equals_completed_plus_shed(self):
        overload = ServeConfig(
            qps=200_000.0, duration_s=0.02, seed=7,
            policy=BatchPolicy(queue_depth=4),
        )
        report = simulate_serving(_nets("AlexNet"), NODE, overload)
        stats = report.tenant("AlexNet")
        assert stats.offered == stats.completed + stats.shed
        assert stats.shed > 0  # the bound actually bit
        assert report.shed_rate > 0

    def test_latency_floor_is_one_pipeline_fill(self):
        report = simulate_serving(_nets("AlexNet"), NODE, FAST)
        stats = report.tenant("AlexNet")
        floor_ms = stats.latency_ms.min
        tenant = report.placement.tenant("AlexNet")
        assert floor_ms >= tenant.batch_latency_s(1) * 1e3 * 0.999

    def test_batches_never_exceed_max_batch(self):
        report = simulate_serving(_nets("LeNet-5"), NODE, FAST)
        stats = report.tenant("LeNet-5")
        assert stats.batch_sizes.max <= FAST.policy.max_batch

    def test_greedy_policy_runs(self):
        config = ServeConfig(
            qps=5_000.0, duration_s=0.05, seed=7,
            policy=BatchPolicy(kind="greedy"),
        )
        report = simulate_serving(_nets("AlexNet"), NODE, config)
        assert report.completed == report.offered


class TestCurve:
    def test_curve_is_deterministic_at_any_worker_count(self):
        config = ServeConfig(duration_s=0.02, seed=7)
        serial = run_curve(["alexnet", "zf"], NODE, config, workers=1)
        pooled = run_curve(["alexnet", "zf"], NODE, config, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(pooled.to_dict(), sort_keys=True)

    def test_rows_cover_every_network_and_point(self):
        config = ServeConfig(duration_s=0.02, seed=7)
        curve = run_curve(
            ["alexnet", "zf"], NODE, config, fractions=(0.5, 1.0)
        )
        rows = curve.rows()
        assert len(rows) == 4
        assert set(CURVE_FIELDS) <= set(rows[0])
        assert {r["network"] for r in rows} == {"AlexNet", "ZF"}

    def test_load_splits_by_tenant_capacity(self):
        config = ServeConfig(duration_s=0.02, seed=7)
        curve = run_curve(
            ["lenet5", "alexnet"], NODE, config, fractions=(0.5,)
        )
        # The fast tenant takes nearly all the aggregate load; the slow
        # one is offered ~its own half-saturation, so neither sheds.
        for row in curve.rows():
            assert row["shed_rate"] == 0.0

    def test_overload_point_sheds(self):
        config = ServeConfig(
            duration_s=0.05, seed=7,
            policy=BatchPolicy(queue_depth=16),
        )
        curve = run_curve(["alexnet"], NODE, config, fractions=(1.5,))
        (row,) = curve.rows()
        assert row["shed_rate"] > 0


class TestExports:
    def test_json_writer_round_trips(self, tmp_path):
        report = simulate_serving(_nets("AlexNet"), NODE, FAST)
        path = write_serve_json(report, tmp_path / "serve.json")
        doc = json.loads(path.read_text())
        assert doc["tenants"]["AlexNet"]["p99_ms"] > 0

    def test_csv_writer_uses_curve_fields(self, tmp_path):
        config = ServeConfig(duration_s=0.02, seed=7)
        curve = run_curve(["alexnet"], NODE, config, fractions=(1.0,))
        path = write_serve_csv(curve, tmp_path / "serve.csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CURVE_FIELDS)

    def test_dashboard_renders_every_network(self, tmp_path):
        config = ServeConfig(duration_s=0.02, seed=7)
        curve = run_curve(
            ["alexnet", "zf"], NODE, config, fractions=(0.5, 1.0)
        )
        html = curve_html(curve)
        assert "AlexNet" in html and "ZF" in html
        assert "Latency vs offered load" in html
        path = write_html(html, tmp_path / "serve.html")
        assert path.read_text() == html

    def test_run_page_without_faults(self):
        report = simulate_serving(_nets("LeNet-5"), NODE, FAST)
        html = run_html(report)
        assert "Request outcomes" in html
        assert "100.00%" in html  # availability KPI
        assert "Fault/repair log" not in html
        assert "<rect" not in html  # no degraded bands


class TestCli:
    def test_serve_verb_runs(self, capsys):
        code = cli.main([
            "serve", "lenet5,alexnet", "--qps", "2000",
            "--duration", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LeNet-5" in out and "AlexNet" in out
        assert "sustained" in out

    def test_serve_curve_json_reruns_identically(self, capsys):
        argv = [
            "serve", "alexnet", "--curve", "--duration", "0.02",
            "--json",
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["capacity_qps"] > 0
        assert all(r["p99_ms"] > 0 for r in doc["rows"])

    def test_unknown_network_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["serve", "nosuchnet"])
        assert err.value.code == 2

    def test_bad_config_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["serve", "alexnet", "--qps", "-1"])
        assert err.value.code == 2

    def test_html_without_curve_writes_run_page(self, tmp_path, capsys):
        out = tmp_path / "new" / "x.html"
        code = cli.main([
            "serve", "alexnet", "--duration", "0.02",
            "--html", str(out),
        ])
        assert code == 0
        assert "wrote dashboard" in capsys.readouterr().out
        html = out.read_text()
        assert "Request outcomes" in html
        assert "Latency timeline" in html

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_curve_workers_below_one_exit_2(self, workers, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "serve", "lenet5", "--curve", "--workers", workers,
            ])
        assert err.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err


class TestCappedWindow:
    """When ``max_requests`` binds, arrivals stop before ``duration_s``:
    rates divide by the window the arrivals covered, and a fault
    lifecycle stays inside it."""

    def test_capped_run_offers_the_requested_rate(self):
        config = ServeConfig(
            qps=1e6, duration_s=1.0, arrivals="uniform",
            max_requests=2_000, seed=7,
        )
        report = simulate_serving(_nets("LeNet-5"), NODE, config)
        assert report.offered == 2_000
        assert report.horizon_s < 0.01
        (stats,) = report.tenants
        assert stats.offered_qps == pytest.approx(1e6, rel=0.01)
        assert report.sustained_qps == pytest.approx(1e6, rel=0.01)

    def test_uncapped_run_divides_by_duration(self):
        report = simulate_serving(_nets("LeNet-5"), NODE, FAST)
        assert report.offered < FAST.max_requests
        assert report.horizon_s >= FAST.duration_s

    def test_capped_curve_rises_to_capacity(self):
        # Greedy: a wait batcher holds a trailing partial batch for
        # max-wait (2 ms), which would dwarf a 5,000-request window.
        config = ServeConfig(
            seed=7, max_requests=5_000, policy=BatchPolicy(kind="greedy")
        )
        curve = run_curve(["lenet5"], NODE, config)
        offered = [row["offered_net_qps"] for row in curve.rows()]
        assert all(b > a for a, b in zip(offered, offered[1:]))
        top = curve.rows()[-1]
        assert top["fraction"] == 1.25
        assert top["sustained_qps"] == pytest.approx(
            curve.capacity_qps, rel=0.01
        )

    def test_capped_lifecycle_stays_within_the_horizon(self):
        config = ServeConfig(
            qps=5e7, duration_s=0.25, max_requests=20_000, seed=7,
            policy=BatchPolicy(kind="greedy"),
            failures=FailureConfig(mtbf_s=1e-4, mttr_s=2e-4, seed=7),
        )
        report = simulate_serving(_nets("LeNet-5"), NODE, config)
        horizon = report.horizon_s
        assert horizon < 0.001
        assert report.degraded_intervals
        for interval in report.degraded_intervals:
            assert 0.0 <= interval.start_s <= interval.end_s <= horizon
        assert report.degraded_s <= horizon
        faults = [e for e in report.fault_events if e.action == "fault"]
        assert faults and all(e.time_s < horizon for e in faults)
        assert report.timeline
        for bucket in report.timeline:
            assert bucket["end_s"] <= horizon * (1 + 1e-12)

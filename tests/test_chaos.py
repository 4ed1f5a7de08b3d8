"""Tests for failure-aware serving: the seeded fault/repair lifecycle,
request timeouts/retries/hedging, the four-way outcome taxonomy and its
conservation invariant, SLO error budgets, and ``serve --mtbf/--mttr``.

The acceptance config everywhere is the CI smoke's: lenet5 under
``mtbf 0.05s, mttr 0.02s, seed 7`` with greedy batching, where a
tile-slow fault doubles the time of one evaluation stage and so adds
that time to the pipeline fill: degraded p99 is about 1.67x the healthy
p99.
"""

import json

import pytest

from repro import cli
from repro.arch import single_precision_node
from repro.bench.dashboard import run_html, write_html
from repro.dnn import zoo
from repro.errors import ConfigError, SLOViolation
from repro.faults import FaultKind, parse_kinds
from repro.serve import (
    CHAOS_KINDS,
    BatchPolicy,
    FailureConfig,
    FailureLifecycle,
    ServeConfig,
    SLOPolicy,
    run_curve,
    sample_failure_events,
    simulate_serving,
)
from repro.serve.failures import BURN_CAP
from repro.serve.simulator import _ARRIVAL, _DEPART, _FAULT, _TIMER

NODE = single_precision_node()
GREEDY = BatchPolicy(kind="greedy")

#: The CI acceptance configuration: faults land on observable columns
#: and greedy batching makes the rate derating visible in latency.
CHAOS = FailureConfig(mtbf_s=0.05, mttr_s=0.02, seed=7)
FAST = ServeConfig(
    qps=5_000.0, duration_s=0.25, seed=7, policy=GREEDY, failures=CHAOS,
)


def _nets(*names):
    return [zoo.load(name) for name in names]


def _conserves(stats) -> bool:
    return stats.offered == (
        stats.completed + stats.shed + stats.timed_out + stats.failed
    )


class TestFailureConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(mtbf_s=0.0, mttr_s=0.1),
        dict(mtbf_s=0.1, mttr_s=-1.0),
        dict(mtbf_s=0.1, mttr_s=0.1, kinds=()),
        dict(mtbf_s=0.1, mttr_s=0.1, kinds=(FaultKind.DMA_BITFLIP,)),
        dict(mtbf_s=0.1, mttr_s=0.1, slow_factor=0.0),
        dict(mtbf_s=0.1, mttr_s=0.1, slow_factor=1.5),
        dict(mtbf_s=0.1, mttr_s=0.1, max_faults=0),
    ])
    def test_invalid_configs_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            FailureConfig(**kwargs)

    def test_parsed_kinds_outside_chaos_kinds_are_rejected(self):
        kinds = parse_kinds("tile-slow,link-down")
        assert set(kinds) <= set(CHAOS_KINDS)
        FailureConfig(mtbf_s=0.1, mttr_s=0.1, kinds=kinds)
        with pytest.raises(ConfigError, match="cannot degrade"):
            FailureConfig(
                mtbf_s=0.1, mttr_s=0.1, kinds=parse_kinds("dma-bitflip")
            )
        with pytest.raises(ConfigError):
            parse_kinds("bogus")

    def test_round_trips_through_to_dict(self):
        doc = CHAOS.to_dict()
        assert doc["mtbf_s"] == 0.05
        assert doc["seed"] == 7


class TestSLOPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SLOPolicy(p99_ms=0.0)
        with pytest.raises(ConfigError):
            SLOPolicy(availability=0.0)
        with pytest.raises(ConfigError):
            SLOPolicy(availability=1.5)
        assert not SLOPolicy().enforced
        assert SLOPolicy(p99_ms=1.0).enforced

    def test_error_budget_burn(self):
        slo = SLOPolicy(availability=0.99)
        # Half the 1% budget burned.
        assert slo.error_budget_burn(0.995) == pytest.approx(0.5)
        assert slo.error_budget_burn(1.0) == 0.0
        # Zero budget: any unavailability saturates the cap.
        assert SLOPolicy(availability=1.0).error_budget_burn(0.999) == \
            BURN_CAP
        # No availability objective: nothing to burn.
        assert SLOPolicy(p99_ms=1.0).error_budget_burn(0.5) == 0.0


class TestSampling:
    def _lifecycle(self, config=CHAOS):
        return FailureLifecycle(
            config, _nets("LeNet-5"), NODE, duration_s=0.25
        )

    def test_events_are_seeded_and_sorted(self):
        a = self._lifecycle().events
        b = self._lifecycle().events
        assert a == b
        times = [e.time_s for e in a]
        assert times == sorted(times)

    def test_every_fault_has_a_repair(self):
        events = self._lifecycle().events
        assert len(events) % 2 == 0
        by_id = {}
        for e in events:
            by_id.setdefault(e.fault.fault_id, []).append(e.action)
        for actions in by_id.values():
            assert sorted(actions) == ["fault", "repair"]

    def test_different_seeds_differ(self):
        other = FailureConfig(mtbf_s=0.05, mttr_s=0.02, seed=8)
        assert self._lifecycle().events != self._lifecycle(other).events

    def test_max_faults_caps_the_stream(self):
        capped = FailureConfig(
            mtbf_s=0.001, mttr_s=0.02, seed=7, max_faults=3
        )
        lifecycle = self._lifecycle(capped)
        assert len(lifecycle.events) <= 6
        assert sample_failure_events(
            capped, 0.25, lifecycle.footprint
        ) == lifecycle.events


class TestLifecycle:
    def test_healthy_rebuild_is_the_baseline_placement(self):
        lifecycle = FailureLifecycle(
            CHAOS, _nets("LeNet-5"), NODE, duration_s=0.25
        )
        healthy = lifecycle.rebuild(frozenset())
        assert healthy.placement is lifecycle.placement
        assert not healthy.down

    def test_rebuilds_are_memoized_and_derate(self):
        lifecycle = FailureLifecycle(
            CHAOS, _nets("LeNet-5"), NODE, duration_s=0.25
        )
        assert lifecycle.events, "acceptance seed must inject faults"
        fault_id = lifecycle.events[0].fault.fault_id
        active = frozenset([fault_id])
        degraded = lifecycle.rebuild(active)
        assert lifecycle.rebuild(active) is degraded
        healthy_rate = lifecycle.placement.tenant("LeNet-5").rate_qps
        tenant = degraded.tenant("LeNet-5")
        if tenant is not None:  # not down: strictly slower service
            assert tenant.rate_qps < healthy_rate


class TestChaosRun:
    def test_rerun_is_byte_identical(self):
        nets = _nets("LeNet-5")
        dumps = [
            json.dumps(
                simulate_serving(nets, NODE, FAST).to_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_degraded_p99_strictly_above_healthy(self):
        report = simulate_serving(_nets("LeNet-5"), NODE, FAST)
        stats = report.tenant("LeNet-5")
        assert stats.healthy_ms.count and stats.degraded_ms.count
        assert stats.degraded_ms.percentile(99) > \
            stats.healthy_ms.percentile(99)
        assert report.degraded_s > 0
        assert report.degraded_intervals

    def test_outcomes_conserve_offered(self):
        report = simulate_serving(_nets("LeNet-5"), NODE, FAST)
        for stats in report.tenants:
            assert _conserves(stats)

    def test_fault_events_and_timeline_in_snapshot(self):
        doc = simulate_serving(_nets("LeNet-5"), NODE, FAST).to_dict()
        assert doc["failures"]["degraded_s"] > 0
        assert len(doc["failures"]["events"]) % 2 == 0
        assert doc["failures"]["timeline"]
        assert doc["config"]["retries"] == 0

    def test_heap_tie_break_order_is_pinned(self):
        # Retry re-arrivals and fault transitions extend the event heap;
        # the tie-break at equal timestamps must stay
        # DEPART < ARRIVAL < TIMER < FAULT or same-instant reruns
        # reorder and determinism breaks.
        assert (_DEPART, _ARRIVAL, _TIMER, _FAULT) == (0, 1, 2, 3)

    def test_retries_and_repairs_rerun_identically(self):
        config = ServeConfig(
            qps=20_000.0, duration_s=0.1, seed=7, policy=GREEDY,
            failures=FailureConfig(mtbf_s=0.02, mttr_s=0.01, seed=7),
            timeout_s=0.01, retries=2, backoff_s=0.001, hedge_s=0.002,
        )
        nets = _nets("LeNet-5")
        dumps = [
            json.dumps(
                simulate_serving(nets, NODE, config).to_dict(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]
        report = simulate_serving(nets, NODE, config)
        for stats in report.tenants:
            assert _conserves(stats)

    def test_curve_under_faults_matches_across_workers(self):
        config = ServeConfig(
            duration_s=0.02, seed=3, policy=GREEDY,
            failures=FailureConfig(mtbf_s=0.02, mttr_s=0.01, seed=3),
        )
        serial = run_curve(
            ["lenet5"], NODE, config, fractions=(0.5, 1.0), workers=1
        )
        pooled = run_curve(
            ["lenet5"], NODE, config, fractions=(0.5, 1.0), workers=2
        )
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
            json.dumps(pooled.to_dict(), sort_keys=True)
        for row in serial.rows():
            assert row["offered"] == (
                row["completed"] + row["shed"] + row["timed_out"]
                + row["failed"]
            )


class TestRobustRequests:
    def test_timeouts_count_and_conserve(self):
        config = ServeConfig(
            qps=5_000.0, duration_s=0.05, seed=7,
            timeout_s=1e-6,  # below the pipeline-fill floor
        )
        report = simulate_serving(_nets("AlexNet"), NODE, config)
        stats = report.tenant("AlexNet")
        assert stats.timed_out > 0
        assert _conserves(stats)

    def test_retries_recover_shed_copies(self):
        tight = ServeConfig(
            qps=200_000.0, duration_s=0.02, seed=7,
            policy=BatchPolicy(queue_depth=4),
            retries=2, backoff_s=0.001,
        )
        report = simulate_serving(_nets("AlexNet"), NODE, tight)
        stats = report.tenant("AlexNet")
        assert stats.retries > 0
        assert stats.shed_copies >= stats.shed
        assert _conserves(stats)
        # Without a deadline every root eventually lands somewhere.
        baseline = simulate_serving(
            _nets("AlexNet"), NODE,
            ServeConfig(
                qps=200_000.0, duration_s=0.02, seed=7,
                policy=BatchPolicy(queue_depth=4),
            ),
        ).tenant("AlexNet")
        assert stats.completed > baseline.completed

    def test_hedging_spawns_duplicates_without_double_counting(self):
        config = ServeConfig(
            qps=5_000.0, duration_s=0.05, seed=7, hedge_s=1e-4,
        )
        report = simulate_serving(_nets("AlexNet"), NODE, config)
        stats = report.tenant("AlexNet")
        assert stats.hedges > 0
        assert stats.completed <= stats.offered
        assert _conserves(stats)

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_s=0.0),
        dict(retries=-1),
        dict(backoff_s=-0.1),
        dict(hedge_s=-1e-3),
        dict(qps=-5.0),
        dict(duration_s=0.0),
        dict(minibatch=0),
        dict(max_requests=0),
        dict(arrivals="bursty"),
    ])
    def test_invalid_serve_configs_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            ServeConfig(**kwargs)


class TestSLOReport:
    def test_findings_cover_tenants_and_node(self):
        config = ServeConfig(
            qps=5_000.0, duration_s=0.05, seed=7,
            slo=SLOPolicy(p99_ms=1e9, availability=0.5),
        )
        report = simulate_serving(_nets("LeNet-5", "AlexNet"), NODE,
                                  config)
        findings = report.slo_findings()
        scopes = {f.scope for f in findings}
        assert scopes == {"LeNet-5", "AlexNet", "node"}
        assert all(f.ok for f in findings)
        assert not report.slo_violations()

    def test_violations_and_burn_under_shedding(self):
        config = ServeConfig(
            qps=200_000.0, duration_s=0.02, seed=7,
            policy=BatchPolicy(queue_depth=4),
            slo=SLOPolicy(availability=0.999),
        )
        report = simulate_serving(_nets("AlexNet"), NODE, config)
        assert report.availability < 0.999
        assert report.slo_violations()
        assert report.error_budget_burn() > 1.0
        assert report.to_dict()["slo"]["violations"] >= 1


class TestChaosDashboard:
    def test_chaos_html_renders_bands_and_tables(self, tmp_path):
        report = simulate_serving(_nets("LeNet-5"), NODE, FAST)
        html = run_html(report)
        assert "Latency timeline" in html
        assert "Request outcomes" in html
        assert "Fault/repair log" in html
        assert html.count("<rect") == len(report.degraded_intervals)
        path = write_html(html, tmp_path / "new" / "chaos.html")
        assert path.read_text() == html


class TestChaosCli:
    ACCEPT = [
        "serve", "lenet5", "--mtbf", "0.05", "--mttr", "0.02",
        "--seed", "7", "--policy", "greedy",
    ]

    def test_chaos_verb_runs_and_reports(self, capsys):
        assert cli.main(self.ACCEPT) == 0
        out = capsys.readouterr().out
        assert "LeNet-5" in out
        assert "degraded" in out
        assert "healthy p99" in out and "hedge" in out

    def test_chaos_json_reruns_identically(self, capsys):
        argv = self.ACCEPT + ["--json"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert first == capsys.readouterr().out
        doc = json.loads(first)
        row = doc["tenants"]["LeNet-5"]
        assert row["degraded_p99_ms"] > row["healthy_p99_ms"] > 0

    def test_slo_violation_exits_1_after_writing(self, tmp_path):
        out = tmp_path / "chaos.json"
        code = cli.main(
            self.ACCEPT + ["--slo-p99", "0.00001", "--out", str(out)]
        )
        assert code == 1
        assert json.loads(out.read_text())["slo"]["violations"] >= 1

    def test_slo_violation_raises_typed_error(self):
        config = ServeConfig(
            qps=5_000.0, duration_s=0.05, seed=7, policy=GREEDY,
            failures=CHAOS, slo=SLOPolicy(p99_ms=1e-5),
        )
        report = simulate_serving(_nets("LeNet-5"), NODE, config)
        with pytest.raises(SLOViolation) as err:
            cli._enforce_slo(report)
        assert err.value.violations

    def test_bad_fault_kind_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "serve", "lenet5", "--mtbf", "0.05", "--mttr", "0.02",
                "--fault-kind", "dma-bitflip",
            ])
        assert err.value.code == 2

    def test_bad_mtbf_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "serve", "lenet5", "--mtbf", "-1", "--mttr", "0.02",
            ])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--mtbf", "0.05"],
        ["--mttr", "0.02"],
    ])
    def test_mtbf_and_mttr_go_together(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["serve", "lenet5"] + flags)
        assert err.value.code == 2
        assert "--mtbf and --mttr" in capsys.readouterr().err

    def test_serve_faults_with_mtbf_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(self.ACCEPT + ["--faults", "0.05"])
        assert err.value.code == 2

    def test_plain_serve_has_no_lifecycle_columns(self, capsys):
        code = cli.main([
            "serve", "lenet5", "--duration", "0.02", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out and "sustained QPS" in out
        assert "healthy p99" not in out and "degraded " not in out

    def test_serve_faults_with_curve_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "serve", "lenet5", "--curve", "--faults", "0.05",
            ])
        assert err.value.code == 2

    def test_serve_static_faults_runs(self, capsys):
        code = cli.main([
            "serve", "lenet5", "--faults", "0.05", "--fault-seed",
            "11", "--duration", "0.02",
        ])
        assert code == 0
        assert "sustained" in capsys.readouterr().out

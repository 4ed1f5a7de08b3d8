"""Tests for ``repro stats``: report collection, tile-profile parity,
regression baselines, the CLI verb, and the HTML dashboard.

Pins the acceptance criteria: snapshots bit-identical across reruns,
``--compare`` exits 2 on an injected regression and 0 on a faithful
baseline, and the dashboard is fully self-contained.
"""

import json

import pytest

from repro.arch.presets import single_precision_node
from repro.bench.baselines import (
    Band,
    band_for,
    compare_snapshots,
    compare_to_baseline,
    load_baseline_file,
    write_baseline_file,
)
from repro.bench.dashboard import stats_html, write_html
from repro.bench.stats import collect_stats
from repro.cli import main
from repro.dnn import zoo
from repro.errors import ConfigError
from repro.sweep import CompileCache, set_cache
from repro.telemetry import TileGroupProfile


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = set_cache(CompileCache())
    yield
    set_cache(previous)


@pytest.fixture(scope="module")
def node():
    return single_precision_node()


def lenet_report(node):
    return collect_stats(zoo.load("lenet5"), node, minibatch=32)


class TestUtilizationGuard:
    def test_all_zero_group_renders_zero(self):
        row = TileGroupProfile(
            group="idle", chip="engine", tiles=1,
            busy_cycles=0.0, blocked_cycles=0.0, stalled_cycles=0.0,
        )
        assert row.total_cycles == 0.0
        assert row.utilization == 0.0  # not ZeroDivisionError

    def test_beat_denominates_when_set(self):
        row = TileGroupProfile(
            group="g", chip="c", tiles=1,
            busy_cycles=25.0, blocked_cycles=0.0, stalled_cycles=0.0,
            beat_cycles=100.0,
        )
        assert row.utilization == 0.25


class TestTileProfileParity:
    """Satellite: engine-vs-analytical parity across three zoo
    networks — group keys, utilization bands, and the
    ``busy + blocked + stalled == beat`` invariant."""

    @pytest.mark.parametrize("name", ["lenet5", "alexnet", "vgg16"])
    def test_profiles_are_consistent(self, node, name):
        report = collect_stats(zoo.load(name), node, minibatch=32)
        beat = report.result.training_pipeline.beat

        profile_keys = [r.group for r in report.analytical_profile]
        cause_keys = [r.group for r in report.analytical_causes]
        assert profile_keys == cause_keys
        assert len(profile_keys) == len(set(profile_keys))

        for row in report.analytical_profile:
            # The pinned invariant: every stage accounts for exactly
            # one pipeline beat.
            assert row.total_cycles == pytest.approx(beat, rel=1e-9)
            assert 0.0 <= row.utilization <= 1.0
        for row in report.analytical_causes:
            assert row.total_cycles == pytest.approx(beat, rel=1e-9)

        if report.engine_ran:
            engine_keys = {r.group for r in report.engine_profile}
            assert engine_keys == {
                r.group for r in report.engine_causes
            }
            # Engine tiles are named unit@tile.  The analytical model
            # folds pooling into its conv stage while the engine gives
            # pool layers their own tiles, so every analytical unit
            # must appear among the engine units (not vice versa).
            analytical_units = {
                g.split("/")[0] for g in profile_keys
            }
            engine_units = {g.split("@")[0] for g in engine_keys}
            assert analytical_units <= engine_units
            for row in report.engine_profile:
                assert 0.0 < row.utilization <= 1.0

    def test_engine_parity_exercised_for_lenet5(self, node):
        """LeNet-5 must actually reach the engine branch — the parity
        test above is vacuous for networks beyond engine scope."""
        report = lenet_report(node)
        assert report.engine_ran, report.engine_skipped
        assert report.engine_profile


class TestSnapshotDeterminism:
    def test_bit_identical_across_reruns(self, node):
        first = json.dumps(
            lenet_report(node).snapshot(), sort_keys=True
        )
        set_cache(CompileCache())  # cold second run
        second = json.dumps(
            lenet_report(node).snapshot(), sort_keys=True
        )
        assert first == second


class TestBands:
    def test_direction_higher_tolerates_improvement(self):
        band = Band(rel_tol=0.01, direction="higher")
        assert band.allows(100.0, 50.0)  # faster: fine
        assert band.allows(100.0, 100.9)  # within 1%
        assert not band.allows(100.0, 102.0)  # 2% slower: regression

    def test_direction_lower_tolerates_improvement(self):
        band = Band(rel_tol=0.01, direction="lower")
        assert band.allows(100.0, 200.0)
        assert not band.allows(100.0, 98.0)

    def test_counts_are_exact(self):
        band = band_for("engine.instr_cycles/NDCONV/count")
        assert band.rel_tol == 0.0
        assert not band.allows(100.0, 101.0)
        assert band.allows(100.0, 100.0)

    def test_throughput_is_lower_is_worse(self):
        band = band_for("perf/LeNet-5/train_images_per_s/value")
        assert band.direction == "lower"


def _metrics_snapshot(**metrics):
    return {
        "fingerprint": "f" * 64,
        "metrics": {
            "g": {
                name: {"kind": "gauge", "value": value}
                for name, value in metrics.items()
            }
        },
    }


class TestCompare:
    def test_identical_snapshots_pass(self):
        snap = _metrics_snapshot(cycles=100.0)
        comparison = compare_snapshots(snap, snap)
        assert comparison.ok
        assert [d.status for d in comparison.deltas] == ["ok"]

    def test_regression_detected_and_described(self):
        base = _metrics_snapshot(cycles=100.0)
        cur = _metrics_snapshot(cycles=150.0)
        comparison = compare_snapshots(cur, base)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.path == "g/cycles/value"
        assert "REGRESSION" in comparison.describe()

    def test_missing_metric_is_a_regression_new_is_not(self):
        base = _metrics_snapshot(cycles=100.0, gone=1.0)
        cur = _metrics_snapshot(cycles=100.0, fresh=2.0)
        comparison = compare_snapshots(cur, base)
        statuses = {d.path: d.status for d in comparison.deltas}
        assert statuses["g/gone/value"] == "missing"
        assert statuses["g/fresh/value"] == "new"
        assert [d.path for d in comparison.regressions] == [
            "g/gone/value"
        ]

    def test_baseline_file_roundtrip(self, tmp_path, node):
        snapshot = lenet_report(node).snapshot()
        path = write_baseline_file(snapshot, tmp_path / "bl.json")
        entries = load_baseline_file(path)
        assert entries == {snapshot["fingerprint"]: snapshot}
        comparison = compare_to_baseline(snapshot, path)
        assert comparison.ok

    def test_missing_entry_is_config_error(self, tmp_path):
        write_baseline_file(_metrics_snapshot(x=1.0), tmp_path / "b.json")
        other = _metrics_snapshot(x=1.0)
        other["fingerprint"] = "0" * 64
        with pytest.raises(ConfigError, match="no baseline entry"):
            compare_to_baseline(other, tmp_path / "b.json")

    def test_corrupt_baseline_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(ConfigError, match="schema"):
            load_baseline_file(bad)


class TestStatsCli:
    def test_stats_json_prints_snapshot(self, capsys):
        assert main(["stats", "tiny", "--json"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[: out.rindex("}") + 1])
        assert snapshot["network"] == "TinyCNN"
        assert snapshot["fingerprint"]
        assert snapshot["metrics"]

    def test_stats_tables_cover_both_simulators(self, capsys):
        assert main(["stats", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Bottleneck attribution" in out
        assert "analytical" in out and "engine" in out
        assert "p95" in out and "p99" in out
        assert "what would fix it" in out

    def test_compare_roundtrip_exits_clean(self, tmp_path, capsys):
        baseline = tmp_path / "bl.json"
        assert main(
            ["stats", "tiny", "--baseline", str(baseline)]
        ) == 0
        assert main(["stats", "tiny", "--compare", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_exits_2_on_injected_regression(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "bl.json"
        assert main(
            ["stats", "tiny", "--baseline", str(baseline)]
        ) == 0
        doc = json.loads(baseline.read_text())
        for entry in doc["entries"].values():
            for group in entry["metrics"].values():
                for metric in group.values():
                    if metric["kind"] == "histogram":
                        metric["mean"] *= 0.5  # current now looks 2x
        baseline.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "tiny", "--compare", str(baseline)])
        assert excinfo.value.code == 2
        assert "REGRESSION" in capsys.readouterr().out

    def test_checked_in_lenet5_baseline_passes(self, capsys):
        """The CI regression gate: the repository's committed baseline
        must match a fresh run."""
        assert main([
            "stats", "lenet5",
            "--compare", "tests/data/stats_baseline_lenet5.json",
        ]) == 0
        assert "no regressions" in capsys.readouterr().out


class TestDashboard:
    def test_html_is_self_contained(self, tmp_path, node):
        report = lenet_report(node)
        path = write_html(stats_html(report), tmp_path / "dash.html")
        text = path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        for external in ("http://", "https://", "src=", "href="):
            assert external not in text
        assert "<svg" in text and "<style>" in text and "<script>" in text

    def test_html_contains_all_four_views(self, node):
        report = lenet_report(node)
        text = stats_html(report)
        assert "Utilization heatmap" in text
        assert "Roofline" in text
        assert "Cycle attribution" in text
        assert "p99" in text  # percentile tables
        # Every chart ships its table-view twin.
        assert text.count("Table view") >= 3

    def test_html_deterministic(self, node):
        report = lenet_report(node)
        assert stats_html(report) == stats_html(report)

    def test_cli_writes_dashboard(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["stats", "tiny", "--html", str(out)]) == 0
        assert out.exists() and out.stat().st_size > 10_000
        assert "wrote dashboard" in capsys.readouterr().out

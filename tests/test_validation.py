"""Cross-validation: analytical model vs engine cycle counts."""

import json

import pytest

from repro.bench.export import write_validation_json
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.zoo import tiny_cnn, tiny_mlp
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import compile_training
from repro.errors import ConfigError, MappingError, ValidationError
from repro.functional import ReferenceModel
from repro.sim.validation import (
    BANDS,
    DEFAULT_BAND,
    OVERHEAD_BAND,
    OVERHEAD_CYCLE_FLOOR,
    ValidationReport,
    ValidationRow,
    _skip,
    analytical_forward_cycles,
    band_for,
    cross_validate,
    rank_agreement,
    validate_zoo,
)


def wide_cnn():
    b = NetworkBuilder("WideCNN")
    b.input(3, 16)
    b.conv(12, kernel=3, pad=1)
    b.pool(2, mode=PoolMode.AVG)
    b.conv(16, kernel=3, pad=1)
    b.fc(6, activation=Activation.SOFTMAX)
    return b.build()


@pytest.fixture(scope="module")
def rows():
    nets = {
        "mlp": tiny_mlp(num_classes=4, in_features=8, hidden=12),
        "cnn8": tiny_cnn(num_classes=4, in_size=8),
        "cnn16": tiny_cnn(num_classes=4, in_size=16),
        "wide": wide_cnn(),
    }
    return cross_validate(nets, rows=2)


class TestCrossValidation:
    def test_models_rank_workloads_identically(self, rows):
        assert rank_agreement(rows) == 1.0

    def test_compute_dominated_ratios_near_one(self, rows):
        """For networks with real compute, the engine's measured cycles
        land within 3x of the analytical prediction (the tiny MLP is
        per-instruction-overhead dominated and excluded)."""
        for row in rows:
            if row.analytical_cycles > 100:
                assert 0.3 < row.ratio < 3.0, row.network

    def test_engine_never_free(self, rows):
        for row in rows:
            assert row.engine_cycles > 0
            assert row.instructions > 0

    def test_analytical_cycles_scale_with_input(self):
        small = analytical_forward_cycles(
            tiny_cnn(num_classes=4, in_size=8), rows=2
        )
        large = analytical_forward_cycles(
            tiny_cnn(num_classes=4, in_size=16), rows=2
        )
        assert large > 2 * small

    def test_rank_agreement_degenerate(self):
        assert rank_agreement([]) == 1.0
        assert rank_agreement([ValidationRow("x", 1, 1.0, 1)]) == 1.0


def _row(name, engine, analytical, **kw):
    return ValidationRow(name, engine, analytical, 1, **kw)


class TestGuardedRatio:
    def test_normal_ratio(self):
        assert _row("a", 300, 100.0).ratio == pytest.approx(3.0)

    def test_zero_analytical_with_engine_work_is_inf(self):
        """The old code divided by zero here."""
        assert _row("a", 5, 0.0).ratio == float("inf")

    def test_both_zero_agrees(self):
        assert _row("a", 0, 0.0).ratio == 1.0


class TestRankAgreementTies:
    def test_tie_in_both_models_concords(self):
        rows = [_row("a", 10, 5.0), _row("b", 10, 5.0)]
        assert rank_agreement(rows) == 1.0

    def test_tie_against_strict_order_discords(self):
        """The old `<=`-both-sides rule scored this pair concordant in
        one direction and discordant in the other; the sign rule is
        symmetric — a tie never agrees with a strict ordering."""
        tied_engine = [_row("a", 10, 5.0), _row("b", 10, 9.0)]
        assert rank_agreement(tied_engine) == 0.0
        assert rank_agreement(list(reversed(tied_engine))) == 0.0
        tied_model = [_row("a", 10, 5.0), _row("b", 12, 5.0)]
        assert rank_agreement(tied_model) == 0.0
        assert rank_agreement(list(reversed(tied_model))) == 0.0

    def test_opposite_order_discords(self):
        rows = [_row("a", 10, 9.0), _row("b", 20, 5.0)]
        assert rank_agreement(rows) == 0.0


class TestToleranceBands:
    def test_overhead_floor_widens_band(self):
        assert band_for("anything", OVERHEAD_CYCLE_FLOOR) is OVERHEAD_BAND
        assert (
            band_for("anything", OVERHEAD_CYCLE_FLOOR + 1) is DEFAULT_BAND
        )

    def test_pinned_override_wins(self):
        assert "LeNet-5" in BANDS
        assert band_for("LeNet-5", 1e6) is BANDS["LeNet-5"]
        assert band_for("LeNet-5", 1.0) is BANDS["LeNet-5"]

    def test_band_is_inclusive(self):
        band = DEFAULT_BAND
        assert band.contains(band.low) and band.contains(band.high)
        assert not band.contains(band.high * 1.01)
        assert "[" in band.describe()


def _report(rows, rank=1.0, **kw):
    return ValidationReport(rows=rows, rank=rank, **kw)


class TestValidationReport:
    def test_clean_report_passes(self):
        report = _report([_row("a", 150, 120.0)])
        assert report.passed and report.violations() == []
        report.raise_on_failure()  # no-op

    def test_band_violation_fails(self):
        report = _report([_row("a", 10_000, 120.0)])
        assert not report.passed
        assert "tolerance band" in report.violations()[0]
        with pytest.raises(ValidationError) as err:
            report.raise_on_failure()
        assert list(err.value.violations) == report.violations()

    def test_output_error_violation(self):
        report = _report(
            [_row("a", 150, 120.0, max_abs_error=0.5)]
        )
        assert any("deviates" in v for v in report.violations())

    def test_nan_output_error_violates(self):
        report = _report(
            [_row("a", 150, 120.0, max_abs_error=float("nan"))]
        )
        assert not report.passed

    def test_low_rank_fails(self):
        report = _report([_row("a", 150, 120.0)], rank=0.5)
        assert any("rank agreement" in v for v in report.violations())

    def test_fused_mismatch_fails(self):
        report = _report(
            [_row("a", 150, 120.0, fused_identical=False)]
        )
        assert any("bit-identical" in v for v in report.violations())

    def test_no_ok_rows_fails(self):
        skipped = ValidationRow(
            "a", 0, 0.0, 0, status="skipped", reason="too big"
        )
        report = _report([skipped])
        assert not report.passed
        assert "nothing validated" in report.violations()[0]

    def test_skipped_rows_not_gated(self):
        rows = [
            _row("a", 150, 120.0),
            ValidationRow("b", 0, 0.0, 0, status="skipped", reason="x"),
        ]
        assert _report(rows).passed

    def test_to_dict_round_trips_through_json(self, tmp_path):
        report = _report([
            _row("a", 150, 120.0),
            ValidationRow("b", 7, 0.0, 1),  # inf ratio -> null
            ValidationRow("c", 0, 0.0, 0, status="skipped", reason="big"),
        ])
        path = write_validation_json(report, tmp_path / "v.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["passed"] is False  # b's inf ratio violates
        by_name = {r["network"]: r for r in payload["rows"]}
        assert by_name["a"]["ratio"] == pytest.approx(1.25)
        assert by_name["b"]["ratio"] is None
        assert by_name["c"]["band_low"] is None
        assert by_name["c"]["reason"] == "big"


class TestValidateZoo:
    @pytest.fixture(scope="class")
    def report(self):
        return validate_zoo(
            ["TinyCNN-8", "WideCNN", "tinymlp"], speedup=False
        )

    def test_explicit_names_resolve_canonical(self, report):
        """Requested names land under their canonical zoo spelling."""
        assert [r.network for r in report.rows] == [
            "TinyCNN-8", "WideCNN", "TinyMLP",
        ]
        assert all(r.status == "ok" for r in report.rows)

    def test_gate_passes_on_small_nets(self, report):
        assert report.passed, report.violations()
        assert 0.0 <= report.rank <= 1.0

    def test_outputs_match_reference(self, report):
        for row in report.rows:
            assert row.max_abs_error <= report.max_output_error

    def test_fused_path_validated(self, report):
        for row in report.rows:
            assert row.fused_identical
            assert 0 < row.fused_cycles <= row.engine_cycles

    def test_speedup_disabled(self, report):
        assert report.speedup is None

    def test_oversize_network_runs_its_proxy(self):
        """Networks above ENGINE_WEIGHT_LIMIT engine-execute their
        registered proxy under the canonical name instead of skipping."""
        report = validate_zoo(["AlexNet"], speedup=False)
        (row,) = report.rows
        assert row.network == "AlexNet"
        assert row.status == "ok"
        assert "engine proxy" in row.reason
        assert row.fused_identical
        assert report.passed, report.violations()

    def test_alias_duplicates_deduped(self):
        """`vgg16` beside `VGG-D` is one network, hence one row."""
        report = validate_zoo(["vgg16", "VGG-D"], speedup=False)
        assert [r.network for r in report.rows] == ["VGG-D"]


class TestRowsValidation:
    """``rows`` below 1 is refused up front: 0 used to divide by zero in
    the partitioner and -1 never returned."""

    @pytest.mark.parametrize("rows", [0, -1])
    @pytest.mark.parametrize(
        "compile_fn", [compile_dag_forward, compile_training],
        ids=["dag", "training"],
    )
    def test_compilers_raise_mapping_error(self, compile_fn, rows):
        net = tiny_cnn(num_classes=4, in_size=8)
        with pytest.raises(MappingError, match="rows must be >= 1"):
            compile_fn(net, ReferenceModel(net, seed=0), rows=rows)

    @pytest.mark.parametrize("rows", [0, -1])
    def test_validate_zoo_raises_config_error(self, rows):
        """Raised before compiling, so the per-network ``except
        ReproError`` cannot turn every row into a skip."""
        with pytest.raises(ConfigError, match="rows must be >= 1"):
            validate_zoo(["TinyCNN-8"], rows=rows, speedup=False)


class TestSkipReason:
    def test_multi_line_reason_collapses_to_one_line(self):
        row = _skip(
            "x", "scope failure:\n  op conv5 uses frobnication\n  more"
        )
        assert "\n" not in row.reason
        assert "conv5" in row.reason

    def test_reason_is_bounded(self):
        row = _skip("x", "word " * 200)
        assert len(row.reason) <= 200
        assert row.reason.endswith("...")

"""Tests for the energy module and the command-line interface."""

import dataclasses
import json

import pytest

from repro.arch import single_precision_node
from repro.cli import main
from repro.dnn import zoo
from repro.errors import SimulationError
from repro.sim import simulate
from repro.sim.energy import IMAGENET_IMAGES, EnergyReport, energy_report


@pytest.fixture(scope="module")
def alexnet_result():
    return simulate(zoo.alexnet(), single_precision_node())


class TestEnergy:
    def test_energy_balance(self, alexnet_result):
        report = energy_report(alexnet_result)
        total = report.logic_j + report.memory_j + report.interconnect_j
        assert total == pytest.approx(
            report.joules_per_training_image, rel=1e-6
        )

    def test_evaluation_cheaper_than_training(self, alexnet_result):
        report = energy_report(alexnet_result)
        assert (
            report.joules_per_evaluation_image
            < report.joules_per_training_image
        )

    def test_stage_energy_sums_to_logic(self, alexnet_result):
        report = energy_report(alexnet_result)
        assert sum(report.stage_energy.values()) == pytest.approx(
            report.logic_j, rel=1e-6
        )

    def test_epoch_energy_scaling(self, alexnet_result):
        report = energy_report(alexnet_result)
        expected = (
            report.joules_per_training_image * IMAGENET_IMAGES / 3.6e6
        )
        assert report.kilowatt_hours_per_epoch == pytest.approx(expected)
        # AlexNet at tens of mJ/image: an epoch costs a handful of kWh.
        assert 0.001 < report.kilowatt_hours_per_epoch < 100

    def test_bigger_network_costs_more_energy_per_image(self):
        node = single_precision_node()
        small = energy_report(simulate(zoo.alexnet(), node))
        big = energy_report(simulate(zoo.vgg_e(), node))
        assert (
            big.joules_per_training_image
            > small.joules_per_training_image
        )

    def test_describe(self, alexnet_result):
        text = energy_report(alexnet_result).describe()
        assert "mJ" in text and "kWh" in text
        assert "hottest stage" in text

    def test_zero_training_throughput_rejected(self, alexnet_result):
        broken = dataclasses.replace(
            alexnet_result, training_images_per_s=0.0
        )
        with pytest.raises(SimulationError, match="zero throughput"):
            energy_report(broken)

    def test_zero_evaluation_throughput_rejected(self, alexnet_result):
        """Regression: this used to divide by zero instead of raising."""
        broken = dataclasses.replace(
            alexnet_result, evaluation_images_per_s=0.0
        )
        with pytest.raises(
            SimulationError, match="zero evaluation throughput"
        ):
            energy_report(broken)

    def test_describe_without_stage_attribution(self, alexnet_result):
        """Regression: `describe` crashed on max() of an empty dict."""
        report = dataclasses.replace(
            energy_report(alexnet_result), stage_energy={}
        )
        text = report.describe()
        assert "mJ" in text and "hottest" not in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "AlexNet" in out and "VGG-E" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "AlexNet"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPs/evaluation" in out
        assert "nD-convolution" in out

    def test_map(self, capsys):
        assert main(["report", "AlexNet"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "ConvLayer" in out

    def test_simulate(self, capsys):
        assert main(["report", "AlexNet", "--minibatch", "128"]) == 0
        out = capsys.readouterr().out
        assert "img/s" in out and "comp_mem" in out

    def test_simulate_hp(self, capsys):
        assert main(["report", "AlexNet", "--hp"]) == 0
        out = capsys.readouterr().out
        assert "scaledeep-hp" in out

    def test_energy(self, capsys):
        assert main(["report", "AlexNet"]) == 0
        assert "mJ" in capsys.readouterr().out

    def test_compare_gpu(self, capsys):
        assert main(["report", "AlexNet"]) == 0
        out = capsys.readouterr().out
        assert "ScaleDeep chip cluster vs TitanX on AlexNet" in out
        assert "cuDNN-R2" in out and "x" in out

    def test_unknown_network_exits(self):
        with pytest.raises(SystemExit):
            main(["report", "LeNet-1998"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_export(self, capsys, tmp_path):
        assert main(["export", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote 7 figure data files" in out
        assert (tmp_path / "fig16_sp_throughput.csv").exists()

    def test_stages(self, capsys):
        assert main(["report", "AlexNet"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline stages of AlexNet (training)" in out
        assert "bottleneck" in out and "conv2" in out

    def test_report(self, capsys):
        assert main(["report", "AlexNet"]) == 0
        out = capsys.readouterr().out
        for section in ("Mapping", "Throughput", "Nested pipeline",
                        "Link utilization", "Power", "gradient sync"):
            assert section in out

    def test_validate(self, capsys, tmp_path):
        artifact = tmp_path / "BENCH_validate.json"
        assert main([
            "validate", "TinyCNN-8", "WideCNN", "--no-speedup",
            "--out", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "rank agreement" in out
        assert "validation gate passed" in out
        payload = json.loads(artifact.read_text())
        assert payload["passed"] is True
        assert {r["network"] for r in payload["rows"]} == {
            "TinyCNN-8", "WideCNN",
        }

    def test_validate_json_output(self, capsys):
        assert main(["validate", "TinyCNN-8", "--no-speedup",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1 and payload["passed"] is True

    def test_validate_accepts_zoo_aliases(self, capsys):
        assert main(["validate", "tiny", "--no-speedup"]) == 0
        assert "TinyCNN" in capsys.readouterr().out

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_validate_bad_rows_exits(self, capsys, rows):
        with pytest.raises(SystemExit) as err:
            main(["validate", "TinyCNN-8", "--rows", rows, "--no-speedup"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.count("\n") == 1
        assert "--rows must be >= 1" in message

    def test_validate_unknown_network_exits(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "nosuchnet"])
        assert err.value.code == 2
        assert "nosuchnet" in capsys.readouterr().err

"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np
import pytest

from repro import (
    half_precision_node,
    map_network,
    simulate,
    single_precision_node,
    zoo,
)
from repro.compiler.codegen_dag import compile_dag_forward
from repro.dnn.analysis import training_flops
from repro.functional import ReferenceModel, SGDTrainer, make_synthetic_dataset


@pytest.fixture(scope="module")
def sp():
    return single_precision_node()


class TestFullSuiteMapping:
    @pytest.mark.parametrize("name", list(zoo.BENCHMARKS))
    def test_every_benchmark_maps_and_simulates(self, sp, name):
        net = zoo.load(name)
        result = simulate(net, sp)
        assert result.training_images_per_s > 100
        assert result.evaluation_images_per_s > result.training_images_per_s
        assert 0 < result.pe_utilization <= 1
        assert result.average_power.total_w < 1400

    def test_half_precision_maps_everything(self):
        hp = half_precision_node()
        for name in ("AlexNet", "VGG-E"):
            result = simulate(zoo.load(name), hp)
            assert result.training_images_per_s > 100


class TestSustainedThroughputSanity:
    def test_sustained_flops_below_peak(self, sp):
        """Throughput x FLOPs/image never exceeds the machine peak."""
        for name in ("AlexNet", "VGG-D", "GoogLeNet"):
            net = zoo.load(name)
            result = simulate(net, sp)
            sustained = result.training_images_per_s * training_flops(net)
            assert sustained < sp.peak_flops

    def test_images_per_second_consistent_with_mapping(self, sp):
        net = zoo.alexnet()
        mapping = map_network(net, sp)
        direct = simulate(net, sp)
        via_mapping = simulate(net, sp, mapping=mapping)
        assert direct.training_images_per_s == pytest.approx(
            via_mapping.training_images_per_s
        )


class TestTrainThenRunOnEngine:
    def test_trained_weights_execute_on_hardware_model(self):
        """Train functionally, then compile the trained weights to ISA
        programs and check the engine classifies like the golden model —
        the full compiler/simulator loop on real (tiny) data."""
        net = zoo.tiny_cnn(num_classes=3, in_size=8)
        model = ReferenceModel(net, seed=0)
        x, y = make_synthetic_dataset(net, samples=24, num_classes=3, seed=1)
        trainer = SGDTrainer(model, learning_rate=0.05, batch_size=8)
        for epoch in range(3):
            trainer.train_epoch(x, y, epoch)

        compiled = compile_dag_forward(net, model, rows=2)
        agree = 0
        for img in x[:6]:
            want = model.forward(img.astype(np.float32))
            got, _ = compiled.run(img.astype(np.float32))
            np.testing.assert_allclose(got, want, atol=1e-4)
            agree += int(got.argmax() == want.argmax())
        assert agree == 6

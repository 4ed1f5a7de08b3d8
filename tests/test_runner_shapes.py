"""Persistent-runner tests and golden per-layer shape tables."""

import numpy as np
import pytest

from repro.compiler.codegen import compile_forward
from repro.compiler.codegen_training import compile_training
from repro.dnn import zoo
from repro.dnn.layers import FeatureShape
from repro.errors import ShapeError
from repro.functional import ReferenceModel


class TestForwardRunner:
    @pytest.fixture(scope="class")
    def setup(self):
        net = zoo.tiny_cnn(num_classes=4, in_size=8)
        model = ReferenceModel(net, seed=0)
        compiled = compile_forward(net, model, rows=2)
        return net, model, compiled.runner()

    def _image(self, net, seed):
        shape = net.input.output_shape
        return np.random.default_rng(seed).normal(
            0, 1, (shape.count, shape.height, shape.width)
        ).astype(np.float32)

    def test_stream_of_images_matches_golden(self, setup):
        net, model, run = setup
        for seed in range(5):
            img = self._image(net, seed)
            got, _ = run(img)
            np.testing.assert_allclose(got, model.forward(img), atol=1e-4)
        assert run.images_run >= 5

    def test_state_isolation_between_images(self, setup):
        """A second image must not inherit partials from the first —
        the overwrite-first emission guarantees it."""
        net, model, run = setup
        a = self._image(net, 100)
        first, _ = run(a)
        run(self._image(net, 101))
        again, _ = run(a)
        np.testing.assert_allclose(first, again, atol=1e-6)

    def test_weights_persist_across_images(self, setup):
        """Forward programs read kernels, weights and biases (the fused
        conv kernel through gathers) but never write them: every such
        block is bit-for-bit unchanged after streaming images."""
        net, _, run = setup
        machine = run.machine
        params = {"kernels", "weights", "bias"}

        def kind(name):  # "conv1/kernels@r0" -> "kernels"
            return name.split("/")[-1].split("@")[0]

        resident = {
            name: (machine.mem_tile_id(col, row), base, words)
            for (col, row), alloc in run.compiled.partition.allocators.items()
            for name, (base, words) in alloc.blocks.items()
            if kind(name) in params
        }
        assert {kind(name) for name in resident} == params

        def snapshot():
            return {
                name: machine.mem_tile(port).read(base, words).tobytes()
                for name, (port, base, words) in resident.items()
            }

        before = snapshot()
        for seed in range(200, 203):
            run(self._image(net, seed))
        assert snapshot() == before


#: Images TinyCNN-8 (3x8x8 input) must refuse: too few or too many
#: channels, a short row, and the right word count flattened.
BAD_SHAPES = [(2, 8, 8), (5, 8, 8), (3, 8, 7), (192,)]


class TestInputShape:
    """Every engine entry point loads images through one checked helper,
    so a wrong-shape image raises instead of leaving stale words."""

    @pytest.fixture(scope="class")
    def net(self):
        return zoo.tiny_cnn(num_classes=4, in_size=8)

    @pytest.fixture(scope="class")
    def compiled(self, net):
        return compile_forward(net, ReferenceModel(net, seed=0), rows=2)

    @staticmethod
    def _image(shape, seed=0):
        return np.random.default_rng(seed).normal(0, 1, shape).astype(
            np.float32
        )

    @pytest.mark.parametrize("shape", BAD_SHAPES, ids=str)
    def test_run_rejects(self, compiled, shape):
        with pytest.raises(ShapeError, match="network input 3x8x8"):
            compiled.run(self._image(shape))

    @pytest.mark.parametrize("shape", BAD_SHAPES, ids=str)
    def test_runner_rejects_and_stays_usable(self, compiled, shape):
        run = compiled.runner()
        good = self._image((3, 8, 8))
        want, _ = compiled.run(good)
        with pytest.raises(ShapeError):
            run(self._image(shape, seed=1))
        got, _ = run(good)
        assert np.array_equal(got, want)
        assert run.images_run == 1

    def test_runner_rejects_a_channel_prefix(self, compiled):
        """The first two channels of the previous image used to return
        that image's output bit for bit (channel 2 stayed stale)."""
        run = compiled.runner()
        image = self._image((3, 8, 8))
        run(image)
        with pytest.raises(ShapeError):
            run(image[:2])

    @pytest.mark.parametrize("shape", BAD_SHAPES, ids=str)
    def test_train_step_rejects(self, net, shape):
        training = compile_training(net, ReferenceModel(net, seed=0))
        with pytest.raises(ShapeError):
            training.train_step(self._image(shape), 1)
        _, loss, _ = training.train_step(self._image((3, 8, 8)), 1)
        assert np.isfinite(loss)


#: Golden per-layer output shapes (the standard published dimensions).
ALEXNET_SHAPES = {
    "conv1": (96, 55, 55),
    "pool1": (96, 27, 27),
    "conv2": (256, 27, 27),
    "pool2": (256, 13, 13),
    "conv3": (384, 13, 13),
    "conv4": (384, 13, 13),
    "conv5": (256, 13, 13),
    "pool3": (256, 6, 6),
    "fc6": (4096, 1, 1),
    "fc7": (4096, 1, 1),
    "fc8": (1000, 1, 1),
}

VGG_A_SHAPES = {
    "conv1": (64, 224, 224),
    "pool1": (64, 112, 112),
    "conv2": (128, 112, 112),
    "pool2": (128, 56, 56),
    "conv4": (256, 56, 56),
    "pool3": (256, 28, 28),
    "conv6": (512, 28, 28),
    "pool4": (512, 14, 14),
    "conv8": (512, 14, 14),
    "pool5": (512, 7, 7),
    "fc1": (4096, 1, 1),
}

GOOGLENET_SHAPES = {
    "conv1": (64, 112, 112),
    "pool1": (64, 56, 56),
    "conv2": (192, 56, 56),
    "pool2": (192, 28, 28),
    "inc3a_out": (256, 28, 28),
    "inc3b_out": (480, 28, 28),
    "pool3": (480, 14, 14),
    "inc4e_out": (832, 14, 14),
    "pool4": (832, 7, 7),
    "inc5b_out": (1024, 7, 7),
    "gpool": (1024, 1, 1),
    "fc": (1000, 1, 1),
}

RESNET18_SHAPES = {
    "conv1": (64, 112, 112),
    "pool1": (64, 56, 56),
    "s1b1_add": (64, 56, 56),
    "s2b0_add": (128, 28, 28),
    "s3b0_add": (256, 14, 14),
    "s4b1_add": (512, 7, 7),
    "gpool": (512, 1, 1),
    "fc": (1000, 1, 1),
}


class TestGoldenShapes:
    @pytest.mark.parametrize(
        "factory,golden",
        [
            (zoo.alexnet, ALEXNET_SHAPES),
            (zoo.vgg_a, VGG_A_SHAPES),
            (zoo.googlenet, GOOGLENET_SHAPES),
            (zoo.resnet18, RESNET18_SHAPES),
        ],
        ids=["AlexNet", "VGG-A", "GoogLeNet", "ResNet18"],
    )
    def test_layer_shapes_match_published(self, factory, golden):
        net = factory()
        for layer, (c, h, w) in golden.items():
            assert net[layer].output_shape == FeatureShape(c, h, w), layer

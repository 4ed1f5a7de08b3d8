"""End-to-end training on the engine vs the golden model.

These tests compile full FP+BP+WG+update programs and run SGD
iterations on the functional engine, checking outputs, weight
gradients/updates, and multi-step weight evolution against the numpy
reference with frozen biases.
"""

import numpy as np
import pytest

from repro.compiler.codegen_training import (
    CompiledTraining,
    compile_training,
)
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.zoo import tiny_mlp
from repro.errors import MappingError, ShapeError, SimulationError
from repro.functional import ReferenceModel
from repro.isa.instructions import Opcode


def tiny_avg_cnn(classes=3, size=8):
    """A training-compilable CNN: stride-1 convs, avg pools, softmax."""
    b = NetworkBuilder("TinyAvgCNN")
    b.input(2, size)
    b.conv(4, kernel=3, pad=1, name="conv1")
    b.pool(2, mode=PoolMode.AVG, name="pool1")
    b.conv(6, kernel=3, pad=1, name="conv2")
    b.pool(2, mode=PoolMode.AVG, name="pool2")
    b.fc(8, name="fc1")
    b.fc(classes, activation=Activation.SOFTMAX, name="fc2")
    return b.build()


def reference_step(model, image, label, lr):
    """One reference SGD step with frozen biases; returns (out, loss)."""
    out = model.forward(image)
    loss = model.backward(label)
    for st in model.state.values():
        if st.grad_bias is not None:
            st.grad_bias[:] = 0
    model.apply_gradients(lr)
    return out, loss


def random_image(net, seed):
    shape = net.input.output_shape
    rng = np.random.default_rng(seed)
    return rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)


WEIGHTED = ("conv1", "conv2", "fc1", "fc2")


class TestSingleStep:
    @pytest.fixture(scope="class")
    def stepped(self):
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=3)
        compiled = compile_training(net, model, rows=2,
                                    learning_rate=(1, 100))
        image = random_image(net, 0)
        out, loss, report = compiled.train_step(image, 1)
        ref_out, ref_loss = reference_step(model, image, 1, 0.01)
        return compiled, model, out, loss, ref_out, ref_loss, report

    def test_forward_output_matches(self, stepped):
        _, _, out, _, ref_out, _, _ = stepped
        np.testing.assert_allclose(out, ref_out, atol=1e-5)

    def test_loss_matches(self, stepped):
        _, _, _, loss, _, ref_loss, _ = stepped
        assert loss == pytest.approx(ref_loss, rel=1e-4)

    @pytest.mark.parametrize("layer", WEIGHTED)
    def test_updated_weights_match(self, stepped, layer):
        compiled, model = stepped[0], stepped[1]
        got = compiled.read_weights(layer)
        want = model.state[layer].weights
        np.testing.assert_allclose(
            got.reshape(want.shape), want, atol=1e-5
        )

    def test_synchronization_was_exercised(self, stepped):
        report = stepped[6]
        assert report.blocked_reads > 100  # the backward wave waited


class TestMultiStep:
    def test_weights_track_reference_over_steps(self):
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=7)
        compiled = compile_training(net, model, rows=2,
                                    learning_rate=(1, 100))
        rng = np.random.default_rng(42)
        for step in range(4):
            image = random_image(net, seed=100 + step)
            label = int(rng.integers(0, 3))
            out, loss, _ = compiled.train_step(image, label)
            ref_out, ref_loss = reference_step(model, image, label, 0.01)
            # Borderline-ReLU mask flips accumulate tiny divergence.
            np.testing.assert_allclose(out, ref_out, atol=1e-3)
        for layer in WEIGHTED:
            got = compiled.read_weights(layer)
            want = model.state[layer].weights
            np.testing.assert_allclose(
                got.reshape(want.shape), want, atol=1e-3
            )

    def test_training_reduces_loss_on_repeated_image(self):
        """SGD on the engine actually learns: repeating one image must
        drive its loss down."""
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=1)
        compiled = compile_training(net, model, rows=2,
                                    learning_rate=(5, 100))
        image = random_image(net, 5)
        losses = [compiled.train_step(image, 2)[1] for _ in range(5)]
        assert losses[-1] < losses[0]

    def test_mlp_training(self):
        net = tiny_mlp(num_classes=3, in_features=6, hidden=5)
        model = ReferenceModel(net, seed=0)
        compiled = compile_training(net, model, rows=2,
                                    learning_rate=(2, 100))
        image = random_image(net, 9)
        out, loss, _ = compiled.train_step(image, 0)
        ref_out, ref_loss = reference_step(model, image, 0, 0.02)
        np.testing.assert_allclose(out, ref_out, atol=1e-5)
        for layer in ("fc1", "fc2"):
            got = compiled.read_weights(layer)
            want = model.state[layer].weights
            np.testing.assert_allclose(
                got.reshape(want.shape), want, atol=1e-5
            )


class TestProgramStructure:
    def test_training_opcodes_present(self):
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=3)
        compiled = compile_training(net, model, rows=2)
        used = {
            instr.opcode
            for prog in compiled.forward.programs
            for instr in prog
        }
        for op in (Opcode.NDACTBP, Opcode.NDUPSAMP, Opcode.WUPDATE,
                   Opcode.NDACCUM, Opcode.NDCONV, Opcode.MATMUL,
                   Opcode.MEMTRACK):
            assert op in used, op

    def test_bp_and_wg_programs_emitted(self):
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=3)
        compiled = compile_training(net, model, rows=2)
        names = {p.tile for p in compiled.forward.programs}
        assert any(n.startswith("bp:conv2") for n in names)
        assert any(n.startswith("bp:pool1") for n in names)
        assert any(n.startswith("wg:conv1") for n in names)
        assert any(n.startswith("wg:fc2") for n in names)
        # conv1's input is the image: no BP program for it.
        assert not any(n.startswith("bp:conv1") for n in names)


class TestScopeValidation:
    def test_strided_conv_rejected(self):
        b = NetworkBuilder("strided")
        b.input(2, 8)
        b.conv(4, kernel=3, stride=2)
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        with pytest.raises(MappingError):
            compile_training(net, ReferenceModel(net))

    def test_nontiling_max_pool_rejected(self):
        """Max-pool BP needs the window to tile the input exactly;
        overlap-truncating sweeps are out of scope."""
        b = NetworkBuilder("maxpool-odd")
        b.input(2, 9)
        b.conv(4, kernel=3, pad=1)  # 9x9: 2x2 windows truncate
        b.pool(2, mode=PoolMode.MAX)
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        with pytest.raises(MappingError):
            compile_training(net, ReferenceModel(net))

    def test_nondividing_stride_rejected(self):
        b = NetworkBuilder("badstride")
        b.input(2, 8)
        b.conv(4, kernel=3, stride=2)  # (8-3) % 2 != 0
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        with pytest.raises(MappingError):
            compile_training(net, ReferenceModel(net))

    def test_non_softmax_head_rejected(self):
        b = NetworkBuilder("nohead")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1)
        b.fc(3)  # relu head
        net = b.build()
        with pytest.raises(MappingError):
            compile_training(net, ReferenceModel(net))

    def test_standalone_activation_rejected(self):
        b = NetworkBuilder("act")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1)
        b.activation(Activation.TANH)
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        with pytest.raises(MappingError, match="layer kind"):
            compile_training(net, ReferenceModel(net))

    def test_layer_with_two_consumers_rejected(self):
        """BP follows one successor per layer: a second consumer (here
        a dead-end conv) would silently drop its share of the error."""
        b = NetworkBuilder("fanout")
        b.input(2, 8)
        c1 = b.conv(4, kernel=3, pad=1, name="c1")
        b.conv(4, kernel=3, pad=1, name="c2", inputs=[c1])
        b.fc(3, activation=Activation.SOFTMAX, name="fc", inputs=[c1])
        net = b.build()
        with pytest.raises(MappingError, match="c1: .*2 layers"):
            compile_training(net, ReferenceModel(net))

    @pytest.mark.parametrize("second", ["pool", "global_pool"])
    def test_pool_after_pool_rejected(self, second):
        b = NetworkBuilder("poolpool")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1)
        b.pool(2, mode=PoolMode.AVG, name="pool1")
        if second == "pool":
            b.pool(2, mode=PoolMode.AVG, name="pool2")
        else:
            b.global_pool(name="pool2")
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        with pytest.raises(MappingError, match="pool2: pooling BP"):
            compile_training(net, ReferenceModel(net))

    @pytest.mark.parametrize("learning_rate", [(1, 0), (-1, 100), (1, -100)])
    def test_bad_learning_rate_rejected(self, learning_rate):
        """A zero denominator used to divide by zero inside WUPDATE on
        the first step; a negative immediate decoded as a register
        operand."""
        net = tiny_avg_cnn()
        with pytest.raises(MappingError, match="learning rate"):
            compile_training(
                net, ReferenceModel(net), learning_rate=learning_rate
            )


class TestRunTimeErrors:
    @pytest.mark.parametrize("label", [-1, 3])
    def test_out_of_range_label_rejected_before_running(self, label):
        """The step is refused before the engine runs, so the compiled
        training stays usable and matches a fresh one afterwards."""
        net = tiny_avg_cnn(classes=3)
        image = random_image(net, 0)
        compiled = compile_training(net, ReferenceModel(net, seed=3))
        with pytest.raises(ShapeError, match="label"):
            compiled.train_step(image, label)
        fresh = compile_training(net, ReferenceModel(net, seed=3))
        out, loss, report = compiled.train_step(image, 1)
        want_out, want_loss, want_report = fresh.train_step(image, 1)
        np.testing.assert_array_equal(out, want_out)
        assert (loss, report) == (want_loss, want_report)
        np.testing.assert_array_equal(
            compiled.read_weights("conv1"), fresh.read_weights("conv1")
        )

    @pytest.mark.parametrize("label", [-1, 3])
    def test_reference_rejects_out_of_range_label(self, label):
        net = tiny_avg_cnn(classes=3)
        model = ReferenceModel(net, seed=3)
        model.forward(random_image(net, 0))
        with pytest.raises(ShapeError, match="label"):
            model.backward(label)

    @pytest.mark.parametrize("labels", [[1], [0, 1, 2], [1, 5]])
    def test_minibatch_labels_checked_before_accumulating(self, labels):
        net = tiny_avg_cnn(classes=3)
        compiled = compile_training(
            net, ReferenceModel(net, seed=3), minibatch=2
        )
        images = np.stack([random_image(net, 0), random_image(net, 1)])
        before = compiled.read_weights("conv1").copy()
        error = ShapeError if len(labels) == 2 else SimulationError
        with pytest.raises(error):
            compiled.train_minibatch(images, labels)
        np.testing.assert_array_equal(
            compiled.read_weights("conv1"), before
        )
        fresh = compile_training(
            net, ReferenceModel(net, seed=3), minibatch=2
        )
        assert compiled.train_minibatch(images, [1, 2]) == (
            fresh.train_minibatch(images, [1, 2])
        )
        np.testing.assert_array_equal(
            compiled.read_weights("conv1"), fresh.read_weights("conv1")
        )


class TestMinibatchAccumulation:
    """Sec 2.2 semantics: gradients accumulate over the minibatch and
    the weights update once — on the engine."""

    @pytest.fixture(scope="class")
    def compiled(self):
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=3)
        compiled = compile_training(
            net, model, rows=2, learning_rate=(2, 100), minibatch=4
        )
        return net, model, compiled

    def test_minibatch_matches_reference(self, compiled):
        net, model, compiled = compiled
        rng = np.random.default_rng(0)
        shape = net.input.output_shape
        images = rng.normal(
            0, 1, (4, shape.count, shape.height, shape.width)
        ).astype(np.float32)
        labels = rng.integers(0, 3, 4)

        mean_loss, correct = compiled.train_minibatch(images, labels)

        ref_losses = []
        for img, lbl in zip(images, labels):
            model.forward(img)
            ref_losses.append(model.backward(int(lbl)))
        for st in model.state.values():
            if st.grad_bias is not None:
                st.grad_bias[:] = 0
        model.apply_gradients(0.02, scale=1.0 / 4)

        assert mean_loss == pytest.approx(np.mean(ref_losses), rel=1e-4)
        assert 0 <= correct <= 4
        for layer in WEIGHTED:
            got = compiled.read_weights(layer)
            want = model.state[layer].weights
            np.testing.assert_allclose(
                got.reshape(want.shape), want, atol=1e-5
            )

    def test_weights_frozen_until_update(self, compiled):
        net, _, compiled = compiled
        rng = np.random.default_rng(9)
        shape = net.input.output_shape
        before = compiled.read_weights("conv1").copy()
        image = rng.normal(
            0, 1, (shape.count, shape.height, shape.width)
        ).astype(np.float32)
        compiled.train_step(image, 0)  # accumulation only
        np.testing.assert_array_equal(
            compiled.read_weights("conv1"), before
        )
        # Drain the partial accumulation so later tests start clean.
        compiled.apply_update()
        assert not np.array_equal(compiled.read_weights("conv1"), before)

    def test_wrong_batch_size_rejected(self, compiled):
        net, _, compiled = compiled
        shape = net.input.output_shape
        images = np.zeros(
            (2, shape.count, shape.height, shape.width), np.float32
        )
        with pytest.raises(Exception):
            compiled.train_minibatch(images, [0, 1])

    def test_per_image_mode_has_no_deferred_update(self):
        net = tiny_avg_cnn()
        model = ReferenceModel(net, seed=0)
        compiled = compile_training(net, model, rows=2)  # minibatch 1
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            compiled.apply_update()


class TestExtendedTrainingScope:
    """Max-pool routing and strided-convolution BP on the engine."""

    def _check_step(self, net, seed=3, lr=(1, 100)):
        model = ReferenceModel(net, seed=seed)
        compiled = compile_training(net, model, rows=2, learning_rate=lr)
        image = random_image(net, 0)
        out, loss, report = compiled.train_step(image, 1)
        ref_out, _ = reference_step(model, image, 1, lr[0] / lr[1])
        np.testing.assert_allclose(out, ref_out, atol=1e-5)
        for name, state in model.state.items():
            if state.weights is None:
                continue
            got = compiled.read_weights(name)
            np.testing.assert_allclose(
                got.reshape(state.weights.shape), state.weights,
                atol=1e-4,
            )
        return report

    def test_max_pool_network_trains(self):
        """The original tiny_cnn — MAX pools — now trains end to end,
        errors routed to the recomputed argmax positions."""
        from repro.dnn.zoo import tiny_cnn

        report = self._check_step(tiny_cnn(num_classes=3, in_size=8))
        assert report.blocked_reads > 0

    def test_strided_conv_trains(self):
        """Strided-convolution BP via zero-insert dilation."""
        b = NetworkBuilder("strided")
        b.input(2, 11)
        b.conv(4, kernel=3, stride=2, name="conv1")
        b.conv(6, kernel=3, pad=1, name="conv2")
        b.fc(3, activation=Activation.SOFTMAX, name="fc")
        self._check_step(b.build())

    def test_stride_and_max_pool_combined(self):
        """AlexNet's front-end pattern: strided conv then max pool."""
        b = NetworkBuilder("alexish")
        b.input(3, 15)
        b.conv(4, kernel=5, stride=2, name="conv1")
        b.pool(2, name="pool1")  # MAX
        b.fc(4, activation=Activation.SOFTMAX, name="fc")
        self._check_step(b.build())

    def test_max_pool_training_learns(self):
        from repro.dnn.zoo import tiny_cnn

        net = tiny_cnn(num_classes=3, in_size=8)
        model = ReferenceModel(net, seed=1)
        compiled = compile_training(net, model, rows=2,
                                    learning_rate=(5, 100))
        image = random_image(net, 5)
        losses = [compiled.train_step(image, 2)[1] for _ in range(5)]
        assert losses[-1] < losses[0]

"""DAG code generation: branches, joins and gates on the engine."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.trackers import audit_trackers
from repro.dnn.builder import NetworkBuilder
from repro.dnn.layers import Activation, PoolMode
from repro.dnn.recurrent import unrolled_lstm, unrolled_rnn
from repro.dnn.zoo import lenet5, tiny_cnn
from repro.errors import MappingError
from repro.functional import ReferenceModel
from repro.functional.tensor_ops import conv_block_plan
from repro.sim.engine import Engine
from repro.telemetry import capture


def model_with_biases(net, seed=3):
    model = ReferenceModel(net, seed=seed)
    for st in model.state.values():
        if st.bias is not None:
            st.bias += np.linspace(-0.1, 0.1, st.bias.size).astype(
                np.float32
            )
    return model


def random_image(net, seed=0):
    shape = net.input.output_shape
    rng = np.random.default_rng(seed)
    return rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)


def mini_inception():
    b = NetworkBuilder("MiniInception")
    b.input(3, 12)
    trunk = b.conv(8, kernel=3, pad=1, name="stem")
    p1 = b.conv(4, kernel=1, name="b1x1", inputs=[trunk])
    r3 = b.conv(4, kernel=1, name="b3r", inputs=[trunk])
    p3 = b.conv(6, kernel=3, pad=1, name="b3x3", inputs=[r3])
    pool = b.pool(2, mode=PoolMode.AVG, name="bpool", inputs=[trunk])
    # The pool branch halves the extent; a stride-2 1x1 conv on the
    # other branches would be needed to concat — keep branches aligned.
    pp = b.conv(3, kernel=1, name="bpp", inputs=[pool])
    up = b.conv(3, kernel=3, pad=1, name="bpp2", inputs=[pp])
    cat = b.concat([p1, p3], name="inc_out")
    b.pool(2, mode=PoolMode.AVG, name="pool", inputs=[cat])
    b.fc(5, activation=Activation.SOFTMAX, name="head")
    return b.build()


def mini_resnet():
    b = NetworkBuilder("MiniResNet")
    b.input(3, 10)
    trunk = b.conv(6, kernel=3, pad=1, name="stem")
    c1 = b.conv(6, kernel=3, pad=1, name="rb_conv1", inputs=[trunk])
    c2 = b.conv(
        6, kernel=3, pad=1, activation=Activation.NONE, name="rb_conv2",
        inputs=[c1],
    )
    out = b.add([c2, trunk], name="rb_add")
    b.global_pool(name="gp", inputs=[out])
    b.fc(4, activation=Activation.SOFTMAX, name="head")
    return b.build()


def grouped_net():
    b = NetworkBuilder("grouped")
    b.input(4, 8)
    b.conv(6, kernel=3, pad=1, groups=2)
    b.fc(3, activation=Activation.SOFTMAX)
    return b.build()


def alexnet_grouped_block():
    b = NetworkBuilder("alexblock")
    b.input(4, 12)
    b.conv(8, kernel=3, pad=1, name="c1")
    b.conv(8, kernel=5, pad=2, groups=2, name="c2")
    b.global_pool()
    b.fc(4, activation=Activation.SOFTMAX)
    return b.build()


class TestDagMatchesGoldenModel:
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_inception_block(self, rows):
        net = mini_inception()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=rows)
        img = random_image(net)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-4)

    def test_residual_block(self):
        net = mini_resnet()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-4)

    def test_unrolled_rnn(self):
        """Slices, concats and tanh FC cells on the engine."""
        net = unrolled_rnn(input_size=5, hidden_size=7, timesteps=3,
                           num_classes=3)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net, seed=4)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-5)

    def test_unrolled_lstm(self):
        """The full LSTM cell — sigmoid/tanh gates, element-wise
        products, cell-state adds — as compiled ISA programs."""
        net = unrolled_lstm(input_size=4, hidden_size=6, timesteps=3,
                            num_classes=3)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net, seed=5)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-5)

    def test_sequential_networks_also_compile(self):
        """The DAG compiler subsumes the sequential case."""
        net = tiny_cnn(num_classes=4, in_size=8)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net, seed=6)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-4)


class TestCalibratedTrackers:
    def test_all_trackers_calibrated_exactly(self):
        """Placeholder trackers were rewritten to the exact statically
        counted accesses (re-audit is a fixed point)."""
        net = mini_inception()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        audit = audit_trackers(compiled.programs)
        assert audit["mismatches"] == 0
        assert audit["trackers"] > 10

    def test_multi_consumer_fanout_counts(self):
        """The trunk of the inception block feeds three consumers; its
        output tracker must absorb all of their reads (this is exactly
        the case hand bookkeeping gets wrong)."""
        from repro.isa.instructions import Opcode

        net = mini_inception()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        stem_trackers = [
            instr
            for prog in compiled.programs
            if prog.tile.startswith("stem@")
            for instr in prog
            if instr.opcode is Opcode.MEMTRACK
            and "stem outputs" in instr.comment
        ]
        assert stem_trackers
        # Three consuming layers stage the trunk (b1x1, b3r, bpool),
        # each from every one of its blocks.
        for tracker in stem_trackers:
            assert tracker.operand("num_reads") >= 3


def padded_pool_net(mode, activation=Activation.RELU, pad=1, window=3):
    b = NetworkBuilder(f"padpool-{mode.value}")
    b.input(3, 12)
    b.conv(8, kernel=3, pad=1, activation=activation)
    b.pool(window, stride=2, pad=pad, mode=mode)
    b.conv(6, kernel=3, pad=1)
    b.global_pool()
    b.fc(4, activation=Activation.SOFTMAX)
    return b.build()


class TestPaddedPooling:
    """Padded pools lower through a zero-preloaded staging plane; the
    zero border is exactly the reference's AVG fill, and stands in for
    the -inf MAX fill when the input is provably non-negative."""

    @pytest.mark.parametrize("mode", [PoolMode.AVG, PoolMode.MAX])
    def test_matches_reference(self, mode):
        net = padded_pool_net(mode)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model)
        image = random_image(net)
        out, _ = compiled.run(image)
        np.testing.assert_allclose(
            out, model.forward(image), rtol=0, atol=1e-5
        )

    @pytest.mark.parametrize("mode", [PoolMode.AVG, PoolMode.MAX])
    def test_fused_bit_identical(self, mode):
        net = padded_pool_net(mode)
        compiled = compile_dag_forward(net, model_with_biases(net))
        image = random_image(net)
        fused, _ = compiled.run(image, fused=True)
        plain, _ = compiled.run(image, fused=False)
        assert np.array_equal(fused, plain)

    def test_padded_avg_allowed_on_signed_input(self):
        """AVG needs no sign proof: zero borders are always correct."""
        net = padded_pool_net(PoolMode.AVG, activation=Activation.TANH)
        compiled = compile_dag_forward(net, model_with_biases(net))
        out, _ = compiled.run(random_image(net))
        assert np.all(np.isfinite(out))

    def test_padded_max_needs_nonnegative_input(self):
        """A zero border could win a MAX window over a signed input,
        so the legalizer demands a non-negativity proof."""
        net = padded_pool_net(PoolMode.MAX, activation=Activation.TANH)
        with pytest.raises(MappingError, match="non-negative"):
            compile_dag_forward(net, ReferenceModel(net))

    def test_pad_must_stay_below_window(self):
        """pad >= window would create all-border windows whose value
        the staging scheme cannot represent."""
        net = padded_pool_net(PoolMode.AVG, pad=3, window=3)
        with pytest.raises(MappingError, match="smaller"):
            compile_dag_forward(net, ReferenceModel(net))


class TestScope:
    def test_three_way_product_rejected(self):
        b = NetworkBuilder("triple")
        b.input(4, 1)
        a = b.fc(4, name="a")
        c = b.fc(4, name="c", inputs=["input"])
        d = b.fc(4, name="d", inputs=["input"])
        b.multiply([a, c, d])
        net = b.build()
        with pytest.raises(MappingError):
            compile_dag_forward(net, ReferenceModel(net))


class TestTableAndGroupedConvs:
    def test_lenet5_with_connection_table_on_engine(self):
        """LeNet-5 — including C3's classic connection table — compiled
        to ISA programs and executed end to end."""
        net = lenet5(num_classes=10)
        model = ReferenceModel(net, seed=1)
        compiled = compile_dag_forward(net, model, rows=2)
        img = np.random.default_rng(0).normal(
            0, 1, (1, 32, 32)
        ).astype(np.float32)
        want = model.forward(img)
        got, report = compiled.run(img)
        np.testing.assert_allclose(got, want, atol=1e-4)
        # The C3 table skips disconnected pairs: fewer NDCONVs than the
        # dense 6x16 product would need.
        from repro.isa.instructions import Opcode

        c3_convs = sum(
            1
            for prog in compiled.programs
            if prog.tile.startswith("c3@")
            for instr in prog
            if instr.opcode is Opcode.NDCONV
        )
        assert c3_convs == 60  # sum of table row lengths, not 96

    def test_grouped_conv_on_engine(self):
        net = grouped_net()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-4)

    def test_alexnet_style_grouped_block(self):
        """A grouped 5x5 stage like AlexNet's conv2 (two-GPU split)."""
        net = alexnet_grouped_block()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net, seed=8)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-4)


#: The DAG test nets.  Between them they hold every conv-block shape
#: tier 1 compiles: branches and concat, a residual add, both
#: grouped-conv nets, and LeNet-5, whose C3 connection table holds the
#: only ragged blocks.
DAG_NETS = {
    "mini_inception": mini_inception,
    "mini_resnet": mini_resnet,
    "grouped": grouped_net,
    "alexblock": alexnet_grouped_block,
    "lenet5": lambda: lenet5(num_classes=10),
    "padpool-avg": lambda: padded_pool_net(PoolMode.AVG),
    "padpool-max": lambda: padded_pool_net(PoolMode.MAX),
    "rnn": lambda: unrolled_rnn(
        input_size=5, hidden_size=7, timesteps=3, num_classes=3
    ),
    "lstm": lambda: unrolled_lstm(
        input_size=4, hidden_size=6, timesteps=3, num_classes=3
    ),
}


@pytest.fixture(scope="module", params=sorted(DAG_NETS))
def dag_case(request):
    net = DAG_NETS[request.param]()
    compiled = compile_dag_forward(net, model_with_biases(net))
    return request.param, net, compiled


class TestFusionIdentity:
    """Fused superop execution reproduces per-instruction execution bit
    for bit, on outputs and on the fusion-invariant report counts."""

    def test_fused_matches_unfused(self, dag_case):
        name, net, compiled = dag_case
        image = random_image(net, seed=11)
        fused, fused_report = compiled.run(image, fused=True)
        plain, plain_report = compiled.run(image, fused=False)
        assert np.array_equal(fused, plain), name
        assert fused_report.instructions == plain_report.instructions
        assert fused_report.busy_cycles == plain_report.busy_cycles

    def test_every_superop_decodes(self, dag_case):
        """No superop is refused at decode (a refusal silently runs the
        whole tile unfused), and each one executes as one fused span."""
        name, net, compiled = dag_case
        with capture() as tel:
            compiled.run(random_image(net))
        refused = [
            key for key in tel.counters.group("engine.fallback")
            if key.startswith("superop.")
        ]
        assert refused == [], name
        declared = sorted(
            sup.kind for prog in compiled.programs for sup in prog.superops
        )
        executed = sorted(
            event.name.split("[")[0][len("superop."):]
            for event in tel.events_in("engine.instr")
            if event.name.startswith("superop.")
        )
        assert declared and executed == declared, name

    def test_lenet5_holds_ragged_conv_blocks(self):
        """The ragged kernel path stays exercised: C3's table blocks."""
        net = lenet5(num_classes=10)
        compiled = compile_dag_forward(net, model_with_biases(net))
        shapes = set()
        for prog in compiled.programs:
            for sup in prog.superops:
                if sup.kind == "conv_block":
                    p = dict(sup.params)
                    plan = conv_block_plan(
                        p["steps"], p["k"], p["stride"], p["pad"],
                        (p["h"], p["w"]), p["n_features"],
                    )
                    shapes.add(plan.ragged is None)
        assert shapes == {True, False}

    def test_out_of_range_gather_is_refused(self):
        """A conv block whose gathers would leave the source tile is
        refused at decode and counted, never read out of bounds; its
        tile runs per instruction instead."""
        net = mini_resnet()
        compiled = compile_dag_forward(net, model_with_biases(net))
        image = random_image(net)
        want, _ = compiled.run(image, fused=False)
        last_word = compiled.chip.mem_tile.capacity_bytes // 4 - 1
        for prog in compiled.programs:
            superops = []
            for sup in prog.superops:
                if sup.kind == "conv_block":
                    params = dict(sup.params)
                    feats, planes, kernels = params["steps"][-1]
                    params["steps"] = params["steps"][:-1] + (
                        (feats, (last_word,) * len(planes), kernels),
                    )
                    sup = replace(sup, params=tuple(sorted(params.items())))
                superops.append(sup)
            prog.superops = tuple(superops)
        with capture() as tel:
            got, _ = compiled.run(image)
        assert np.array_equal(got, want)
        refused = tel.counters.group("engine.fallback")
        assert refused.get("superop.conv_block:SimulationError", 0) > 0


@st.composite
def pool_chains(draw):
    """A conv→pool chain whose pools have windows of 2 or 3 at strides
    1 to 3 — overlapping, tiling and gapped — in MAX or AVG mode, the
    first one sometimes straight on the image."""
    size = draw(st.integers(7, 11))
    b = NetworkBuilder("poolchain")
    b.input(draw(st.integers(2, 3)), size)
    for i in range(draw(st.integers(1, 2))):
        if i or draw(st.booleans()):
            kernel = draw(st.sampled_from([1, 3]))
            b.conv(
                draw(st.integers(2, 4)), kernel=kernel, pad=kernel // 2,
                activation=draw(
                    st.sampled_from([Activation.RELU, Activation.NONE])
                ),
            )
        window, stride = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
        b.pool(window, stride=stride, mode=draw(st.sampled_from(PoolMode)))
        size = (size - window) // stride + 1
        if size < 3:
            break
    b.fc(3, activation=Activation.SOFTMAX)
    return b.build()


def words_after(compiled, image, fused):
    """The output and a digest of every scratchpad and the external
    memory after one run of ``image`` on a fresh machine."""
    machine = compiled.build_machine()
    compiled.load_image(machine, image)
    engine = Engine(machine, fused=fused)
    engine.run()
    memories = [mem.words for mem in machine.mem_tiles] + [engine.external]
    return compiled.read_output(machine).tobytes(), [
        hashlib.sha256(words).hexdigest() for words in memories
    ]


class TestPoolRuns:
    """Fused ``pool_run`` superops leave every word where per-instruction
    NDSUBSAMPs leave it, ties and signed zeros included."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(net=pool_chains(), seed=st.integers(0, 2**16))
    def test_fused_words_match_unfused(self, net, seed):
        rng = np.random.default_rng(seed)
        model = ReferenceModel(net, seed=seed % 97)
        # Half-integer weights over an integer image: windows hold ties.
        for state in model.state.values():
            for values in (state.weights, state.bias):
                if values is not None:
                    values[...] = np.round(values * 2) / 2
        compiled = compile_dag_forward(net, model, rows=1)
        shape = net.input.output_shape
        image = rng.integers(
            -2, 3, (shape.count, shape.height, shape.width)
        ).astype(np.float32)
        zeros = image == 0
        image[zeros] = np.copysign(0.0, rng.normal(0, 1, zeros.sum()))
        with capture() as tel:
            fused = words_after(compiled, image, fused=True)
        assert fused == words_after(compiled, image, fused=False)
        assert not any(
            key.startswith("superop.")
            for key in tel.counters.group("engine.fallback")
        )
        assert any(
            event.name.startswith("superop.pool_run")
            for event in tel.events_in("engine.instr")
        )

    @pytest.mark.parametrize("fault", ["outside-memory", "window-too-wide"])
    def test_bad_group_is_refused(self, fault):
        """A pool group outside its memory, or whose window does not
        fit its plane, is refused at decode and counted, never read;
        its tile runs per instruction instead."""
        net = padded_pool_net(PoolMode.MAX, pad=0, window=2)
        compiled = compile_dag_forward(net, model_with_biases(net), rows=1)
        image = random_image(net)
        want = words_after(compiled, image, fused=False)
        last_word = compiled.chip.mem_tile.capacity_bytes // 4 - 1
        tampered = 0
        for prog in compiled.programs:
            superops = []
            for sup in prog.superops:
                if sup.kind == "pool_run" and not tampered:
                    params = dict(sup.params)
                    group = list(params["groups"][-1])
                    if fault == "outside-memory":
                        group[1] = last_word  # in_addr
                    else:
                        group[5] = group[3] + 1  # window: one past h
                    params["groups"] = params["groups"][:-1] + (tuple(group),)
                    sup = replace(sup, params=tuple(sorted(params.items())))
                    tampered += 1
                superops.append(sup)
            prog.superops = tuple(superops)
        assert tampered == 1
        with capture() as tel:
            assert words_after(compiled, image, fused=True) == want
        refused = tel.counters.group("engine.fallback")
        assert refused.get("superop.pool_run:SimulationError") == 1


class TestPersistentFusedRunner:
    @pytest.mark.parametrize("build", [mini_inception, mini_resnet])
    def test_stream_matches_fresh_unfused_runs(self, build):
        """Weights stay resident and per-image state is overwritten:
        every streamed image matches a fresh per-instruction run."""
        net = build()
        compiled = compile_dag_forward(net, model_with_biases(net))
        runner = compiled.runner()
        for seed in range(4):
            image = random_image(net, seed=seed)
            got, _ = runner(image)
            want, _ = compiled.run(image, fused=False)
            assert np.array_equal(got, want), (net.name, seed)
        assert runner.images_run == 4

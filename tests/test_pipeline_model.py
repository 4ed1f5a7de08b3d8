"""One pipeline model: the stage times of one copy's nested pipeline
(Fig 10, Sec 3.2.3) set the rate's bottleneck, the beat, the fill, the
Fig 10 schedule, serving latency and the chaos fault sites.

Three layers of checks:

* properties of :class:`repro.sim.perf.Pipeline` over generated
  stage lists — the closed form ``fill + (n - 1) * beat`` is the
  :func:`repro.sim.timeline.schedule` recurrence, and a tenant's batch
  latency is the recurrence over one copy's share of the batch;
* every zoo net on the SP and HP nodes — the model agrees with the rate
  ``simulate`` reports;
* the chaos sampler's observable tile-slow columns are exactly the
  columns where a slow fault lowers the evaluation rate.
"""

import math
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import half_precision_node, single_precision_node
from repro.arch.chip import ChipKind
from repro.compiler.pipeline import compile_network
from repro.dnn import zoo
from repro.dnn.analysis import Step
from repro.faults.model import (
    Fault,
    FaultKind,
    FaultMask,
    FaultSpec,
    conv_column_site,
    fc_column_site,
)
from repro.serve.failures import _observable_slow_columns
from repro.serve.placement import Tenant, place_networks
from repro.sim.perf import Pipeline, evaluation_pipeline, simulate
from repro.sim.timeline import nested_pipeline, pipeline_stages, schedule

#: The fields of a ``StageReport`` the pipeline model reads.
Stage = namedtuple("Stage", "unit step chip cycles")

NODES = {"SP": single_precision_node(), "HP": half_precision_node()}


@st.composite
def stage_lists(draw):
    """Report-ordered stages of a random mapping: conv units then FC
    units, each with FP (and, for training, BP and WG) stages.  Integer
    cycles and power-of-two hub loads keep every sum exact."""
    training = draw(st.booleans())
    steps = tuple(Step) if training else (Step.FP,)
    stages = []
    for unit in range(draw(st.integers(1, 6))):
        chip = draw(st.sampled_from([ChipKind.CONV, ChipKind.FC]))
        for step in steps:
            stages.append(Stage(
                f"u{unit}", step, chip.value, float(draw(st.integers(1, 50)))
            ))
    return stages, draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(stage_lists(), st.integers(1, 12))
    def test_schedule_makespan_is_fill_plus_beats(self, drawn, images):
        stages, hub_load = drawn
        pipeline = Pipeline(stages, hub_load)
        timeline = schedule(pipeline_stages(pipeline), images)
        assert timeline.makespan == (
            pipeline.fill + (images - 1) * pipeline.beat
        )
        assert timeline.fill_latency == pipeline.fill
        if images >= 2:
            assert timeline.initiation_interval == pipeline.beat

    @settings(max_examples=200, deadline=None)
    @given(stage_lists())
    def test_beat_fill_and_bottleneck(self, drawn):
        stages, hub_load = drawn
        pipeline = Pipeline(stages, hub_load)
        assert pipeline.beat == max(pipeline.times)
        assert pipeline.fill == sum(pipeline.times)
        # The first stage in report order with the largest time, as the
        # rate's min over stages takes it.
        first = next(
            s for s in stages if pipeline.time(s) == pipeline.beat
        )
        assert pipeline.bottleneck is first
        units = {s.unit for s in stages}
        training = any(s.step is not Step.FP for s in stages)
        assert len(pipeline.stages) == (2 if training else 1) * len(units)

    @settings(max_examples=200, deadline=None)
    @given(
        stage_lists(),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 16.0]),
        st.integers(1, 40),
    )
    def test_batch_latency_is_the_recurrence_on_one_copy(
        self, drawn, copies, batch
    ):
        stages, hub_load = drawn
        pipeline = Pipeline(stages, hub_load)
        tenant = Tenant(
            network="net", clusters=1, share=1.0, rate_qps=1.0,
            copies=copies, fill_s=pipeline.fill / 1e9,
            beat_s=pipeline.beat / 1e9, weight=1.0,
        )
        per_copy = math.ceil(batch / copies)
        makespan = schedule(pipeline_stages(pipeline), per_copy).makespan
        assert tenant.batch_latency_s(batch) == pytest.approx(
            makespan / 1e9, rel=1e-12
        )


@pytest.fixture(scope="module")
def zoo_results():
    return {
        (name, tag): simulate(zoo.load(name), node)
        for name in zoo.available()
        for tag, node in NODES.items()
    }


class TestZooPipelines:
    def test_bottleneck_is_the_limiting_stage(self, zoo_results):
        """The rate rule the pipeline model replaced, kept as an oracle:
        the minimum over every stage of ``servers * f / cycles`` (first
        on a tie), where a ConvLayer stage's servers are the copies and
        an FcLayer hub stage's the hubs."""
        for (name, tag), result in zoo_results.items():
            mapping = result.mapping
            node = mapping.node
            rates = [
                (
                    (node.cluster_count if s.chip == ChipKind.FC.value
                     else mapping.copies) * node.frequency_hz / s.cycles,
                    s,
                )
                for s in result.stages
            ]
            rate, limiting = min(rates, key=lambda r: r[0])
            assert result.bottleneck is limiting, (name, tag)
            drain = 1.0 + len(result.training_pipeline.stages) / (
                result.minibatch
            )
            assert result.training_images_per_s == rate / drain, (name, tag)

    def test_beat_sets_the_steady_rate(self, zoo_results):
        for (name, tag), result in zoo_results.items():
            copies = result.mapping.copies
            freq = result.mapping.node.frequency_hz
            train = result.training_pipeline
            drain = 1.0 + len(train.stages) / result.minibatch
            assert copies * freq / train.beat / drain == pytest.approx(
                result.training_images_per_s, rel=1e-12
            ), (name, tag)
            assert copies * freq / result.evaluation_beat == (
                pytest.approx(result.evaluation_images_per_s, rel=1e-12)
            ), (name, tag)
            evaluation = evaluation_pipeline(result.mapping)
            assert (evaluation.fill, evaluation.beat) == (
                result.evaluation_fill, result.evaluation_beat
            )

    def test_fig10_interval_is_the_training_beat(self, zoo_results):
        for (name, tag), result in zoo_results.items():
            timeline = nested_pipeline(result.training_pipeline, images=3)
            assert timeline.initiation_interval == pytest.approx(
                result.training_pipeline.beat, rel=1e-12
            ), (name, tag)

    def test_batch_latency_grows_from_the_fill(self, zoo_results):
        for (name, tag), result in zoo_results.items():
            node = NODES[tag]
            (tenant,) = place_networks(
                [zoo.load(name)], node, results=[result]
            ).tenants
            latencies = [tenant.batch_latency_s(b) for b in range(1, 65)]
            assert latencies[0] == tenant.fill_s, (name, tag)
            assert all(
                a <= b for a, b in zip(latencies, latencies[1:])
            ), (name, tag)


def _slow_column(node, domain, column, factor=0.5):
    """A mask with one tile-slow column at ``factor`` of its speed."""
    cluster = node.cluster
    if domain == "conv":
        site = conv_column_site(
            cluster.conv_chip.cols, cluster.conv_chip_count, column
        )
    else:
        site = fc_column_site(cluster.fc_chip.cols, column)
    slow = ((column, factor),)
    return FaultMask(
        spec=FaultSpec(
            rate=0.0, kinds=(FaultKind.TILE_SLOW,), slow_factor=factor
        ),
        faults=(Fault(FaultKind.TILE_SLOW, site, factor),),
        conv_chip_cols=cluster.conv_chip.cols,
        fc_chip_cols=cluster.fc_chip.cols,
        slow_conv_columns=slow if domain == "conv" else (),
        slow_fc_columns=slow if domain == "fc" else (),
    )


class TestObservableSlowColumns:
    """The chaos sampler draws tile-slow faults only where the serving
    model can see them.  Before the sampler read the evaluation
    pipeline it marked AlexNet's conv columns 0-2 (which never pace
    it) and left out its FC hub columns 0-6 (which do)."""

    @pytest.mark.parametrize("name", ["AlexNet", "GoogLeNet", "ResNet18"])
    def test_observable_exactly_when_the_rate_drops(self, name):
        node = single_precision_node()
        net = zoo.load(name)
        healthy = simulate(net, node)
        mapping = healthy.mapping
        observable = dict(zip(
            ("conv", "fc"), _observable_slow_columns([healthy], 0.5)
        ))
        widths = {
            "conv": mapping.conv_columns_per_copy,
            "fc": sum(a.columns for a in mapping.fc_allocations.values()),
        }
        for domain, width in widths.items():
            for column in range(width):
                slowed = compile_network(
                    net, node, faults=_slow_column(node, domain, column)
                ).mapping
                rate = simulate(
                    net, node, mapping=slowed
                ).evaluation_images_per_s
                lowers = rate < healthy.evaluation_images_per_s
                assert lowers == (column in observable[domain]), (
                    domain, column, rate / healthy.evaluation_images_per_s
                )

"""Visualise the nested pipeline of Fig 10 for a mapped network.

Schedules a stream of images through AlexNet's inter-layer pipeline
(FP stages forward, BP+WG stages in reverse) and prints the ASCII
Gantt chart, the fill latency, the steady-state initiation interval
and the pipeline speedup over serial execution.

Run:  python examples/pipeline_timeline.py [network] [images]
"""

import sys

from repro import simulate, single_precision_node, zoo
from repro.sim.timeline import nested_pipeline


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "AlexNet"
    images = int(sys.argv[2]) if len(sys.argv) > 2 else 6

    result = simulate(zoo.load(name), single_precision_node())
    timeline = nested_pipeline(result.training_pipeline, images=images)

    print(timeline.render(width=72))
    print()
    bottleneck = result.bottleneck
    print(f"fill latency:        {timeline.fill_latency:,.0f} cycles")
    print(
        f"initiation interval: {timeline.initiation_interval:,.0f} cycles "
        f"(bottleneck stage {bottleneck.unit}/{bottleneck.step.value})"
    )
    print(f"pipeline speedup:    {timeline.speedup_vs_serial():.1f}x "
          f"over serial execution")
    busiest = max(
        range(len(timeline.stages)), key=timeline.occupancy
    )
    print(
        f"busiest stage:       {timeline.stages[busiest].name} "
        f"({timeline.occupancy(busiest):.0%} occupied)"
    )


if __name__ == "__main__":
    main()

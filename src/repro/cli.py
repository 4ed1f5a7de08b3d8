"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``list`` — the benchmark zoo with Fig 15 statistics;
* ``analyze NET`` — workload analysis (Fig 4/5 style);
* ``map NET`` — the compiler's column allocation (Fig 13 / STEP1-6);
* ``lower NET`` — compile to the unified IR through the verified pass
  pipeline and dump it (``--json`` for the full serialised form,
  ``--phase fp|bp|wg`` to restrict to one phase);
* ``simulate NET`` — throughput / utilization / power (Figs 16/20/21);
* ``energy NET`` — per-image energy and ImageNet-epoch cost;
* ``compare-gpu NET`` — speedup over the TitanX stacks (Fig 18);
* ``stages NET`` — per-stage pipeline latencies and binding subsystem;
* ``report NET`` — the full simulation report (mapping, throughput,
  pipeline, links, power, energy, gradient sync);
* ``trace NET`` — record a telemetry capture and write a Chrome
  trace-event JSON (open in Perfetto / ``chrome://tracing``);
* ``profile NET`` — per-tile busy/stalled/blocked cycle accounting and
  the counter registry;
* ``sweep [NET...]`` — fan (network x preset x minibatch) jobs across
  worker processes with content-keyed compile caching; writes JSON
  (and optionally CSV) results;
* ``faults NET`` — inject a deterministic fault mask and report
  baseline vs degraded throughput / energy after remapping;
* ``serve NET[,NET...]`` — datacenter inference serving simulation:
  seeded open-loop arrivals drive dynamic batchers over a multi-tenant
  placement; reports p50/p95/p99 latency, sustained QPS and shed rate
  (``--curve`` sweeps offered load into the latency–throughput curve,
  ``--json/--out/--csv/--html`` export it);
* ``export DIR`` — write every figure's data series as CSV.

Network names are resolved case-insensitively with shorthand aliases
(``alexnet``, ``tiny``); unknown names exit with status 2 and a hint.
Exit codes: 0 on success, 1 for domain failures (:class:`ReproError`
— unmappable networks, partitioned topologies, failed sweep jobs), 2
for usage errors (unknown names, malformed specs).  No public failure
path surfaces a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.arch import half_precision_node, single_precision_node
from repro.baselines.gpu import GpuFramework, all_framework_rates
from repro.bench import Table, fmt_count
from repro.compiler import compile_network
from repro.dnn import zoo
from repro.dnn.analysis import (
    Kernel,
    LayerClass,
    evaluation_flops,
    kernel_summary,
    layer_class_summary,
    training_flops,
)
from repro.errors import ReproError
from repro.sim import simulate
from repro.sim.energy import energy_report


def _node(args: argparse.Namespace):
    return half_precision_node() if args.hp else single_precision_node()


def _load(name: str):
    try:
        return zoo.load(name)
    except KeyError:
        choices = ", ".join(zoo.available())
        print(
            f"repro: unknown network {name!r} (choose from: {choices})",
            file=sys.stderr,
        )
        raise SystemExit(2)


def cmd_list(args: argparse.Namespace) -> None:
    table = Table(
        "Benchmark zoo (paper Fig 15)",
        ["network", "neurons", "weights", "connections", "GFLOPs/eval"],
    )
    for name in zoo.BENCHMARKS:
        net = zoo.load(name)
        table.add(
            name,
            fmt_count(net.neuron_count),
            fmt_count(net.weight_count),
            fmt_count(net.connection_count),
            f"{evaluation_flops(net) / 1e9:.2f}",
        )
    table.show()


def cmd_analyze(args: argparse.Namespace) -> None:
    net = _load(args.network)
    print(net.describe())
    print(
        f"\n{evaluation_flops(net) / 1e9:.2f} GFLOPs/evaluation, "
        f"{training_flops(net) / 1e9:.2f} GFLOPs/training iteration"
    )
    classes = layer_class_summary(net)
    total = sum(s.flops_total for s in classes.values()) or 1
    table = Table("Layer classes (Fig 4 style)",
                  ["class", "layers", "FLOPs %", "B/F"])
    for cls in LayerClass:
        if cls in classes:
            s = classes[cls]
            table.add(cls.value, len(s.layers),
                      f"{100 * s.flops_total / total:.1f}",
                      f"{s.bytes_per_flop_fp_bp:.4f}")
    table.show()
    kernels = kernel_summary([net])
    table = Table("Kernels (Fig 5 style)", ["kernel", "FLOPs %", "B/F"])
    for kernel in Kernel:
        frac, bf = kernels[kernel]
        table.add(kernel.value, f"{100 * frac:.2f}", f"{bf:.3f}")
    table.show()


def cmd_map(args: argparse.Namespace) -> None:
    net = _load(args.network)
    compiled = compile_network(net, _node(args))
    print(compiled.mapping.describe())


def cmd_lower(args: argparse.Namespace) -> None:
    from repro.compiler.ir import Phase

    net = _load(args.network)
    compiled = compile_network(net, _node(args))
    ir = compiled.ir
    if args.phase:
        ir = ir.filtered(Phase.parse(args.phase))
    if args.json:
        print(ir.to_json(indent=2))
        return
    phase = f", phase {args.phase}" if args.phase else ""
    print(
        f"lowered {net.name} on {compiled.node.name} to "
        f"{ir.level}-level IR (schema {ir.schema_version}{phase})"
    )
    table = Table("IR statistics", ["metric", "value"])
    for metric, value in ir.stats().items():
        table.add(metric, f"{value:,}")
    table.show()
    print("passes:")
    for stats in compiled.pass_stats:
        print(f"  {stats.describe()}")


def cmd_simulate(args: argparse.Namespace) -> None:
    net = _load(args.network)
    node = _node(args)
    result = simulate(net, node, minibatch=args.minibatch)
    print(result.mapping.describe())
    print()
    print(result.describe())
    print("\nLink utilization:")
    for link, value in result.link_utilization.as_dict().items():
        print(f"  {link:<10} {value:.2f}")
    if args.nodes != 1 or args.strategy != "data":
        from repro.arch.system import make_system
        from repro.sim.perf import simulate_system
        from repro.sim.tco import tco_report

        system = make_system(node, args.nodes, args.strategy)
        sysres = simulate_system(
            net, system, minibatch=args.minibatch, node_result=result
        )
        print()
        print(system.describe())
        print(sysres.describe())
        print(tco_report(sysres).describe())


def cmd_energy(args: argparse.Namespace) -> None:
    net = _load(args.network)
    node = _node(args)
    result = simulate(net, node)
    print(energy_report(result).describe())
    if args.nodes != 1 or args.strategy != "data":
        from repro.arch.system import make_system
        from repro.sim.energy import system_energy_report
        from repro.sim.perf import simulate_system

        system = make_system(node, args.nodes, args.strategy)
        sysres = simulate_system(net, system, node_result=result)
        print(system_energy_report(sysres).describe())


def cmd_compare_gpu(args: argparse.Namespace) -> None:
    net = _load(args.network)
    node = _node(args)
    result = simulate(net, node)
    cluster_rate = result.training_images_per_s / node.cluster_count
    table = Table(
        f"ScaleDeep chip cluster vs TitanX on {net.name} (training)",
        ["stack", "GPU img/s", "cluster img/s", "speedup"],
    )
    for fw, rate in all_framework_rates(net).items():
        table.add(fw.value, f"{rate:,.0f}", f"{cluster_rate:,.0f}",
                  f"{cluster_rate / rate:.1f}x")
    table.show()


def cmd_stages(args: argparse.Namespace) -> None:
    net = _load(args.network)
    result = simulate(net, _node(args))
    table = Table(
        f"Pipeline stages of {net.name} (training)",
        ["unit", "step", "chip", "cols", "cycles", "bound by",
         "achieved util"],
    )
    for stage in sorted(result.stages, key=lambda s: -s.cycles):
        table.add(
            stage.unit, stage.step.value, stage.chip,
            stage.cost.columns, f"{stage.cycles:,.0f}",
            stage.cost.bound_by,
            f"{stage.cost.utilization.achieved:.2f}",
        )
    table.show()
    b = result.bottleneck
    print(
        f"\nbottleneck: {b.unit}/{b.step.value} "
        f"({b.cost.bound_by}, {b.cycles:,.0f} cycles)"
    )


def cmd_report(args: argparse.Namespace) -> None:
    from repro.sim.report import full_report

    net = _load(args.network)
    print(full_report(net, _node(args)).render())


def _engine_forward(net):
    """Compile ``net``'s forward pass for the functional engine and run
    one random image through it (telemetry flows to the active handle).

    Compilation routes through the content-keyed compile cache, so a
    second trace/profile of the same network skips codegen; ``run``
    builds a fresh machine each time, so the artifact is reusable.
    Uses the DAG scheduler — the path the validation harness vouches
    for, which also covers connection-table networks (LeNet-5) that the
    linear schedule cannot run."""
    import numpy as np

    from repro.sweep.cache import cached_dag_forward_codegen

    compiled = cached_dag_forward_codegen(net, seed=0)
    shape = net.input.output_shape
    rng = np.random.default_rng(0)
    image = rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)
    return compiled.run(image)


#: Above this weight count the functional engine runs a network's
#: registered proxy (same topology, rescaled channels) instead of the
#: full-size model.  Canonically defined beside the validation harness,
#: which shares it.
from repro.dnn.zoo.engine_proxies import engine_scale as _engine_scale
from repro.sim.validation import ENGINE_WEIGHT_LIMIT as _ENGINE_WEIGHT_LIMIT


def cmd_trace(args: argparse.Namespace) -> None:
    from repro.errors import ReproError
    from repro.telemetry import capture, summarize, write_chrome_trace

    net = _load(args.network)
    tel = None
    run_net, proxy_note = _engine_scale(net, _ENGINE_WEIGHT_LIMIT)
    if run_net is not None:
        with capture() as attempt:
            try:
                _, report = _engine_forward(run_net)
                source = f"functional engine: {report.describe()}"
                if proxy_note:
                    source += f" [{proxy_note}]"
                tel = attempt
            except ReproError:
                pass  # engine scope excludes this network; fall back
    if tel is None:
        # Engine scope excludes this network: trace the analytical
        # pipeline (stage spans + mapping decisions) instead.
        with capture() as tel:
            result = simulate(net, _node(args))
        source = f"analytical model: {result.describe()}"
    path = write_chrome_trace(tel, args.out)
    print(f"traced {net.name} [{source}]")
    print(f"{summarize(tel)}")
    print(f"wrote Chrome trace to {path}")


def cmd_profile(args: argparse.Namespace) -> None:
    from repro.errors import ReproError
    from repro.telemetry import (
        analytical_tile_profile,
        capture,
        counter_table,
        engine_tile_profile,
        profile_table,
        write_counters_csv,
    )

    net = _load(args.network)
    run_net, proxy_note = _engine_scale(net, _ENGINE_WEIGHT_LIMIT)
    with capture() as tel:
        result = simulate(net, _node(args))
        engine_report = None
        if run_net is not None:
            try:
                _, engine_report = _engine_forward(run_net)
            except ReproError:
                pass  # engine scope excludes this network

    beat = result.bottleneck.cycles
    rows = analytical_tile_profile(result)
    profile_table(
        rows, f"Per-tile-group cycles of {net.name} (one pipeline beat)"
    ).show()
    busy_total = sum(r.busy_cycles for r in rows)
    print(
        f"\npipeline beat {beat:,.0f} cycles "
        f"({len(rows)} tile groups, {busy_total:,.0f} busy cycles/beat); "
        f"train {result.training_images_per_s:,.0f} img/s, "
        f"eval {result.evaluation_images_per_s:,.0f} img/s"
    )
    if engine_report is not None:
        print(f"\nfunctional engine: {engine_report.describe()}")
        if proxy_note:
            print(f"  ({proxy_note})")
        profile_table(
            engine_tile_profile(tel),
            f"Engine per-tile cycles ({run_net.name}, one image)",
        ).show()
    if args.counters:
        counter_table(tel, f"Telemetry counters for {net.name}").show()
    if args.csv:
        print(f"wrote counters to {write_counters_csv(tel, args.csv)}")


def cmd_stats(args: argparse.Namespace) -> None:
    import json

    from repro.bench.baselines import (
        compare_to_baseline,
        write_baseline_file,
    )
    from repro.bench.dashboard import write_stats_html
    from repro.bench.stats import collect_stats
    from repro.telemetry import attribution_table, percentile_table

    net = _load(args.network)
    report = collect_stats(net, _node(args), args.minibatch)
    snapshot = report.snapshot()

    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        percentile_table(
            report.metrics,
            f"Metric distributions of {net.name} "
            f"(cycles / bytes per observation)",
        ).show()
        print()
        attribution_table(
            report.attributions(),
            f"Bottleneck attribution of {net.name} (both simulators)",
        ).show()
        print(f"\n{report.result.describe()}")
        if report.engine_ran:
            print("functional engine: profiled alongside")
            if report.engine_note:
                print(f"  ({report.engine_note})")
        else:
            print(f"functional engine: skipped ({report.engine_skipped})")
        print(f"fingerprint: {report.fingerprint}")

    if args.html:
        print(f"wrote dashboard to {write_stats_html(report, args.html)}")
    if args.baseline:
        path = write_baseline_file(snapshot, args.baseline)
        print(
            f"recorded baseline entry {report.fingerprint[:12]} in {path}"
        )
    if args.compare:
        comparison = compare_to_baseline(snapshot, args.compare)
        print(comparison.describe())
        if not comparison.ok:
            raise SystemExit(2)


def _fault_spec(args: argparse.Namespace):
    """Build a :class:`FaultSpec` from CLI flags; malformed specs are
    usage errors (exit 2)."""
    from repro.errors import ConfigError
    from repro.faults import ALL_KINDS, FaultSpec, parse_kinds

    try:
        kind = args.kind.strip()
        kinds = ALL_KINDS if kind == "all" else parse_kinds(kind)
        return FaultSpec(
            rate=args.rate, seed=args.seed, kinds=kinds,
            slow_factor=args.slow_factor,
        )
    except ConfigError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_faults(args: argparse.Namespace) -> None:
    from repro.sweep.cache import CompileCache, cached_simulation, set_cache

    net = _load(args.network)
    node = _node(args)
    spec = _fault_spec(args)
    if args.cache_dir:
        set_cache(CompileCache(args.cache_dir))

    # Both runs route through the content-keyed cache: the fault spec is
    # folded into the fingerprint digest, so baseline and degraded
    # artifacts never collide and reruns are byte-identical.
    baseline = cached_simulation(net, node, args.minibatch)
    degraded = cached_simulation(net, node, args.minibatch, faults=spec)

    mask = degraded.mapping.faults
    print(f"fault what-if: {net.name} on {node.name}")
    if mask is not None:
        print(mask.describe())
    if degraded.mapping.degraded:
        print(
            f"remapped {degraded.mapping.remapped_columns} column(s) "
            f"around faulty tiles"
        )
    print()

    base_energy = energy_report(baseline)
    hurt_energy = energy_report(degraded)
    table = Table(
        f"Baseline vs degraded ({spec.describe()})",
        ["metric", "baseline", "degraded", "ratio"],
    )

    def row(label: str, b: float, d: float, fmt: str) -> None:
        ratio = d / b if b else 0.0
        table.add(label, fmt.format(b), fmt.format(d), f"{ratio:.3f}x")

    row("train img/s", baseline.training_images_per_s,
        degraded.training_images_per_s, "{:,.0f}")
    row("eval img/s", baseline.evaluation_images_per_s,
        degraded.evaluation_images_per_s, "{:,.0f}")
    row("PE utilization", baseline.pe_utilization,
        degraded.pe_utilization, "{:.3f}")
    row("achieved TFLOPs", baseline.achieved_tflops,
        degraded.achieved_tflops, "{:.2f}")
    row("total power W", baseline.average_power.total_w,
        degraded.average_power.total_w, "{:,.1f}")
    row("mJ/training image",
        base_energy.joules_per_training_image * 1e3,
        hurt_energy.joules_per_training_image * 1e3, "{:.1f}")
    row("mJ/evaluation",
        base_energy.joules_per_evaluation_image * 1e3,
        hurt_energy.joules_per_evaluation_image * 1e3, "{:.2f}")
    table.show()


def cmd_validate(args: argparse.Namespace) -> None:
    import json as json_mod

    from repro.bench.export import write_validation_json
    from repro.sim.validation import MIN_RANK_AGREEMENT, validate_zoo

    if args.rows < 1:
        print(
            f"repro: --rows must be >= 1, got {args.rows}", file=sys.stderr
        )
        raise SystemExit(2)
    names = None
    if args.networks:
        from repro.sim.validation import VALIDATION_VARIANTS

        names = []
        for name in args.networks:
            if name in VALIDATION_VARIANTS:
                names.append(name)
                continue
            try:
                names.append(zoo.resolve(name))
            except KeyError:
                choices = ", ".join(
                    list(zoo.available()) + sorted(VALIDATION_VARIANTS)
                )
                print(
                    f"repro: unknown network {name!r} "
                    f"(choose from: {choices})",
                    file=sys.stderr,
                )
                raise SystemExit(2)

    report = validate_zoo(
        names=names,
        rows=args.rows,
        seed=args.seed,
        min_rank_agreement=(
            args.min_rank if args.min_rank is not None
            else MIN_RANK_AGREEMENT
        ),
        speedup=not args.no_speedup,
    )

    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        table = Table(
            "Differential validation: engine vs analytical vs reference",
            ["network", "status", "engine cyc", "fused cyc",
             "analytical cyc", "ratio", "band", "max |err|"],
        )
        for r in report.rows:
            if r.status == "ok":
                table.add(
                    r.network, r.status, f"{r.engine_cycles:,}",
                    f"{r.fused_cycles:,}",
                    f"{r.analytical_cycles:,.0f}", f"{r.ratio:.3f}",
                    r.band.describe(), f"{r.max_abs_error:.1e}",
                )
            else:
                table.add(
                    r.network, r.status, "-", "-", "-", "-", "-", "-"
                )
        table.show()
        proxied = [
            r for r in report.rows if r.status == "ok" and r.reason
        ]
        if proxied:
            print(f"{len(proxied)} network(s) ran as engine proxies:")
            for r in proxied:
                print(f"  {r.network}: {r.reason}")
        skipped = [r for r in report.rows if r.status != "ok"]
        if skipped:
            print(f"{len(skipped)} network(s) beyond engine scope:")
            for r in skipped:
                print(f"  {r.network}: {r.reason}")
        print(
            f"rank agreement {report.rank:.2f} "
            f"(threshold {report.min_rank_agreement:.2f})"
        )
        if report.speedup is not None:
            print(f"speedup: {report.speedup.describe()}")

    if args.out:
        path = write_validation_json(report, args.out)
        if not args.json:
            print(f"wrote {path}")

    # Gate last, so the artifact exists even on failure (CI uploads it).
    report.raise_on_failure()
    if not args.json:
        print("validation gate passed")


def cmd_sweep(args: argparse.Namespace) -> None:
    from repro.bench.export import write_sweep_csv, write_sweep_json
    from repro.errors import ConfigError, SweepError
    from repro.faults import FaultSpec, parse_kinds
    from repro.sweep import (
        CompileCache,
        expand_jobs,
        get_cache,
        run_sweep,
        set_cache,
    )

    if args.cache_dir:
        set_cache(CompileCache(args.cache_dir))
    if args.clear_cache:
        removed = get_cache().clear()
        print(f"cleared {removed} cached artifacts")
        if not args.networks:
            return  # clear-only invocation: don't launch the full suite

    try:
        faults = None
        if args.fault_rate is not None:
            faults = FaultSpec(
                rate=args.fault_rate, seed=args.fault_seed,
                kinds=parse_kinds(args.fault_kind),
            )
        jobs = expand_jobs(
            networks=args.networks or None,
            presets=args.presets.split(","),
            minibatches=args.minibatch or None,
            faults=faults,
            nodes=[int(n) for n in str(args.nodes).split(",")],
            strategies=args.strategy.split(","),
        )
    except (KeyError, ValueError, ConfigError, SweepError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: {message}", file=sys.stderr)
        raise SystemExit(2)

    report = run_sweep(
        jobs,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        retries=args.retries,
        fail_fast=args.fail_fast,
    )

    scaled_out = any(
        r.nodes != 1 or r.strategy != "data/ring" for r in report.results
    )
    if scaled_out:
        table = Table(
            "Sweep results",
            ["network", "preset", "mb", "nodes", "strategy",
             "sys train img/s", "efficiency", "$/run", "$/1M inf"],
        )
        for r in report.results:
            table.add(
                r.network, r.preset, r.minibatch, r.nodes, r.strategy,
                f"{r.system_train_images_per_s:,.0f}",
                f"{r.scaling_efficiency:.0%}",
                f"{r.dollars_per_training_run:,.2f}",
                "FAILED" if r.failed
                else f"{r.dollars_per_1m_inferences:,.2f}",
            )
    else:
        table = Table(
            "Sweep results",
            ["network", "preset", "mb", "train img/s", "eval img/s",
             "PE util", "GFLOPs/W", "bound by"],
        )
        for r in report.results:
            table.add(
                r.network, r.preset, r.minibatch,
                f"{r.train_images_per_s:,.0f}",
                f"{r.eval_images_per_s:,.0f}",
                f"{r.pe_utilization:.2f}",
                f"{r.gflops_per_watt:.0f}",
                "FAILED" if r.failed else r.bound_by,
            )
    table.show()
    print(report.describe())
    print(f"wrote {write_sweep_json(report.results, args.out)}")
    if args.csv:
        print(f"wrote {write_sweep_csv(report.results, args.csv)}")
    if args.html:
        from repro.bench.dashboard import write_sweep_html

        print(f"wrote {write_sweep_html(report.results, args.html)}")
    if report.failures:
        for r in report.failures:
            print(
                f"repro: job {r.network}/{r.preset}/mb{r.minibatch} "
                f"failed:\n{r.error}",
                file=sys.stderr,
            )
        raise SystemExit(1)


def _serve_networks(args: argparse.Namespace):
    """Split/load the serving network list (usage errors exit 2)."""
    names = [
        part
        for spec in args.networks
        for part in spec.split(",")
        if part
    ]
    if not names:
        print(
            f"repro: {args.command} needs at least one network",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return [_load(name) for name in names]


def _slo_policy(args: argparse.Namespace):
    """An :class:`SLOPolicy` from ``--slo-p99``/``--slo-availability``,
    or ``None`` when neither objective was given."""
    from repro.serve import SLOPolicy

    if args.slo_p99 is None and args.slo_availability is None:
        return None
    return SLOPolicy(
        p99_ms=args.slo_p99, availability=args.slo_availability
    )


def _serve_config(args: argparse.Namespace, failures=None):
    """A :class:`ServeConfig` from the shared serve/chaos flags.
    Raises :class:`ConfigError` on bad knobs (callers map to exit 2)."""
    from repro.serve import BatchPolicy, ServeConfig

    policy = BatchPolicy(
        kind=args.policy,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait / 1e3,
        queue_depth=args.queue_depth,
    )
    return ServeConfig(
        qps=args.qps,
        duration_s=args.duration,
        arrivals=args.arrivals,
        seed=args.seed,
        policy=policy,
        max_requests=args.max_requests,
        minibatch=args.minibatch,
        timeout_s=(
            args.timeout / 1e3 if args.timeout is not None else None
        ),
        retries=args.retries,
        backoff_s=args.backoff / 1e3,
        hedge_s=args.hedge / 1e3 if args.hedge is not None else None,
        failures=failures,
        slo=_slo_policy(args),
    )


def _enforce_slo(report) -> None:
    """Raise :class:`SLOViolation` (exit 1) when a single-run report
    misses an objective — called *after* artifacts are written, so a
    violating run still leaves its JSON/CSV behind."""
    violations = report.slo_violations()
    if violations:
        from repro.errors import SLOViolation

        detail = "; ".join(f.describe() for f in violations)
        raise SLOViolation(
            f"{len(violations)} SLO violation(s): {detail}", violations
        )


def cmd_serve(args: argparse.Namespace) -> None:
    import json as json_mod

    from repro.bench.export import write_serve_csv, write_serve_json
    from repro.errors import ConfigError
    from repro.serve import (
        place_networks,
        run_curve,
        simulate_serving,
    )

    networks = _serve_networks(args)
    node = _node(args)
    if args.faults is not None and args.curve:
        print(
            "repro: serve --faults is a static degraded run; use "
            "chaos --curve for load sweeps under a fault lifecycle",
            file=sys.stderr,
        )
        raise SystemExit(2)

    try:
        config = _serve_config(args)
        placement = None
        if args.faults is not None:
            # Static degraded serving: sample one fault mask, compile
            # every tenant against it, and place on what survives.
            from repro.faults import ALL_KINDS, FaultSpec, parse_kinds
            from repro.sweep.cache import cached_simulation

            kind = args.fault_kind.strip()
            spec = FaultSpec(
                rate=args.faults,
                seed=(
                    args.fault_seed if args.fault_seed is not None
                    else args.seed
                ),
                kinds=(
                    ALL_KINDS if kind == "all" else parse_kinds(kind)
                ),
                slow_factor=args.slow_factor,
            )
            results = [
                cached_simulation(
                    net, node, args.minibatch, faults=spec
                )
                for net in networks
            ]
            placement = place_networks(
                networks, node, minibatch=args.minibatch,
                results=results,
            )
        if args.curve:
            report = run_curve(
                [net.name for net in networks], node, config,
                workers=args.workers,
            )
        else:
            report = simulate_serving(
                networks, node, config, placement=placement
            )
    except ConfigError as exc:
        # Every knob here came off the command line: usage error.
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: {message}", file=sys.stderr)
        raise SystemExit(2)

    if args.json:
        print(
            json_mod.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
    elif args.curve:
        table = Table(
            f"Latency-throughput curve ({node.name})",
            ["network", "load", "offered QPS", "sustained QPS",
             "p50 ms", "p95 ms", "p99 ms", "shed", "batch"],
        )
        for row in report.rows():
            table.add(
                row["network"], f'{row["fraction"]:g}x',
                f'{row["offered_net_qps"]:,.0f}',
                f'{row["sustained_qps"]:,.0f}',
                f'{row["p50_ms"]:.3f}', f'{row["p95_ms"]:.3f}',
                f'{row["p99_ms"]:.3f}', f'{row["shed_rate"]:.1%}',
                f'{row["mean_batch"]:.1f}',
            )
        table.show()
        print(report.describe())
    else:
        table = Table(
            f"Serving report ({node.name})",
            ["network", "share", "offered", "completed", "shed",
             "t/o", "fail", "avail", "p50 ms", "p95 ms", "p99 ms",
             "sustained QPS", "batch"],
        )
        for row in report.rows():
            table.add(
                row["network"], f'{row["share"]:.1%}',
                row["offered"], row["completed"], row["shed"],
                row["timed_out"], row["failed"],
                f'{row["availability"]:.1%}',
                f'{row["p50_ms"]:.3f}', f'{row["p95_ms"]:.3f}',
                f'{row["p99_ms"]:.3f}',
                f'{row["sustained_qps"]:,.0f}',
                f'{row["mean_batch"]:.1f}',
            )
        table.show()
        print(report.describe())
        for finding in report.slo_findings():
            print(f"  slo {finding.describe()}")

    if args.out:
        path = write_serve_json(report, args.out)
        if not args.json:
            print(f"wrote {path}")
    if args.csv:
        path = write_serve_csv(report, args.csv)
        if not args.json:
            print(f"wrote {path}")
    if args.html:
        if not args.curve:
            print(
                "repro: --html renders the latency-throughput curve; "
                "add --curve",
                file=sys.stderr,
            )
            raise SystemExit(2)
        from repro.bench.dashboard import write_serve_html

        path = write_serve_html(report, args.html)
        if not args.json:
            print(f"wrote dashboard to {path}")
    if not args.curve:
        _enforce_slo(report)


def cmd_chaos(args: argparse.Namespace) -> None:
    """Failure-aware serving: a seeded MTBF/MTTR fault/repair lifecycle
    over the serving loop, with deadlines/retries/hedging and SLO
    error budgets."""
    import json as json_mod

    from repro.bench.export import write_serve_csv, write_serve_json
    from repro.errors import ConfigError
    from repro.serve import (
        FailureConfig,
        parse_chaos_kinds,
        run_curve,
        simulate_serving,
    )

    networks = _serve_networks(args)
    node = _node(args)

    try:
        failures = FailureConfig(
            mtbf_s=args.mtbf,
            mttr_s=args.mttr,
            kinds=parse_chaos_kinds(args.fault_kind),
            seed=(
                args.fault_seed if args.fault_seed is not None
                else args.seed
            ),
            slow_factor=args.slow_factor,
            max_faults=args.max_faults,
        )
        config = _serve_config(args, failures=failures)
        if args.curve:
            report = run_curve(
                [net.name for net in networks], node, config,
                workers=args.workers,
            )
        else:
            report = simulate_serving(networks, node, config)
    except ConfigError as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: {message}", file=sys.stderr)
        raise SystemExit(2)

    if args.json:
        print(
            json_mod.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
    elif args.curve:
        table = Table(
            f"Latency-throughput curve under faults ({node.name})",
            ["network", "load", "offered QPS", "sustained QPS",
             "p99 ms", "shed", "t/o", "fail", "avail"],
        )
        for row in report.rows():
            table.add(
                row["network"], f'{row["fraction"]:g}x',
                f'{row["offered_net_qps"]:,.0f}',
                f'{row["sustained_qps"]:,.0f}',
                f'{row["p99_ms"]:.4f}',
                row["shed"], row["timed_out"], row["failed"],
                f'{row["availability"]:.1%}',
            )
        table.show()
        print(report.describe())
    else:
        table = Table(
            f"Chaos serving report ({node.name}, "
            f"{failures.describe()})",
            ["network", "offered", "done", "shed", "t/o", "fail",
             "avail", "retry", "hedge", "p99 ms", "healthy p99",
             "degraded p99"],
        )
        for row in report.rows():
            table.add(
                row["network"], row["offered"], row["completed"],
                row["shed"], row["timed_out"], row["failed"],
                f'{row["availability"]:.1%}',
                row["retries"], row["hedges"],
                f'{row["p99_ms"]:.6f}',
                f'{row["healthy_p99_ms"]:.6f}',
                f'{row["degraded_p99_ms"]:.6f}',
            )
        table.show()
        print(report.describe())
        for interval in report.degraded_intervals:
            print(f"  {interval.describe()}")
        for finding in report.slo_findings():
            print(f"  slo {finding.describe()}")

    if args.out:
        path = write_serve_json(report, args.out)
        if not args.json:
            print(f"wrote {path}")
    if args.csv:
        path = write_serve_csv(report, args.csv)
        if not args.json:
            print(f"wrote {path}")
    if args.html:
        from repro.bench.dashboard import (
            write_chaos_html,
            write_serve_html,
        )

        if args.curve:
            path = write_serve_html(report, args.html)
        else:
            path = write_chaos_html(report, args.html)
        if not args.json:
            print(f"wrote dashboard to {path}")
    if not args.curve:
        _enforce_slo(report)


def cmd_export(args: argparse.Namespace) -> None:
    from repro.bench.export import export_all

    paths = export_all(args.directory)
    for path in paths:
        print(path)
    print(f"wrote {len(paths)} figure data files")


def _robustness_flags(p: argparse.ArgumentParser) -> None:
    """Request-robustness and SLO flags shared by serve and chaos."""
    p.add_argument(
        "--timeout", type=float, default=None, metavar="MS",
        help="end-to-end request deadline in ms: requests past it "
        "count as timed out (default: none)",
    )
    p.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts after a shed/failed/expired copy "
        "(default: 0)",
    )
    p.add_argument(
        "--backoff", type=float, default=5.0, metavar="MS",
        help="retry backoff base in ms; attempt n re-arrives after "
        "backoff * 2^(n-1) (default: 5.0)",
    )
    p.add_argument(
        "--hedge", type=float, default=None, metavar="MS",
        help="spawn a duplicate request after this much queue wait; "
        "first copy to finish wins (default: off)",
    )
    p.add_argument(
        "--slo-p99", type=float, default=None, metavar="MS",
        help="p99 latency objective per tenant and node; a violating "
        "run exits 1 after writing artifacts",
    )
    p.add_argument(
        "--slo-availability", type=float, default=None, metavar="FRAC",
        help="minimum fraction of offered requests that must complete "
        "(0, 1]; violations exit 1",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ScaleDeep (ISCA 2017) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark zoo").set_defaults(
        func=cmd_list
    )

    def with_net(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("network", help="benchmark name, e.g. AlexNet")
        p.add_argument(
            "--hp", action="store_true",
            help="use the half-precision node (Fig 17)",
        )
        return p

    with_net("analyze", "workload analysis").set_defaults(func=cmd_analyze)
    with_net("map", "compiler column allocation").set_defaults(func=cmd_map)
    p = with_net("lower", "compile to the unified IR and dump it")
    p.add_argument(
        "--phase", choices=["fp", "bp", "wg"], default=None,
        help="restrict the dump to one training phase",
    )
    p.add_argument(
        "--json", action="store_true",
        help="dump the full IR as JSON instead of a summary",
    )
    p.set_defaults(func=cmd_lower)
    def with_system(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument(
            "--nodes", type=int, default=1,
            help="scale out to an N-node system (default: 1)",
        )
        p.add_argument(
            "--strategy", default="data",
            help="parallelism strategy kind[:group][/sync] "
            "(default: data)",
        )
        return p

    p = with_system(with_net("simulate", "throughput / power simulation"))
    p.add_argument("--minibatch", type=int, default=256)
    p.set_defaults(func=cmd_simulate)
    with_system(with_net("energy", "per-image energy")).set_defaults(
        func=cmd_energy
    )
    with_net("compare-gpu", "Fig 18 speedups").set_defaults(
        func=cmd_compare_gpu
    )
    with_net("stages", "pipeline-stage report").set_defaults(
        func=cmd_stages
    )
    with_net("report", "full simulation report").set_defaults(
        func=cmd_report
    )
    p = with_net("trace", "write a Chrome trace-event JSON capture")
    p.add_argument(
        "--out", default="trace.json",
        help="output path for the trace (default: trace.json)",
    )
    p.set_defaults(func=cmd_trace)
    p = with_net("profile", "per-tile cycle counters and telemetry")
    p.add_argument(
        "--counters", action="store_true",
        help="also print the full counter registry",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None,
        help="write the counter registry as CSV to PATH",
    )
    p.set_defaults(func=cmd_profile)
    p = with_net(
        "stats",
        "metric distributions + bottleneck attribution for both "
        "simulators, with baselines and an HTML dashboard",
    )
    p.add_argument("--minibatch", type=int, default=256)
    p.add_argument(
        "--json", action="store_true",
        help="print the deterministic metric snapshot as JSON",
    )
    p.add_argument(
        "--html", metavar="PATH", default=None,
        help="write a self-contained HTML dashboard to PATH",
    )
    p.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="record this run's snapshot in the baseline file at PATH",
    )
    p.add_argument(
        "--compare", metavar="PATH", default=None,
        help="compare against the baseline file at PATH; exits 2 on "
        "any metric outside its tolerance band",
    )
    p.set_defaults(func=cmd_stats)
    p = sub.add_parser(
        "sweep",
        help="parallel (network x preset x minibatch) sweep with "
        "compile caching",
    )
    p.add_argument(
        "networks", nargs="*",
        help="networks to sweep (default: the full Fig 15 suite)",
    )
    p.add_argument(
        "--presets", default="sp",
        help="comma-separated chip presets (default: sp)",
    )
    p.add_argument(
        "--minibatch", type=int, action="append", metavar="N",
        help="minibatch size; repeatable (default: 256)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: 1 = serial)",
    )
    p.add_argument(
        "--nodes", default="1", metavar="N[,N...]",
        help="comma-separated system node counts (default: 1)",
    )
    p.add_argument(
        "--strategy", default="data", metavar="S[,S...]",
        help="comma-separated parallelism strategies, each "
        "kind[:group][/sync] — e.g. data, model/tree, hybrid:2 "
        "(default: data)",
    )
    p.add_argument(
        "--out", default="sweep_results.json",
        help="JSON results path (default: sweep_results.json)",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write results as CSV to PATH",
    )
    p.add_argument(
        "--html", metavar="PATH", default=None,
        help="write the scale-out dashboard (scaling curve + TCO "
        "KPIs) to PATH",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the compile cache for this run",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="disk-backed cache directory "
        "(default: memory only, or $REPRO_CACHE_DIR)",
    )
    p.add_argument(
        "--clear-cache", action="store_true",
        help="drop cached artifacts first (alone: clear and exit)",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing job before quarantine (default: 1)",
    )
    p.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first failed job instead of "
        "quarantining it as a failed row",
    )
    p.add_argument(
        "--fault-rate", type=float, default=None, metavar="R",
        help="inject faults at per-site rate R into every job",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault RNG seed (default: 0)",
    )
    p.add_argument(
        "--fault-kind", default="tile-dead",
        help="comma-separated fault kinds (default: tile-dead)",
    )
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser(
        "validate",
        help="differential gate: engine vs analytical vs numpy reference",
    )
    p.add_argument(
        "networks", nargs="*",
        help="networks to validate (default: every zoo network the "
        "engine can compile, plus the built-in validation variants)",
    )
    p.add_argument(
        "--rows", type=int, default=2,
        help="MemHeavy rows per column for the engine layout (default: 2)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="image / weight RNG seed (default: 0)",
    )
    p.add_argument(
        "--min-rank", type=float, default=None,
        help="rank-agreement threshold override",
    )
    p.add_argument(
        "--no-speedup", action="store_true",
        help="skip the wall-clock speedup measurement",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON instead of a table",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report as a JSON artifact "
        "(e.g. BENCH_validate.json)",
    )
    p.set_defaults(func=cmd_validate)
    p = with_net("faults", "fault-injection what-if: baseline vs degraded")
    p.add_argument(
        "--rate", type=float, default=0.02,
        help="per-site fault probability (default: 0.02)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="fault RNG seed (default: 0)",
    )
    p.add_argument(
        "--kind", default="tile-dead",
        help="comma-separated fault kinds: tile-dead, tile-slow, "
        "link-down, dma-bitflip, or 'all' (default: tile-dead)",
    )
    p.add_argument(
        "--slow-factor", type=float, default=0.5,
        help="throughput fraction a tile-slow column retains "
        "(default: 0.5)",
    )
    p.add_argument("--minibatch", type=int, default=256)
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="disk-backed compile cache directory",
    )
    p.set_defaults(func=cmd_faults)
    p = sub.add_parser(
        "serve",
        help="datacenter inference serving simulation "
        "(latency/QPS, --curve for the latency-throughput sweep)",
    )
    p.add_argument(
        "networks", nargs="+",
        help="networks to co-serve on one node (comma- or "
        "space-separated, e.g. lenet5,alexnet)",
    )
    p.add_argument(
        "--hp", action="store_true",
        help="use the half-precision node (Fig 17)",
    )
    p.add_argument(
        "--qps", type=float, default=2_000.0,
        help="aggregate offered load in requests/s "
        "(default: 2000; ignored with --curve)",
    )
    p.add_argument(
        "--duration", type=float, default=0.25, metavar="S",
        help="offered-arrival window in seconds (default: 0.25)",
    )
    p.add_argument(
        "--arrivals", choices=["poisson", "uniform"], default="poisson",
        help="arrival process (default: poisson)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="arrival RNG seed (default: 0)",
    )
    p.add_argument(
        "--policy", choices=["wait", "greedy"], default="wait",
        help="batching policy: hold for max-batch/max-wait, or "
        "dispatch whenever the server is idle (default: wait)",
    )
    p.add_argument(
        "--max-batch", type=int, default=8,
        help="largest batch the batcher forms (default: 8)",
    )
    p.add_argument(
        "--max-wait", type=float, default=2.0, metavar="MS",
        help="longest a request waits for batchmates, in ms "
        "(default: 2.0)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission bound: arrivals past this queue depth are "
        "shed (default: 64)",
    )
    p.add_argument(
        "--max-requests", type=int, default=200_000,
        help="hard cap on generated requests per run (default: 200000)",
    )
    p.add_argument("--minibatch", type=int, default=256)
    p.add_argument(
        "--curve", action="store_true",
        help="sweep offered load over fractions of the analytical "
        "saturation rate and report the latency-throughput curve",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --curve points (default: 1)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the deterministic report as JSON",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report as a JSON artifact "
        "(e.g. BENCH_serve.json)",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the per-row results as CSV",
    )
    p.add_argument(
        "--html", metavar="PATH", default=None,
        help="write the serving dashboard (requires --curve)",
    )
    _robustness_flags(p)
    p.add_argument(
        "--faults", type=float, default=None, metavar="RATE",
        help="serve on a statically degraded node: sample one fault "
        "mask at this per-site rate, compile every tenant against it "
        "and place on what survives (not with --curve)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault-sampling seed (default: --seed)",
    )
    p.add_argument(
        "--fault-kind", default="tile-slow", metavar="KINDS",
        help="comma-separated fault kinds for --faults, or 'all' "
        "(default: tile-slow)",
    )
    p.add_argument(
        "--slow-factor", type=float, default=0.5,
        help="throughput a tile-slow column retains (default: 0.5)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="failure-aware serving: seeded MTBF/MTTR fault/repair "
        "lifecycle with retries, hedging and SLO error budgets",
    )
    p.add_argument(
        "networks", nargs="+",
        help="networks to co-serve under faults (comma- or "
        "space-separated)",
    )
    p.add_argument(
        "--hp", action="store_true",
        help="use the half-precision node (Fig 17)",
    )
    p.add_argument(
        "--mtbf", type=float, required=True, metavar="S",
        help="mean time between fault arrivals in seconds",
    )
    p.add_argument(
        "--mttr", type=float, required=True, metavar="S",
        help="mean time to repair one fault in seconds",
    )
    p.add_argument(
        "--fault-kind", default="tile-slow", metavar="KINDS",
        help="comma-separated fault kinds to inject "
        "(tile-slow, tile-dead, link-down; default: tile-slow)",
    )
    p.add_argument(
        "--slow-factor", type=float, default=0.5,
        help="throughput a tile-slow column retains (default: 0.5)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="failure-process seed (default: --seed)",
    )
    p.add_argument(
        "--max-faults", type=int, default=64,
        help="cap on injected faults per run (default: 64)",
    )
    p.add_argument("--qps", type=float, default=2_000.0)
    p.add_argument(
        "--duration", type=float, default=0.25, metavar="S",
        help="offered-arrival window in seconds (default: 0.25)",
    )
    p.add_argument(
        "--arrivals", choices=["poisson", "uniform"], default="poisson",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="arrival RNG seed (default: 0)",
    )
    p.add_argument(
        "--policy", choices=["wait", "greedy"], default="greedy",
        help="batching policy (default: greedy — latency tracks the "
        "degraded service rate instead of the max-wait floor)",
    )
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument(
        "--max-wait", type=float, default=2.0, metavar="MS",
        help="longest wait for batchmates under --policy wait, in ms",
    )
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument("--max-requests", type=int, default=200_000)
    p.add_argument("--minibatch", type=int, default=256)
    _robustness_flags(p)
    p.add_argument(
        "--curve", action="store_true",
        help="sweep offered load under the fault lifecycle",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --curve points (default: 1)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the deterministic report as JSON",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report as a JSON artifact "
        "(e.g. BENCH_chaos.json)",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the per-row results as CSV",
    )
    p.add_argument(
        "--html", metavar="PATH", default=None,
        help="write the chaos dashboard",
    )
    p.set_defaults(func=cmd_chaos)
    p = sub.add_parser("export", help="write figure data as CSV")
    p.add_argument("directory", help="output directory")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ReproError as exc:
        # Domain failures (unmappable networks, partitioned topologies,
        # simulation timeouts, fail-fast sweeps) exit 1 with a one-line
        # message — never a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

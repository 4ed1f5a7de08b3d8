"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``list`` — the benchmark zoo with Fig 15 statistics;
* ``analyze NET`` — workload analysis (Fig 4/5 style);
* ``lower NET`` — map the network once, build its unit-level IR,
  verify it and dump it (``--json`` for the full serialised form,
  ``--phase fp|bp|wg`` to restrict to one phase);
* ``report NET`` — the analytical model's one per-network view, from
  one simulation: the compiler's column allocation (Fig 13 / STEP1-6),
  throughput, per-stage pipeline latencies and the bottleneck (Fig 16),
  the nested pipeline (Fig 10), link utilization (Fig 21), power and
  per-image energy (Fig 20), gradient sync and the speedup over the
  TitanX stacks (Fig 18); ``--nodes/--strategy`` add the multi-node
  system's throughput, TCO and energy, and ``--fault-rate`` a fault
  what-if (a deterministic fault mask, the remap around it, and
  baseline vs degraded throughput / energy);
* ``stats NET`` — both simulators under one telemetry capture: metric
  percentiles, per-tile busy/blocked/stalled cycles, bottleneck
  attribution, baselines (``--baseline/--compare``), the HTML dashboard
  (``--html``), and the capture itself as a Chrome trace-event JSON
  (``--trace``, for Perfetto / ``chrome://tracing``) and counter CSV
  (``--csv``);
* ``sweep [NET...]`` — fan (network x preset x minibatch) jobs across
  worker processes with content-keyed compile caching; writes JSON
  (and optionally CSV) results;
* ``validate [NET...]`` — the differential gate: functional engine vs
  analytical model vs numpy reference;
* ``serve NET[,NET...]`` — datacenter inference serving simulation:
  seeded open-loop arrivals drive dynamic batchers over a multi-tenant
  placement; reports p50/p95/p99 latency, sustained QPS and shed rate
  (``--curve`` sweeps offered load into the latency–throughput curve,
  ``--mtbf/--mttr`` add a seeded fault/repair lifecycle,
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
from typing import List, NoReturn, Optional

from repro.arch import half_precision_node, single_precision_node
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


def _node(args: argparse.Namespace):
    return half_precision_node() if args.hp else single_precision_node()


def _usage_error(message: str) -> NoReturn:
    """Usage errors exit 2 with a one-line message."""
    print(f"repro: {message}", file=sys.stderr)
    raise SystemExit(2)


def _message(exc: Exception) -> str:
    return exc.args[0] if exc.args else str(exc)


def _load(name: str):
    try:
        return zoo.load(name)
    except KeyError:
        _usage_error(
            f"unknown network {name!r} "
            f"(choose from: {', '.join(zoo.available())})"
        )


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


def _fault_kinds(text: str):
    """A comma-separated fault-kind list; ``all`` is every kind."""
    from repro.faults import ALL_KINDS, parse_kinds

    return ALL_KINDS if text.strip() == "all" else parse_kinds(text)


def cmd_report(args: argparse.Namespace) -> None:
    from repro.arch.system import make_system
    from repro.errors import ConfigError
    from repro.faults import FaultSpec
    from repro.sim.report import full_report

    net = _load(args.network)
    node = _node(args)
    system = faults = None
    try:
        if args.nodes != 1 or args.strategy != "data":
            system = make_system(node, args.nodes, args.strategy)
        if args.fault_rate is not None:
            faults = FaultSpec(
                rate=args.fault_rate, seed=args.fault_seed,
                kinds=_fault_kinds(args.fault_kind),
                slow_factor=args.slow_factor,
            )
    except ConfigError as exc:
        _usage_error(_message(exc))
    print(full_report(
        net, node, args.minibatch, system=system, faults=faults
    ).render())


def cmd_stats(args: argparse.Namespace) -> None:
    import json

    from repro.bench.baselines import (
        compare_to_baseline,
        write_baseline_file,
    )
    from repro.bench.dashboard import stats_html, write_html
    from repro.bench.stats import collect_stats
    from repro.telemetry import (
        attribution_table,
        percentile_table,
        profile_table,
        summarize,
        write_chrome_trace,
        write_counters_csv,
    )

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
        profile_table(
            report.analytical_profile,
            f"Per-tile-group cycles of {net.name} (one pipeline beat)",
        ).show()
        if report.engine_profile:
            print()
            profile_table(
                report.engine_profile,
                "Engine per-tile cycles (one image)",
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

    if args.trace:
        path = write_chrome_trace(report.telemetry, args.trace)
        print(f"wrote Chrome trace to {path}: {summarize(report.telemetry)}")
    if args.csv:
        path = write_counters_csv(report.telemetry, args.csv)
        print(f"wrote counters to {path}")
    if args.html:
        path = write_html(stats_html(report), args.html)
        print(f"wrote dashboard to {path}")
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


def cmd_validate(args: argparse.Namespace) -> None:
    import json as json_mod

    from repro.bench.export import write_validation_json
    from repro.sim.validation import MIN_RANK_AGREEMENT, validate_zoo

    if args.rows < 1:
        _usage_error(f"--rows must be >= 1, got {args.rows}")
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
                _usage_error(
                    f"unknown network {name!r} (choose from: {choices})"
                )

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
    from repro.sweep import expand_jobs, run_sweep
    from repro.sweep.runner import check_workers

    try:
        check_workers(args.workers)
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
        _usage_error(_message(exc))

    report = run_sweep(jobs, workers=args.workers)

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
        from repro.bench.dashboard import sweep_html, write_html

        print(f"wrote {write_html(sweep_html(report.results), args.html)}")
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
        _usage_error(f"{args.command} needs at least one network")
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


def _serve_config(args: argparse.Namespace, failures):
    """A :class:`ServeConfig` from the serve flags.  Raises
    :class:`ConfigError` on bad knobs (callers map to exit 2)."""
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

    from repro.bench.dashboard import curve_html, run_html, write_html
    from repro.bench.export import write_serve_csv, write_serve_json
    from repro.errors import ConfigError
    from repro.serve import (
        FailureConfig,
        place_networks,
        run_curve,
        simulate_serving,
    )

    networks = _serve_networks(args)
    node = _node(args)
    lifecycle = args.mtbf is not None
    if lifecycle != (args.mttr is not None):
        _usage_error("serve --mtbf and --mttr go together: give both")
    if args.faults is not None and (args.curve or lifecycle):
        _usage_error(
            "serve --faults is one static degraded run: it takes "
            "neither --curve nor --mtbf/--mttr"
        )

    try:
        kinds = _fault_kinds(args.fault_kind)
        fault_seed = (
            args.seed if args.fault_seed is None else args.fault_seed
        )
        failures = None
        if lifecycle:
            failures = FailureConfig(
                mtbf_s=args.mtbf, mttr_s=args.mttr, kinds=kinds,
                seed=fault_seed, slow_factor=args.slow_factor,
            )
        config = _serve_config(args, failures)
        placement = None
        if args.faults is not None:
            # Static degraded serving: sample one fault mask, compile
            # every tenant against it, and place on what survives.
            from repro.faults import FaultSpec
            from repro.sweep.cache import cached_simulation

            spec = FaultSpec(
                rate=args.faults, seed=fault_seed, kinds=kinds,
                slow_factor=args.slow_factor,
            )
            results = [
                cached_simulation(net, node, args.minibatch, faults=spec)
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
        _usage_error(_message(exc))

    faults = f", {failures.describe()}" if failures else ""
    if args.json:
        print(
            json_mod.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
    elif args.curve:
        table = Table(
            f"Latency-throughput curve ({node.name}{faults})",
            ["network", "load", "offered QPS", "sustained QPS",
             "p50 ms", "p95 ms", "p99 ms", "shed", "t/o", "fail",
             "avail", "batch"],
        )
        for row in report.rows():
            table.add(
                row["network"], f'{row["fraction"]:g}x',
                f'{row["offered_net_qps"]:,.0f}',
                f'{row["sustained_qps"]:,.0f}',
                *(f'{row[f"p{q}_ms"]:.4f}' for q in (50, 95, 99)),
                row["shed"], row["timed_out"], row["failed"],
                f'{row["availability"]:.1%}', f'{row["mean_batch"]:.1f}',
            )
        table.show()
        print(report.describe())
    else:
        # Retries, hedges and the healthy/degraded split are columns
        # only under a fault lifecycle.
        table = Table(
            f"Serving report ({node.name}{faults})",
            ["network", "share", "offered", "completed", "shed", "t/o",
             "fail", "avail", "p50 ms", "p95 ms", "p99 ms",
             "sustained QPS", "batch"]
            + (["retry", "hedge", "healthy p99", "degraded p99"]
               if failures else []),
        )
        for row in report.rows():
            lifecycle_cells = [
                row["retries"], row["hedges"],
                f'{row["healthy_p99_ms"]:.6f}',
                f'{row["degraded_p99_ms"]:.6f}',
            ] if failures else []
            table.add(
                row["network"], f'{row["share"]:.1%}', row["offered"],
                row["completed"], row["shed"], row["timed_out"],
                row["failed"], f'{row["availability"]:.1%}',
                *(f'{row[f"p{q}_ms"]:.6f}' for q in (50, 95, 99)),
                f'{row["sustained_qps"]:,.0f}', f'{row["mean_batch"]:.1f}',
                *lifecycle_cells,
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
        page = curve_html(report) if args.curve else run_html(report)
        path = write_html(page, args.html)
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
    p = with_net(
        "report",
        "the analytical model's one per-network view: mapping, "
        "throughput, pipeline stages, links, power, energy, gradient "
        "sync and TitanX speedups, with a scale-out block "
        "(--nodes/--strategy) and a fault what-if (--fault-rate)",
    )
    p.add_argument("--minibatch", type=int, default=256)
    p.add_argument(
        "--nodes", type=int, default=1,
        help="scale out to an N-node system (default: 1)",
    )
    p.add_argument(
        "--strategy", default="data",
        help="parallelism strategy kind[:group][/sync] "
        "(default: data)",
    )
    p.add_argument(
        "--fault-rate", type=float, default=None, metavar="R",
        help="add a fault what-if: sample a fault mask at per-site "
        "rate R and compare the remapped node with the healthy one",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault RNG seed (default: 0)",
    )
    p.add_argument(
        "--fault-kind", default="tile-dead",
        help="comma-separated fault kinds: tile-dead, tile-slow, "
        "link-down, dma-bitflip, or 'all' (default: tile-dead)",
    )
    p.add_argument(
        "--slow-factor", type=float, default=0.5,
        help="throughput fraction a tile-slow column retains "
        "(default: 0.5)",
    )
    p.set_defaults(func=cmd_report)
    p = with_net(
        "stats",
        "metric distributions, per-tile cycles and bottleneck "
        "attribution for both simulators, with baselines, an HTML "
        "dashboard and the raw capture",
    )
    p.add_argument("--minibatch", type=int, default=256)
    p.add_argument(
        "--json", action="store_true",
        help="print the deterministic metric snapshot as JSON",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the capture as Chrome trace-event JSON to PATH "
        "(open in Perfetto or chrome://tracing)",
    )
    p.add_argument(
        "--csv", metavar="PATH", default=None,
        help="write the capture's counters as CSV to PATH",
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
    p = sub.add_parser(
        "serve",
        help="datacenter inference serving simulation (latency/QPS; "
        "--curve for the latency-throughput sweep, --mtbf/--mttr for "
        "a fault/repair lifecycle)",
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
        "dispatch whenever the server is idle (default: wait; greedy "
        "makes latency track a fault-degraded service rate)",
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
        help="hard cap on generated requests per run; when it binds, "
        "the run's window ends at the last arrival (default: 200000)",
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
        help="write the dashboard: the latency-throughput curve with "
        "--curve, else the run's outcomes and latency timeline",
    )
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
    p.add_argument(
        "--mtbf", type=float, default=None, metavar="S",
        help="fault lifecycle: mean time between fault arrivals in "
        "seconds (with --mttr)",
    )
    p.add_argument(
        "--mttr", type=float, default=None, metavar="S",
        help="fault lifecycle: mean time to repair one fault in "
        "seconds (with --mtbf)",
    )
    p.add_argument(
        "--faults", type=float, default=None, metavar="RATE",
        help="serve on a statically degraded node: sample one fault "
        "mask at this per-site rate, compile every tenant against it "
        "and place on what survives (not with --curve or --mtbf)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of --faults or the --mtbf lifecycle "
        "(default: --seed)",
    )
    p.add_argument(
        "--fault-kind", default="tile-slow", metavar="KINDS",
        help="comma-separated fault kinds, or 'all' (--mtbf draws "
        "tile-slow, tile-dead, link-down; default: tile-slow)",
    )
    p.add_argument(
        "--slow-factor", type=float, default=0.5,
        help="throughput a tile-slow column retains (default: 0.5)",
    )
    p.set_defaults(func=cmd_serve)
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
        # simulation timeouts) exit 1 with a one-line message — never a
        # traceback.
        print(f"repro: {_message(exc)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

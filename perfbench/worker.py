"""One benchmark process: set up a workload, time whole passes, check.

Started by ``run.py`` as a fresh subprocess (single-threaded BLAS, fixed
hash seed, no disk cache)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only | --trace PATH]

Prints one JSON line on stdout.  ``setup_end`` is ``time.monotonic()``
when set-up finished, on the system-wide clock the launcher read just
before starting this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
from typing import Optional

import workloads
from repro.sweep.cache import CompileCache, get_cache, set_cache
from tracer import Tracer

#: Counts that hold one value per pass rather than a sum over calls.
NON_ADDITIVE = {"serve.sim_p99_ms"}


def timed_passes(workload, seconds: float = 0.0, count: int = 0):
    """Run whole passes: ``count`` of them, else until ``seconds`` have
    passed.  Each pass starts after a garbage collection, on a fresh
    memory-only compile cache (``clear_cache`` would delete the files of
    a disk cache)."""
    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        set_cache(CompileCache())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        output = workload.run_pass()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        passes.append({
            "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0,
            "cache": dict(get_cache().stats),
            "output": output,
        })
        if len(passes) == count or (
            not count and wall1 - started >= seconds
        ):
            return passes


def set_up(workload, seed: int, tracer: Optional[Tracer] = None) -> float:
    """Warm up and set the workload up (traced when a tracer is given);
    returns ``time.monotonic()`` at the end."""
    if tracer:
        tracer.active = True
    workloads.warm_up(seed)
    workload.setup()
    if tracer:
        tracer.active = False
    gc.collect()
    return time.monotonic()


def traced_passes(workload, tracer: Tracer):
    """The workload's fixed number of passes, traced."""
    tracer.phase, tracer.active = "timed", True
    passes = []
    for n in range(workload.traced_passes):
        tracer.item = f"pass{n}"
        passes += timed_passes(workload, count=1)
    tracer.active = False
    return passes


def check_passes(workload, passes) -> dict:
    """Check every pass's outputs (after timing) and collect counts."""
    checks = [workload.check(p.pop("output")) for p in passes]
    for p, c in zip(passes, checks):
        p["items"] = c.items
    first = checks[0].counts
    return {
        "attempted": sum(c.items for c in checks),
        "failed": sum(c.failed for c in checks),
        "counts": first,
        "notes": [
            f"pass {i}: counts differ from pass 0"
            for i, c in enumerate(checks[1:], start=1) if c.counts != first
        ],
    }


def rate(passes) -> float:
    """Items per second of the fastest whole pass.  Every pass does the
    same work, and contention on a shared host only ever slows a pass,
    so the fastest is the steadiest estimate (on one host, five same-seed
    runs' median passes ranged over 25%, their fastest over 5%)."""
    return max(p["items"] / p["wall_s"] for p in passes)


def cpu_per_wall(passes) -> float:
    return sum(p["cpu_s"] for p in passes) / sum(p["wall_s"] for p in passes)


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """The per-layer metrics of a traced run (see README.md)."""
    metrics = {
        f"{name}_s": seconds
        for name, seconds in tracer.self_times().items() if name != "item"
    }
    run_s = (
        metrics.get("engine.fused.run_s", 0.0)
        + metrics.get("engine.unfused.run_s", 0.0)
    )
    instructions = sum(
        tracer.counts[phase]["engine.instructions"]
        for phase in ("setup", "timed")
    )
    metrics["engine.instr_per_s"] = instructions / run_s if run_s else 0.0
    counts = {
        key: value if key in NON_ADDITIVE else value / len(traced)
        for key, value in tracer.counts["timed"].items()
    }
    metrics.update(counts)
    metrics["compiler.fused_frac"] = (
        counts["compiler.fused_instructions"] / counts["compiler.instructions"]
        if counts.get("compiler.instructions") else 0.0
    )
    attempts = sum(
        counts.get(f"serve.{k}", 0) for k in ("offered", "retries", "hedges")
    )
    metrics["serve.goodput_frac"] = (
        counts["serve.completed"] / attempts if attempts else 0.0
    )
    stats = traced[0]["cache"]
    metrics["cache.hits"] = sum(
        v for k, v in stats.items() if k.endswith("_hits")
    )
    metrics["cache.misses"] = sum(
        v for k, v in stats.items() if k.endswith("_misses")
    )
    timed_wall = sum(p["wall_s"] for p in traced)
    for layer, share in tracer.layer_shares(timed_wall).items():
        metrics[f"share.{layer}"] = share
    metrics["process.cpu_per_wall"] = cpu_per_wall(traced)
    metrics["trace.overhead_frac"] = 1.0 - rate(traced) / rate(untraced)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="PATH",
                        help="trace the run; write its spans to PATH")
    args = parser.parse_args()

    tracer = Tracer().install() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_end = set_up(workload, args.seed, tracer)
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return

    untraced = timed_passes(workload, seconds=args.seconds)
    traced = traced_passes(workload, tracer) if tracer else []
    result = check_passes(workload, untraced + traced)
    result.update(
        setup_end=setup_end,
        passes=len(untraced),
        pass_wall_s=[p["wall_s"] for p in untraced],
        items_per_s=rate(untraced),
        cpu_per_wall=cpu_per_wall(untraced),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        result["layers"] = layer_metrics(tracer, traced, untraced)
        tracer.write_chrome_trace(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

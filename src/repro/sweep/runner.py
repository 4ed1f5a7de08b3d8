"""Parallel sweep runner: (network x chip-preset x minibatch) fan-out.

Jobs are picklable value objects, workers are plain processes
(``concurrent.futures.ProcessPoolExecutor``), and every job routes
through the content-keyed compile cache (:mod:`repro.sweep.cache`), so:

* ``workers=1`` runs serially in-process (and is the graceful fallback
  when a pool cannot be created in a restricted environment);
* results are **bit-identical** regardless of worker count — jobs are
  independent, the simulator is deterministic, and results return in
  job order;
* a warm rerun answers every job from the cache without touching
  STEP1-6 (:attr:`SweepReport.cache_stats` counts the hits);
* a job that raises becomes a ``status="failed"`` row on its first
  failure: a job is a pure function of its fields, so a re-attempt
  would fail the same way.
"""

from __future__ import annotations

import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.arch.presets import load_preset
from repro.arch.system import ParallelismStrategy, make_system
from repro.dnn import zoo
from repro.errors import ConfigError, SweepError
from repro.faults.model import FaultSpec
from repro.sim.perf import DEFAULT_MINIBATCH, PerfResult, simulate_system
from repro.sim.tco import tco_report
from repro.sweep.cache import cached_simulation, get_cache, simulation_digest


@dataclass(frozen=True)
class SweepJob:
    """One evaluation: a zoo network on a chip preset at a minibatch,
    optionally on a fault-degraded machine, optionally scaled out to a
    multi-node system under a parallelism strategy."""

    network: str  # canonical zoo name
    preset: str  # key into repro.arch.presets.PRESETS
    minibatch: int = DEFAULT_MINIBATCH
    faults: Optional[FaultSpec] = None
    nodes: int = 1  # system node count
    strategy: str = "data"  # ParallelismStrategy.parse token

    @property
    def label(self) -> str:
        base = f"{self.network}/{self.preset}/mb{self.minibatch}"
        if self.faults is not None:
            base += f"/fault{self.faults.rate:g}s{self.faults.seed}"
        if self.nodes != 1 or self.strategy != "data":
            base += f"/n{self.nodes}/{self.strategy}"
        return base


@dataclass(frozen=True)
class SweepResult:
    """The exported row for one job (deterministic fields only — the
    sweep's wall time lives on the :class:`SweepReport` and
    ``cache_hit`` is left out of the export, so parallel and serial
    runs export byte-identical files).

    A job that crashed is quarantined as a row with ``status="failed"``
    and the trimmed traceback in ``error`` (numeric fields zeroed); the
    sweep itself always completes.
    """

    network: str
    preset: str
    minibatch: int
    digest: str  # simulation content digest (cache key)
    train_images_per_s: float
    eval_images_per_s: float
    pe_utilization: float
    achieved_tflops: float
    gflops_per_watt: float
    total_power_w: float
    conv_columns_per_copy: int
    copies: int
    bottleneck: str
    bound_by: str
    cache_hit: bool  # informational; excluded from exported rows
    status: str = "ok"  # "ok" | "failed"
    error: str = ""  # traceback string for failed rows
    # --- scale-out overlay (per-node fields above stay untouched) ---
    nodes: int = 1
    strategy: str = "data/ring"  # canonical ParallelismStrategy token
    system_train_images_per_s: float = 0.0
    system_eval_images_per_s: float = 0.0
    scaling_efficiency: float = 0.0
    system_power_w: float = 0.0
    dollars_per_training_run: float = 0.0
    dollars_per_1m_inferences: float = 0.0

    #: Exported column order (shared by the JSON and CSV writers).
    EXPORT_FIELDS = (
        "network", "preset", "minibatch", "digest",
        "train_images_per_s", "eval_images_per_s", "pe_utilization",
        "achieved_tflops", "gflops_per_watt", "total_power_w",
        "conv_columns_per_copy", "copies", "bottleneck", "bound_by",
        "nodes", "strategy", "system_train_images_per_s",
        "system_eval_images_per_s", "scaling_efficiency",
        "system_power_w", "dollars_per_training_run",
        "dollars_per_1m_inferences",
        "status", "error",
    )

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def to_row(self) -> Dict[str, object]:
        """The deterministic export payload for this job."""
        return {name: getattr(self, name) for name in self.EXPORT_FIELDS}


@dataclass
class SweepReport:
    """Results plus run-level bookkeeping for one sweep invocation: the
    worker count, the wall time and the compile memo's hit/miss counts
    summed over the jobs."""

    results: Tuple[SweepResult, ...]
    workers: int
    elapsed_s: float
    cache_stats: Dict[str, int]  # aggregated hit/miss deltas

    @property
    def cache_hits(self) -> int:
        return sum(n for k, n in self.cache_stats.items()
                   if k.endswith("_hits"))

    @property
    def cache_misses(self) -> int:
        return sum(n for k, n in self.cache_stats.items()
                   if k.endswith("_misses"))

    @property
    def failures(self) -> Tuple[SweepResult, ...]:
        return tuple(r for r in self.results if r.failed)

    def describe(self) -> str:
        failed = len(self.failures)
        suffix = f", {failed} job(s) FAILED" if failed else ""
        return (
            f"{len(self.results)} jobs on {self.workers} worker"
            f"{'s' if self.workers != 1 else ''} in {self.elapsed_s:.2f}s "
            f"(cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses){suffix}"
        )


def expand_jobs(
    networks: Optional[Sequence[str]] = None,
    presets: Sequence[str] = ("sp",),
    minibatches: Optional[Sequence[int]] = None,
    faults: Optional[FaultSpec] = None,
    nodes: Sequence[int] = (1,),
    strategies: Sequence[str] = ("data",),
) -> List[SweepJob]:
    """The (network x preset x minibatch x nodes x strategy) job grid,
    in deterministic order.  ``networks`` defaults to the Fig 15 zoo
    and ``minibatches`` to the paper's 256; names resolve
    case-insensitively with zoo aliases, presets and strategies eagerly
    (unknown names, and a model group that does not divide a node
    count, raise before any work starts).  ``faults`` applies
    one fault spec to every job (the mask itself still differs per
    preset — sampling depends on the node)."""
    names = [
        zoo.resolve(n) for n in (networks or list(zoo.BENCHMARKS))
    ]
    minibatches = minibatches or (DEFAULT_MINIBATCH,)
    configs = [load_preset(preset) for preset in presets]  # validate eagerly
    for count in nodes:
        if count < 1:
            raise SweepError(f"node count must be >= 1, got {count}")
    for strategy in strategies:
        ParallelismStrategy.parse(strategy)  # validate eagerly
        # Each job's system, built as the job builds it: a hybrid group
        # larger than the system clamps down, and one that does not
        # divide the node count raises here, before any job runs.
        for node in configs:
            for count in nodes:
                make_system(node, count, strategy)
    return [
        SweepJob(
            network=n, preset=p, minibatch=m, faults=faults,
            nodes=count, strategy=strategy,
        )
        for n in names
        for p in presets
        for m in minibatches
        for count in nodes
        for strategy in strategies
    ]


# ---------------------------------------------------------------------------
# The per-job unit of work (module-level: workers import it by name)
# ---------------------------------------------------------------------------
def _execute_job(
    job: SweepJob,
) -> Tuple[SweepResult, PerfResult, Dict[str, int]]:
    """Run one job; returns the result row, the full simulation (to warm
    the parent's cache) and the cache hit/miss delta."""
    net = zoo.load(job.network)
    node = load_preset(job.preset)
    system = make_system(node, job.nodes, job.strategy)

    cache = get_cache()
    before = dict(cache.stats)
    perf = cached_simulation(
        net, node, job.minibatch, cache, faults=job.faults
    )
    sysres = simulate_system(
        net, system, minibatch=job.minibatch, node_result=perf
    )
    tco = tco_report(sysres)
    delta = {
        k: v - before.get(k, 0)
        for k, v in cache.stats.items()
        if v != before.get(k, 0)
    }
    hit = delta.get("simulation_hits", 0) > 0

    bottleneck = perf.bottleneck
    row = SweepResult(
        network=job.network,
        preset=job.preset,
        minibatch=job.minibatch,
        digest=simulation_digest(net, node, job.minibatch, job.faults),
        train_images_per_s=perf.training_images_per_s,
        eval_images_per_s=perf.evaluation_images_per_s,
        pe_utilization=perf.pe_utilization,
        achieved_tflops=perf.achieved_tflops,
        gflops_per_watt=perf.gflops_per_watt,
        total_power_w=perf.average_power.total_w,
        conv_columns_per_copy=perf.mapping.conv_columns_per_copy,
        copies=perf.mapping.copies,
        bottleneck=f"{bottleneck.unit}/{bottleneck.step.value}",
        bound_by=bottleneck.cost.bound_by,
        cache_hit=hit,
        nodes=job.nodes,
        strategy=sysres.strategy,
        system_train_images_per_s=sysres.system_training_images_per_s,
        system_eval_images_per_s=sysres.system_evaluation_images_per_s,
        scaling_efficiency=sysres.scaling_efficiency,
        system_power_w=sysres.system_power_w,
        dollars_per_training_run=tco.dollars_per_training_run,
        dollars_per_1m_inferences=tco.dollars_per_1m_inferences,
    )
    return row, perf, delta


def _format_failure(exc: BaseException) -> str:
    """A traceback string trimmed to the frames at/below
    :func:`_execute_job`, so serial and pooled runs (whose outer call
    stacks differ) quarantine a poison job with byte-identical text."""
    frames = traceback.extract_tb(exc.__traceback__)
    for index, frame in enumerate(frames):
        if frame.name == "_execute_job":
            frames = frames[index:]
            break
    lines = ["Traceback (most recent call last):\n"]
    lines += traceback.format_list(frames)
    lines += traceback.format_exception_only(type(exc), exc)
    return "".join(lines).rstrip()


def _failed_result(job: SweepJob, error: str) -> SweepResult:
    """The quarantine row for a job whose execution raised."""
    return SweepResult(
        network=job.network,
        preset=job.preset,
        minibatch=job.minibatch,
        digest="",
        train_images_per_s=0.0,
        eval_images_per_s=0.0,
        pe_utilization=0.0,
        achieved_tflops=0.0,
        gflops_per_watt=0.0,
        total_power_w=0.0,
        conv_columns_per_copy=0,
        copies=0,
        bottleneck="",
        bound_by="",
        cache_hit=False,
        status="failed",
        error=error,
        nodes=job.nodes,
        strategy=job.strategy,
        system_train_images_per_s=0.0,
        system_eval_images_per_s=0.0,
        scaling_efficiency=0.0,
        system_power_w=0.0,
        dollars_per_training_run=0.0,
        dollars_per_1m_inferences=0.0,
    )


def _run_job(
    job: SweepJob,
) -> Tuple[SweepResult, Optional[PerfResult], Dict[str, int]]:
    """Execute one job with quarantine (runs in the worker, so the pool
    never sees an exception and a poison job cannot abort the sweep).
    A job that raises, whether a typed :class:`~repro.errors.ReproError`
    (an unmappable network, a bad config) or anything else, is returned
    as a ``status="failed"`` row carrying its traceback."""
    try:
        return _execute_job(job)
    except Exception as exc:
        return _failed_result(job, _format_failure(exc)), None, {}


_T = TypeVar("_T")
_R = TypeVar("_R")


def check_workers(workers: int) -> None:
    """Refuse a worker count below one."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def fan_out(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int = 1,
) -> List[_R]:
    """Order-preserving parallel map with graceful serial fallback.

    The unit of parallelism shared by the sweep runner and the serve
    curve sweep: ``fn`` and every item must be picklable; ``workers=1``
    (or a single item) runs serially in-process, and a pool that cannot
    start (sandboxed environments) falls back to serial with a warning
    rather than failing the run.  Results return in item order, so
    callers producing deterministic outputs stay deterministic at any
    worker count.  ``workers < 1`` is a :class:`ConfigError`.
    """
    check_workers(workers)
    items = list(items)
    pool_size = min(workers, len(items)) if items else 1
    if pool_size > 1:
        try:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                return list(pool.map(fn, items))
        except (OSError, BrokenProcessPool) as exc:
            print(
                f"repro: worker pool unavailable ({exc}); "
                "falling back to serial execution",
                file=sys.stderr,
            )
    return [fn(item) for item in items]


def run_sweep(jobs: Iterable[SweepJob], workers: int = 1) -> SweepReport:
    """Evaluate ``jobs`` across ``workers`` processes.

    ``workers=1`` (or a single job) runs serially in-process; a pool
    that cannot start (sandboxed environments) falls back to serial with
    a warning rather than failing the sweep.  Every job goes through
    the process's compile memo (:func:`repro.sweep.cache.get_cache`);
    results computed in workers warm the caller's memo.

    Each job runs once: one that raises is quarantined as a
    ``status="failed"`` row, and the other jobs always complete.
    """
    jobs = list(jobs)
    started = time.perf_counter()
    outputs = fan_out(_run_job, jobs, workers=workers)
    elapsed = time.perf_counter() - started

    cache = get_cache()
    results: List[SweepResult] = []
    totals: Dict[str, int] = {}
    for row, perf, delta in outputs:
        results.append(row)
        for key, value in delta.items():
            totals[key] = totals.get(key, 0) + value
        if perf is not None:
            # Warm the parent's cache with worker-computed results so a
            # rerun hits even when this run fanned out to processes.
            cache.put("simulation", row.digest, perf)

    return SweepReport(
        results=tuple(results),
        workers=workers,
        elapsed_s=elapsed,
        cache_stats=totals,
    )

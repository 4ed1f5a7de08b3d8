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
  STEP1-6 (observable through the ``cache`` telemetry counters);
* each job's telemetry (mapping decisions, stage spans, counters) is
  captured in the worker and replayed into the caller's active handle,
  plus one ``sweep.job`` span per job, so ``trace``/``profile``-style
  exporters work on sweep runs.
"""

from __future__ import annotations

import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
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
from repro.errors import ConfigError, ReproError, SweepError
from repro.faults.model import FaultSpec, sample_faults
from repro.sim.perf import (
    DEFAULT_MINIBATCH,
    PerfResult,
    simulate,
    simulate_system,
)
from repro.sim.tco import tco_report
from repro.sweep.cache import (
    CompileCache,
    cached_simulation,
    get_cache,
    set_cache,
    simulation_digest,
)
from repro.telemetry.core import capture, get_telemetry


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
    """The exported row for one job (deterministic fields only — wall
    times and cache outcomes live in telemetry, not in results, so
    parallel and serial runs export byte-identical files).

    A job that crashed is quarantined as a row with ``status="failed"``
    and the trimmed traceback in ``error`` (numeric fields zeroed); the
    sweep itself always completes unless ``fail_fast`` is set.
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
    """Results plus run-level bookkeeping for one sweep invocation."""

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
    (unknown names raise before any work starts).  ``faults`` applies
    one fault spec to every job (the mask itself still differs per
    preset — sampling depends on the node)."""
    names = [
        zoo.resolve(n) for n in (networks or list(zoo.BENCHMARKS))
    ]
    minibatches = minibatches or (DEFAULT_MINIBATCH,)
    for preset in presets:
        load_preset(preset)  # validate eagerly
    for count in nodes:
        if count < 1:
            raise SweepError(f"node count must be >= 1, got {count}")
    for strategy in strategies:
        ParallelismStrategy.parse(strategy)  # validate eagerly
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
# The per-job unit of work (module-level: must pickle for the pool)
# ---------------------------------------------------------------------------
def _execute_job(
    job: SweepJob,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> Tuple[SweepResult, PerfResult, Dict[str, int], tuple, tuple, object]:
    """Run one job; returns the result row, the full simulation (to warm
    the parent's cache), the cache hit/miss delta, and the telemetry the
    job emitted (events + counter rows + the metrics registry) for
    replay in the parent."""
    net = zoo.load(job.network)
    node = load_preset(job.preset)
    system = make_system(node, job.nodes, job.strategy)
    # Default-shaped jobs keep the single-node digest: the scale-out
    # axes only namespace the cache when they are actually in play.
    digest_system = (
        system if (job.nodes > 1 or job.strategy != "data") else None
    )

    cache: Optional[CompileCache] = None
    if use_cache:
        cache = get_cache()
        if cache_dir is not None and str(cache.directory or "") != cache_dir:
            cache = CompileCache(cache_dir)
            set_cache(cache)
    before = dict(cache.stats) if cache is not None else {}

    with capture() as tel:
        job_started = time.perf_counter()
        if cache is not None:
            perf = cached_simulation(
                net, node, job.minibatch, cache, faults=job.faults,
                system=digest_system,
            )
        else:
            mask = (
                sample_faults(job.faults, node)
                if job.faults is not None else None
            )
            perf = simulate(net, node, job.minibatch, faults=mask)
        sysres = simulate_system(
            net, system, minibatch=job.minibatch, node_result=perf
        )
        tco = tco_report(sysres)
        job_elapsed = time.perf_counter() - job_started
        # Deterministic job metrics feed `repro stats`; wall-clock
        # measurements go to `wall.*` groups, which snapshots and
        # baseline comparisons exclude (see telemetry.metrics).
        tel.observe(
            "sweep.job_cycles", "bottleneck", perf.training_pipeline.beat
        )
        tel.observe("wall.sweep", "job_s", job_elapsed)

    delta: Dict[str, int] = {}
    if cache is not None:
        delta = {
            k: v - before.get(k, 0)
            for k, v in cache.stats.items()
            if v != before.get(k, 0)
        }
        hit = delta.get("simulation_hits", 0) > 0
        tel.observe(
            "wall.cache", "hit_s" if hit else "miss_s", job_elapsed
        )

    bottleneck = perf.bottleneck
    row = SweepResult(
        network=job.network,
        preset=job.preset,
        minibatch=job.minibatch,
        digest=simulation_digest(
            net, node, job.minibatch, job.faults, system=digest_system
        ),
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
        cache_hit=delta.get("simulation_hits", 0) > 0,
        nodes=job.nodes,
        strategy=sysres.strategy,
        system_train_images_per_s=sysres.system_training_images_per_s,
        system_eval_images_per_s=sysres.system_evaluation_images_per_s,
        scaling_efficiency=sysres.scaling_efficiency,
        system_power_w=sysres.system_power_w,
        dollars_per_training_run=tco.dollars_per_training_run,
        dollars_per_1m_inferences=tco.dollars_per_1m_inferences,
    )
    return (
        row, perf, delta, tuple(tel.events), tuple(tel.counters.rows()),
        tel.metrics,
    )


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
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    backoff: float = 0.1,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[
    SweepResult, Optional[PerfResult], Dict[str, int], tuple, tuple, object
]:
    """Execute one job with retry + quarantine (runs in the worker, so
    the pool never sees an exception and a poison job cannot abort the
    sweep).  Unexpected crashes get ``retries`` re-attempts with
    exponential backoff; a **typed** failure (:class:`ReproError` — e.g.
    an unmappable network or a bad config) is deterministic and fails
    identically every attempt, so it is quarantined immediately without
    retrying or sleeping.  A job still failing is returned as a
    ``status="failed"`` row carrying its traceback.  ``sleep`` is
    injectable so robustness tests don't wall-sleep."""
    attempt = 0
    while True:
        try:
            return _execute_job(job, use_cache=use_cache,
                                cache_dir=cache_dir)
        except ReproError as exc:
            # Deterministic domain failure: retrying burns wall-clock
            # for an identical outcome.  Fail fast.
            return (
                _failed_result(job, _format_failure(exc)),
                None, {}, (), (), None,
            )
        except Exception as exc:
            if attempt < retries:
                sleep(backoff * (2 ** attempt))
                attempt += 1
                continue
            return (
                _failed_result(job, _format_failure(exc)),
                None, {}, (), (), None,
            )


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


def run_sweep(
    jobs: Iterable[SweepJob],
    workers: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    retries: int = 1,
    backoff: float = 0.1,
    fail_fast: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> SweepReport:
    """Evaluate ``jobs`` across ``workers`` processes.

    ``workers=1`` (or a single job) runs serially in-process; a pool
    that cannot start (sandboxed environments) falls back to serial with
    a warning rather than failing the sweep.  ``cache_dir`` installs a
    disk-backed cache for this process and every worker.

    A job crashing with an *unexpected* exception is retried ``retries``
    times with exponential backoff (``sleep`` is injectable for tests)
    and then quarantined as a ``status="failed"`` row — the other jobs
    always complete.  Typed :class:`ReproError` failures are
    deterministic and quarantine immediately without retrying.
    ``fail_fast=True`` opts out: the sweep raises :class:`SweepError`
    on the first failed job instead.
    """
    jobs = list(jobs)
    if use_cache and cache_dir is not None:
        current = get_cache()
        if str(current.directory or "") != cache_dir:
            set_cache(CompileCache(cache_dir))

    run = partial(_run_job, use_cache=use_cache, cache_dir=cache_dir,
                  retries=retries, backoff=backoff, sleep=sleep)
    started = time.perf_counter()
    outputs = fan_out(run, jobs, workers=workers)
    elapsed = time.perf_counter() - started

    tel = get_telemetry()
    cache = get_cache() if use_cache else None
    results: List[SweepResult] = []
    totals: Dict[str, int] = {}
    offset = 0.0
    for job, (row, perf, delta, events, counter_rows, job_metrics) in zip(
        jobs, outputs
    ):
        results.append(row)
        if row.failed and fail_fast:
            raise SweepError(
                f"sweep aborted (fail-fast): job {job.label} failed:\n"
                f"{row.error}"
            )
        for key, value in delta.items():
            totals[key] = totals.get(key, 0) + value
        if cache is not None and perf is not None:
            # Warm the parent's cache with worker-computed results so a
            # rerun hits even when this run fanned out to processes.
            cache.put("simulation", row.digest, perf)
        if tel.enabled:
            tel.span(
                job.label, "sweep.job", ("sweep", job.preset),
                offset, 1.0,
                network=job.network, preset=job.preset,
                minibatch=job.minibatch, digest=row.digest,
                cache_hit=row.cache_hit, status=row.status,
            )
            offset += 1.0
            tel.count("sweep", "jobs")
            if row.failed:
                tel.count("sweep", "failed_jobs")
            else:
                tel.count(
                    "sweep",
                    "cache_hits" if row.cache_hit else "cache_misses",
                )
            for event in events:
                tel.events.append(event)
            for group, name, value in counter_rows:
                if group == "cache":
                    tel.count(group, name, value)
                else:
                    tel.record(group, name, value)
            if job_metrics is not None:
                # Replayed in job order, so the merged registry is
                # bit-identical regardless of worker count.
                tel.metrics.merge(job_metrics)
    if tel.enabled:
        tel.record("sweep", "elapsed_s", elapsed)
        tel.record("sweep", "workers", workers)

    return SweepReport(
        results=tuple(results),
        workers=workers,
        elapsed_s=elapsed,
        cache_stats=totals,
    )

"""Robustness tests for the sweep runner and the disk cache: poison-job
quarantine, retry/fail-fast semantics, corrupt-entry self-healing and
fault-sweep determinism across worker counts."""

import copy
import json
import pickle

import pytest

from repro.bench.export import write_sweep_json
from repro.errors import SweepError
from repro.faults import FaultSpec
from repro.sweep import (
    CompileCache,
    SweepJob,
    cached_simulation,
    expand_jobs,
    run_sweep,
    set_cache,
    simulation_digest,
)
from repro.sweep.cache import DISK_FORMAT_VERSION
from repro.sweep.runner import SweepResult
from repro.telemetry.core import capture

TINY = ("TinyCNN", "TinyMLP")


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = set_cache(CompileCache())
    yield
    set_cache(previous)


def poison_job():
    """A job that fails inside the worker, not at expansion time."""
    return SweepJob(network="NoSuchNet", preset="sp")


class TestQuarantine:
    def test_poison_job_becomes_failed_row(self):
        jobs = expand_jobs(TINY) + [poison_job()]
        report = run_sweep(jobs, retries=0)
        assert len(report.results) == 3
        ok = [r for r in report.results if not r.failed]
        assert len(ok) == 2
        failed = report.failures[0]
        assert failed.status == "failed"
        assert failed.network == "NoSuchNet"
        assert "Traceback" in failed.error
        assert failed.train_images_per_s == 0.0

    def test_failed_rows_identical_across_worker_counts(self):
        jobs = expand_jobs(TINY) + [poison_job()]
        serial = run_sweep(jobs, workers=1, retries=0)
        pooled = run_sweep(jobs, workers=2, retries=0)
        # cache_hit is informational and excluded from exported rows;
        # everything exported must match bit for bit.
        assert [r.to_row() for r in serial.results] == [
            r.to_row() for r in pooled.results
        ]

    def test_fail_fast_raises(self):
        jobs = [poison_job()] + expand_jobs(TINY)
        with pytest.raises(SweepError, match="fail-fast"):
            run_sweep(jobs, retries=0, fail_fast=True)

    def test_retries_still_quarantine_persistent_failures(self):
        report = run_sweep([poison_job()], retries=2, backoff=0.0)
        assert report.failures[0].status == "failed"

    def test_failed_jobs_counted_in_telemetry(self):
        with capture() as tel:
            run_sweep([poison_job()], retries=0)
        assert tel.counters.get("sweep", "failed_jobs") == 1

    def test_export_carries_status_and_error(self, tmp_path):
        report = run_sweep(expand_jobs(("TinyMLP",)) + [poison_job()],
                           retries=0)
        path = write_sweep_json(report.results, tmp_path / "rows.json")
        rows = json.loads(path.read_text())
        assert [r["status"] for r in rows] == ["ok", "failed"]
        assert "Traceback" in rows[1]["error"]
        assert set(SweepResult.EXPORT_FIELDS) <= set(rows[0])


class TestFaultSweep:
    def test_fault_spec_threads_through_jobs(self):
        spec = FaultSpec(rate=0.05, seed=3)
        jobs = expand_jobs(TINY, faults=spec)
        assert all(j.faults == spec for j in jobs)
        assert all("fault0.05s3" in j.label for j in jobs)

    def test_fault_sweep_deterministic_across_workers(self, tmp_path):
        jobs = expand_jobs(TINY, faults=FaultSpec(rate=0.05, seed=3))
        serial = run_sweep(jobs, workers=1)
        set_cache(CompileCache())  # drop warm entries before the rerun
        pooled = run_sweep(jobs, workers=4)
        a = write_sweep_json(serial.results, tmp_path / "serial.json")
        b = write_sweep_json(pooled.results, tmp_path / "pooled.json")
        assert a.read_bytes() == b.read_bytes()

    def test_different_fault_seeds_different_digests(self):
        a = expand_jobs(TINY, faults=FaultSpec(rate=0.05, seed=3))
        b = expand_jobs(TINY, faults=FaultSpec(rate=0.05, seed=4))
        ra = run_sweep(a)
        rb = run_sweep(b)
        assert {r.digest for r in ra.results}.isdisjoint(
            {r.digest for r in rb.results}
        )


class TestCorruptCache:
    def entry_path(self, cache, net, node_name="sp"):
        from repro.arch.presets import load_preset

        node = load_preset(node_name)
        digest = simulation_digest(net, node)
        return cache._disk_path("simulation", digest), node, digest

    def test_truncated_pickle_evicted_and_recomputed(self, tmp_path):
        from repro.dnn.zoo.tiny import tiny_mlp

        cache = CompileCache(tmp_path)
        net = tiny_mlp()
        path, node, _ = self.entry_path(cache, net)
        cached_simulation(net, node, cache=cache)
        assert path.exists()
        path.write_bytes(path.read_bytes()[:20])  # truncate

        fresh = CompileCache(tmp_path)  # cold memory layer
        with capture() as tel:
            result = cached_simulation(net, node, cache=fresh)
        assert result.training_images_per_s > 0
        assert fresh.stats["corrupt"] == 1
        assert tel.counters.get("cache", "corrupt") == 1

    def test_stale_format_version_self_invalidates(self, tmp_path):
        from repro.dnn.zoo.tiny import tiny_mlp

        cache = CompileCache(tmp_path)
        net = tiny_mlp()
        path, node, digest = self.entry_path(cache, net)
        good = cached_simulation(net, node, cache=cache)
        entry = {
            "version": DISK_FORMAT_VERSION - 1,
            "kind": "simulation",
            "digest": digest,
            "artifact": good,
        }
        path.write_bytes(pickle.dumps(entry))

        fresh = CompileCache(tmp_path)
        cached_simulation(net, node, cache=fresh)
        assert fresh.stats["corrupt"] == 1
        # The rebuilt entry replaced the stale one on disk.
        assert pickle.loads(path.read_bytes())["version"] == (
            DISK_FORMAT_VERSION
        )

    def test_version_2_entry_is_evicted_and_rebuilt(self, tmp_path):
        """Version 2 pickled ``PerfResult`` without its evaluation fill
        and beat under the same digest: such an entry is evicted,
        counted and rebuilt, never served half-formed."""
        from repro.dnn.zoo.tiny import tiny_mlp

        cache = CompileCache(tmp_path)
        net = tiny_mlp()
        path, node, digest = self.entry_path(cache, net)
        good = cached_simulation(net, node, cache=cache)
        stale = copy.copy(good)
        del stale.__dict__["evaluation_fill"]
        del stale.__dict__["evaluation_beat"]
        path.write_bytes(pickle.dumps({
            "version": 2,
            "kind": "simulation",
            "digest": digest,
            "artifact": stale,
        }))

        fresh = CompileCache(tmp_path)
        with capture() as tel:
            rebuilt = cached_simulation(net, node, cache=fresh)
        assert fresh.stats["corrupt"] == 1
        assert tel.counters.get("cache", "corrupt") == 1
        assert fresh.stats["simulation_misses"] == 1
        assert rebuilt.evaluation_fill == good.evaluation_fill
        entry = pickle.loads(path.read_bytes())
        assert entry["version"] == DISK_FORMAT_VERSION == 3
        assert entry["artifact"].evaluation_beat == good.evaluation_beat

    def test_digest_mismatch_evicted(self, tmp_path):
        from repro.dnn.zoo.tiny import tiny_mlp

        cache = CompileCache(tmp_path)
        net = tiny_mlp()
        path, node, digest = self.entry_path(cache, net)
        good = cached_simulation(net, node, cache=cache)
        entry = {
            "version": DISK_FORMAT_VERSION,
            "kind": "simulation",
            "digest": "not-the-digest",
            "artifact": good,
        }
        path.write_bytes(pickle.dumps(entry))

        fresh = CompileCache(tmp_path)
        cached_simulation(net, node, cache=fresh)
        assert fresh.stats["corrupt"] == 1

    def test_corrupt_entry_never_raises(self, tmp_path):
        from repro.dnn.zoo.tiny import tiny_mlp

        cache = CompileCache(tmp_path)
        net = tiny_mlp()
        path, node, _ = self.entry_path(cache, net)
        cached_simulation(net, node, cache=cache)
        path.write_bytes(b"garbage, not a pickle")
        fresh = CompileCache(tmp_path)
        assert cached_simulation(net, node, cache=fresh) is not None


class TestRetrySemantics:
    """Regression: the retry loop used to re-attempt *every* failure,
    including typed :class:`ReproError` domain failures that are
    deterministic and fail identically on each attempt — burning
    ``retries`` wall-clock sleeps for nothing.  Typed failures must now
    quarantine immediately; only unexpected crashes retry."""

    def typed_failure_job(self):
        """Fails with SimulationError (a ReproError) in the worker:
        the network exists, the minibatch is invalid."""
        return SweepJob(network="TinyMLP", preset="sp", minibatch=0)

    def test_typed_failures_quarantine_without_retrying(self):
        sleeps = []
        report = run_sweep(
            [self.typed_failure_job()], retries=5, backoff=0.1,
            sleep=sleeps.append,
        )
        failed = report.failures[0]
        assert failed.status == "failed"
        assert "SimulationError" in failed.error
        assert sleeps == []  # deterministic failure: zero backoff sleeps

    def test_unexpected_crashes_retry_with_backoff(self):
        sleeps = []
        report = run_sweep(
            [poison_job()], retries=2, backoff=0.1,
            sleep=sleeps.append,
        )
        assert report.failures[0].status == "failed"
        # One sleep per re-attempt, exponential: 0.1 * 2**attempt.
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_typed_failure_row_survives_alongside_ok_rows(self):
        jobs = expand_jobs(("TinyCNN",)) + [self.typed_failure_job()]
        report = run_sweep(jobs, retries=3, sleep=lambda _s: None)
        assert [r.status for r in report.results] == ["ok", "failed"]

"""Robustness tests for the sweep runner: poison-job quarantine on a
job's one attempt and fault-sweep determinism across worker counts."""

import json

import pytest

from repro.bench.export import write_sweep_json
from repro.faults import FaultSpec
from repro.sweep import (
    CompileCache,
    SweepJob,
    expand_jobs,
    run_sweep,
    runner,
    set_cache,
)
from repro.sweep.runner import SweepResult

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
        report = run_sweep(jobs)
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
        serial = run_sweep(jobs, workers=1)
        pooled = run_sweep(jobs, workers=2)
        # cache_hit is informational and excluded from exported rows;
        # everything exported must match bit for bit.
        assert [r.to_row() for r in serial.results] == [
            r.to_row() for r in pooled.results
        ]

    def test_retries_still_quarantine_persistent_failures(self, monkeypatch):
        # A job is a pure function of its fields, so it runs once: a
        # failure is quarantined after one call, never re-attempted.
        calls = []
        execute = runner._execute_job

        def counted(job):
            calls.append(job)
            return execute(job)

        monkeypatch.setattr(runner, "_execute_job", counted)
        report = run_sweep([poison_job()])
        assert calls == [poison_job()]
        assert report.failures[0].status == "failed"

    def test_export_carries_status_and_error(self, tmp_path):
        report = run_sweep(expand_jobs(("TinyMLP",)) + [poison_job()])
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


class TestRetrySemantics:
    """A typed :class:`ReproError` domain failure is quarantined like
    any other: as a ``status="failed"`` row beside the jobs that
    succeed, on the job's one attempt."""

    def typed_failure_job(self):
        """Fails with SimulationError (a ReproError) in the worker:
        the network exists, the minibatch is invalid."""
        return SweepJob(network="TinyMLP", preset="sp", minibatch=0)

    def test_typed_failures_quarantine_without_retrying(self):
        report = run_sweep([self.typed_failure_job()])
        failed = report.failures[0]
        assert failed.status == "failed"
        assert "SimulationError" in failed.error

    def test_typed_failure_row_survives_alongside_ok_rows(self):
        jobs = expand_jobs(("TinyCNN",)) + [self.typed_failure_job()]
        report = run_sweep(jobs)
        assert [r.status for r in report.results] == ["ok", "failed"]

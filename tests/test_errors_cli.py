"""Every public CLI failure path exits 1 (domain errors) or 2 (usage
errors) with a one-line ``repro:`` message — never a traceback — and
``report``'s fault what-if is byte-identical across reruns."""

import pytest

from repro.cli import main
from repro.sweep import CompileCache, set_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = set_cache(CompileCache())
    yield
    set_cache(previous)


def run_cli(argv):
    """Invoke the CLI; returns (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_success_is_zero(self):
        code, out, err = run_cli(["report", "tinymlp", "--fault-rate", "0"])
        assert code == 0
        assert "Baseline vs degraded" in out
        assert err == ""

    def test_unknown_network_exits_2(self):
        code, _, err = run_cli(["report", "no-such-net"])
        assert code == 2
        assert err.startswith("repro: unknown network")
        assert "Traceback" not in err

    def test_bad_rate_exits_2(self):
        code, _, err = run_cli(["report", "tinymlp", "--fault-rate", "2.0"])
        assert code == 2
        assert "rate must be in [0, 1]" in err
        assert "Traceback" not in err

    def test_bad_kind_exits_2(self):
        code, _, err = run_cli(
            ["report", "tinymlp", "--fault-rate", "0.02",
             "--fault-kind", "bogus"]
        )
        assert code == 2
        assert "unknown fault kind" in err
        assert "Traceback" not in err

    def test_unmappable_exits_1_without_traceback(self):
        code, _, err = run_cli(
            ["report", "alexnet", "--fault-rate", "0.93",
             "--fault-seed", "3"]
        )
        assert code == 1
        assert err.startswith("repro: ")
        assert "capacity exhausted" in err
        assert "Traceback" not in err

    def test_sweep_unknown_network_exits_2(self, tmp_path):
        code, _, err = run_cli(
            ["sweep", "no-such-net",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert err.startswith("repro:")

    def test_sweep_bad_fault_kind_exits_2(self, tmp_path):
        code, _, err = run_cli(
            ["sweep", "tinymlp", "--fault-rate", "0.1",
             "--fault-kind", "bogus", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "unknown fault kind" in err

    def test_sweep_with_failed_job_exits_1_after_completing(
        self, tmp_path
    ):
        # An unmappable fault rate fails every job, but the sweep still
        # writes results and reports the failures as rows.
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(
            ["sweep", "tinymlp", "--fault-rate", "0.95",
             "--fault-seed", "3", "--out", str(out_path)]
        )
        assert code == 1
        assert out_path.exists()
        assert "FAILED" in out
        assert "repro: job" in err


class TestFaultsVerb:
    """``report``'s fault what-if block (``--fault-rate`` and friends)."""

    def test_rerun_byte_identical(self):
        argv = ["report", "vgg_e", "--fault-rate", "0.02", "--fault-seed", "7"]
        first = run_cli(argv)
        set_cache(CompileCache())  # cold cache: output must not change
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0

    def test_reports_remap_and_ratio(self):
        code, out, _ = run_cli(
            ["report", "vgg_e", "--fault-rate", "0.02", "--fault-seed", "7"]
        )
        assert code == 0
        assert "fault mask" in out
        assert "remapped" in out
        assert "ratio" in out

    def test_all_kinds_accepted(self):
        code, out, _ = run_cli(
            ["report", "tinycnn", "--fault-rate", "0.05",
             "--fault-seed", "1", "--fault-kind", "all"]
        )
        assert code == 0
        assert "Baseline vs degraded" in out

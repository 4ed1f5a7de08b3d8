"""Run a benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload engine-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

Every measurement runs in a fresh worker process (``worker.py``) with
single-threaded BLAS, ``PYTHONHASHSEED=0`` and no disk compile cache.
An untraced run (``--trace 0``) starts the worker :data:`SETUPS` times,
all but the last only to set up, and reports the median set-up time;
a traced run (``--trace 1``) starts it once with the span recorder on.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: ``BENCHMARK.json`` lists the workloads steady enough to gate a change;
#: zoo-validate runs on request (one ~50 s pass per run, see README.md).
WORKLOADS = sorted(
    [w["name"] for w in SPEC["workloads"]] + ["zoo-validate"]
)

#: Set-up samples per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: A workload's workers must all end within this many seconds; one still
#: running then is killed and the run fails.
RUN_TIMEOUT_S = 175

ENV = {
    **{k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"},
    # The engine's kernels call BLAS matmul; a default pool would start
    # a thread per core of a shared host.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, deadline: float,
          *extra: str):
    """Run one worker, killed at ``deadline`` (monotonic); returns its
    JSON result and the monotonic time read just before it started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=ENV, capture_output=True, text=True,
        timeout=max(1.0, deadline - start),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def source_digest() -> str:
    """sha256 of the program and benchmark sources."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD's commit, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint(seed: int, digest: str) -> dict:
    import platform

    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{build['name']} {build['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": git_commit(),
        "source_sha256": digest,
        "seed": seed,
    }


def check_counts(workload: str, seed: int, digest: str, counts: dict):
    """Compare counts with the first run of this program at this seed
    (stored under ``out/``); returns a note when they differ."""
    path = OUT / f"counts-{workload}-seed{seed}-{digest[:16]}.json"
    if path.is_file():
        if json.loads(path.read_text()) != counts:
            return f"counts differ from the first run ({path.name})"
        return None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result line, human-readable lines)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    digest = source_digest()
    if trace:
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        result, _ = spawn(workload, seed, seconds, deadline,
                          "--trace", str(trace_path))
        layers = result["layers"]
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
    else:
        setups = []
        for _ in range(SETUPS - 1):
            sample, start = spawn(workload, seed, seconds, deadline,
                                  "--setup-only")
            setups.append(sample["setup_end"] - start)
        result, start = spawn(workload, seed, seconds, deadline)
        setups.append(result["setup_end"] - start)
        values = {
            "items_per_s": result["items_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
    notes = list(result["notes"])
    note = check_counts(workload, seed, digest, result["counts"])
    if note:
        notes.append(note)
    line = {
        "correct": result["failed"] == 0 and not notes,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    host = fingerprint(seed, digest)
    record = {**line, "workload": workload, "host": host, "notes": notes,
              "pass_wall_s": result["pass_wall_s"],
              "cpu_per_wall": result["cpu_per_wall"],
              "counts": result["counts"]}
    if not trace:
        record["setup_samples_s"] = setups
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    text = [
        f"# {workload} seed {seed}: {result['passes']} timed pass(es), "
        f"{result['attempted']} items checked, "
        f"process.cpu_per_wall {result['cpu_per_wall']:.3f}",
        f"# host {json.dumps(host, sort_keys=True)}",
        *(f"# {n}" for n in notes),
        *(f"{k:<34} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
    ]
    return line, text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    # Compile the sources once, so no measured set-up pays for bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=ENV, check=True, capture_output=True, timeout=RUN_TIMEOUT_S,
    )
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct = True
    try:
        for name in workloads:
            line, text = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
            print("\n".join(text))
            print(json.dumps(line), flush=True)
            correct = correct and line["correct"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

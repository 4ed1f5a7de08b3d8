"""CSV export of the figure data for downstream plotting.

The benchmarks print tables; real consumers want machine-readable
series.  ``export_all`` regenerates every figure's data from the cached
simulations and writes one CSV per figure, so an external notebook can
plot the reproduction against the paper without re-running anything.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.baselines.gpu import GpuFramework, all_framework_rates
from repro.bench.runner import cached_mapping, cached_simulation, suite_results
from repro.dnn import zoo
from repro.dnn.analysis import evaluation_flops
from repro.sim.energy import energy_report
from repro.sim.perf import utilization_report


def _write(path: Path, header: Sequence[str], rows: List[Sequence]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_fig01(directory: Path) -> Path:
    rows = [
        (name, evaluation_flops(zoo.load(name)) / 1e9)
        for name in zoo.BENCHMARKS
    ]
    return _write(
        directory / "fig01_flops_growth.csv",
        ["network", "gflops_per_evaluation"], rows,
    )


def export_fig16_17(directory: Path) -> List[Path]:
    paths = []
    for precision, stem in (("sp", "fig16_sp"), ("hp", "fig17_hp")):
        rows = []
        for name, result in suite_results(precision).items():
            rows.append((
                name,
                round(result.training_images_per_s, 1),
                round(result.evaluation_images_per_s, 1),
                round(result.pe_utilization, 4),
                result.mapping.conv_columns_per_copy,
            ))
        paths.append(_write(
            directory / f"{stem}_throughput.csv",
            ["network", "train_img_s", "eval_img_s", "pe_util",
             "columns"],
            rows,
        ))
    return paths


def export_fig18(directory: Path) -> Path:
    rows = []
    for name in ("AlexNet", "GoogLeNet", "OF-Acc", "VGG-A"):
        result = cached_simulation(name)
        cluster = (
            result.training_images_per_s
            / result.mapping.node.cluster_count
        )
        for fw, rate in all_framework_rates(zoo.load(name)).items():
            rows.append((name, fw.value, round(cluster / rate, 2)))
    return _write(
        directory / "fig18_gpu_speedup.csv",
        ["network", "framework", "speedup"], rows,
    )


def export_fig19(directory: Path) -> Path:
    rows = [
        (
            r.unit, r.columns, r.pes, round(r.ideal_pes, 1),
            round(r.column_peak_util, 3),
            round(r.feature_distribution, 3),
            round(r.array_residue, 3), round(r.achieved, 3),
        )
        for r in utilization_report(cached_mapping("AlexNet"))
    ]
    return _write(
        directory / "fig19_alexnet_utilization.csv",
        ["unit", "columns", "pes", "ideal_pes", "column_peak_util",
         "feature_distribution", "array_residue", "achieved"],
        rows,
    )


def export_fig20_21(directory: Path) -> List[Path]:
    power_rows, link_rows = [], []
    for name, result in suite_results("sp").items():
        p = result.average_power
        e = energy_report(result)
        power_rows.append((
            name, round(p.logic_w, 1), round(p.memory_w, 1),
            round(p.interconnect_w, 1), round(result.gflops_per_watt, 1),
            round(e.joules_per_training_image * 1e3, 2),
        ))
        link_rows.append(
            (name,) + tuple(
                round(v, 3)
                for v in result.link_utilization.as_dict().values()
            )
        )
    return [
        _write(
            directory / "fig20_power_efficiency.csv",
            ["network", "logic_w", "memory_w", "interconnect_w",
             "gflops_per_watt", "mj_per_training_image"],
            power_rows,
        ),
        _write(
            directory / "fig21_link_utilization.csv",
            ["network", "comp_mem", "mem_mem", "conv_ext", "fc_ext",
             "spoke", "arc", "ring"],
            link_rows,
        ),
    ]


def write_sweep_json(results: Sequence, path: Union[str, Path]) -> Path:
    """Write sweep results as a JSON list of row objects.

    Only the deterministic :meth:`SweepResult.to_row` payload is
    written, at full float precision, with sorted keys — so parallel
    and serial sweeps over the same jobs produce byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(
            [r.to_row() for r in results], handle,
            indent=2, sort_keys=True,
        )
        handle.write("\n")
    return path


def write_validation_json(report, path: Union[str, Path]) -> Path:
    """Write a :class:`~repro.sim.validation.ValidationReport` as the
    ``BENCH_validate.json`` artifact: the full differential table
    (per-network cycles, ratios, tolerance bands, output errors), the
    rank-agreement score, the gate verdict, and the speedup of the
    fused run over the per-instruction run.  Sorted keys; only the
    timing fields vary across reruns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_serve_json(report, path: Union[str, Path]) -> Path:
    """Write a serving result — a
    :class:`~repro.serve.report.ServeReport` or a
    :class:`~repro.serve.curve.CurveReport` — as the ``BENCH_serve.json``
    (or, for failure-aware runs, ``BENCH_chaos.json``) artifact.  Full
    float precision, sorted keys: the serving loop *and* the fault
    lifecycle are seeded and wall-clock free, so reruns at the same
    seed produce byte-identical files (the CI serve and chaos smokes
    pin this with ``cmp``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_serve_csv(report, path: Union[str, Path]) -> Path:
    """Write serving rows as CSV: per-(network, load-point) rows in
    :data:`~repro.serve.curve.CURVE_FIELDS` order for a curve, or the
    per-tenant rows of a single run (full float precision).  Both row
    shapes carry the per-outcome columns — completed/shed/timed_out/
    failed partition each tenant's offered count."""
    from repro.serve.curve import CURVE_FIELDS, CurveReport

    path = Path(path)
    rows = report.rows()
    if isinstance(report, CurveReport):
        fields: Sequence[str] = CURVE_FIELDS
    elif rows:
        fields = list(rows[0])
    else:
        fields = []
    return _write(path, fields, [[r[f] for f in fields] for r in rows])


def sweep_scaling_series(results: Sequence) -> Dict[tuple, List[dict]]:
    """Group sweep rows into scaling-curve series.

    Returns ``{(network, preset, strategy): [row dict, ...]}`` with
    each series sorted by (nodes, minibatch) — the shape the dashboard
    scaling panel plots (system throughput vs node count, one line per
    configuration).  Failed rows are dropped.
    """
    series: Dict[tuple, List[dict]] = {}
    for result in results:
        row = result.to_row()
        if row.get("status") != "ok":
            continue
        key = (row["network"], row["preset"], row["strategy"])
        series.setdefault(key, []).append(row)
    for rows in series.values():
        rows.sort(key=lambda r: (r["nodes"], r["minibatch"]))
    return series


def write_sweep_csv(results: Sequence, path: Union[str, Path]) -> Path:
    """Write sweep results as CSV in ``SweepResult.EXPORT_FIELDS`` order
    (full float precision via ``repr``, like the JSON writer)."""
    path = Path(path)
    if not results:
        return _write(path, [], [])
    fields = type(results[0]).EXPORT_FIELDS
    rows = [
        [row[name] for name in fields]
        for row in (r.to_row() for r in results)
    ]
    return _write(path, fields, rows)


def export_all(directory: Union[str, Path]) -> List[Path]:
    """Write every figure's data series as CSV; returns the paths."""
    directory = Path(directory)
    paths = [export_fig01(directory)]
    paths.extend(export_fig16_17(directory))
    paths.append(export_fig18(directory))
    paths.append(export_fig19(directory))
    paths.extend(export_fig20_21(directory))
    return paths

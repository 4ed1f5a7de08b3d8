"""Self-contained HTML dashboards for ``repro stats``, ``serve`` and
``sweep``.

Four pages share one grammar: :func:`_page` is the document shell,
:func:`_kpis` builds every KPI row, :func:`_table` every table and
:func:`_line_chart` every line chart, and :func:`write_html` writes any
page.  A page is one HTML file with **no network access**: all CSS and
the (small) tooltip script are inline, charts are inline SVG/HTML, and
every chart has a table twin so no value is gated behind hover or
color.

* :func:`stats_html` — a :class:`~repro.bench.stats.StatsReport`: KPI
  row, per-tile-group utilization heatmaps for both simulators, the
  roofline (log-log, one series per chip, chip ceilings drawn),
  cycle-attribution stacked bars and percentile tables;
* :func:`curve_html` — a serving latency-throughput curve: p50/p99
  against offered load with the saturation knee ruled;
* :func:`run_html` — one serving run: availability KPIs, the bucketed
  p99 timeline with degraded intervals shaded, outcome, SLO and
  fault/repair tables;
* :func:`sweep_html` — the scale-out sweep: scaling curve against ideal
  linear scaling, TCO KPIs.

Palette and mark conventions follow the validated reference palette
(categorical slots 1-5, sequential blue ramp, hairline grid, 2px
surface gaps between stacked segments, dark mode via
``prefers-color-scheme``).
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.stats import StatsReport
from repro.telemetry.profile import StallCause, TileGroupProfile

#: Sequential blue ramp, light -> dark (steps 100..700) — utilization.
SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: Stall causes in display order, each bound to a categorical slot.
CAUSE_ORDER: Tuple[StallCause, ...] = (
    StallCause.COMPUTE,
    StallCause.DMA,
    StallCause.TRACKER,
    StallCause.LINK,
    StallCause.BEAT_IDLE,
)

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
  --s4: #eda100; --s5: #e87ba4;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
    --s4: #c98500; --s5: #d55181;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 0 0 10px; font-weight: 600; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.sub code { color: var(--ink-3); font-size: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
.kpis { display: flex; flex-wrap: wrap; gap: 16px; margin: 0 0 16px; }
.kpis .card { flex: 1 1 160px; margin: 0; }
.kpi-label { color: var(--ink-2); font-size: 12px; }
.kpi-value { font-size: 26px; font-weight: 600; }
.kpi-unit { color: var(--ink-3); font-size: 12px; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: right; padding: 4px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
td:first-child { color: var(--ink-2); }
.legend {
  display: flex; flex-wrap: wrap; gap: 14px; margin: 0 0 10px;
  color: var(--ink-2); font-size: 12px; align-items: center;
}
.legend .key {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
.heatmap {
  display: flex; flex-wrap: wrap; gap: 6px; margin: 0 0 8px;
}
.cell { width: 64px; }
.cell .fill {
  height: 36px; border-radius: 4px; display: flex;
  align-items: center; justify-content: center;
  font-size: 11px; font-variant-numeric: tabular-nums;
}
.cell .name {
  color: var(--ink-3); font-size: 11px; margin-top: 2px;
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
}
.ramp-key { display: flex; align-items: center; gap: 6px;
  color: var(--ink-3); font-size: 11px; }
.ramp-key .step { width: 18px; height: 8px; }
.bars .row { display: flex; align-items: center; margin: 0 0 6px; }
.bars .row-label {
  flex: 0 0 130px; color: var(--ink-2); font-size: 12px;
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
  padding-right: 8px;
}
.bars .track { flex: 1; display: flex; gap: 2px; height: 16px; }
.bars .seg { height: 16px; }
.bars .seg:last-child { border-radius: 0 4px 4px 0; }
.muted { color: var(--ink-3); font-size: 12px; }
details > summary {
  cursor: pointer; color: var(--ink-2); font-size: 12px;
  margin: 8px 0 6px;
}
svg text {
  font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--ink-3);
}
svg .series-label { fill: var(--ink-2); }
#tip {
  position: fixed; display: none; pointer-events: none; z-index: 10;
  background: var(--surface-1); color: var(--ink-1);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 6px 9px; font-size: 12px; max-width: 340px;
  box-shadow: 0 2px 10px rgba(0,0,0,0.18);
}
"""

_JS = """
(function () {
  var tip = document.getElementById('tip');
  function show(e) {
    var text = e.currentTarget.getAttribute('data-tip');
    if (!text) return;
    tip.textContent = text;
    tip.style.display = 'block';
    move(e);
  }
  function move(e) {
    var x = (e.clientX || 0) + 12, y = (e.clientY || 0) + 12;
    var r = tip.getBoundingClientRect();
    if (x + r.width > window.innerWidth - 8) x -= r.width + 24;
    if (y + r.height > window.innerHeight - 8) y -= r.height + 24;
    tip.style.left = x + 'px';
    tip.style.top = y + 'px';
  }
  function hide() { tip.style.display = 'none'; }
  var marks = document.querySelectorAll('[data-tip]');
  for (var i = 0; i < marks.length; i++) {
    marks[i].addEventListener('mouseenter', show);
    marks[i].addEventListener('mousemove', move);
    marks[i].addEventListener('mouseleave', hide);
    marks[i].addEventListener('focus', function (e) {
      var r = e.currentTarget.getBoundingClientRect();
      show({currentTarget: e.currentTarget,
            clientX: r.right, clientY: r.bottom});
    });
    marks[i].addEventListener('blur', hide);
  }
})();
"""

def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float, decimals: int = 0) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return "-"
    if decimals:
        return f"{value:,.{decimals}f}"
    if value and abs(value) < 1:
        return f"{value:.3g}"
    return f"{value:,.0f}"


def _color(index: int) -> str:
    """Categorical slot ``index`` (cycling through the five)."""
    return f"var(--s{index % 5 + 1})"


def _util_color(utilization: float) -> Tuple[str, str]:
    """(fill, ink) for a utilization cell — sequential blue ramp, text
    color picked by the fill's depth so labels always clear contrast."""
    clamped = min(max(utilization, 0.0), 1.0)
    index = min(int(clamped * len(SEQ_RAMP)), len(SEQ_RAMP) - 1)
    ink = "#0b0b0b" if index < 6 else "#ffffff"
    return SEQ_RAMP[index], ink


# ---------------------------------------------------------------------------
# The shared grammar: page shell, card, KPI row, table, legend, line chart
# ---------------------------------------------------------------------------
def _page(verb: str, what: str, name: str, sub: str, *sections: str) -> str:
    """The document shell every dashboard shares.  ``sub`` is markup."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>repro {verb} - {_esc(name)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body><h1>ScaleDeep {what} - {_esc(name)}</h1>"
        f'<p class="sub">{sub}</p>{"".join(sections)}'
        '<div id="tip" role="status"></div>\n'
        f"<script>{_JS}</script></body></html>\n"
    )


def write_html(page: str, path: Union[str, Path]) -> Path:
    """Write a rendered page like every other export writer: parent
    directories created, the resolved path returned."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(page, encoding="utf-8")
    return path


def _card(title: Optional[str], *parts: str) -> str:
    """A card: an optional ``<h2>`` title (text), then ``parts``
    (markup)."""
    head = f"<h2>{html.escape(title, quote=False)}</h2>" if title else ""
    return f'<div class="card">{head}{"".join(parts)}</div>'


def _kpis(*tiles: Tuple[str, str, str]) -> str:
    """One KPI row: a card per (label, value, unit)."""
    cards = "".join(
        f'<div class="card"><div class="kpi-label">{_esc(label)}</div>'
        f'<div class="kpi-value">{_esc(value)}</div>'
        f'<div class="kpi-unit">{_esc(unit)}</div></div>'
        for label, value, unit in tiles
    )
    return f'<div class="kpis">{cards}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A table; every header and cell is escaped text."""
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{body}</tbody></table>"
    )


def _legend(keys: Sequence[Tuple[str, str]], note: str = "") -> str:
    """Color keys as (label, key style), then an optional muted note."""
    spans = "".join(
        f'<span><span class="key" style="{style}"></span>'
        f"{_esc(label)}</span>"
        for label, style in keys
    )
    muted = f'<span class="muted">{note}</span>' if note else ""
    return f'<div class="legend">{spans}{muted}</div>'


@dataclass(frozen=True)
class Axis:
    """One chart axis: title, range, the values that get a grid line
    and a label, and a linear or log10 scale.  Values outside the range
    clamp to its ends."""

    title: str
    lo: float
    hi: float
    ticks: Sequence[float] = ()
    log: bool = False
    label: Callable[[float], str] = "{:g}".format

    def frac(self, value: float) -> float:
        lo, hi = self.lo, self.hi
        value = min(max(value, lo), hi)
        if self.log:
            lo, hi, value = math.log10(lo), math.log10(hi), math.log10(value)
        return (value - lo) / (hi - lo) if hi > lo else 0.5


@dataclass(frozen=True)
class Series:
    """One chart series, drawn as a line, as markers or as both.  Every
    marker carries its point's tooltip, so ``tips`` (one per point) is
    what turns the markers on."""

    color: str
    points: Sequence[Tuple[float, float]]
    tips: Sequence[str] = ()
    line: bool = True
    dash: str = ""
    opacity: float = 1.0
    width: float = 2.0
    radius: float = 5.0


#: Chart frame: width and the plot margins around it.
_WIDTH, _LEFT, _RIGHT, _TOP, _BOTTOM = 640, 70, 16, 14, 40


def _line_chart(
    x: Axis,
    y: Axis,
    series: Sequence[Series],
    rules: Sequence[float] = (),
    bands: Sequence[Tuple[float, float, str]] = (),
    height: int = 330,
) -> str:
    """An SVG line chart: grid and tick labels on both axes, shaded
    x-bands (``(start, end, tip)``, under everything), dashed vertical
    rules, then every series' line and markers."""
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = height - _TOP - _BOTTOM
    bottom, right = _TOP + plot_h, _LEFT + plot_w

    def px(value: float) -> float:
        return _LEFT + x.frac(value) * plot_w

    def py(value: float) -> float:
        return bottom - y.frac(value) * plot_h

    parts: List[str] = []
    for start, end, tip in bands:
        x0, x1 = px(start), px(end)
        parts.append(
            f'<rect x="{x0:.1f}" y="{_TOP}" '
            f'width="{max(x1 - x0, 1.0):.1f}" height="{plot_h}" '
            f'fill="var(--s2)" opacity="0.18" tabindex="0" '
            f'data-tip="{_esc(tip)}"/>'
        )
    for tick in x.ticks:
        at = px(tick)
        parts.append(
            f'<line x1="{at:.1f}" y1="{_TOP}" x2="{at:.1f}" '
            f'y2="{bottom}" stroke="var(--grid)"/>'
            f'<text x="{at:.1f}" y="{height - 22}" '
            f'text-anchor="middle">{_esc(x.label(tick))}</text>'
        )
    for tick in y.ticks:
        at = py(tick)
        parts.append(
            f'<line x1="{_LEFT}" y1="{at:.1f}" x2="{right}" '
            f'y2="{at:.1f}" stroke="var(--grid)"/>'
            f'<text x="{_LEFT - 6}" y="{at + 3:.1f}" '
            f'text-anchor="end">{_esc(y.label(tick))}</text>'
        )
    for rule in rules:
        at = px(rule)
        parts.append(
            f'<line x1="{at:.1f}" y1="{_TOP}" x2="{at:.1f}" '
            f'y2="{bottom}" stroke="var(--axis)" stroke-dasharray="4 3"/>'
        )
    for s in series:
        if not (s.line and s.points):
            continue
        path = " ".join(
            f'{"L" if i else "M"} {px(a):.1f} {py(b):.1f}'
            for i, (a, b) in enumerate(s.points)
        )
        style = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        if s.opacity != 1.0:
            style += f' opacity="{s.opacity:g}"'
        parts.append(
            f'<path d="{path}" fill="none" stroke="{s.color}" '
            f'stroke-width="{s.width:g}" stroke-linejoin="round"{style}/>'
        )
    for s in series:
        for (a, b), tip in zip(s.points, s.tips):
            parts.append(
                f'<circle cx="{px(a):.1f}" cy="{py(b):.1f}" '
                f'r="{s.radius:g}" fill="{s.color}" '
                f'stroke="var(--surface-1)" stroke-width="2" '
                f'tabindex="0" data-tip="{_esc(tip)}"/>'
            )
    mid_y = _TOP + plot_h / 2
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.0f}" y="{height - 6}" '
        f'text-anchor="middle">{_esc(x.title)}</text>'
        f'<text x="12" y="{mid_y:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 12 {mid_y:.0f})">{_esc(y.title)}</text>'
    )
    return (
        f'<svg viewBox="0 0 {_WIDTH} {height}" width="{_WIDTH}" '
        f'height="{height}" role="img">{"".join(parts)}</svg>'
    )


def _decades(lo: float, hi: float) -> List[float]:
    ticks = []
    while lo <= hi * 1.0001:
        ticks.append(lo)
        lo *= 10
    return ticks


#: Quarter marks, for charts ticked at fractions of their range.
_QUARTERS = (0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# Stats page
# ---------------------------------------------------------------------------
def _heatmap(rows: Sequence[TileGroupProfile], title: str) -> str:
    if not rows:
        return ""
    cells = []
    for row in sorted(rows, key=lambda r: r.group):
        fill, ink = _util_color(row.utilization)
        tip = (
            f"{row.group} - utilization {row.utilization:.2f} "
            f"(busy {row.busy_cycles:,.0f}, blocked "
            f"{row.blocked_cycles:,.0f}, stalled "
            f"{row.stalled_cycles:,.0f} cycles)"
        )
        cells.append(
            f'<div class="cell"><div class="fill" tabindex="0" '
            f'style="background:{fill};color:{ink}" '
            f'data-tip="{_esc(tip)}">{row.utilization:.2f}</div>'
            f'<div class="name">{_esc(row.group)}</div></div>'
        )
    ramp = "".join(
        f'<span class="step" style="background:{step}"></span>'
        for step in SEQ_RAMP[::3]
    )
    table = _table(
        ["tile group", "tiles", "busy", "blocked", "stalled", "util"],
        [
            [r.group, r.tiles, _fmt(r.busy_cycles, 1),
             _fmt(r.blocked_cycles, 1), _fmt(r.stalled_cycles, 1),
             f"{r.utilization:.2f}"]
            for r in sorted(rows, key=lambda r: -r.busy_cycles)
        ],
    )
    return _card(
        title,
        f'<div class="heatmap">{"".join(cells)}</div>',
        f'<div class="ramp-key"><span>idle 0.0</span>{ramp}'
        "<span>busy 1.0</span></div>",
        f"<details><summary>Table view</summary>{table}</details>",
    )


def _roofline(report: StatsReport) -> str:
    points = report.roofline_points
    if not points:
        return ""
    xs = [p["bytes_per_flop"] for p in points if p["bytes_per_flop"] > 0]
    x_lo = 10 ** math.floor(math.log10(min(xs))) if xs else 1e-3
    x_hi = 10 ** math.ceil(math.log10(max(xs))) if xs else 10.0
    fractions = [
        p["attainable_fraction"] for p in points
        if p["attainable_fraction"] > 0
    ]
    y_lo = 10 ** math.floor(math.log10(min(fractions + [1.0])))
    y_lo = max(min(y_lo, 0.1), 1e-4)
    chips = sorted(report.roofline_knees)
    series: List[Series] = []
    for index, chip in enumerate(chips):
        # The chip's roofline: flat at 1.0 until the knee, then 1/x.
        knee = report.roofline_knees[chip]
        if knee > 0:
            series.append(Series(
                _color(index),
                [(x_lo, 1.0), (knee, 1.0), (x_hi, knee / x_hi)],
                opacity=0.55,
            ))
        mine = [p for p in points if p["chip"] == chip]
        series.append(Series(
            _color(index),
            [(p["bytes_per_flop"], p["attainable_fraction"]) for p in mine],
            tips=[
                f'{p["layer"]} on {p["chip"]}: '
                f'{p["bytes_per_flop"]:.3g} B/FLOP, attains '
                f'{p["attainable_fraction"]:.2f} of peak '
                f'({p["boundedness"]})'
                for p in mine
            ],
            line=False, radius=6,
        ))
    chart = _line_chart(
        Axis("operational intensity (bytes / FLOP)", x_lo, x_hi,
             _decades(x_lo, x_hi), log=True),
        Axis("attainable fraction of peak", y_lo, 1.0,
             _decades(y_lo, 1.0), log=True),
        series,
    )
    table = _table(
        ["layer", "chip", "B/FLOP", "attainable", "regime"],
        [
            [p["layer"], p["chip"], f'{p["bytes_per_flop"]:.4g}',
             f'{p["attainable_fraction"]:.3f}', p["boundedness"]]
            for p in points
        ],
    )
    return _card(
        "Roofline - layers vs chip ceilings",
        _legend(
            [(chip, f"background:{_color(i)}") for i, chip in
             enumerate(chips)],
            "line = chip roofline; dots left of the knee are "
            "compute-bound",
        ),
        chart,
        f"<details><summary>Table view</summary>{table}</details>",
    )


def _attribution_bars(report: StatsReport) -> str:
    rows = report.attributions()
    if not rows:
        return ""
    bars = []
    for row in rows:
        total = row.total_cycles
        if total <= 0:
            continue
        segments = []
        for index, cause in enumerate(CAUSE_ORDER):
            share = row.cycles.get(cause, 0.0) / total
            if share <= 0:
                continue
            tip = (
                f"{row.group} [{row.simulator}] - {cause.value}: "
                f"{share:.1%} ({row.cycles.get(cause, 0.0):,.0f} of "
                f"{total:,.0f} cycles)"
            )
            segments.append(
                f'<div class="seg" tabindex="0" '
                f'style="width:{share * 100:.2f}%;'
                f'background:{_color(index)}" '
                f'data-tip="{_esc(tip)}"></div>'
            )
        label = f"{row.group} [{row.simulator[0]}]"
        bars.append(
            f'<div class="row"><div class="row-label" '
            f'data-tip="{_esc(row.group)} ({row.simulator}) - dominant '
            f'{_esc(row.dominant.value)}; fix: {_esc(row.remedy)}">'
            f'{_esc(label)}</div>'
            f'<div class="track">{"".join(segments)}</div></div>'
        )
    table = _table(
        ["tile group", "sim", *(c.value for c in CAUSE_ORDER),
         "roofline", "dominant", "what would fix it"],
        [
            [r.group, r.simulator,
             *(f"{r.share(cause):.2f}" for cause in CAUSE_ORDER),
             r.boundedness or "-", r.dominant.value, r.remedy]
            for r in sorted(rows, key=lambda r: -r.total_cycles)
        ],
    )
    return _card(
        "Cycle attribution - where each tile group's beat goes",
        _legend([
            (cause.value, f"background:{_color(i)}")
            for i, cause in enumerate(CAUSE_ORDER)
        ]),
        f'<div class="bars">{"".join(bars)}</div>',
        '<div class="muted">[a] analytical stage - [e] engine tile; '
        "each bar normalized to its own beat</div>",
        "<details open><summary>Table view (with remedies)</summary>"
        f"{table}</details>",
    )


def _percentile_tables(report: StatsReport) -> str:
    by_group: Dict[str, List[Tuple[str, Dict[str, float]]]] = {}
    for group, name, histogram in report.metrics.histograms():
        by_group.setdefault(group, []).append(
            (name, histogram.summary())
        )
    if not by_group:
        return ""
    stats = ("mean", "p50", "p90", "p95", "p99", "max")
    return _card(None, *(
        f"<h2>{_esc(group)}</h2>" + _table(
            ["metric", "count", *stats],
            [
                [name, f'{summary["count"]:,.0f}',
                 *(_fmt(summary[s], 2) for s in stats)]
                for name, summary in by_group[group]
            ],
        )
        for group in sorted(by_group)
    ))


def stats_html(report: StatsReport) -> str:
    """The ``repro stats`` page."""
    result = report.result
    engine_note = (
        "functional engine + analytical model"
        if report.engine_ran
        else f"analytical model only ({_esc(report.engine_skipped)})"
    )
    return _page(
        "stats", "performance", report.network,
        f"{_esc(report.node)} - minibatch {report.minibatch} - "
        f"{engine_note} - fingerprint "
        f"<code>{_esc(report.fingerprint[:16])}</code>",
        _kpis(
            ("Pipeline beat", _fmt(result.training_pipeline.beat, 1),
             "cycles"),
            ("Training", _fmt(result.training_images_per_s), "img/s"),
            ("Evaluation", _fmt(result.evaluation_images_per_s), "img/s"),
            ("PE utilization", f"{result.pe_utilization:.2f}", "of peak"),
        ),
        _heatmap(
            report.analytical_profile,
            "Utilization heatmap - analytical tile groups "
            "(unit/step, one pipeline beat)",
        ),
        _heatmap(
            report.engine_profile,
            "Utilization heatmap - engine CompHeavy tiles",
        ),
        _roofline(report),
        _attribution_bars(report),
        _percentile_tables(report),
    )


# ---------------------------------------------------------------------------
# Serving pages: the latency-throughput curve and one run
# ---------------------------------------------------------------------------
def _latency_chart(curve) -> str:
    """Offered load (fraction of each tenant's saturation share)
    against p50/p99 request latency on a log scale — one categorical
    series per network, p99 solid, p50 faded."""
    rows: Dict[str, List[Tuple[float, float, float, float]]] = {
        name: [] for name in curve.networks
    }
    for point in curve.points:
        for stats in point.report.tenants:
            rows[stats.network].append((
                point.fraction,
                stats.latency_percentile_ms(50),
                stats.latency_percentile_ms(99),
                stats.offered_qps,
            ))
    values = [
        v for points in rows.values() for (_, p50, p99, _) in points
        for v in (p50, p99) if v > 0
    ]
    if not values:
        return ""
    x_hi = max(f for points in rows.values() for (f, *_) in points)
    y_lo = 10 ** math.floor(math.log10(min(values)))
    y_hi = 10 ** math.ceil(math.log10(max(values)))
    if y_hi <= y_lo:
        y_hi = y_lo * 10
    series: List[Series] = []
    for index, name in enumerate(curve.networks):
        points = rows[name]
        series.append(Series(
            _color(index), [(f, p50) for f, p50, _, _ in points],
            dash="5 4", opacity=0.45,
        ))
        series.append(Series(
            _color(index), [(f, p99) for f, _, p99, _ in points],
            tips=[
                f"{name} at {f:g}x saturation ({qps:,.0f} QPS "
                f"offered): p50 {p50:.3g}ms, p99 {p99:.3g}ms"
                for f, p50, p99, qps in points
            ],
        ))
    chart = _line_chart(
        Axis("offered load (fraction of saturation)", 0.0, x_hi,
             [t for t in _QUARTERS if t <= x_hi]),
        Axis("request latency (ms)", y_lo, y_hi, _decades(y_lo, y_hi),
             log=True),
        series,
        rules=[1.0] if x_hi >= 1.0 else [],
    )
    return _card(
        "Latency vs offered load",
        _legend(
            [(name, f"background:{_color(i)}") for i, name in
             enumerate(curve.networks)],
            "solid = p99, dashed = p50; dotted rule = saturation",
        ),
        chart,
    )


def curve_html(curve) -> str:
    """The page for a :class:`~repro.serve.curve.CurveReport`."""
    config = curve.config
    policy = config.policy
    worst_p99 = max(
        (
            stats.latency_percentile_ms(99)
            for point in curve.points
            for stats in point.report.tenants
        ),
        default=0.0,
    )
    shed = sum(p.report.shed for p in curve.points)
    offered = sum(p.report.offered for p in curve.points)
    return _page(
        "serve", "serving", ", ".join(curve.networks),
        f"{_esc(curve.node)} - {_esc(config.arrivals)} arrivals, seed "
        f"{config.seed} - {_esc(policy.kind)} batching (max batch "
        f"{policy.max_batch}, max wait {policy.max_wait_s * 1e3:g}ms, "
        f"queue depth {policy.queue_depth}) - {config.duration_s:g}s "
        "per point",
        _kpis(
            ("Saturation", _fmt(curve.capacity_qps), "QPS (analytical)"),
            ("Load points", _fmt(len(curve.points)),
             f"x {len(curve.networks)} network(s)"),
            ("Worst p99", _fmt(worst_p99, 2), "ms"),
            ("Shed overall", f"{shed / offered:.1%}" if offered else "-",
             f"{shed:,} of {offered:,} requests"),
        ),
        _latency_chart(curve),
        _card("Curve points", _table(
            ["network", "load", "offered QPS", "sustained QPS", "p50 ms",
             "p95 ms", "p99 ms", "shed", "batch"],
            [
                [row["network"], f'{row["fraction"]:g}',
                 _fmt(row["offered_net_qps"]), _fmt(row["sustained_qps"]),
                 _fmt(row["p50_ms"], 3), _fmt(row["p95_ms"], 3),
                 _fmt(row["p99_ms"], 3), f'{row["shed_rate"]:.1%}',
                 f'{row["mean_batch"]:.1f}']
                for row in curve.rows()
            ],
        )),
        _card("Placement", _table(
            ["network", "clusters", "share", "fill us", "beat us",
             "rate img/s", "saturation QPS"],
            [
                [t.network, t.clusters, f"{t.share:.1%}",
                 _fmt(t.fill_s * 1e6), _fmt(t.beat_s * 1e6),
                 _fmt(t.rate_qps),
                 _fmt(t.saturation_qps(policy.max_batch))]
                for t in curve.placement.tenants
            ],
        )),
    )


def _timeline_chart(report) -> str:
    """Per-bucket p99 latency over the run, with every degraded
    interval shaded — the healthy-vs-degraded latency contrast at a
    glance."""
    bins = [b for b in report.timeline if b["completed"] > 0]
    if not bins:
        return ""
    x_hi = report.horizon_s or 1.0
    y_hi = max(b["p99_ms"] for b in bins) * 1.15 or 1.0
    chart = _line_chart(
        Axis("run time (s)", 0.0, x_hi, [x_hi * f for f in _QUARTERS],
             label="{:.3g}".format),
        Axis("p99 latency (ms)", 0.0, y_hi,
             [y_hi * f / 1.15 for f in _QUARTERS],
             label="{:.3g}".format),
        [Series(
            "var(--s1)",
            [((b["start_s"] + b["end_s"]) / 2, b["p99_ms"]) for b in bins],
            tips=[
                f"{b['start_s']:.4f}-{b['end_s']:.4f}s: "
                f"p99 {b['p99_ms']:.4g}ms, {b['completed']:.0f} done, "
                f"{b['degraded']:.0f} degraded, {b['failed']:.0f} failed"
                for b in bins
            ],
            radius=4,
        )],
        bands=[
            (i.start_s, i.end_s,
             f"degraded {i.start_s:.4f}-{i.end_s:.4f}s: "
             + ", ".join(i.sites))
            for i in report.degraded_intervals
        ],
        height=280,
    )
    return _card(
        "Latency timeline",
        _legend([
            ("bucket p99", "background:var(--s1)"),
            ("degraded interval", "background:var(--s2);opacity:0.4"),
        ]),
        chart,
    )


def run_html(report) -> str:
    """The page for one :class:`~repro.serve.report.ServeReport`; a run
    without a fault lifecycle shows no faults and no bands."""
    sub = (
        f"{_esc(report.node)} - {_esc(report.arrivals)} arrivals, "
        f"seed {report.seed} - {_esc(report.policy.kind)} batching - "
        f"{report.offered_qps:,.0f} offered QPS over "
        f"{report.duration_s:g}s"
    )
    if report.failures is not None:
        sub += f" - {_esc(report.failures.describe())}"
    burn = report.error_budget_burn()
    degraded_share = (
        report.degraded_s / report.horizon_s if report.horizon_s else 0.0
    )
    findings = report.slo_findings()
    return _page(
        "serve", "serving run", ", ".join(t.network for t in report.tenants),
        sub,
        _kpis(
            ("Availability", f"{report.availability:.2%}",
             f"{report.completed:,} of {report.offered:,} offered"),
            ("Error-budget burn", _fmt(burn, 2) if burn else "0",
             "unavailability / budget"),
            ("Faults", _fmt(len(report.fault_events) // 2),
             f"{len(report.degraded_intervals)} degraded interval(s)"),
            ("Degraded time", f"{degraded_share:.1%}",
             f"{report.degraded_s:.4f}s of {report.horizon_s:.4f}s"),
        ),
        _timeline_chart(report),
        _card("Request outcomes", _table(
            ["network", "offered", "completed", "shed", "timed out",
             "failed", "avail", "retries", "hedges", "healthy p99 ms",
             "degraded p99 ms", "down s"],
            [
                [row["network"], row["offered"], row["completed"],
                 row["shed"], row["timed_out"], row["failed"],
                 f"{row['availability']:.2%}", row["retries"],
                 row["hedges"], _fmt(row["healthy_p99_ms"], 6),
                 _fmt(row["degraded_p99_ms"], 6), _fmt(row["down_s"], 4)]
                for row in report.rows()
            ],
        )),
        _card("SLO findings", _table(
            ["scope", "objective", "target", "actual", "verdict"],
            [
                [f.scope, f.objective, f"{f.target:g}", f"{f.actual:g}",
                 "ok" if f.ok else "VIOLATED"]
                for f in findings
            ],
        )) if findings else "",
        _card("Fault/repair log", _table(
            ["time s", "action", "id", "kind", "site", "magnitude"],
            [
                [f"{e.time_s:.4f}", e.action, e.fault.fault_id,
                 e.fault.kind.value, e.fault.site,
                 f"{e.fault.magnitude:g}"]
                for e in report.fault_events
            ],
        )) if report.fault_events else "",
    )


# ---------------------------------------------------------------------------
# Scale-out page (sweep scaling curves + TCO KPIs)
# ---------------------------------------------------------------------------
def _series_label(key: Tuple[str, str, str]) -> str:
    network, preset, strategy = key
    return f"{network}/{preset} {strategy}"


def _scaling_kpis(series: Dict[tuple, List[dict]]) -> str:
    rows = [row for points in series.values() for row in points]
    if not rows:
        return ""
    best = max(rows, key=lambda r: r["system_train_images_per_s"])
    cheapest_run = min(rows, key=lambda r: r["dollars_per_training_run"])
    cheapest_inf = min(rows, key=lambda r: r["dollars_per_1m_inferences"])
    return _kpis(
        ("Best system throughput",
         _fmt(best["system_train_images_per_s"]),
         f"img/s ({best['network']} x{best['nodes']})"),
        ("Cheapest training run",
         f"${cheapest_run['dollars_per_training_run']:,.2f}",
         f"{cheapest_run['network']} x{cheapest_run['nodes']} "
         f"({cheapest_run['strategy']})"),
        ("Cheapest inference",
         f"${cheapest_inf['dollars_per_1m_inferences']:,.2f}",
         f"per 1M images ({cheapest_inf['network']} "
         f"x{cheapest_inf['nodes']})"),
        ("Largest system",
         _fmt(max(r["nodes"] for r in rows)),
         f"node(s), {len(series)} configuration(s)"),
    )


def _scaling_chart(series: Dict[tuple, List[dict]]) -> str:
    """System training throughput vs node count, one categorical series
    per (network, preset, strategy); each series' ideal linear scaling
    (its smallest-system rate extrapolated) drawn dashed."""
    keys = [k for k, points in series.items() if points]
    if not keys:
        return ""
    nodes = sorted({row["nodes"] for k in keys for row in series[k]})
    x_lo, x_hi = nodes[0], nodes[-1]
    ideal = {
        key: series[key][0]["system_train_images_per_s"]
        / series[key][0]["nodes"]
        for key in keys
    }
    y_hi = max(
        max(row["system_train_images_per_s"] for row in series[k])
        for k in keys
    )
    y_hi = max(y_hi, max(ideal[k] * x_hi for k in keys))
    if y_hi <= 0 or x_hi <= 0:
        return ""
    lines: List[Series] = []
    for index, key in enumerate(keys):
        lines.append(Series(
            _color(index),
            [(x_lo, ideal[key] * x_lo), (x_hi, ideal[key] * x_hi)],
            dash="5 4", opacity=0.4, width=1.5,
        ))
        lines.append(Series(
            _color(index),
            [(r["nodes"], r["system_train_images_per_s"])
             for r in series[key]],
            tips=[
                f"{_series_label(key)} at {r['nodes']} node(s): "
                f"{r['system_train_images_per_s']:,.0f} img/s "
                f"({r['scaling_efficiency']:.0%} of linear), "
                f"${r['dollars_per_training_run']:,.2f}/training run"
                for r in series[key]
            ],
        ))
    chart = _line_chart(
        Axis("nodes", x_lo, x_hi, nodes),
        Axis("system training throughput (img/s)", 0.0, y_hi,
             [y_hi * f for f in _QUARTERS], label=_fmt),
        lines,
    )
    return _card(
        "Scaling curve",
        _legend(
            [(_series_label(key), f"background:{_color(i)}")
             for i, key in enumerate(keys)],
            "solid = simulated, dashed = ideal linear scaling",
        ),
        chart,
    )


def sweep_html(results: Sequence) -> str:
    """The scale-out page for sweep results: a TCO KPI row, the
    scaling-curve chart, and its table twin."""
    from repro.bench.export import sweep_scaling_series

    series = sweep_scaling_series(results)
    networks = sorted({key[0] for key in series})
    return _page(
        "sweep", "scale-out",
        ", ".join(networks) if networks else "no results",
        f"{len(list(results))} sweep row(s), "
        f"{len(series)} configuration(s)",
        _scaling_kpis(series),
        _scaling_chart(series),
        _card("Scaling points", _table(
            ["configuration", "nodes", "minibatch", "train img/s",
             "eval img/s", "efficiency", "power kW", "$/training run",
             "$/1M inferences"],
            [
                [_series_label(key), row["nodes"], row["minibatch"],
                 _fmt(row["system_train_images_per_s"]),
                 _fmt(row["system_eval_images_per_s"]),
                 f'{row["scaling_efficiency"]:.1%}',
                 _fmt(row["system_power_w"] / 1e3, 2),
                 f'{row["dollars_per_training_run"]:,.2f}',
                 f'{row["dollars_per_1m_inferences"]:,.2f}']
                for key in series
                for row in series[key]
            ],
        )),
    )

"""Self-contained static HTML run reports from RunRecord manifests.

:func:`render_report` turns one or more RunRecord sets into a single
HTML file with **zero external resource references** — no CDN, no
scripts, no fonts, no images; all charts are inline SVG or styled
HTML, all styling is one ``<style>`` block (light and dark via
``prefers-color-scheme``).  Rendering is **deterministic**: the same
records produce byte-identical HTML (no timestamps, no randomness),
so reports diff cleanly in CI artifacts.

Sections:

- stat tiles (runs / algorithms / backends / largest ``n``);
- the runs table;
- inline-SVG cost curves (PRAM time and work-per-node vs ``n``, one
  series per algorithm/backend pair);
- per-phase time and work breakdown bars — the paper's "schedule
  shape" view (Match2's sort dominating, Match4 deleting it);
- a phase-share heatmap (runs × phases), plus per-processor occupancy
  heatmaps for records produced by ``repro profile`` (which stashes
  the machine occupancy grid in ``extra``);
- a memory & data-movement panel for records carrying a
  ``ResourceReport`` in ``extra["resources"]`` (stacked per-phase
  allocation bars, the bytes-touched bandwidth table, and the
  bytes-per-shard-hop serialization ledger);
- run-over-run deltas, pairing records by workload identity with the
  same semantics as ``benchmarks/compare.py``: deterministic integer
  metrics (time / work / per-phase) regress on **any** increase,
  wall-clock only beyond a 10% tolerance.
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

from .runrecord import RunRecord

__all__ = ["render_report", "write_report", "diff_records"]

#: Wall-clock tolerance for the delta section (compare.py's default).
WALLCLOCK_TOL = 0.10

# Categorical series slots (light / dark), fixed order — never cycled.
_SERIES_LIGHT = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948"]
_SERIES_DARK = ["#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767"]
#: Sequential blue ramp (steps 100..700) for magnitude encodings.
_SEQ_RAMP = ["#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
             "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
             "#184f95", "#104281", "#0d366b"]
_FOLD_COLOR = "var(--muted)"  # the ">8 categories" fold, never a new hue

_CSS = """
:root { color-scheme: light dark; }
body.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --good: #006300; --bad: #d03b3b;
""" + "".join(
    f"  --series-{i + 1}: {c};\n" for i, c in enumerate(_SERIES_LIGHT)
) + """
  margin: 0; background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --good: #0ca30c; --bad: #d03b3b;
""" + "".join(
    f"    --series-{i + 1}: {c};\n" for i, c in enumerate(_SERIES_DARK)
) + """
  }
}
main { max-width: 980px; margin: 0 auto; padding: 24px 16px 48px; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 10px; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
.card { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 16px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { flex: 1 1 140px; }
.tile .v { font-size: 26px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: right; padding: 4px 10px;
         border-bottom: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 500; font-size: 12px; }
th:first-child, td:first-child { text-align: left; }
tr:hover td { background: var(--page); }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 8px 0;
          color: var(--text-secondary); font-size: 12px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 5px;
              vertical-align: -1px; }
.bar-row { display: flex; align-items: center; gap: 10px; margin: 6px 0; }
.bar-label { flex: 0 0 210px; font-size: 12px;
             color: var(--text-secondary); text-align: right;
             white-space: nowrap; overflow: hidden;
             text-overflow: ellipsis; }
.bar { flex: 1; display: flex; gap: 2px; height: 18px;
       border-radius: 4px; overflow: hidden; }
.bar .seg { height: 100%; min-width: 1px; }
.heat { border-spacing: 2px; border-collapse: separate; }
.heat td { border: none; width: 16px; height: 16px; padding: 0;
           border-radius: 2px; }
.heat th { border: none; font-size: 11px; padding: 0 6px; }
.delta-up { color: var(--bad); }
.delta-down { color: var(--good); }
.note { color: var(--muted); font-size: 12px; }
svg text { fill: var(--text-secondary); font: 11px system-ui,
           -apple-system, "Segoe UI", sans-serif; }
svg .axis-line { stroke: var(--baseline); stroke-width: 1; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
footer { margin-top: 36px; color: var(--muted); font-size: 12px; }
"""


def _e(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _series_color(index: int) -> str:
    """Fixed-order categorical slot; folds past 8 into the muted ink."""
    return (f"var(--series-{index + 1})" if index < len(_SERIES_LIGHT)
            else _FOLD_COLOR)


def _seq_color(value: float) -> str:
    """Sequential ramp lookup for a magnitude in [0, 1]."""
    value = min(1.0, max(0.0, value))
    return _SEQ_RAMP[round(value * (len(_SEQ_RAMP) - 1))]


def _label(rec: RunRecord) -> str:
    parts = [f"{rec.algorithm}/{rec.backend}", f"n={rec.n}"]
    if rec.seed is not None:
        parts.append(f"s{rec.seed}")
    return " ".join(parts)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


# -- deltas (compare.py semantics on RunRecord objects) ---------------------


def _int_metrics(rec: RunRecord) -> dict[str, int]:
    out = {"time": rec.time, "work": rec.work}
    for name, time, work, _steps in rec.phases:
        out[f"phase.{name}.time"] = time
        out[f"phase.{name}.work"] = work
    return out


def diff_records(
    baseline: Sequence[RunRecord],
    current: Sequence[RunRecord],
    *,
    wallclock_tol: float = WALLCLOCK_TOL,
) -> list[dict[str, Any]]:
    """Pair records by workload identity and diff their metrics.

    Same rules as ``benchmarks/compare.py``: integer metrics are
    deterministic, so any increase is a ``regression`` and any
    decrease an ``improvement``; ``wall_s`` moves only outside
    ``wallclock_tol``.  Baseline workloads absent from ``current``
    are ``missing``; current-only workloads are ``new``.  When a key
    repeats inside one set, the last record wins.
    """
    base_by_key = {rec.key(): rec for rec in baseline}
    cur_by_key = {rec.key(): rec for rec in current}
    findings: list[dict[str, Any]] = []
    for key in sorted(base_by_key, key=repr):
        base = base_by_key[key]
        cur = cur_by_key.get(key)
        if cur is None:
            findings.append({"kind": "missing", "label": _label(base),
                             "metric": "", "baseline": None,
                             "current": None})
            continue
        base_ints, cur_ints = _int_metrics(base), _int_metrics(cur)
        for metric in sorted(base_ints):
            b, c = base_ints[metric], cur_ints.get(metric)
            if c is None or c == b:
                continue
            kind = "regression" if c > b else "improvement"
            findings.append({"kind": kind, "label": _label(base),
                             "metric": metric, "baseline": b, "current": c})
        if base.wall_s is not None and cur.wall_s is not None:
            b, c = base.wall_s, cur.wall_s
            if c > b * (1.0 + wallclock_tol):
                findings.append({"kind": "regression", "label": _label(base),
                                 "metric": "wall_s", "baseline": b,
                                 "current": c})
            elif c < b * (1.0 - wallclock_tol):
                findings.append({"kind": "improvement",
                                 "label": _label(base), "metric": "wall_s",
                                 "baseline": b, "current": c})
    for key in sorted(cur_by_key, key=repr):
        if key not in base_by_key:
            findings.append({"kind": "new", "label": _label(cur_by_key[key]),
                             "metric": "", "baseline": None, "current": None})
    return findings


# -- sections ---------------------------------------------------------------


def _tiles(records: Sequence[RunRecord]) -> str:
    algorithms = sorted({r.algorithm for r in records})
    backends = sorted({r.backend for r in records})
    tiles = [
        ("runs", str(len(records))),
        ("algorithms", str(len(algorithms)) if algorithms else "0"),
        ("backends", ", ".join(backends) or "0"),
        ("largest n", f"{max((r.n for r in records), default=0):,}"),
    ]
    cells = "".join(
        f'<div class="card tile"><div class="v">{_e(v)}</div>'
        f'<div class="k">{_e(k)}</div></div>'
        for k, v in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _runs_table(records: Sequence[RunRecord]) -> str:
    head = ("<tr><th>workload</th><th>p</th><th>time</th><th>work</th>"
            "<th>work/node</th><th>wall ms</th><th>util</th></tr>")
    rows = []
    for rec in records:
        util = rec.extra.get("utilization")
        wall = "-" if rec.wall_s is None else f"{rec.wall_s * 1e3:.3f}"
        rows.append(
            f"<tr><td>{_e(_label(rec))}</td><td>{rec.p:,}</td>"
            f"<td>{rec.time:,}</td><td>{rec.work:,}</td>"
            f"<td>{rec.work / max(rec.n, 1):.2f}</td>"
            f"<td>{wall}</td>"
            f"<td>{'-' if util is None else f'{float(util):.3f}'}</td></tr>"
        )
    return f'<div class="card"><table>{head}{"".join(rows)}</table></div>'


def _nice_ticks(top: float, count: int = 4) -> list[float]:
    if top <= 0:
        return [0.0, 1.0]
    raw = top / count
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    v = 0.0
    while v < top + step / 2:
        ticks.append(v)
        v += step
    return ticks


def _svg_curves(
    records: Sequence[RunRecord],
    *,
    metric,
    y_label: str,
) -> str:
    """One inline-SVG line chart of ``metric(record)`` vs ``log2 n``."""
    groups: dict[tuple[str, str], dict[int, float]] = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.backend), {})[rec.n] = \
            float(metric(rec))
    series = {k: sorted(v.items()) for k, v in sorted(groups.items())
              if len(v) >= 2}
    if not series:
        return ('<p class="note">cost curves need at least two distinct '
                '<code>n</code> per algorithm/backend pair</p>')

    width, height = 680, 280
    ml, mr, mt, mb = 56, 130, 14, 34
    plot_w, plot_h = width - ml - mr, height - mt - mb
    all_n = sorted({n for pts in series.values() for n, _ in pts})
    x_lo, x_hi = math.log2(all_n[0]), math.log2(all_n[-1])
    x_span = (x_hi - x_lo) or 1.0
    y_top = max(v for pts in series.values() for _, v in pts) or 1.0
    ticks = _nice_ticks(y_top)
    y_top = ticks[-1]

    def x_of(n: int) -> float:
        return ml + (math.log2(n) - x_lo) / x_span * plot_w

    def y_of(v: float) -> float:
        return mt + plot_h - (v / y_top) * plot_h

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="{_e(y_label)} vs n">']
    for t in ticks:
        y = y_of(t)
        parts.append(f'<line class="gridline" x1="{ml}" y1="{y:.1f}" '
                     f'x2="{ml + plot_w}" y2="{y:.1f}"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_fmt(t if t % 1 else int(t))}'
                     f'</text>')
    parts.append(f'<line class="axis-line" x1="{ml}" y1="{mt + plot_h}" '
                 f'x2="{ml + plot_w}" y2="{mt + plot_h}"/>')
    for n in all_n:
        x = x_of(n)
        exp = math.log2(n)
        lab = f"2^{int(exp)}" if exp == int(exp) else f"{n:,}"
        parts.append(f'<text x="{x:.1f}" y="{mt + plot_h + 16}" '
                     f'text-anchor="middle">{_e(lab)}</text>')
    parts.append(f'<text x="{ml}" y="{mt - 2}">{_e(y_label)}</text>')

    direct_label = len(series) <= 4
    for idx, (key, pts) in enumerate(series.items()):
        color = _series_color(idx)
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{x_of(n):.1f},{y_of(v):.1f}"
            for i, (n, v) in enumerate(pts)
        )
        name = f"{key[0]}/{key[1]}"
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for n, v in pts:
            parts.append(
                f'<circle cx="{x_of(n):.1f}" cy="{y_of(v):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"><title>{_e(name)} n={n:,}: '
                f'{_fmt(v if v % 1 else int(v))}</title></circle>'
            )
        if direct_label:
            n_last, v_last = pts[-1]
            parts.append(
                f'<text x="{x_of(n_last) + 8:.1f}" '
                f'y="{y_of(v_last) + 4:.1f}">{_e(name)}</text>'
            )
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="sw" style="background:{_series_color(i)}">'
        f'</span>{_e(f"{k[0]}/{k[1]}")}</span>'
        for i, k in enumerate(series)
    )
    return (f'<div class="card">{"".join(parts)}'
            f'<div class="legend">{legend}</div></div>')


def _phase_order(records: Sequence[RunRecord]) -> list[str]:
    order: list[str] = []
    for rec in records:
        for name, *_ in rec.phases:
            if name not in order:
                order.append(name)
    return order


def _phase_bars(records: Sequence[RunRecord], *, field: str) -> str:
    """Stacked per-record breakdown bars of phase time or work."""
    order = _phase_order(records)
    if not order:
        return '<p class="note">no per-phase data in these records</p>'
    index = {name: i for i, name in enumerate(order)}
    pick = {"time": 1, "work": 2}[field]
    rows = []
    for rec in records:
        if not rec.phases:
            continue
        total = sum(ph[pick] for ph in rec.phases) or 1
        segs = []
        for ph in rec.phases:
            share = ph[pick] / total
            if share <= 0:
                continue
            segs.append(
                f'<div class="seg" style="flex:{share:.5f};'
                f'background:{_series_color(index[ph[0]])}">'
                f'<title></title></div>'
            )
            segs[-1] = (
                f'<div class="seg" title="{_e(ph[0])}: {ph[pick]:,} '
                f'({share * 100:.1f}%)" style="flex:{share:.5f};'
                f'background:{_series_color(index[ph[0]])}"></div>'
            )
        rows.append(
            f'<div class="bar-row"><div class="bar-label">'
            f'{_e(_label(rec))}</div><div class="bar">{"".join(segs)}'
            f'</div></div>'
        )
    legend = "".join(
        f'<span><span class="sw" style="background:{_series_color(i)}">'
        f'</span>{_e(name)}</span>'
        for i, name in enumerate(order)
    )
    return (f'<div class="card">{"".join(rows)}'
            f'<div class="legend">{legend}</div></div>')


def _phase_heatmap(records: Sequence[RunRecord]) -> str:
    """Runs × phases grid of time share — the schedule-shape view."""
    order = _phase_order(records)
    with_phases = [r for r in records if r.phases]
    if not order or not with_phases:
        return ""
    head = "".join(f"<th>{_e(name)}</th>" for name in order)
    rows = []
    for rec in with_phases:
        total = sum(ph[1] for ph in rec.phases) or 1
        share = {ph[0]: ph[1] / total for ph in rec.phases}
        cells = []
        for name in order:
            s = share.get(name)
            if s is None:
                cells.append("<td></td>")
            else:
                cells.append(
                    f'<td style="background:{_seq_color(s)}" '
                    f'title="{_e(name)}: {s * 100:.1f}%"></td>')
        rows.append(f'<tr><th style="text-align:right">'
                    f'{_e(_label(rec))}</th>{"".join(cells)}</tr>')
    return (f'<h2>Schedule shape (phase time share)</h2>'
            f'<div class="card"><table class="heat">'
            f'<tr><th></th>{head}</tr>{"".join(rows)}</table>'
            f'<p class="note">sequential ramp: light → dark = '
            f'0% → 100% of the run&#39;s PRAM time</p></div>')


def _occupancy_heatmaps(records: Sequence[RunRecord]) -> str:
    sections = []
    for rec in records:
        grid = rec.extra.get("occupancy")
        if not grid:
            continue
        util = rec.extra.get("utilization")
        rows = []
        for pid, row in enumerate(grid):
            cells = "".join(
                f'<td style="background:{_seq_color(float(v))}" '
                f'title="P{pid}, window {b}: {float(v) * 100:.0f}% busy">'
                f'</td>'
                for b, v in enumerate(row)
            )
            rows.append(f'<tr><th style="text-align:right">P{pid}</th>'
                        f'{cells}</tr>')
        title = _e(_label(rec))
        sub = ("" if util is None
               else f' — utilization {float(util):.3f}')
        sections.append(
            f'<div class="card"><p class="sub">{title}{sub} '
            f'(processors × step windows)</p>'
            f'<table class="heat">{"".join(rows)}</table></div>'
        )
    if not sections:
        return ""
    return ('<h2>Machine occupancy (instruction-level trace)</h2>'
            + "".join(sections))


def _fmt_bytes(v: float | int | None) -> str:
    if v is None:
        return "-"
    v = float(v)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(v) < 1024 or unit == "GiB":
            return (f"{v:,.0f} {unit}" if unit == "B"
                    else f"{v:,.1f} {unit}")
        v /= 1024
    return f"{v:,.1f} GiB"  # pragma: no cover - loop always returns


def _memory_panel(records: Sequence[RunRecord]) -> str:
    """Memory & data movement: per-phase alloc bars + shard byte table.

    Reads the :class:`~repro.telemetry.resources.ResourceReport` dict
    records carry in ``extra["resources"]`` (``repro profile --memory``
    / ``repro match`` under ``REPRO_RESOURCES``); returns ``""`` when
    no record has one, so reports without resource accounting are
    unchanged.
    """
    with_res = [(rec, rec.extra["resources"]) for rec in records
                if isinstance(rec.extra.get("resources"), Mapping)]
    if not with_res:
        return ""
    sections: list[str] = []

    # Stacked per-phase peak-allocation bars (one row per record, each
    # segment one phase's share of the summed per-phase peaks).
    order: list[str] = []
    for _, res in with_res:
        for ph in res.get("phases", ()):
            if ph.get("name") not in order:
                order.append(ph["name"])
    index = {name: i for i, name in enumerate(order)}
    rows = []
    for rec, res in with_res:
        phases = [ph for ph in res.get("phases", ())
                  if ph.get("alloc_peak_b")]
        if not phases:
            continue
        total = sum(ph["alloc_peak_b"] for ph in phases) or 1
        segs = []
        for ph in phases:
            share = ph["alloc_peak_b"] / total
            if share <= 0:
                continue
            segs.append(
                f'<div class="seg" title="{_e(ph["name"])}: peak '
                f'{_fmt_bytes(ph["alloc_peak_b"])} '
                f'(net {_fmt_bytes(ph.get("alloc_net_b"))})" '
                f'style="flex:{share:.5f};'
                f'background:{_series_color(index[ph["name"]])}"></div>'
            )
        rows.append(
            f'<div class="bar-row"><div class="bar-label">'
            f'{_e(_label(rec))}</div><div class="bar">{"".join(segs)}'
            f'</div></div>'
        )
    if rows:
        legend = "".join(
            f'<span><span class="sw" style="background:'
            f'{_series_color(i)}"></span>{_e(name)}</span>'
            for i, name in enumerate(order)
        )
        sections.append(
            f'<div class="card">{"".join(rows)}'
            f'<div class="legend">{legend}</div>'
            f'<p class="note">segment width = the phase&#39;s share of '
            f'the summed per-phase tracemalloc peaks</p></div>')

    # Bandwidth table: per phase, the bytes-touched estimate over the
    # measured wall-clock.
    bw_rows = []
    for rec, res in with_res:
        model = res.get("model", {})
        for ph in res.get("phases", ()):
            bw = ph.get("bandwidth_bps")
            bw_rows.append(
                f'<tr><td>{_e(_label(rec))}</td><td>{_e(ph["name"])}</td>'
                f'<td>{_fmt_bytes(ph.get("bytes_touched"))}</td>'
                f'<td>{_fmt_bytes(ph.get("alloc_peak_b"))}</td>'
                f'<td>{"-" if not bw else f"{bw / 1e9:.2f}"}</td></tr>')
    if bw_rows:
        models = sorted({
            f'{res.get("model", {}).get("name", "?")} '
            f'({res.get("model", {}).get("bytes_per_work", "?")} B/work, '
            f'{res.get("backend")})'
            for _, res in with_res})
        head = ("<tr><th>workload</th><th>phase</th><th>bytes touched</th>"
                "<th>peak alloc</th><th>GB/s</th></tr>")
        sections.append(
            f'<div class="card"><table>{head}{"".join(bw_rows)}</table>'
            f'<p class="note">bytes-touched model: '
            f'{_e("; ".join(models))} — an estimate for ranking phases, '
            f'not a measurement</p></div>')

    # The serialization ledger: bytes per shard hop.
    led_rows = []
    for rec, res in with_res:
        led = res.get("ledger", {})
        hops = led.get("shard_hops", 0)
        if not hops:
            continue
        per_hop = (led.get("bytes_out", 0) + led.get("bytes_in", 0)) / hops
        led_rows.append(
            f'<tr><td>{_e(_label(rec))}</td><td>{hops:,}</td>'
            f'<td>{_fmt_bytes(led.get("bytes_out"))}</td>'
            f'<td>{_fmt_bytes(led.get("bytes_in"))}</td>'
            f'<td>{_fmt_bytes(led.get("span_replay_bytes"))}</td>'
            f'<td>{_fmt_bytes(per_hop)}</td></tr>')
    if led_rows:
        head = ("<tr><th>workload</th><th>shard hops</th>"
                "<th>bytes out</th><th>bytes in</th><th>span replay</th>"
                "<th>payload / hop</th></tr>")
        sections.append(
            f'<div class="card"><table>{head}{"".join(led_rows)}</table>'
            f'<p class="note">exact serialized payload bytes over the '
            f'process-pool boundary</p></div>')

    if not sections:
        return ""
    return "<h2>Memory &amp; data movement</h2>" + "".join(sections)


def _delta_section(
    baseline: Sequence[RunRecord],
    current: Sequence[RunRecord],
) -> str:
    findings = diff_records(baseline, current)
    if not findings:
        return ('<h2>Run-over-run deltas</h2><div class="card">'
                '<p class="note">no differences — every paired metric is '
                'identical</p></div>')
    rows = []
    for f in findings:
        if f["kind"] in ("missing", "new"):
            rows.append(
                f'<tr><td>{_e(f["label"])}</td><td>{_e(f["kind"])}</td>'
                f'<td>-</td><td>-</td><td>-</td></tr>')
            continue
        b, c = f["baseline"], f["current"]
        pct = (c - b) / b * 100 if b else math.inf
        cls = "delta-up" if f["kind"] == "regression" else "delta-down"
        arrow = "▲" if c > b else "▼"
        rows.append(
            f'<tr><td>{_e(f["label"])}</td><td>{_e(f["metric"])}</td>'
            f'<td>{_fmt(b)}</td><td>{_fmt(c)}</td>'
            f'<td class="{cls}">{arrow} {pct:+.1f}%</td></tr>')
    head = ("<tr><th>workload</th><th>metric</th><th>baseline</th>"
            "<th>current</th><th>Δ</th></tr>")
    return (f'<h2>Run-over-run deltas</h2><div class="card">'
            f'<table>{head}{"".join(rows)}</table>'
            f'<p class="note">deterministic metrics regress on any '
            f'increase; wall-clock beyond ±{WALLCLOCK_TOL:.0%} '
            f'(benchmarks/compare.py semantics)</p></div>')


# -- entry points -----------------------------------------------------------


def render_report(
    records: Sequence[RunRecord],
    *,
    baseline: Sequence[RunRecord] | None = None,
    title: str = "repro run report",
) -> str:
    """Render records (and optional baseline) into one HTML page.

    With an explicit ``baseline`` the delta section compares it to
    ``records``; otherwise, if any workload identity appears more than
    once in ``records``, first occurrences act as the baseline and
    last occurrences as current (run-over-run inside one manifest).
    """
    records = list(records)
    if baseline is None:
        first: dict[tuple, RunRecord] = {}
        last: dict[tuple, RunRecord] = {}
        for rec in records:
            first.setdefault(rec.key(), rec)
            last[rec.key()] = rec
        repeated = [k for k in first if first[k] is not last[k]]
        if repeated:
            baseline = [first[k] for k in repeated]
            delta_current: Sequence[RunRecord] = [last[k] for k in repeated]
        else:
            delta_current = []
    else:
        delta_current = records

    builds = sorted({f"{r.version} @ {r.git_rev}" for r in records
                     if r.version or r.git_rev})
    body = [f"<h1>{_e(title)}</h1>"]
    if not records:
        body.append('<p class="note">no run records</p>')
    else:
        body.append(f'<p class="sub">{len(records)} run record(s)</p>')
        body.append(_tiles(records))
        body.append("<h2>Runs</h2>")
        body.append(_runs_table(records))
        body.append("<h2>Cost curves</h2>")
        body.append(_svg_curves(records, metric=lambda r: r.time,
                                y_label="PRAM time (steps)"))
        body.append(_svg_curves(records,
                                metric=lambda r: r.work / max(r.n, 1),
                                y_label="work per node"))
        body.append("<h2>Per-phase time breakdown</h2>")
        body.append(_phase_bars(records, field="time"))
        body.append("<h2>Per-phase work breakdown</h2>")
        body.append(_phase_bars(records, field="work"))
        body.append(_phase_heatmap(records))
        body.append(_occupancy_heatmaps(records))
        body.append(_memory_panel(records))
        if baseline:
            body.append(_delta_section(baseline, delta_current))
    footer = "; ".join(builds) if builds else "unknown build"
    body.append(f"<footer>produced by {_e(footer)}</footer>")
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        "<meta name=\"viewport\" "
        "content=\"width=device-width, initial-scale=1\">\n"
        f"<title>{_e(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head>\n<body class=\"viz-root\">\n<main>\n"
        + "\n".join(body)
        + "\n</main>\n</body>\n</html>\n"
    )


def write_report(
    path,
    records: Sequence[RunRecord],
    *,
    baseline: Sequence[RunRecord] | None = None,
    title: str = "repro run report",
) -> Path:
    """Render and write the report; returns its path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_report(records, baseline=baseline, title=title),
                 encoding="utf-8")
    return p

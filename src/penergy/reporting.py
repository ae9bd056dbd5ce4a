"""Deterministic CSV and SVG artifacts for the command-line reports.

Same inputs must give byte-identical files: header keys are sorted, floats
are written with repr (shortest round-trip form), nothing timestamps or
environment-dependent ever enters the output.  SVG charts are static
polyline plots assembled by hand; they depend only on the data series.
Linear axes map arrays in one numpy pass, in the scalar mapping's order of
operations, so the text is a point-by-point loop's; log axes map point by
point, as np.log and math.log may differ in the last bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#57606a")


def format_cell(value) -> str:
    """One CSV cell; floats keep full round-trip precision."""
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _header_value(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return format_cell(value)


def _cells(columns) -> list:
    """Each column's cells as text.  A float64 array is formatted through
    one repr per distinct bit pattern in the table (bits, not values, so
    -0.0 stays apart from 0.0); any other column cell by cell."""
    floats = [i for i, c in enumerate(columns)
              if isinstance(c, np.ndarray) and c.dtype == np.float64]
    out = [None if i in floats else [format_cell(v) for v in c]
           for i, c in enumerate(columns)]
    if floats:
        bits = np.concatenate([np.ascontiguousarray(columns[i]).ravel()
                               .view(np.int64) for i in floats])
        distinct, index = np.unique(bits, return_inverse=True)
        text = np.array([repr(v) for v in distinct.view(np.float64).tolist()],
                        dtype=object)[index].tolist()
        start = 0
        for i in floats:
            out[i] = text[start:start + columns[i].size]
            start += columns[i].size
    return out


def csv_text(names, columns, header: dict | None = None) -> str:
    """CSV with '# key=value' comment headers, sorted for reproducibility,
    and one column of values per name."""
    lines = [f"# {key}={_header_value(header[key])}"
             for key in sorted(header or {})]
    lines.append(",".join(names))
    if len(columns) != len(names):
        raise ValueError("need one column per name")
    cells = _cells(columns)
    if len({len(c) for c in cells}) > 1:
        raise ValueError("columns differ in length")
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def write_csv(path, names, columns, header: dict | None = None) -> Path:
    """Write the CSV, making its directory first if need be."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(csv_text(names, columns, header))
    return path


# ---------------------------------------------------------------------------
# SVG line charts


def step_series(nodes, cell_values):
    """Duplicate nodes/values into the staircase polyline of a density."""
    nodes = np.asarray(nodes, dtype=float)
    cells = np.asarray(cell_values, dtype=float)
    xs = np.repeat(nodes, 2)[1:-1]
    ys = np.repeat(cells, 2)
    return xs, ys


class _Axis:
    """Maps data values onto pixel coordinates, linearly or in log scale."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float,
                 log: bool):
        if log:
            lo = max(lo, 1e-300)
            hi = max(hi, lo)
        if hi <= lo:
            if log:
                lo, hi = lo / 2.0, lo * 2.0
            else:
                lo, hi = lo - 1.0, hi + 1.0
        self.lo, self.hi, self.log = lo, hi, log
        self.px_lo, self.px_hi = px_lo, px_hi

    def _t(self, v: float) -> float:
        if self.log:
            v = max(v, 1e-300)
            return (math.log(v) - math.log(self.lo)) \
                / (math.log(self.hi) - math.log(self.lo))
        return (v - self.lo) / (self.hi - self.lo)

    def px(self, v: float) -> float:
        return self.px_lo + self._t(v) * (self.px_hi - self.px_lo)

    def pxs(self, v: np.ndarray) -> list:
        """px of every entry, in one numpy pass on a linear axis."""
        if self.log:
            return [self.px(t) for t in v.tolist()]
        return (self.px_lo + (v - self.lo) / (self.hi - self.lo)
                * (self.px_hi - self.px_lo)).tolist()

    def ticks(self, count: int = 5):
        if self.log:
            return [float(t) for t in
                    np.geomspace(self.lo, self.hi, count)]
        return [float(t) for t in np.linspace(self.lo, self.hi, count)]


def svg_chart(series, *, title: str, x_label: str, y_label: str,
              log_x: bool = False, log_y: bool = False) -> str:
    """Static polyline chart; series is a list of (label, xs, ys)."""
    width, height = 720, 460
    ml, mr, mt, mb = 72, 24, 48, 56
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if log_x:
        xs_all = xs_all[xs_all > 0]
    if log_y:
        ys_all = ys_all[ys_all > 0]
    if xs_all.size == 0 or ys_all.size == 0:
        xs_all = np.array([0.1, 1.0])
        ys_all = np.array([0.1, 1.0])
    x_axis = _Axis(float(xs_all.min()), float(xs_all.max()),
                   ml, width - mr, log_x)
    y_axis = _Axis(float(ys_all.min()), float(ys_all.max()),
                   height - mb, mt, log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # grid and tick labels
    for tx in x_axis.ticks():
        px = x_axis.px(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" '
                     f'y2="{height - mb}" stroke="#dddddd"/>')
        parts.append(f'<text x="{px:.2f}" y="{height - mb + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tx:.4g}</text>')
    for ty in y_axis.ticks():
        py = y_axis.px(ty)
        parts.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{width - mr}" '
                     f'y2="{py:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{ty:.4g}</text>')
    # axes
    parts.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
                 f'y2="{height - mb}" stroke="#333333"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" '
                 f'y2="{height - mb}" stroke="#333333"/>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{x_label}</text>')
    parts.append(f'<text x="18" y="{(mt + height - mb) / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13" transform="rotate(-90 18 '
                 f'{(mt + height - mb) / 2:.1f})">{y_label}</text>')
    # series
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        keep = ~((log_x & (xs <= 0)) | (log_y & (ys <= 0)))
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(
            x_axis.pxs(xs[keep]), y_axis.pxs(ys[keep]))))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<rect x="{ml + 10}" y="{ly - 9}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{ml + 28}" y="{ly + 2}" '
                     f'font-family="sans-serif" font-size="12">'
                     f'{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, text: str) -> Path:
    """Write the SVG, making its directory first if need be."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path

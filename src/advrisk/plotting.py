"""Minimal SVG line charts; no plotting dependency.

CSV is the authoritative output format.  These charts exist so frontier
sweeps can be eyeballed without further tooling.
"""

from __future__ import annotations

import numpy as np

_PALETTE = ["#1f6fb4", "#d1542e", "#3d9152", "#8458a9", "#b0902c", "#4d4d4d"]

_WIDTH, _HEIGHT = 640, 440
_MARGIN = 56


def svg_line_chart(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render ``[(label, xs, ys), ...]`` as an SVG document string."""
    points = [(np.asarray(xs, float), np.asarray(ys, float)) for _, xs, ys in series]
    finite = [(x[np.isfinite(x) & np.isfinite(y)], y[np.isfinite(x) & np.isfinite(y)])
              for x, y in points]
    all_x = np.concatenate([x for x, _ in finite]) if finite else np.array([0.0, 1.0])
    all_y = np.concatenate([y for _, y in finite]) if finite else np.array([0.0, 1.0])
    if all_x.size == 0:
        all_x = np.array([0.0, 1.0])
        all_y = np.array([0.0, 1.0])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    def sx(x):
        return _MARGIN + (x - x0) / (x1 - x0) * (_WIDTH - 2 * _MARGIN)

    def sy(y):
        return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
        f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {_HEIGHT / 2})">{ylabel}</text>'
        )
    for i, ((label, _, _), (x, y)) in enumerate(zip(series, finite)):
        if x.size == 0:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        parts.append(
            f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 16 * i + 10}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def frontier_svg(table, path, title: str = "") -> None:
    """Chart a ResultTable: (sr, ar) frontier if present, each estimator's AR
    against rho for fig-kf-vs-adv, else the first two columns."""
    header = table.header
    if "ar_kf_mean" in header:
        rho = table.column("rho")
        series = [("Kalman", rho, table.column("ar_kf_mean")),
                  ("robust", rho, table.column("ar_adv_mean"))]
        svg = svg_line_chart(series, title=title, xlabel="rho", ylabel="adversarial risk")
    elif "sr" in header and "ar_mean" in header:
        # one series per combination of the grouping columns present, so that
        # e.g. fig-observability draws one frontier per (alpha, k)
        keys = [c for c in ("kappa", "alpha", "k", "rho", "system_id") if c in header]
        if keys:
            cols = [header.index(c) for c in keys]
            groups = {}
            for row in table.rows:
                groups.setdefault(tuple(row[i] for i in cols), []).append(row)
            series = [
                (", ".join(f"{key}={v:g}" for key, v in zip(keys, vals)),
                 [r[header.index("sr")] for r in rows],
                 [r[header.index("ar_mean")] for r in rows])
                for vals, rows in sorted(groups.items())
            ]
        else:
            series = [("frontier", table.column("sr"), table.column("ar_mean"))]
        svg = svg_line_chart(series, title=title, xlabel="standard risk", ylabel="adversarial risk")
    else:
        xs = [row[0] for row in table.rows]
        ys = [row[1] if len(row) > 1 else 0.0 for row in table.rows]
        svg = svg_line_chart([(header[1] if len(header) > 1 else "value", xs, ys)],
                             title=title, xlabel=header[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)

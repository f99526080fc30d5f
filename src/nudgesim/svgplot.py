"""Tiny hand-rolled SVG line charts.

The CSV files are the canonical simulation output; ``simulate`` draws one
chart, ``quality.svg`` (per mode, the mean profile quality across personas
at each step), so a run is eyeballable without a plotting stack. The caller
fixes the y range. Output is plain static markup — same input, same bytes.
"""

from __future__ import annotations

from .corpus import write_text

PALETTE = ["#1b6ca8", "#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#66a61e"]

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 62
_MARGIN_RIGHT = 18
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46


def _fmt(x: float) -> str:
    return format(x, ".6g")


def line_chart(
    series: list[tuple[str, list[float]]],
    title: str,
    y_label: str,
    path,
    y_range: tuple[float, float],
) -> None:
    """Write one SVG with a polyline per (label, values) pair through
    ``corpus.write_text``. X is the step index; Y spans ``y_range`` (low < high)."""
    if not series or all(not values for _, values in series):
        raise ValueError("line_chart needs at least one non-empty series")

    n = max(len(values) for _, values in series)
    y_lo, y_hi = y_range

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(i: int) -> float:
        return _MARGIN_LEFT + (plot_w * i / max(n - 1, 1))

    def sy(v: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        # axes
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_MARGIN_TOP + plot_h}" stroke="#333"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h}" '
        f'x2="{_MARGIN_LEFT + plot_w}" y2="{_MARGIN_TOP + plot_h}" stroke="#333"/>',
        # y tick labels at both ends and midpoint
        f'<text x="{_MARGIN_LEFT - 6}" y="{sy(y_lo) + 4}" text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{sy((y_lo + y_hi) / 2) + 4}" text-anchor="end">'
        f"{_fmt((y_lo + y_hi) / 2)}</text>",
        f'<text x="{_MARGIN_LEFT - 6}" y="{sy(y_hi) + 4}" text-anchor="end">{_fmt(y_hi)}</text>',
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{_HEIGHT - 12}" text-anchor="end">step {n - 1}</text>',
        f'<text x="{_MARGIN_LEFT}" y="{_HEIGHT - 12}">step 0</text>',
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2})">{_escape(y_label)}</text>',
    ]

    for k, (label, values) in enumerate(series):
        if not values:
            continue
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(i))},{_fmt(sy(v))}" for i, v in enumerate(values))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * k
        lx = _MARGIN_LEFT + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}">{_escape(label)}</text>')

    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

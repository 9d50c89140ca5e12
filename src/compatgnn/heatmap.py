"""Dependency-free CSV and SVG emission for compatibility matrices.

SVG is text, so outputs are deterministic and diffable; the color ramp is
linear from white (0) to a saturated blue (1) with no renormalization, so
two heatmaps are visually comparable cell for cell.
"""

from xml.sax.saxutils import escape

import numpy as np

CELL = 44
ANNOTATE_MAX_K = 12
ROW_LABEL = "class"
COL_LABEL = "neighbor class"


def cm_to_csv(m):
    """Row-major CSV, six decimals."""
    m = np.asarray(m, dtype=np.float64)
    return "\n".join(",".join(f"{v:.6f}" for v in row) for row in m) + "\n"


def _cell_color(v):
    v = min(max(float(v), 0.0), 1.0)
    r = round(255 - 225 * v)
    g = round(255 - 175 * v)
    b = round(255 - 85 * v)
    return f"rgb({r},{g},{b})"


def cm_to_svg(m, title="compatibility matrix"):
    """Standalone SVG heatmap; cells are annotated when K <= 12."""
    m = np.asarray(m, dtype=np.float64)
    k = m.shape[0]
    left, top = 70, 64
    width = left + k * CELL + 20
    height = top + k * CELL + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + k * CELL / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{escape(title)}</text>',
        f'<text x="{left + k * CELL / 2:.0f}" y="{top - 26}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{COL_LABEL}</text>',
    ]
    for j in range(k):
        parts.append(
            f'<text x="{left + j * CELL + CELL // 2}" y="{top - 8}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">{j}</text>')
    for i in range(k):
        parts.append(
            f'<text x="{left - 10}" y="{top + i * CELL + CELL // 2 + 4}" '
            f'text-anchor="end" font-family="monospace" font-size="11">'
            f'{ROW_LABEL} {i}</text>')
        for j in range(k):
            x, y = left + j * CELL, top + i * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{_cell_color(m[i, j])}" stroke="#888" stroke-width="0.5"/>')
            if k <= ANNOTATE_MAX_K:
                text_fill = "white" if m[i, j] > 0.6 else "black"
                parts.append(
                    f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + 4}" '
                    f'text-anchor="middle" font-family="monospace" font-size="10" '
                    f'fill="{text_fill}">{m[i, j]:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

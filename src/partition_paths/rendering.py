"""Plain-text and SVG drawings of lattice paths."""

from itertools import accumulate

from .errors import InvalidObjectError
from .paths import LatticePath, _RISE, _RUN

_UNIT, _MARGIN = 20, 10  # SVG user units per lattice unit and around the drawing


def render(p: LatticePath, fmt: str = "ascii") -> str:
    if not isinstance(fmt, str) or fmt not in RENDERERS:
        raise InvalidObjectError(f"unknown render format {fmt!r}")
    if not isinstance(p, LatticePath):
        raise InvalidObjectError(f"render expects a LatticePath, got {p!r}")
    return RENDERERS[fmt](p)


def render_ascii(p: LatticePath) -> str:
    """Character-cell drawing: one column per half-step, one row per unit
    height band, plus a bottom row marking the x-axis.

    U and L render as '/', D as '\\', H as two '_' cells sitting on its
    level; a cell crossed by two different segments renders as 'X'.  The
    empty path renders as the empty string.

    One pass over the steps writes each mark into the row of its band; the
    row, blank cells as wide as the drawing, is added when the path first
    reaches that band.
    """
    if not p:
        return ""
    width = len(p) + p.count("H")  # the end's x, the rightmost unless L turns back
    if "L" in p:
        width = max(accumulate(map(_RUN.__getitem__, p)))
    rows = []
    x = y = 0
    for s in p:
        if s == "U":
            if y == len(rows):
                rows.append([" "] * width)
            row, col, ch = rows[y], x, "/"
            x += 1
            y += 1
        elif s == "D":
            y -= 1
            row, col, ch = rows[y], x, "\\"
            x += 1
        elif s == "H":
            if y == len(rows):
                rows.append([" "] * width)
            row, col, ch = rows[y], x + 1, "_"
            old = row[x]
            row[x] = ch if old == " " or old == ch else "X"
            x += 2
        else:
            x -= 1
            y -= 1
            row, col, ch = rows[y], x, "/"
        old = row[col]
        row[col] = ch if old == " " or old == ch else "X"
    lines = ["".join(row).rstrip() for row in reversed(rows)]
    lines.append("-" * width)
    return "\n".join(lines)


def render_svg(p: LatticePath) -> str:
    """Standalone SVG drawing with unit-slope segments and a dot at every
    visited lattice point."""
    points = [(0, 0)]
    x = y = 0
    for s in p:
        x += _RUN[s]
        y += _RISE[s]
        points.append((x, y))
    max_x = max(px for px, _ in points)
    max_y = max(py for _, py in points)
    width = max_x * _UNIT + 2 * _MARGIN
    height = max_y * _UNIT + 2 * _MARGIN

    def sx(px):
        return _MARGIN + px * _UNIT

    def sy(py):
        return _MARGIN + (max_y - py) * _UNIT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if len(points) > 1:
        d = f"M {sx(points[0][0])} {sy(points[0][1])}" + "".join(
            f" L {sx(px)} {sy(py)}" for px, py in points[1:]
        )
        parts.append(f'<path d="{d}" fill="none" stroke="black" stroke-width="1"/>')
    for px, py in dict.fromkeys(points):
        parts.append(f'<circle cx="{sx(px)}" cy="{sy(py)}" r="2" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# Each render format and the function that draws it; render and the CLI read it.
RENDERERS = {"ascii": render_ascii, "svg": render_svg}

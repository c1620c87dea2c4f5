"""Plain-text and SVG drawings of lattice paths."""

from itertools import accumulate

from .errors import InvalidObjectError
from .paths import LatticePath, _RUN, _require_path

_UNIT, _MARGIN = 20, 10  # SVG user units per lattice unit and around the drawing


def render(p: LatticePath, fmt: str = "ascii") -> str:
    if not isinstance(fmt, str) or fmt not in RENDERERS:
        raise InvalidObjectError(f"unknown render format {fmt!r}")
    return RENDERERS[fmt](p)


def render_ascii(p: LatticePath) -> str:
    """Character-cell drawing: one column per half-step, one row per unit
    height band, plus a bottom row marking the x-axis.

    U and L render as '/', D as '\\', H as two '_' cells sitting on its
    level.  An H mark on a cell that another step marked renders as 'X';
    that takes a path mixing H and L steps, which no path class allows.  The
    empty path renders as the empty string.

    One pass over the steps writes each mark into the row of its band; the
    row, blank cells as wide as the drawing, is added when the path first
    reaches that band.
    """
    _require_path(p, "render_ascii")
    width = len(p) + p.count("H")  # the end's x, the rightmost unless L turns back
    if "L" in p:
        width = max(accumulate(map(_RUN.__getitem__, p)))
    rows = []
    x = y = 0
    # Every point visited has x + y even, and x - y never falls (D and H
    # raise it by 2), so the one mark that can land on a different mark is
    # the left cell of an H, on a '/' drawn earlier at the same x - y.
    for s in p:
        if s == "U":
            if y == len(rows):
                rows.append([" "] * width)
            rows[y][x] = "/"
            x += 1
            y += 1
        elif s == "D":
            y -= 1
            rows[y][x] = "\\"
            x += 1
        elif s == "H":
            if y == len(rows):
                rows.append([" "] * width)
            row = rows[y]
            row[x] = "_" if row[x] == " " else "X"
            row[x + 1] = "_"
            x += 2
        else:
            x -= 1
            y -= 1
            rows[y][x] = "/"
    lines = ["".join(row).rstrip() for row in reversed(rows)]
    lines.append("-" * width)
    return "\n".join(lines)


def render_svg(p: LatticePath) -> str:
    """Standalone SVG drawing with unit-slope segments and a dot at every
    visited lattice point."""
    _require_path(p, "render_svg")
    xs = list(accumulate(map(_RUN.__getitem__, p), initial=0))
    ys = p.heights()
    points = list(zip(xs, ys))
    max_y = max(ys)
    width = max(xs) * _UNIT + 2 * _MARGIN
    height = max_y * _UNIT + 2 * _MARGIN

    def sx(px):
        return _MARGIN + px * _UNIT

    def sy(py):
        return _MARGIN + (max_y - py) * _UNIT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    if p:
        d = " L ".join(f"{sx(px)} {sy(py)}" for px, py in points)
        parts.append(f'<path d="M {d}" fill="none" stroke="black" stroke-width="1"/>')
    for px, py in dict.fromkeys(points):
        parts.append(f'<circle cx="{sx(px)}" cy="{sy(py)}" r="2" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# Each render format and the function that draws it; render and the CLI read it.
RENDERERS = {"ascii": render_ascii, "svg": render_svg}

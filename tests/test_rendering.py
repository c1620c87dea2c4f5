import random
import tracemalloc

import pytest

from partition_paths import (
    InvalidObjectError,
    LatticePath,
    SetPartition,
    render,
    render_ascii,
    render_svg,
)

REF_PATH = "HUUUDUUDDHUUDDHDD"
RISE = {"U": 1, "D": -1, "H": 0, "L": -1}
RUN = {"U": 1, "D": 1, "H": 2, "L": -1}


def render_by_cells(steps, crossers=None):
    # Literal reference: a dict from (band, column) to the cell's character.
    # When crossers is a set, each step kind that marks a cell holding a
    # different mark goes into it, with the cell's column less the step's x.
    if not steps:
        return ""
    cells = {}

    def put(band, col, ch):
        old = cells.get((band, col))
        if old is not None and old != ch and crossers is not None:
            crossers.add((s, col - x))
        cells[(band, col)] = ch if old is None or old == ch else "X"

    x = y = 0
    for s in steps:
        if s == "U":
            put(y, x, "/")
        elif s == "D":
            put(y - 1, x, "\\")
        elif s == "L":
            put(y - 1, x - 1, "/")
        else:
            put(y, x, "_")
            put(y, x + 1, "_")
        x += RUN[s]
        y += RISE[s]
    top = max(band for band, _ in cells)
    width = max(col for _, col in cells) + 1
    rows = [
        "".join(cells.get((band, col), " ") for col in range(width)).rstrip()
        for band in range(top, -1, -1)
    ]
    rows.append("-" * width)
    return "\n".join(rows)


def svg_by_steps(steps):
    # Literal reference: the point list built one step at a time.
    points = [(0, 0)]
    x = y = 0
    for s in steps:
        x += RUN[s]
        y += RISE[s]
        points.append((x, y))
    max_x = max(px for px, _ in points)
    max_y = max(py for _, py in points)
    width, height = max_x * 20 + 20, max_y * 20 + 20

    def sx(px):
        return 10 + px * 20

    def sy(py):
        return 10 + (max_y - py) * 20

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


def valid_words(max_steps):
    """Every word over UDHL of at most max_steps steps whose heights stay
    nonnegative and end at 0."""
    words = [("", 0)]
    for word, h in words:
        if len(word) < max_steps:
            words.extend((word + s, h + RISE[s]) for s in "UDHL" if h + RISE[s] >= 0)
    return [word for word, h in words if h == 0]


def random_words(count, seed):
    """count valid UDHL words of 10 to 1,000 steps: U is as likely as a
    down step (D or L), among the steps that keep the height at least 0 and
    at most the number of steps left, so each word ends on the axis."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n, h, word = rng.randint(10, 1000), 0, []
        for left in range(n, 0, -1):
            s = rng.choice([s for s in "UUHDL" if 0 <= h + RISE[s] < left])
            word.append(s)
            h += RISE[s]
        words.append("".join(word))
    return words


class TestAscii:
    def test_single_peak_is_two_lines(self):
        out = render_ascii(LatticePath("UD"))
        assert out == "/\\\n--"
        assert out.count("/") == 1 and out.count("\\") == 1

    def test_horizontal(self):
        assert render_ascii(LatticePath("H")) == "__\n--"

    def test_up_horizontal_down(self):
        assert render_ascii(LatticePath("UHD")) == " __\n/  \\\n----"

    def test_reference_path_height(self):
        out = render_ascii(LatticePath(REF_PATH))
        lines = out.split("\n")
        assert len(lines) == 5  # four height bands plus the axis row
        assert lines[-1] == "-" * 20  # one column per half-step, two per H
        assert all(ord(c) < 128 for c in out)

    def test_skew_left_step(self):
        out = render_ascii(LatticePath("UUDL"))
        assert out == " /\\\n/ /\n---"

    def test_empty_path(self):
        assert render_ascii(LatticePath("")) == ""

    def test_matches_cell_reference_on_every_short_path(self):
        words = valid_words(9)
        assert len(words) == 9306  # the empty path and 9,305 others
        crossed, crossers = 0, set()
        for w in words:
            out = render_ascii(LatticePath(w))
            assert out == render_by_cells(w, crossers), w
            crossed += "X" in out
        assert crossed == 3415
        # only the left cell of an H ever lands on a different mark
        assert crossers == {("H", 0)}

    @pytest.mark.parametrize("path_class", ["skew_dyck", "no_even_peak"])
    def test_matches_cell_reference_past_nine_steps(self, paths_of, path_class):
        for n in range(8):
            for p in paths_of(n, path_class):
                assert render_ascii(p) == render_by_cells(p), p

    def test_matches_cell_reference_on_long_random_words(self):
        words = random_words(100, seed=2008)
        # the sample mixes H and L, retraces (UL, LU), and returns to the
        # axis many times within a word
        assert sum("H" in w and "L" in w for w in words) >= 90
        assert min(map(len, words)) >= 10 and max(map(len, words)) > 900
        assert sum("UL" in w and "LU" in w for w in words) >= 90
        returns = [LatticePath(w).heights()[1:-1].count(0) for w in words]
        assert sum(r >= 3 for r in returns) >= 50
        crossers = set()
        for w in words:
            assert render_ascii(LatticePath(w)) == render_by_cells(w, crossers), w
        assert crossers == {("H", 0)}

    def test_memory_is_linear_in_the_drawing(self):
        # LU retraces the path 50,000 times: the drawing is 301 rows of 600
        # cells, while len(p) + count("H") would make each row 100,600 wide
        p = LatticePath("U" * 300 + "LU" * 50000 + "D" * 300)
        tracemalloc.start()
        try:
            out = render_ascii(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = out.split("\n")
        assert len(lines) == 301 and lines[-1] == "-" * 600
        assert peak < 16 * 2**20


class TestSvg:
    def test_horizontal_is_one_segment_two_units(self):
        out = render_svg(LatticePath("H"))
        assert out.startswith("<svg ") and out.endswith("</svg>")
        assert 'd="M 10 10 L 50 10"' in out  # 2 units at 20 px per unit
        assert out.count("<circle") == 2

    def test_reference_path_segments_and_profile(self):
        out = render_svg(LatticePath(REF_PATH))
        assert out.count(" L ") == 17  # one polyline segment per step
        # y pixel coordinates encode the height profile, flipped and scaled
        path_data = out.split('d="')[1].split('"')[0]
        tokens = path_data.replace("M ", "").replace(" L ", " ").split()
        ys = [int(t) for t in tokens[1::2]]
        heights = LatticePath(REF_PATH).heights()
        max_y = max(heights)
        assert ys == [10 + 20 * (max_y - h) for h in heights]

    def test_self_contained(self):
        out = render_svg(LatticePath("UD"))
        assert 'xmlns="http://www.w3.org/2000/svg"' in out
        assert "href" not in out

    def test_empty_path_is_a_single_dot(self):
        out = render_svg(LatticePath(""))
        assert out.count("<circle") == 1
        assert "<path" not in out

    @pytest.mark.parametrize("path_class", ["schroder", "skew_dyck"])
    def test_matches_step_reference(self, paths_of, path_class):
        for n in range(8):
            for p in paths_of(n, path_class):
                assert render_svg(p) == svg_by_steps(p), p

    def test_matches_step_reference_on_long_random_words(self):
        for w in random_words(100, seed=2008):
            assert render_svg(LatticePath(w)) == svg_by_steps(w), w


class TestDispatch:
    def test_formats(self):
        p = LatticePath("UD")
        assert render(p, "ascii") == render_ascii(p)
        assert render(p, "svg") == render_svg(p)

    @pytest.mark.parametrize("renderer", [render_ascii, render_svg])
    @pytest.mark.parametrize("value", ["UX", None, [], SetPartition((1, 2))])
    def test_a_renderer_takes_only_a_path(self, renderer, value):
        message = f"^{renderer.__name__} expects a LatticePath, got "
        with pytest.raises(InvalidObjectError, match=message):
            renderer(value)
        with pytest.raises(InvalidObjectError, match=message):
            render(value, renderer.__name__[len("render_") :])

    def test_unknown_format(self):
        with pytest.raises(InvalidObjectError):
            render(LatticePath("UD"), "png")

    def test_cli_offers_exactly_the_table(self, capsys, monkeypatch):
        from partition_paths.cli import build_parser, main
        from partition_paths.rendering import RENDERERS

        assert tuple(RENDERERS) == ("ascii", "svg")
        # a format added to the table is offered by the CLI and drawn by render
        monkeypatch.setitem(RENDERERS, "steps", str)
        actions = build_parser().commands["render"]._actions
        choices = next(a.choices for a in actions if a.dest == "format")
        assert tuple(choices) == tuple(RENDERERS)
        assert main(["render", "--format", "steps", "UHD"]) == 0
        assert capsys.readouterr().out == "UHD\n"
        with pytest.raises(InvalidObjectError, match="^unknown render format 'png'$"):
            render(LatticePath("UD"), "png")

    def test_deterministic(self):
        p = LatticePath(REF_PATH)
        assert render_svg(p) == render_svg(p)
        assert render_ascii(p) == render_ascii(p)

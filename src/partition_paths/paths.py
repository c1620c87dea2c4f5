"""Lattice paths: Schroder, Dyck and skew Dyck paths with their restrictions.

Steps are single letters: U = (1,1), D = (1,-1), H = (2,0), L = (-1,-1).
A path starts at the origin, never drops below the x-axis and ends on it.
Generation order is lexicographic by step string under U < D < H < L.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from operator import length_hint
from typing import Callable, Iterator, Optional

from .errors import InvalidObjectError, require_size

_RISE = {"U": 1, "D": -1, "H": 0, "L": -1}
_RUN = {"U": 1, "D": 1, "H": 2, "L": -1}
_HALF_UNITS = {"U": 1, "D": 1, "H": 2, "L": 1}  # twice the semilength a step adds
_TAIL_UNITS = 12  # the most half units that generate_paths finishes from its table


@dataclass(frozen=True)
class ClassRules:
    """The step-local rules that define a path class.

    ``alphabet`` lists the allowed steps in generation order; ``forbidden``
    lists two-step factors that may not occur; a peak at level h is allowed
    exactly when ``peak_ok(h)`` holds, and ``peak_rule`` names the failure;
    ``end_down`` asks a nonempty path to end with a down step.  ``_moves``,
    derived from the alphabet and the forbidden factors, is the table that
    generation searches; it is private, so that no caller can change it
    apart from the rules that the check reads.
    """

    alphabet: str
    forbidden: tuple = ()
    peak_ok: Optional[Callable[[int], bool]] = None
    peak_rule: str = ""
    end_down: bool = False

    @cached_property
    def _moves(self) -> dict:
        """Each step (``""`` at the start) to the (step, rise, half units) of
        the steps that may follow it, in alphabet order: the children that
        :func:`generate_paths` tries, in generation order."""
        steps, bad = self.alphabet, self.forbidden
        return {
            prev: [(s, _RISE[s], _HALF_UNITS[s]) for s in steps if prev + s not in bad]
            for prev in ("", *self.alphabet)
        }


# The reason each forbidden factor reports.  UL and LU state the skew rule
# that up and left steps never trace the same unit segment.  An adjacent UL
# or LU retraces one.  A retrace by steps i and j > i + 1 makes steps
# i+1 .. j-1 a closed loop; on a skew path x - y is twice the number of D
# steps so far, so the loop has no D, as many U as L steps, and hence an
# adjacent UL or LU that ends before step j.  The rule's other half,
# x >= 0, follows from x >= y >= 0.
_FACTOR_REASONS = {
    "UH": "up step immediately followed by a horizontal step at position {first}",
    "UL": "left step retraces an up-step segment at position {second}",
    "LU": "up step retraces a left-step segment at position {second}",
}
_SKEW = ("UL", "LU")

CLASS_RULES = {
    "schroder": ClassRules("UDH"),
    "uh_free": ClassRules("UDH", ("UH",)),
    "no_even_peak": ClassRules(
        "UDH", peak_ok=lambda h: h % 2 == 1, peak_rule="peak at even level {level}"
    ),
    "uh_free_no_level_one": ClassRules(
        "UDH", ("UH",), peak_ok=lambda h: h != 1, peak_rule="peak at level one"
    ),
    "dyck": ClassRules("UD"),
    "skew_dyck": ClassRules("UDL", _SKEW),
    "skew_dyck_end_down": ClassRules("UDL", _SKEW, end_down=True),
}

PATH_CLASSES = tuple(CLASS_RULES)
_ANY_STEP = ClassRules("".join(_RISE))  # the constructor's rules: letters and heights


def _ends_down(steps: str) -> bool:
    return not steps or steps[-1] == "D"


def _check(steps: str, path_class=_ANY_STEP) -> None:
    """Raise :class:`InvalidObjectError` naming the first rule of the class
    that the steps break, in position order; by default it checks the letters
    and heights alone, as the constructor does, and names no class.  String
    searches find the first step that the class's moves do not allow, and a
    walk over the steps before it finds a drop or a forbidden peak; a
    :class:`LatticePath` proves its heights, so it is walked only for a peak
    rule."""
    rules = _ANY_STEP if path_class is _ANY_STEP else _rules(path_class)
    stop = len(steps) - len(steps.lstrip(rules.alphabet))  # first step not allowed
    for pair in rules.forbidden:
        k = steps.find(pair, 0, stop)
        if k >= 0:
            stop = k + 1
    peak_ok, prev, h = rules.peak_ok, "", 0
    rest = iter("" if isinstance(steps, LatticePath) and not peak_ok else steps[:stop])
    for s in rest:
        h += _RISE[s]
        if h < 0 or (peak_ok and s == "D" and prev == "U" and not peak_ok(h + 1)):
            i = stop - length_hint(rest)  # s is followed by length_hint(rest) steps
            if h < 0:
                raise InvalidObjectError(f"path drops below the axis at position {i}")
            peak = rules.peak_rule.format(level=h + 1)
            raise InvalidObjectError(f"{peak} at position {i - 1}")
        prev = s
    if stop < len(steps):
        s, i = steps[stop], stop + 1
        reason = f"unknown step character {s!r} at position {i}"
        if s in rules.alphabet:
            reason = _FACTOR_REASONS[steps[stop - 1 : i]].format(first=stop, second=i)
        elif rules is not _ANY_STEP:
            reason += f" (class {path_class} uses {'/'.join(rules.alphabet)})"
        raise InvalidObjectError(reason)
    if h:
        raise InvalidObjectError(f"path ends at height {h}, expected 0")
    if rules.end_down and not _ends_down(steps):
        raise InvalidObjectError("path does not end with a down step")


class LatticePath(str):
    """An immutable step sequence with nonnegative prefix heights: the value
    is the step string itself, so it equals and hashes as its steps, and
    indexing, slicing and ordering are those of a str; ``steps`` returns a
    plain str copy.

    The constructor checks only the height profile and the step letters, by
    the check that :func:`parse_path` runs, with rules that allow all four
    steps, so its message names the first fault in position order and no
    class.  The rules of each class (Dyck, UH-free, skew, ...) are stated
    once in :data:`CLASS_RULES`, which :func:`parse_path`, :func:`check_path`,
    :func:`classify` and :func:`generate_paths` read.
    """

    __slots__ = ()

    def __new__(cls, steps=""):
        if not isinstance(steps, str):
            try:
                steps = "".join(steps)
            except TypeError:
                raise InvalidObjectError(f"not a step sequence: {steps!r}") from None
        _check(steps)
        return str.__new__(cls, steps)

    # _trusted(steps) wraps a step string known to be a valid path without
    # checking it again, for generators and maps that build only such
    # strings; bound directly, it costs no Python frame per object
    _trusted = classmethod(str.__new__)

    steps = property(str.__str__)

    @property
    def semilength(self) -> int:
        return (len(self) + self.count("H")) // 2  # H spans two half units

    def __reduce__(self):
        # pickle protocols 0 and 1 would otherwise skip the checking __new__
        return type(self), (str(self),)

    def heights(self) -> list:
        """Prefix heights, starting from 0 (length = step count + 1)."""
        return list(accumulate(map(_RISE.__getitem__, self), initial=0))

    def __repr__(self):
        return f"LatticePath({self.steps!r})"


def _require_path(p, caller: str) -> None:
    if not isinstance(p, LatticePath):
        raise InvalidObjectError(f"{caller} expects a LatticePath, got {p!r}")


def peaks(p: LatticePath) -> list:
    """All (index, level) pairs where an up step is immediately followed by a
    down step; the level is the height reached by the up step."""
    _require_path(p, "peaks")
    out = []
    i = h = 0
    for s in p.replace("UD", "P"):  # each peak UD is one token P
        if s == "P":
            out.append((i, h + 1))
            i += 2
        else:
            h += _RISE[s]
            i += 1
    return out


@dataclass(frozen=True)
class PathFlags:
    uh_free: bool
    no_even_peak: bool
    no_level_one_peak: bool
    ends_with_down: bool


def classify(p: LatticePath) -> PathFlags:
    """Evaluate four rules of :data:`CLASS_RULES` on a path: no UH factor,
    the peak rules of no_even_peak and uh_free_no_level_one, and ending with
    a down step.

    The empty path satisfies every flag (it belongs to every class at
    semilength 0), including ends_with_down by convention.
    """
    _require_path(p, "classify")
    levels = [level for _, level in peaks(p)]
    return PathFlags(
        uh_free=not any(f in p for f in CLASS_RULES["uh_free"].forbidden),
        no_even_peak=all(map(CLASS_RULES["no_even_peak"].peak_ok, levels)),
        no_level_one_peak=all(map(CLASS_RULES["uh_free_no_level_one"].peak_ok, levels)),
        ends_with_down=_ends_down(p),
    )


def _rules(path_class: str) -> ClassRules:
    if path_class not in PATH_CLASSES:  # a tuple: an unhashable class is unknown
        raise InvalidObjectError(f"unknown path class {path_class!r}")
    return CLASS_RULES[path_class]


def check_path(p: LatticePath, path_class: str) -> None:
    """Raise :class:`InvalidObjectError` unless the path obeys every rule of
    the class in :data:`CLASS_RULES`; the message names the first fault met
    left to right and its position."""
    _require_path(p, "check_path")
    _check(p, path_class)


def parse_path(text: str, path_class: str = "schroder") -> LatticePath:
    """Parse and validate a step string as a member of the given class."""
    if not isinstance(text, str):
        raise InvalidObjectError(f"a path must be parsed from a str, got {text!r}")
    text = text.strip()
    _check(text, path_class)
    return LatticePath._trusted(text)


def generate_paths(n: int, path_class: str = "schroder") -> Iterator[LatticePath]:
    """Yield every path of semilength n in the class exactly once, in
    lexicographic order of the step string under U < D < H < L.

    Meet in the middle: a depth-first search builds each prefix until at most
    ``min(n, _TAIL_UNITS)`` half units are left, and a table memoised for this
    call, bounded by that cap, holds every finish of such a state in order, so
    each path costs one join.  Both take a step's children from its ``_moves``
    row, the peak rule and the height bounds that keep a prefix above the axis
    and let it end there, so no leaf is checked again.  Any n is taken; the
    CLI's list and count hold n to their exhaustive limit.
    """
    rules = _rules(path_class)
    require_size(n, "semilength")
    moves = rules._moves
    bad_peaks = {h for h in range(1, n + 1) if rules.peak_ok and not rules.peak_ok(h)}
    split = min(n, _TAIL_UNITS)

    def children(prev, left, y):  # (step, half units left, height) of each child
        return [
            (s, left - units, y + rise)
            for s, rise, units in moves[prev]
            if 0 <= y + rise <= left - units
            and not (s == "D" and prev == "U" and y in bad_peaks)
        ]

    @cache
    def tails(prev, left, y):  # every finish of a state, in generation order
        if left == 0:
            return [""] if not rules.end_down or _ends_down(prev) else []
        return [s + t for s, r, h in children(prev, left, y) for t in tails(s, r, h)]

    leaf = LatticePath._trusted
    stack = [("", "", 2 * n, 0)]  # (prefix, its last step, half units left, height)
    while stack:
        steps, prev, left, y = stack.pop()
        if left <= split:
            yield from map(leaf, map(steps.__add__, tails(prev, left, y)))
        else:  # pushed reversed, so that the children pop in generation order
            kids = reversed(children(prev, left, y))
            stack.extend((steps + s, s, r, h) for s, r, h in kids)

"""Lattice paths: Schroder, Dyck and skew Dyck paths with their restrictions.

Steps are single letters: U = (1,1), D = (1,-1), H = (2,0), L = (-1,-1).
A path starts at the origin, never drops below the x-axis and ends on it.
Generation order is lexicographic by step string under U < D < H < L.
"""

from dataclasses import dataclass
from operator import length_hint
from typing import Callable, Iterator, Optional

from .errors import InvalidObjectError, require_size

_RISE = {"U": 1, "D": -1, "H": 0, "L": -1}
_RUN = {"U": 1, "D": 1, "H": 2, "L": -1}
_HALF_UNITS = {"U": 1, "D": 1, "H": 2, "L": 1}  # twice the semilength a step adds
_STEPS = "".join(_RISE)


@dataclass(frozen=True)
class ClassRules:
    """The step-local rules that define a path class.

    ``alphabet`` lists the allowed steps in generation order; ``forbidden``
    lists two-step factors that may not occur; a peak at level h is allowed
    exactly when ``peak_ok(h)`` holds, and ``peak_rule`` names the failure;
    ``end_down`` asks a nonempty path to end with a down step.
    """

    alphabet: str
    forbidden: tuple = ()
    peak_ok: Optional[Callable[[int], bool]] = None
    peak_rule: str = ""
    end_down: bool = False


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


def _height_error(steps: str, complete: bool = True) -> Optional[str]:
    """The first height rule broken by a string of step letters: dropping
    below the axis or, if ``complete``, not ending on it."""
    h = 0
    rest = iter(steps)
    for s in rest:
        h += _RISE[s]
        if h < 0:
            # the step just taken is followed by length_hint(rest) others
            position = len(steps) - length_hint(rest)
            return f"path drops below the axis at position {position}"
    if complete and h:
        return f"path ends at height {h}, expected 0"
    return None


class LatticePath:
    """An immutable step sequence with nonnegative prefix heights.

    The constructor checks only the height profile and the step letters;
    the rules of each class (Dyck, UH-free, skew, ...) are stated once in
    :data:`CLASS_RULES`, which :func:`parse_path`, :func:`check_path`,
    :func:`classify` and :func:`generate_paths` read.
    """

    __slots__ = ("steps",)

    def __init__(self, steps=""):
        if not isinstance(steps, str):
            try:
                steps = "".join(steps)
            except TypeError:
                raise InvalidObjectError(f"not a step sequence: {steps!r}") from None
        # faults are reported in position order: the heights are walked only
        # up to the first foreign letter, which is reported if they hold
        i = len(steps) - len(steps.lstrip(_STEPS))
        error = _height_error(steps[:i], complete=i == len(steps))
        if error is None and i < len(steps):
            error = f"unknown step character {steps[i]!r} at position {i + 1}"
        if error:
            raise InvalidObjectError(error)
        self.steps = steps

    @classmethod
    def _trusted(cls, steps: str) -> "LatticePath":
        """Wrap a step string known to be a valid path, without checking it
        again (for generators and maps that build only such strings)."""
        self = object.__new__(cls)
        self.steps = steps
        return self

    @property
    def semilength(self) -> int:
        counts = {s: self.steps.count(s) for s in "UDHL"}
        return (counts["U"] + counts["D"] + counts["L"]) // 2 + counts["H"]

    def heights(self) -> list:
        """Prefix heights, starting from 0 (length = step count + 1)."""
        hs = [0]
        for s in self.steps:
            hs.append(hs[-1] + _RISE[s])
        return hs

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __eq__(self, other):
        if isinstance(other, LatticePath):
            return self.steps == other.steps
        return NotImplemented

    def __hash__(self):
        return hash(self.steps)

    def __str__(self):
        return self.steps

    def __repr__(self):
        return f"LatticePath({self.steps!r})"


def peaks(p: LatticePath) -> list:
    """All (index, level) pairs where an up step is immediately followed by a
    down step; the level is the height reached by the up step."""
    steps = p.steps
    out = []
    h = 0
    for i, s in enumerate(steps):
        h += _RISE[s]
        if s == "U" and i + 1 < len(steps) and steps[i + 1] == "D":
            out.append((i, h))
    return out


@dataclass(frozen=True)
class PathFlags:
    uh_free: bool
    no_even_peak: bool
    no_level_one_peak: bool
    ends_with_down: bool


def _factor_error(steps: str, rules: ClassRules) -> Optional[str]:
    hit = None  # the earliest forbidden factor, as (index, factor)
    for f in rules.forbidden:
        k = steps.find(f)
        if k >= 0 and (hit is None or k < hit[0]):
            hit = k, f
    if hit is None:
        return None
    k, f = hit
    return _FACTOR_REASONS[f].format(first=k + 1, second=k + 2)


def _peak_error(p: LatticePath, rules: ClassRules) -> Optional[str]:
    for i, level in peaks(p):
        if not rules.peak_ok(level):
            return f"{rules.peak_rule.format(level=level)} at position {i + 1}"
    return None


def _end_error(steps: str) -> Optional[str]:
    if steps and steps[-1] != "D":
        return "path does not end with a down step"
    return None


def classify(p: LatticePath) -> PathFlags:
    """Evaluate four rules of :data:`CLASS_RULES` on a path: no UH factor,
    the peak rules of no_even_peak and uh_free_no_level_one, and ending with
    a down step.

    The empty path satisfies every flag (it belongs to every class at
    semilength 0), including ends_with_down by convention.
    """
    levels = [level for _, level in peaks(p)]
    return PathFlags(
        uh_free=_factor_error(p.steps, CLASS_RULES["uh_free"]) is None,
        no_even_peak=all(map(CLASS_RULES["no_even_peak"].peak_ok, levels)),
        no_level_one_peak=all(map(CLASS_RULES["uh_free_no_level_one"].peak_ok, levels)),
        ends_with_down=_end_error(p.steps) is None,
    )


def _rules(path_class: str) -> ClassRules:
    if path_class not in PATH_CLASSES:  # a tuple: an unhashable class is unknown
        raise InvalidObjectError(f"unknown path class {path_class!r}")
    return CLASS_RULES[path_class]


def _check_alphabet(steps: str, path_class: str, alphabet: str) -> None:
    i = len(steps) - len(steps.lstrip(alphabet))  # first step outside the alphabet
    if i < len(steps):
        raise InvalidObjectError(
            f"unknown step character {steps[i]!r} at position {i + 1} "
            f"(class {path_class} uses {'/'.join(alphabet)})"
        )


def check_path(p: LatticePath, path_class: str) -> None:
    """Raise :class:`InvalidObjectError` unless the path obeys every rule of
    the class in :data:`CLASS_RULES`; the message names the first rule
    broken and its position."""
    if not isinstance(p, LatticePath):
        raise InvalidObjectError(f"check_path expects a LatticePath, got {p!r}")
    rules = _rules(path_class)
    _check_alphabet(p.steps, path_class, rules.alphabet)
    _check_step_rules(p, rules)


def _check_step_rules(p: LatticePath, rules: ClassRules) -> None:
    """check_path without the alphabet, which the caller has checked."""
    steps = p.steps
    error = (
        (rules.forbidden and _factor_error(steps, rules))
        or (rules.peak_ok and _peak_error(p, rules))
        or (rules.end_down and _end_error(steps))
    )
    if error:
        raise InvalidObjectError(error)


def parse_path(text: str, path_class: str = "schroder") -> LatticePath:
    """Parse and validate a step string as a member of the given class."""
    if not isinstance(text, str):
        raise InvalidObjectError(f"a path must be parsed from a str, got {text!r}")
    text = text.strip()
    rules = _rules(path_class)
    # a foreign letter is reported as such, before the heights are checked
    _check_alphabet(text, path_class, rules.alphabet)
    error = _height_error(text)
    if error:
        raise InvalidObjectError(error)
    p = LatticePath._trusted(text)
    _check_step_rules(p, rules)
    return p


def generate_paths(n: int, path_class: str = "schroder") -> Iterator[LatticePath]:
    """Yield every path of semilength n in the class exactly once, in
    lexicographic order of the step string under U < D < H < L.

    Iterative depth-first search over step choices, pruned by height and
    budget.  The class rules are bound once: the forbidden factors become the
    steps that may follow each step, and the peak rule the levels at which U
    may not be followed by D.  The pruning keeps every prefix above the axis
    and lets every leaf end on it, so leaves are not validated again.  Any n
    is taken; the CLI's list and count hold n to their exhaustive limit.
    """
    rules = _rules(path_class)
    require_size(n, "semilength")

    # steps in decreasing order, so that pushed children pop in increasing order
    follow = {
        prev: [
            (s, _RISE[s], _HALF_UNITS[s])
            for s in reversed(rules.alphabet)
            if prev + s not in rules.forbidden
        ]
        for prev in ("", *rules.alphabet)
    }
    bad_peaks = {h for h in range(1, n + 1) if rules.peak_ok and not rules.peak_ok(h)}
    end_down = rules.end_down
    leaf = LatticePath._trusted
    stack = [("", "", 2 * n, 0)]  # (prefix, its last step, half units left, height)
    while stack:
        steps, prev, remaining, y = stack.pop()
        if remaining == 0:
            if not (end_down and prev and prev != "D"):
                yield leaf(steps)
            continue
        for s, rise, units in follow[prev]:
            h = y + rise
            if h < 0 or h > remaining - units:
                continue
            if s == "D" and prev == "U" and y in bad_peaks:
                continue
            stack.append((steps + s, s, remaining - units, h))

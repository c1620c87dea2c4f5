"""Bijections between pattern-avoiding partitions and restricted paths.

Three maps are implemented, together with their inverses and compositions:

* ``encode`` sends a 12312-avoiding (or 12321-avoiding) partition of [n+1]
  to a UH-free Schroder path of semilength n.  The forward construction is
  the same for both patterns; only the decoding rule differs.
* ``decode`` inverts it, labeling the steps of the path and reading the
  partition word back off the down and horizontal steps.
* ``to_odd_peaks`` rewrites a UH-free path into a Schroder path of the same
  semilength whose peaks all sit at odd levels; ``to_uh_free`` inverts it.

Composing encode with to_odd_peaks gives bijections from each avoidance
class onto the paths without peaks at even level.

Each map's kernel decides its domain in the pass that builds the image (psi
forward's checks it first) and returns None off it; only then is the input
checked, for the message.  So each kernel restates its domain's rule, and only
the parity tests keep it equal to the rule that the checks read.  Results are
wrapped unchecked; a ``MAPS`` row holds a map's two directions, each a
function of a line.
"""

from collections import deque

from .errors import InvalidObjectError, PreconditionError
from .partitions import (
    FAST_PATTERNS, SetPartition, _letters, find_pattern, parse_partition
)
from .paths import LatticePath, _check, _require_path, parse_path

# The path class each map that reads a path takes, which its kernel decides
# (psi forward's is checked first); _WANTS names it in the map's message.
_DOMAINS = dict(decode="uh_free", to_odd_peaks="uh_free", to_uh_free="no_even_peak")
_DOMAINS["decode_trace"] = _DOMAINS["decode"]
_WANTS = {"uh_free": "a UH-free path", "no_even_peak": "no peak at even level"}
# Each pattern's decode rule: a non-peak down step takes the largest free
# label (the deque's back) for 12312 and the smallest (its front) for 12321.
_TAKE = {"12312": "pop", "12321": "popleft"}
PATTERNS = tuple(_TAKE)


def _require_pattern(pattern: str) -> None:
    if pattern not in PATTERNS:  # a tuple: an unhashable pattern is unsupported
        raise PreconditionError(
            f"unsupported pattern {pattern!r}, expected {' or '.join(PATTERNS)}"
        )


def _require_avoids(p: SetPartition, pattern: str) -> str:
    """The encoding of ``p``, which must be a nonempty avoider of ``pattern``."""
    if not isinstance(p, SetPartition):
        raise InvalidObjectError(f"expected a SetPartition, got {p!r}")
    _require_pattern(pattern)
    if len(p) == 0:
        raise PreconditionError("the empty partition is outside the bijection domain")
    entry = FAST_PATTERNS[pattern]
    if (steps := _encode(p, entry)) is None:
        witness = find_pattern(p, entry.word)
        if witness is None:
            fast = f"the fast {pattern} test says {p} contains the pattern"
            raise PreconditionError(f"{fast}, but find_pattern finds no occurrence")
        positions = ",".join(str(i + 1) for i in witness)
        raise PreconditionError(
            f"partition contains pattern {pattern} at positions {positions}",
            witness=witness,
        )
    return steps


def _require_image(kernel, p: LatticePath, caller: str, *args):
    """``kernel(p, *args)`` for a path ``p`` in the class of ``caller``, which
    the kernel decides; only a path that it refuses is checked, so that the
    message names the first fault, as :func:`_require_avoids` does."""
    _require_path(p, caller)
    if (image := kernel(p, *args)) is None:
        try:
            _check(p, _DOMAINS[caller])
        except InvalidObjectError as exc:
            want = _WANTS[_DOMAINS[caller]]
            raise PreconditionError(f"{caller} expects {want}; {exc}") from None
    return image


def encode(p: SetPartition, pattern: str = "12312") -> LatticePath:
    """Map an avoiding partition of [n+1] to a UH-free path of semilength n.

    Reading the factorization 1 w1 2 w2 ... k wk left to right: every block
    label i >= 2 contributes one more up step than the number of occurrences
    of i-1 after the first i, followed by one down step; every letter of wi
    equal to i contributes a horizontal step and every smaller letter a down
    step.  The one-element partition maps to the empty path.

    One pass over the word: a new maximum i reserves a slot in the output
    for its ascent, a letter equal to the running maximum emits H, and a
    letter c below it emits D and counts one late occurrence of c.  The
    counts are final once the word ends, and each reserved slot is then
    filled with its ascent U^(late+1) D.
    """
    return LatticePath._trusted(_require_avoids(p, pattern))


def _encode(word, rule):
    """The steps of :func:`encode` for a word of ints, or None unless it is a
    nonempty partition word that avoids the pattern whose ``Pattern`` is ``rule``."""
    letters = iter(word)
    if next(letters, None) != 1:
        return None
    step, state = rule.step, rule.start
    out = []
    slots = []  # slots[i]: where the ascent of label i + 2 goes in out
    late = []  # late[i]: occurrences of label i + 1 after the first i + 2
    mx = 1
    for c in letters:
        if c == mx:
            out.append("H")
        elif 0 < c < mx:  # the rule's step says if c completes an occurrence
            if (state := step(state, c, mx)) is None:
                return None
            late[c - 1] += 1
            out.append("D")
        elif c == mx + 1:  # restricted growth: a new maximum is the last plus one
            mx = c
            slots.append(len(out))
            late.append(0)
            out.append("")
        else:  # a letter below 1, or above the maximum plus one
            return None
    for slot, count in zip(slots, late):
        out[slot] = "U" * (count + 1) + "D"
    return "".join(out)


def _decode(steps: str, pattern: str):
    """The partition spelled by the path with a peak prepended, or None unless
    ``steps`` is a UH-free path: the pass restates that class's rule."""
    if steps.lstrip("UDH") or "UH" in steps:
        return None
    word = []
    # Up-step labels are pushed in nondecreasing order, so the unmatched ones
    # (the up-step multiset minus the down-step multiset) form a sorted deque:
    # its maximum is the back and its minimum the front.  It holds as many
    # labels as the height before the step: a D finding it empty drops below.
    free = deque()
    take = getattr(free, _TAKE[pattern])
    seen_peaks = 0
    # Each peak UD is one token P: it pushes its own label and pops it at
    # once, leaving the deque as it was, and two UD factors never overlap.
    try:
        for s in "P" + steps.replace("UD", "P"):
            if s == "P":
                seen_peaks += 1
                word.append(seen_peaks)
            elif s == "U":
                free.append(seen_peaks)
            elif s == "H":
                # the largest label to the left is the number of peaks passed
                word.append(seen_peaks)
            else:
                word.append(take())
    except IndexError:
        return None
    return None if free else SetPartition._trusted(word)


def decode(p: LatticePath, pattern: str = "12312") -> SetPartition:
    """Invert :func:`encode`: recover the partition word from a UH-free path.

    A peak is prepended; peak up steps are numbered 1, 2, ... left to right;
    every other up step and every horizontal step copies the largest label to
    its left; a peak down step copies its peak's label; every remaining down
    step takes the maximum (pattern 12312) or minimum (pattern 12321) of the
    multiset of up-step labels to its left minus the multiset of down-step
    labels to its left, multiplicities respected.  The labels of the down and
    horizontal steps, read left to right, spell the partition.  The empty
    path decodes to the one-element partition.
    """
    _require_pattern(pattern)
    return _require_image(_decode, p, "decode", pattern)


def decode_trace(p: LatticePath, pattern: str = "12312") -> str:
    """The step labeling used by :func:`decode`, as an "index step label"
    dump (debugging aid)."""
    _require_pattern(pattern)
    letters = iter(_require_image(_decode, p, "decode_trace", pattern))
    seen_peaks, lines = 0, []
    # _decode's tokens: a peak P labels its up step with the new peak count,
    # any other up step takes the count, and the H and D steps a letter
    for s in "P" + p.replace("UD", "P"):
        if s == "P":
            seen_peaks += 1
            lines += f"U {seen_peaks}", f"D {next(letters)}"
        else:
            lines.append(f"{s} {seen_peaks if s == 'U' else next(letters)}")
    return "\n".join(f"{i} {line}" for i, line in enumerate(lines))


def _rewrite_forward(steps: str) -> LatticePath:
    out = []
    open_factors = []  # factors left in each enclosing group, innermost last
    run = left = 0  # up steps before this token; factors left in the group
    # Each peak UD is one token P; UH-free, so an up step is followed by an
    # up step or by D, and a run of up steps ends in a P.
    for s in steps.replace("UD", "P"):
        if s == "D" and left:
            left -= 1  # an empty factor is its closing down step alone
            out.append("H" if left else "HD")
            continue
        if left:  # the group's next factor is nonempty and starts here
            out.append("U")
            open_factors.append(left)
            left = 0
        if s == "U":
            run += 1
        elif s == "P" and run:
            # U^k D with k = run + 1 >= 2: factors P1 ... P(k-1) follow
            out.append("U")
            left, run = run, 0
        elif s == "D":
            # closes the innermost nonempty factor, and its group if last
            left = open_factors.pop() - 1
            out.append("D" if left else "DD")
        else:
            out.append("H" if s == "H" else "UD")
    return LatticePath._trusted("".join(out))


def _rewrite_backward(steps: str):
    """The steps of :func:`to_uh_free`, or None unless ``steps`` is a path with
    no peak at an even level: the pass restates that class's rule."""
    if steps.lstrip("UDH"):
        return None
    out = []
    # innermost last: [index of the group's ascent in out, factors read] for
    # a group U B1 ... B(k-1) D whose factors are being read (an odd height),
    # None for the interior of a bracket factor U...D (an even height)
    frames = []
    try:
        for s in steps.replace("UD", "P"):  # each peak UD is one token P
            top = frames[-1] if frames else None
            if top is not None:
                if s == "D":
                    # the group ends: its ascent is U^k D, k = factors + 1
                    out[top[0]] = "U" * (top[1] + 1) + "D"
                    frames.pop()
                elif s == "P":  # a peak at an even level
                    return None
                else:
                    top[1] += 1
                    if s == "H":
                        out.append("D")  # an H factor leaves its down step alone
                    else:  # a U opens a bracket factor
                        frames.append(None)
            elif s == "D":
                # closes a bracket interior, or with no frame drops below
                frames.pop()
                out.append("D")
            elif s == "U":
                frames.append([len(out), 0])
                out.append("")
            else:
                out.append("H" if s == "H" else "UD")
    except IndexError:
        return None
    return None if frames else LatticePath._trusted("".join(out))


def to_odd_peaks(p: LatticePath) -> LatticePath:
    """Rewrite a UH-free path into a path of equal semilength whose peaks all
    sit at odd levels.

    Rules: a leading H or UD factor is kept as is; otherwise the path starts
    with k >= 2 up steps and decomposes along the first descents below each
    height as U^k D P1 D P2 ... D Pk, which becomes U P1' ... P(k-1)' D
    followed by the rewrite of Pk, where Pi' is H when Pi is empty and the
    rewrite of Pi wrapped in U...D otherwise.

    One left-to-right pass, linear time, no recursion, reading each peak UD
    as one token: each factor Pi ends at the first down step that leaves its
    base height, so a stack holding the number of factors still open in each
    enclosing group says what every token becomes as it is read.
    """
    return _require_image(_odd_peaks_or_none, p, "to_odd_peaks")


def to_uh_free(p: LatticePath) -> LatticePath:
    """Invert :func:`to_odd_peaks` on paths without peaks at even level.

    Case analysis on the first steps: leading H and UD factors peel off;
    otherwise the stretch between the initial up step and its matching
    return consists of factors that are each H or bracketed U...D, and these
    rebuild the initial ascent and the subordinate paths.  One left-to-right
    pass over tokens (a peak UD is one) with an explicit stack, linear time:
    the ascent U^k D fills a reserved slot once its factors are counted.
    """
    return _require_image(_rewrite_backward, p, "to_uh_free")


def encode_to_odd_peaks(p: SetPartition, pattern: str = "12312") -> LatticePath:
    """Composition of :func:`encode` and :func:`to_odd_peaks`: avoiding
    partitions of [n+1] onto paths of semilength n without even-level peaks."""
    return _rewrite_forward(_require_avoids(p, pattern))


def decode_from_odd_peaks(p: LatticePath, pattern: str = "12312") -> SetPartition:
    """Inverse of :func:`encode_to_odd_peaks`; a bad path outranks a bad pattern."""
    q = _require_image(_rewrite_backward, p, "to_uh_free")
    _require_pattern(pattern)
    return _decode(q, pattern)


def _decode_odd_peaks(steps: str, pattern: str):
    q = _rewrite_backward(steps)
    return None if q is None else _decode(q, pattern)


def _odd_peaks_or_none(steps: str):
    """:func:`_rewrite_forward` on a UH-free path, None off it: unlike the
    inverse kernels, this one does not decide its class, so a check does."""
    try:
        _check(steps, _DOMAINS["to_odd_peaks"])
    except InvalidObjectError:
        return None
    return _rewrite_forward(steps)


def _path_reader(kernel, checked, *args):
    """A map side that reads a path: the kernel decides in its pass, by its own
    statement of the class's rule, whether the stripped line lies in the map's
    path class; a line off it, or an input that is not a str, takes the checked
    map as a Schroder path, so that the message names the first fault.  Both
    calls take ``args`` after the path."""

    def read(text):
        if isinstance(text, str) and (image := kernel(text.strip(), *args)) is not None:
            return image
        return checked(parse_path(text), *args)

    return read


def _partition_reader(pattern: str, kernel, checked):
    """The mirror of :func:`_path_reader` for a map side that reads a partition."""

    def read(text):
        if (steps := _encode(_letters(text), FAST_PATTERNS[pattern])) is None:
            return checked(parse_partition(text), pattern)
        return kernel(steps)

    return read


# Each side is one function of an input line, which it parses into its domain.
MAPS = {
    "sigma": {
        "forward": _partition_reader("12312", LatticePath._trusted, encode),
        "inverse": _path_reader(_decode, decode, "12312"),
    },
    "phi": {
        "forward": _partition_reader("12321", LatticePath._trusted, encode),
        "inverse": _path_reader(_decode, decode, "12321"),
    },
    "psi": {
        "forward": _path_reader(_odd_peaks_or_none, to_odd_peaks),
        "inverse": _path_reader(_rewrite_backward, to_uh_free),
    },
    "full12312": {
        "forward": _partition_reader("12312", _rewrite_forward, encode_to_odd_peaks),
        "inverse": _path_reader(_decode_odd_peaks, decode_from_odd_peaks, "12312"),
    },
    "full12321": {
        "forward": _partition_reader("12321", _rewrite_forward, encode_to_odd_peaks),
        "inverse": _path_reader(_decode_odd_peaks, decode_from_odd_peaks, "12321"),
    },
}

"""Seeded input families for the large-object workload.

Every object here is built from its definition by the benchmark itself, never
by calling a map under test, so no input depends on another call succeeding.
Step strings and partition words are plain ``str`` and ``list`` values; the
worker wraps them in the library's types during set-up.
"""


def horizontal(n):
    """H^n: UH-free and without peaks at all."""
    return "H" * n


def zigzag(n):
    """(UD)^n: UH-free, every peak at level one."""
    return "UD" * n


def ramp(n):
    """(UUD)^(n/2) D^(n/2): UH-free, peaks at levels 2, 3, ... n/2+1."""
    return "UUD" * (n // 2) + "D" * (n // 2)


def random_path(rng, n, no_even_peak):
    """A random Schroder path of semilength n.

    With ``no_even_peak`` false the path is UH-free; with it true the path
    has no peak at even level (and may contain UH).  Each step is chosen
    uniformly among the steps after which the path can still be completed,
    so the walk never has to backtrack.  The result is not uniform over the
    class; it only has to be a seeded, valid member of it.
    """

    def completes(left, y, last):
        # ``left`` counts half-steps (U and D take one, H takes two) and
        # left - y stays even, so returning needs left >= y; after an up step
        # at even level a no-even-peak path must climb or go flat first.
        if left < y:
            return False
        if no_even_peak and last == "U" and y % 2 == 0:
            return left >= y + 2
        return True

    steps = []
    left, y, last = 2 * n, 0, ""
    while left:
        options = []
        if completes(left - 1, y + 1, "U"):
            options.append(("U", 1, 1))
        peak_ok = not (no_even_peak and last == "U" and y % 2 == 0)
        if y >= 1 and peak_ok and completes(left - 1, y - 1, "D"):
            options.append(("D", 1, -1))
        uh_ok = no_even_peak or last != "U"
        if left >= 2 and uh_ok and completes(left - 2, y, "H"):
            options.append(("H", 2, 0))
        last, cost, rise = rng.choice(options)
        steps.append(last)
        left -= cost
        y += rise
    return "".join(steps)


def ones(size):
    """1^size: one block."""
    return [1] * size


def singletons(size):
    """1 2 ... size: every block a singleton."""
    return list(range(1, size + 1))


def staircase(size):
    """1 2 ... m 1 ... 1 with m = size/2: avoids both patterns, and makes the
    per-label scans of the fast predicates quadratic."""
    m = size // 2
    return list(range(1, m + 1)) + [1] * (size - m)


def staircase_path(size):
    """What encode gives for ``staircase(size)`` under either pattern, read off
    the factorisation: w_1 .. w_{m-1} are empty and w_m is 1^(size-m), so
    label 2 rises 1 + (size - m) steps, labels 3..m rise one step each, and
    every letter of w_m, being below m, is a down step."""
    m = size // 2
    return "U" * (size - m + 1) + "D" + "UD" * (m - 2) + "D" * (size - m)


def staircase_12(size):
    """A staircase with a final 2 after its ones: the labels 1 < 2 after the
    first 3 complete 12312, while every non-own letter still ascends, so it
    avoids 12321."""
    return staircase(size - 1) + [2]


def staircase_21(size):
    """A staircase whose ones start with a 2: the descent 2 > 1 inside the
    last region completes 12321, while the letters below each label still
    descend, so it avoids 12312."""
    m = (size - 1) // 2
    return list(range(1, m + 1)) + [2] + [1] * (size - 1 - m)


NEW_BLOCK = 0.05


def random_avoider(rng, size, pattern):
    """A random partition word of [size] avoiding ``pattern``.

    Built letter by letter from the avoidance characterisations:

    * 12312: for every label c, the letters smaller than c that follow the
      first c are weakly decreasing.  ``last[c]`` holds the latest such
      letter, and a letter x < m is allowed when ``last[c] >= x`` for every
      label c above x.
    * 12321: the letters that differ from the current maximum, read left to
      right, are weakly increasing.

    A new block is opened with probability ``NEW_BLOCK``; otherwise the
    letter is drawn uniformly from the allowed letters up to the current
    maximum m (m itself is always allowed).
    """
    word = [1]
    m = 1
    last = [None, None]  # 12312: last[c] for labels 1..m
    floor = 1  # 12321: smallest letter below m still allowed
    while len(word) < size:
        if rng.random() < NEW_BLOCK:
            m += 1
            word.append(m)
            last.append(None)
            continue
        if pattern == "12312":
            allowed = [m]
            bound = last[m]
            for x in range(m - 1, 0, -1):
                if bound is None or x <= bound:
                    allowed.append(x)
                if last[x] is not None and (bound is None or last[x] < bound):
                    bound = last[x]
            x = rng.choice(allowed)
            for c in range(x + 1, m + 1):
                last[c] = x
        else:
            x = rng.randint(floor, m)
            if x < m:
                floor = x
        word.append(x)
    return word

"""Exact counting: binomials, Narayana numbers, refined block/peak counts,
large Schroder numbers, Bell numbers, and truncated power series.

Everything in this module is integer arithmetic; there is deliberately no
floating point and no radical evaluation anywhere.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import InvalidObjectError, require_size


def _require_ints(n, k) -> None:
    """Raise unless n and k are plain ints, as :func:`require_size` asks of a
    size; an int out of range is a count of 0, not an error."""
    for what, value in (("n", n), ("k", k)):
        if type(value) is not int:
            raise InvalidObjectError(f"{what} must be an int, got {value!r}")


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 for out-of-range arguments."""
    _require_ints(n, k)
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def narayana(n: int, k: int) -> int:
    """The number of Dyck paths of semilength n with exactly k peaks:
    C(n,k) * C(n,k-1) / n, which is always an exact integer."""
    _require_ints(n, k)
    if n == 0:
        return 1 if k == 0 else 0
    if k < 1 or k > n:
        return 0
    return binomial(n, k) * binomial(n, k - 1) // n


def count_blocks(n: int, k: int) -> int:
    """The number of 12312-avoiding (equally 12321-avoiding) partitions of
    [n+1] with k+1 blocks.

    For k >= 1 this is sum over j of narayana(j, k) * C(n, j): each block
    beyond the first becomes a peak, and a path with j non-horizontal ascent
    units and k peaks arises from a Dyck path of semilength j by inserting
    n - j horizontal steps.  For k = 0 the only partition is the all-ones
    word.  Out of range, as for n < 0, the count is 0.
    """
    _require_ints(n, k)
    if k == 0:
        return 1 if n >= 0 else 0
    return sum(narayana(j, k) * binomial(n, j) for j in range(k, n + 1))


_RECURRENCES = {
    # r = (1 - x - v) / (2x) with v = sqrt(1 - 6x + x^2), so
    # (1 - 6x + x^2) v' = (x - 3) v; put v(n + 1) = -2 r(n) for n >= 1.
    "schroder": (
        (1, 2), lambda n, r: (3 * (2 * n - 1) * r[-1] - (n - 2) * r[-2]) // (n + 1)
    ),
    # x(1-x) f^2 - (1-x) f + 1 = 0, so u = 1 - 2xf has u^2 (1-x) = 1 - 5x and
    # (1-x)(1-5x) u' + 2u = 0; put u(n + 1) = -2 f(n) for n >= 0.
    "f": (
        (1, 2), lambda n, f: ((6 * n - 2) * f[-1] - 5 * (n - 1) * f[-2]) // (n + 1)
    ),
    # g = f' = 1 / (1 - x(1-x) f) = f / (1 + xf) = (1 + x - w) / (2x(2-x)) with
    # w = (1-x) u = sqrt((1-x)(1-5x)), so (1-x)(1-5x) w' + (3-5x) w = 0 and
    # x(2-x)(1-x)(1-5x) g' + (2 - 8x + 9x^2 - 5x^3) g = 2 - 4x (0 at x^n, n >= 2).
    "f_prime": (
        (1, 1, 2),
        lambda n, g: (
            (13 * n - 5) * g[-1] - (16 * n - 23) * g[-2] + 5 * (n - 2) * g[-3]
        )
        // (2 * (n + 1)),
    ),
    # skew Dyck paths: x a^2 - (1-x) a + 1 - x = 0 (Deutsch, Munarini and
    # Rinaldi, 2010), so a = (1-x) f, and w = 1 - x - 2xa has w(n + 1) = -2 a(n).
    "skew_dyck": (
        (1, 1), lambda n, a: ((6 * n - 3) * a[-1] - 5 * (n - 2) * a[-2]) // (n + 1)
    ),
}


def _terms(name: str, order: int) -> list:
    """Terms 0 .. order of the sequence ``name`` in :data:`_RECURRENCES`, in
    O(order) big-integer operations: step(n, s) is term n, a numerator over an
    exact divisor, from the terms s = [s(0), .., s(n-1)] before it.  Each row
    is the coefficient of x^n in a linear ODE with polynomial coefficients that
    the square root in the sequence's closed form obeys, where s(n) = [x^n] s."""
    require_size(order, "truncation order")
    first, step = _RECURRENCES[name]
    terms = list(first[: order + 1])
    for n in range(len(first), order + 1):
        terms.append(step(n, terms))
    return terms


def large_schroder(n: int) -> int:
    """The number of Schroder paths of semilength n."""
    require_size(n, "n")
    return _terms("schroder", n)[-1]


def bell_numbers(order: int) -> list:
    """Bell numbers B(0) .. B(order), by the Bell triangle."""
    require_size(order, "truncation order")
    out, row = [1], [1]
    for _ in range(order):
        row = list(accumulate(row, initial=row[-1]))
        out.append(row[0])
    return out


@dataclass(frozen=True)
class SeriesTable:
    """Truncated power-series coefficients, indexed by semilength."""

    identifier: str
    coefficients: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> int:
        if type(n) is not int or not 0 <= n <= self.order:
            raise InvalidObjectError(
                f"n={n!r} is outside 0..{self.order}, the order of {self.identifier}"
            )
        return self.coefficients[n]


def series_f(order: int = 32) -> SeriesTable:
    """The series f counting UH-free Schroder paths by semilength, to order."""
    return SeriesTable("f", tuple(_terms("f", order)))


def series_f_prime(order: int = 32) -> SeriesTable:
    """The series f' counting UH-free Schroder paths without level-one peaks."""
    return SeriesTable("f_prime", tuple(_terms("f_prime", order)))


# Each named series and the function that builds it up to a given order.
SERIES = {
    "f": series_f,
    "f_prime": series_f_prime,
    "schroder": lambda order: SeriesTable("schroder", tuple(_terms("schroder", order))),
    "bell": lambda order: SeriesTable("bell", tuple(bell_numbers(order))),
}


def series(identifier: str, order: int = 32) -> SeriesTable:
    """Series lookup by name in :data:`SERIES`: f, f_prime, schroder or bell."""
    require_size(order, "truncation order")
    if not isinstance(identifier, str) or identifier not in SERIES:
        raise InvalidObjectError(f"unknown series {identifier!r}")
    return SERIES[identifier](order)

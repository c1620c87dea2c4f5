"""Exact counting: binomials, Narayana numbers, refined block/peak counts,
large Schroder numbers, Bell numbers, and truncated power series.

Everything in this module is integer arithmetic; there is deliberately no
floating point and no radical evaluation anywhere.
"""

import math
from dataclasses import dataclass


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 for out-of-range arguments."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def narayana(n: int, k: int) -> int:
    """The number of Dyck paths of semilength n with exactly k peaks:
    C(n,k) * C(n,k-1) / n, which is always an exact integer."""
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
    word.
    """
    if k == 0:
        return 1
    return sum(narayana(j, k) * binomial(n, j) for j in range(k, n + 1))


def large_schroder(n: int) -> int:
    """The number of Schroder paths of semilength n."""
    return _schroder_terms(n)[-1]


def _schroder_terms(order: int) -> list:
    """r(0) .. r(order) by the three-term recurrence
    (k+1) r(k) = 3(2k-1) r(k-1) - (k-2) r(k-2) from r(0) = 1, r(1) = 2:
    O(order) big-integer operations, each division exact."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    r = [1]
    for k in range(1, order + 1):
        r.append(
            (3 * (2 * k - 1) * r[k - 1] - (k - 2) * r[k - 2]) // (k + 1) if k > 1 else 2
        )
    return r


def bell_numbers(order: int) -> list:
    """Bell numbers B(0) .. B(order), by the Bell triangle."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    out = [1]
    row = [1]
    for _ in range(order):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out[: order + 1]


def bell_number(n: int) -> int:
    return bell_numbers(n)[n]


@dataclass(frozen=True)
class SeriesTable:
    """Truncated power-series coefficients, indexed by semilength."""

    identifier: str
    coefficients: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> int:
        return self.coefficients[n]


def series_f(order: int = 32) -> SeriesTable:
    """Coefficients of the series f counting UH-free Schroder paths by
    semilength, from the functional equation

        f = 1 + 2xf + xf(f - 1 - xf),  that is  f = 1 + xf + xf^2 - x^2 f^2.

    Read coefficientwise this is f[n] = f[n-1] + (f^2)[n-1] - (f^2)[n-2],
    and (f^2)[n-1] needs only f[0] .. f[n-1], so each coefficient follows
    directly from the earlier ones: O(order^2) multiplications.
    """
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    f = [1]
    sq = []  # sq[m] = (f^2)[m]
    for n in range(1, order + 1):
        sq.append(sum(f[i] * f[n - 1 - i] for i in range(n)))
        f.append(f[n - 1] + sq[n - 1] - (sq[n - 2] if n >= 2 else 0))
    return SeriesTable("f", tuple(f))


def series_f_prime(order: int = 32) -> SeriesTable:
    """Coefficients of the series f' counting UH-free Schroder paths without
    peaks at level one, from

        f' = 1 + xf' + xf'(f - 1 - xf)

    with f taken from :func:`series_f`.  With g = f - 1 - xf this reads
    f'[n] = f'[n-1] + sum f'[i] g[n-1-i] over i < n, computed coefficient by
    coefficient: O(order^2) multiplications."""
    f = series_f(order).coefficients
    g = [f[n] - (f[n - 1] if n else 1) for n in range(order + 1)]
    fp = [1]
    for n in range(1, order + 1):
        fp.append(fp[n - 1] + sum(fp[i] * g[n - 1 - i] for i in range(n)))
    return SeriesTable("f_prime", tuple(fp))


# Each named series and the function that builds it up to a given order.
SERIES = {
    "f": series_f,
    "f_prime": series_f_prime,
    "schroder": lambda order: SeriesTable("schroder", tuple(_schroder_terms(order))),
    "bell": lambda order: SeriesTable("bell", tuple(bell_numbers(order))),
}


def series(identifier: str, order: int = 32) -> SeriesTable:
    """Series lookup by name in :data:`SERIES`: f, f_prime, schroder or bell."""
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    build = SERIES.get(identifier)
    if build is None:
        raise ValueError(f"unknown series {identifier!r}")
    return build(order)

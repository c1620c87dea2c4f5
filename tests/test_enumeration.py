import math
from collections import Counter

import pytest

from partition_paths import (
    InvalidObjectError,
    SeriesTable,
    bell_numbers,
    binomial,
    count_blocks,
    is_irreducible,
    large_schroder,
    narayana,
    peaks,
    series,
    series_f,
    series_f_prime,
)


def f_by_convolution(order):
    # Independent oracle: the functional equation f = 1 + xf + xf^2 - x^2 f^2
    # read coefficientwise, f[n] = f[n-1] + (f^2)[n-1] - (f^2)[n-2], where
    # (f^2)[n-1] needs only f[0] .. f[n-1]: O(order^2) multiplications.
    f = [1]
    sq = []  # sq[m] = (f^2)[m]
    for n in range(1, order + 1):
        sq.append(sum(f[i] * f[n - 1 - i] for i in range(n)))
        f.append(f[n - 1] + sq[n - 1] - (sq[n - 2] if n >= 2 else 0))
    return f


def f_prime_by_convolution(order):
    # Independent oracle: f' = 1 + xf' + xf'(f - 1 - xf) with f from
    # f_by_convolution; with g = f - 1 - xf this reads
    # f'[n] = f'[n-1] + sum f'[i] g[n-1-i] over i < n.
    f = f_by_convolution(order)
    g = [f[n] - (f[n - 1] if n else 1) for n in range(order + 1)]
    fp = [1]
    for n in range(1, order + 1):
        fp.append(fp[n - 1] + sum(fp[i] * g[n - 1 - i] for i in range(n)))
    return fp


class TestBinomial:
    def test_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(-1, 0) == 0
        assert binomial(3, -2) == 0


class TestNarayana:
    def test_single_peak_column(self):
        for n in range(1, 12):
            assert narayana(n, 1) == 1

    def test_value_against_peak_census(self, paths_of):
        assert narayana(3, 2) == 3
        census = Counter(len(peaks(p)) for p in paths_of(3, "dyck"))
        assert census[2] == 3

    def test_boundary(self):
        assert narayana(0, 0) == 1
        assert narayana(0, 1) == 0
        assert narayana(4, 0) == 0
        assert narayana(4, 5) == 0

    def test_row_sums_are_catalan(self):
        # sum over k of the peak counts is the number of Dyck paths
        catalan = [1, 1, 2, 5, 14, 42, 132, 429]
        for n in range(8):
            assert sum(narayana(n, k) for k in range(n + 1)) == catalan[n]


class TestRefinedCounts:
    def test_two_element_ground_set(self):
        assert count_blocks(2, 1) == 3

    def test_zero_peaks_column(self, paths_of):
        for n in range(9):
            assert count_blocks(n, 0) == 1
            assert sum(1 for p in paths_of(n, "uh_free") if not peaks(p)) == 1

    def test_diagonal(self):
        assert count_blocks(4, 4) == 1

    def test_negative_size_is_zero(self):
        # out of range is 0, as for binomial and narayana, in every column
        for n in (-1, -2, -7):
            assert [count_blocks(n, k) for k in range(-1, 3)] == [0, 0, 0, 0]

    def test_uhfree_small_values(self, paths_of):
        # 5 UH-free paths of semilength 2: HH has no peak, UDUD has two,
        # the other three have one
        census = Counter(len(peaks(p)) for p in paths_of(2, "uh_free"))
        assert census == Counter({0: 1, 1: 3, 2: 1})
        assert [count_blocks(2, k) for k in range(3)] == [1, 3, 1]

    def test_matches_block_census(self, avoiders_of):
        for pattern in ("12312", "12321"):
            for n in range(6):
                census = Counter(
                    p.block_count - 1 for p in avoiders_of(n + 1, pattern)
                )
                for k in range(n + 1):
                    assert count_blocks(n, k) == census.get(k, 0), (pattern, n, k)

    def test_matches_peak_census(self, paths_of):
        for n in range(9):
            census = Counter(len(peaks(p)) for p in paths_of(n, "uh_free"))
            for k in range(n + 2):
                assert count_blocks(n, k) == census.get(k, 0), (n, k)


class TestSeries:
    def test_f_prefix(self):
        assert series_f(5).coefficients == (1, 2, 5, 15, 51, 188)

    def test_f_prime_prefix(self):
        assert series_f_prime(5).coefficients == (1, 1, 2, 6, 21, 79)

    def test_default_order(self):
        assert series_f().order == 32
        assert len(series_f().coefficients) == 33

    @pytest.mark.parametrize("n", [-1, -6, 6, 7])
    def test_coefficient_outside_the_order_raises(self, n):
        # a negative n must not index from the end of the table
        with pytest.raises(
            InvalidObjectError, match=f"n={n} is outside 0..5, the order of f"
        ):
            series_f(5).coefficient(n)
        assert series_f(5).coefficient(0) == 1 and series_f(5).coefficient(5) == 188

    def test_f_satisfies_its_equation(self):
        order = 12
        f = list(series_f(order).coefficients)

        def mul(a, b):
            out = [0] * (order + 1)
            for i, ai in enumerate(a):
                for j in range(order + 1 - i):
                    out[i + j] += ai * b[j]
            return out

        def shift(a):
            return [0] + a[:order]

        one = [1] + [0] * order
        inner = [x - y - z for x, y, z in zip(f, one, shift(f))]
        rhs = [
            a + 2 * b + c
            for a, b, c in zip(one, shift(f), shift(mul(f, inner)))
        ]
        assert rhs == f

    def test_reciprocal_identity(self):
        # f' * (1 - x(1-x) f) == 1 up to order 16
        order = 16
        f = series_f(order).coefficients
        fp = series_f_prime(order).coefficients
        factor = [1] + [
            -(f[n - 1] - (f[n - 2] if n >= 2 else 0)) for n in range(1, order + 1)
        ]
        product = [0] * (order + 1)
        for i, a in enumerate(fp):
            for j in range(order + 1 - i):
                product[i + j] += a * factor[j]
        assert product == [1] + [0] * order

    def test_f_counts_uh_free_paths(self, paths_of):
        f = series_f(6).coefficients
        for n in range(7):
            assert f[n] == len(paths_of(n, "uh_free"))

    def test_f_counts_avoiders(self, avoiders_of):
        f = series_f(6).coefficients
        for pattern in ("12312", "12321"):
            for n in range(6):
                assert f[n] == len(avoiders_of(n + 1, pattern))

    def test_f_prime_counts_restricted_paths(self, paths_of):
        fp = series_f_prime(6).coefficients
        for n in range(7):
            assert fp[n] == len(paths_of(n, "uh_free_no_level_one"))
            assert fp[n] == len(paths_of(n, "skew_dyck_end_down"))

    def test_f_prime_counts_irreducible_avoiders(self, avoiders_of):
        fp = series_f_prime(6).coefficients
        for pattern in ("12312", "12321"):
            for n in range(6):
                irr = sum(
                    1 for p in avoiders_of(n + 1, pattern) if is_irreducible(p)
                )
                assert fp[n] == irr

    def test_recurrences_match_functional_equations(self):
        assert list(series_f(300).coefficients) == f_by_convolution(300)
        assert list(series_f_prime(300).coefficients) == f_prime_by_convolution(300)

    def test_skew_dyck_terms_count_skew_dyck_paths(self, paths_of):
        from partition_paths.enumeration import _terms

        terms = _terms("skew_dyck", 9)
        assert terms[:6] == [1, 1, 3, 10, 36, 137]
        assert terms == [len(paths_of(n, "skew_dyck")) for n in range(10)]

    def test_block_count_totals(self):
        f = series_f(8).coefficients
        for n in range(9):
            assert sum(count_blocks(n, k) for k in range(n + 1)) == f[n]


class TestLargeSchroder:
    def test_values(self):
        assert [large_schroder(n) for n in range(9)] == [
            1, 2, 6, 22, 90, 394, 1806, 8558, 41586,
        ]

    def test_negative_semilength_rejected(self):
        for n in (-1, -2):
            with pytest.raises(ValueError, match="non-negative"):
                large_schroder(n)


class TestBell:
    def test_values(self):
        assert bell_numbers(10) == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975,
        ]
        assert bell_numbers(5)[5] == 52

    def test_binomial_recurrence(self):
        # an oracle independent of the Bell triangle: B(n+1) = sum C(n,k) B(k)
        want = [1]
        for n in range(300):
            want.append(sum(math.comb(n, k) * b for k, b in enumerate(want)))
        assert bell_numbers(300) == want


class TestDispatcher:
    def test_identifiers(self):
        assert series("f", 3).coefficients == (1, 2, 5, 15)
        assert series("f_prime", 3).coefficients == (1, 1, 2, 6)
        assert series("schroder", 3).coefficients == (1, 2, 6, 22)
        assert series("bell", 3).coefficients == (1, 1, 2, 5)

    def test_identifier_recorded(self):
        assert series("f", 2) == SeriesTable("f", (1, 2, 5))

    def test_unknown(self):
        with pytest.raises(ValueError, match="^unknown series 'catalan'$"):
            series("catalan", 3)
        # a negative order is reported first, whatever the name
        with pytest.raises(ValueError, match="^truncation order must be"):
            series("catalan", -1)

    def test_cli_offers_exactly_the_table(self):
        from partition_paths import enumeration
        from partition_paths.cli import build_parser

        actions = build_parser().commands["series"]._actions
        choices = next(a.choices for a in actions if a.dest == "identifier")
        assert tuple(choices) == tuple(enumeration.SERIES) == (
            "f", "f_prime", "schroder", "bell"
        )

    def test_negative_order(self):
        for fn in (series_f, series_f_prime, bell_numbers):
            with pytest.raises(ValueError):
                fn(-1)
        with pytest.raises(ValueError):
            series("f", -1)


class TestExactness:
    def test_everything_is_an_integer(self):
        samples = [
            binomial(40, 20),
            narayana(30, 11),
            count_blocks(20, 7),
            large_schroder(25),
            bell_numbers(20)[20],
            series_f(40).coefficients[40],
            series_f_prime(40).coefficients[40],
        ]
        for value in samples:
            assert type(value) is int

    def test_f_matches_binomial_transform_of_catalan(self):
        # independent closed form: coefficient n is sum_k C(n,k) * Catalan(k)
        import math

        def catalan(k):
            return math.comb(2 * k, k) // (k + 1)

        f = series_f(48).coefficients
        for n in range(49):
            assert f[n] == sum(
                math.comb(n, k) * catalan(k) for k in range(n + 1)
            )

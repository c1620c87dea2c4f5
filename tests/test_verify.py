"""Each verify check fails, with its exact FAIL line, when the library
function it calls is broken.

Every test breaks one public function that ``verify`` calls through its
module and pins the whole list of failing checks at a small bound, so a
check that stops looking, or starts reporting a later size, is caught.
"""

import pytest

from partition_paths import InvalidObjectError, enumeration, partitions, paths, verify
from partition_paths.enumeration import SeriesTable


@pytest.fixture(autouse=True)
def fresh_caches():
    # a broken generator must not leave its objects in verify's caches
    caches = (verify._partitions, verify._avoiders, verify._paths)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def failures(monkeypatch, module, name, broken, max_n=5):
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    return [(r.name, r.failure) for r in verify.run_checks(max_n) if not r.ok]


def dropping(cls, size):
    """generate_paths without the last path of one class at one size."""

    def broken(generate_paths):
        def wrong(n, path_class="schroder"):
            out = list(generate_paths(n, path_class))
            if (path_class, n) == (cls, size):
                out.pop()
            return iter(out)

        return wrong

    return broken


def bumping(index):
    """A series builder whose coefficient at ``index`` is one too large."""

    def broken(build):
        def wrong(order=32):
            table = build(order)
            c = list(table.coefficients)
            if index < len(c):
                c[index] += 1
            return SeriesTable(table.identifier, tuple(c))

        return wrong

    return broken


def test_bell_numbers_off_at_three(monkeypatch):
    def broken(bell_numbers):
        return lambda order: [b + (i == 3) for i, b in enumerate(bell_numbers(order))]

    assert failures(monkeypatch, enumeration, "bell_numbers", broken) == [
        ("partition-generator-bell-count", "n=3: generated 5 partitions, Bell number is 6"),
    ]


def test_partitions_out_of_order(monkeypatch):
    def broken(generate_partitions):
        def wrong(n, avoiding=None):
            out = list(generate_partitions(n, avoiding))
            if n == 3:
                out[1], out[2] = out[2], out[1]
            return iter(out)

        return wrong

    assert failures(monkeypatch, partitions, "generate_partitions", broken) == [
        ("partition-generator-bell-count", "n=3: generation order is not lexicographic"),
    ]


def test_decompose_wrong_on_one_word(monkeypatch):
    def broken(decompose):
        def wrong(p):
            if p.word == (1, 2, 1):
                p = partitions.SetPartition((1, 1, 2))
            return decompose(p)

        return wrong

    assert failures(monkeypatch, partitions, "decompose", broken) == [
        ("decompose-reassembles", "n=3: decompose does not reassemble 1,2,1"),
    ]


def test_irreducible_char_wrong_on_one_word(monkeypatch):
    def broken(is_irreducible_char):
        return lambda p: is_irreducible_char(p) != (p.word == (1, 2, 1, 3))

    assert failures(monkeypatch, partitions, "is_irreducible_char", broken) == [
        (
            "irreducible-definitions-agree",
            "n=4: irreducibility definitions disagree on 1,2,1,3",
        ),
    ]


def test_schroder_path_missing(monkeypatch):
    assert failures(monkeypatch, paths, "generate_paths", dropping("schroder", 2)) == [
        (
            "schroder-count-matches-recurrence",
            "n=2: generated 5 schroder paths, recurrence gives 6",
        ),
    ]


def test_no_even_peak_path_missing(monkeypatch):
    broken = dropping("no_even_peak", 3)
    assert failures(monkeypatch, paths, "generate_paths", broken) == [
        (
            "uh-free-count-equals-no-even-peak-count",
            "n=3: 15 UH-free paths but 14 without even-level peaks",
        ),
        (
            "odd-peak-rewrite-bijection",
            "n=3: rewrite image differs from the no-even-peak set",
        ),
    ]


def test_skew_dyck_path_missing(monkeypatch):
    assert failures(monkeypatch, paths, "generate_paths", dropping("skew_dyck", 3)) == [
        ("skew-dyck-counts", "n=3: generated 9 skew_dyck paths, recurrence gives 10"),
    ]


def test_no_level_one_path_missing(monkeypatch):
    broken = dropping("uh_free_no_level_one", 4)
    assert failures(monkeypatch, paths, "generate_paths", broken) == [
        (
            "series-f-prime-counts",
            "n=4: 20 UH-free paths without level-one peaks, series coefficient is 21",
        ),
    ]


def test_parse_path_wrong_on_one_text(monkeypatch):
    def broken(parse_path):
        def wrong(text, path_class="schroder"):
            return parse_path("HUD" if text == "UHD" else text, path_class)

        return wrong

    assert failures(monkeypatch, paths, "parse_path", broken) == [
        ("generated-paths-reparse", "n=2: schroder path UHD does not survive parse"),
    ]


def test_narayana_off_at_three_two(monkeypatch):
    def broken(narayana):
        return lambda n, k: narayana(n, k) + ((n, k) == (3, 2))

    # count_blocks sums Narayana numbers, so the refined counts break too
    assert failures(monkeypatch, enumeration, "narayana", broken) == [
        (
            "dyck-peak-distribution-is-narayana",
            "n=3: 3 Dyck paths with 2 peaks, Narayana number is 4",
        ),
        (
            "refined-block-counts",
            "n=3 k=2: formula gives 7, census of 12312-avoiders gives 6",
        ),
        ("series-f-counts", "n=3: refined counts sum to 16, series coefficient is 15"),
    ]


def test_count_blocks_moving_one_partition(monkeypatch):
    def broken(count_blocks):
        shift = {(3, 1): 1, (3, 2): -1}  # the sum over k is unchanged
        return lambda n, k: count_blocks(n, k) + shift.get((n, k), 0)

    assert failures(monkeypatch, enumeration, "count_blocks", broken) == [
        (
            "refined-block-counts",
            "n=3 k=1: formula gives 8, census of 12312-avoiders gives 7",
        ),
    ]


def test_series_f_off_at_four(monkeypatch):
    assert failures(monkeypatch, enumeration, "series_f", bumping(4)) == [
        ("series-f-counts", "n=4: 51 UH-free paths, series coefficient is 52"),
        (
            "series-algebraic-identity",
            "f' * (1 - x(1-x)f) is not 1 up to order 16: [1, 0, 0, 0, 0, -1, 0, "
            "-1, -4, -15, -58, -232, -954, -4010, -17156, -74469, -327168]",
        ),
    ]


def test_series_f_prime_off_beyond_the_bound(monkeypatch):
    # only the identity, checked to order 16, reaches coefficient 10
    assert failures(monkeypatch, enumeration, "series_f_prime", bumping(10)) == [
        (
            "series-algebraic-identity",
            "f' * (1 - x(1-x)f) is not 1 up to order 16: [1, 0, 0, 0, 0, 0, 0, "
            "0, 0, 0, 1, -1, -1, -3, -10, -36, -137]",
        ),
    ]


def test_negative_bound_raises_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "CHECKS", (("spy", 2, ran.append),))
    with pytest.raises(InvalidObjectError, match="^max_n must be non-negative$"):
        verify.run_checks(-1)
    assert ran == []

"""Each verify check fails, with its exact FAIL line, when the library
function it calls is broken.

Every FAIL-line test breaks one public function that ``verify`` calls
through its module and pins the whole list of failing checks at a small
bound, so a check that stops looking, or starts reporting a later size, is
caught.  The count checks are rows of census equations read by one
comparer, and the bijection checks are rows of maps and laws read by
another: the encode-row tests break two laws on one object to pin the law
order, and count the peaks calls; the last tests pin each comparer's order
on a synthetic row, and the censuses freed after a run.
"""

from collections import Counter

import pytest

from partition_paths import (
    InvalidObjectError,
    bijections,
    enumeration,
    partitions,
    parse_partition,
    parse_path,
    paths,
    verify,
)
from partition_paths.enumeration import SeriesTable
from partition_paths.paths import LatticePath

CACHES = (verify._partitions, verify._avoiders, verify._paths)


@pytest.fixture(autouse=True)
def fresh_caches():
    # a broken function must not leave its objects in verify's caches
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
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


def test_oracle_finding_12312_in_1111(monkeypatch):
    def broken(avoids):
        return lambda p, pat: avoids(p, pat) and (p.word, pat.word) != (
            (1, 1, 1, 1),
            (1, 2, 3, 1, 2),
        )

    assert failures(monkeypatch, partitions, "avoids", broken) == [
        (
            "fast-avoidance-matches-oracle",
            "n=4: fast 12312 check disagrees with brute force on 1,1,1,1 "
            "(brute says avoids=False)",
        ),
        ("encode-decode-12312", "n=3: encode image differs from the UH-free path set"),
        (
            "refined-block-counts",
            "n=3 k=0: formula gives 1, census of 12312-avoiders gives 0",
        ),
        (
            "series-f-counts",
            "n=3: 14 12312-avoiding partitions of [4], series coefficient is 15",
        ),
        (
            "series-f-prime-counts",
            "n=3: 5 irreducible 12312-avoiders, series coefficient is 6",
        ),
    ]


def test_skew_dyck_end_down_path_missing(monkeypatch):
    broken = dropping("skew_dyck_end_down", 3)
    assert failures(monkeypatch, paths, "generate_paths", broken) == [
        (
            "series-f-prime-counts",
            "n=3: 5 skew Dyck paths ending with a down step, series coefficient is 6",
        ),
    ]


def test_peaks_finding_one_too_many_in_hud(monkeypatch):
    def broken(peaks):
        return lambda p: peaks(p) + [(0, 1)] if p == "HUD" else peaks(p)

    message = "n=2: block count of 1,1,2 does not map to peak count of HUD"
    assert failures(monkeypatch, paths, "peaks", broken) == [
        ("encode-decode-12312", message),
        ("encode-decode-12321", message),
        ("refined-block-counts", "n=2 k=1: formula gives 3, peak census gives 2"),
    ]


def test_partition_generated_twice(monkeypatch):
    def broken(generate_partitions):
        def wrong(n, avoiding=None):
            out = list(generate_partitions(n, avoiding))
            if n == 3:
                out[2] = out[1]
            return iter(out)

        return wrong

    image = "n=2: encode image differs from the UH-free path set"
    assert failures(monkeypatch, partitions, "generate_partitions", broken) == [
        ("partition-generator-bell-count", "n=3: duplicate partition generated"),
        ("encode-decode-12312", image),
        ("encode-decode-12321", image),
        (
            "series-f-prime-counts",
            "n=2: 1 irreducible 12312-avoiders, series coefficient is 2",
        ),
    ]


def test_is_irreducible_wrong_on_121(monkeypatch):
    def broken(is_irreducible):
        return lambda p: is_irreducible(p) != (p.word == (1, 2, 1))

    message = (
        "n=2: irreducibility of 1,2,1 does not match absence of level-one "
        "peaks in UUDD"
    )
    assert failures(monkeypatch, partitions, "is_irreducible", broken) == [
        (
            "irreducible-definitions-agree",
            "n=3: irreducibility definitions disagree on 1,2,1",
        ),
        ("encode-decode-12312", message),
        ("encode-decode-12321", message),
        (
            "series-f-prime-counts",
            "n=2: 1 irreducible 12312-avoiders, series coefficient is 2",
        ),
    ]


def test_to_odd_peaks_changing_semilength(monkeypatch):
    def broken(to_odd_peaks):
        return lambda p: LatticePath("UDUD") if p == "H" else to_odd_peaks(p)

    assert failures(monkeypatch, bijections, "to_odd_peaks", broken) == [
        ("odd-peak-rewrite-bijection", "n=1: rewrite changes semilength of H"),
    ]


def test_wrong_fast_predicate_reported_against_census(monkeypatch):
    rule = partitions.FAST_PATTERNS["12312"]

    def wrong(state, c, mx):
        # refuses a 1 below the maximum 3, which only 1,2,3,1 has by n = 4
        return None if (c, mx) == (1, 3) else rule.step(state, c, mx)

    def broken(fast_patterns):
        # bijections holds the same dict, so its entry is replaced in place
        monkeypatch.setitem(fast_patterns, "12312", rule._replace(step=wrong))
        return fast_patterns

    # the fast predicate and encode's precondition both fold the rule, and
    # the containment it reports cannot be witnessed: that check fails
    # with the library error instead of ending the run; both show by n = 4
    assert failures(monkeypatch, partitions, "FAST_PATTERNS", broken, 4) == [
        (
            "fast-avoidance-matches-oracle",
            "n=4: fast 12312 check disagrees with brute force on 1,2,3,1 "
            "(brute says avoids=True)",
        ),
        (
            "encode-decode-12312",
            "raised PreconditionError: the fast 12312 test says 1,2,3,1 "
            "contains the pattern, but find_pattern finds no occurrence",
        ),
    ]


# verify evaluates each round trip in one direction only; a map broken in
# either direction still fails a check, at the smallest n it shows: every
# fault below shows at n = 2 and touches no larger object
def test_decode_wrong_on_one_path(monkeypatch):
    def broken(decode):
        def wrong(q, pattern="12312"):
            if q.steps == "UUDD":
                return parse_partition("112")
            return decode(q, pattern)

        return wrong

    message = "n=2: decode(encode(1,2,1)) roundtrip fails"
    assert failures(monkeypatch, bijections, "decode", broken, 3) == [
        ("encode-decode-12312", message),
        ("encode-decode-12321", message),
    ]


def test_encode_sending_two_avoiders_to_one_path(monkeypatch):
    def broken(encode):
        def wrong(p, pattern="12312"):
            if p.word == (1, 2, 1):
                p = parse_partition("112")
            return encode(p, pattern)

        return wrong

    message = "n=2: decode(encode(1,2,1)) roundtrip fails"
    assert failures(monkeypatch, bijections, "encode", broken, 3) == [
        ("encode-decode-12312", message),
        ("encode-decode-12321", message),
    ]


def test_to_uh_free_wrong_on_one_path(monkeypatch):
    def broken(to_uh_free):
        def wrong(q):
            return parse_path("HUD") if q.steps == "UHD" else to_uh_free(q)

        return wrong

    assert failures(monkeypatch, bijections, "to_uh_free", broken, 3) == [
        ("odd-peak-rewrite-bijection", "n=2: backward rewrite fails on UHD"),
    ]


def test_to_odd_peaks_leaving_the_target_class(monkeypatch):
    def broken(to_odd_peaks):
        def wrong(p):
            return parse_path("UUDD") if p.steps == "HH" else to_odd_peaks(p)

        return wrong

    # the backward map rejects the even peak at its entry
    assert failures(monkeypatch, bijections, "to_odd_peaks", broken, 3) == [
        (
            "odd-peak-rewrite-bijection",
            "raised PreconditionError: to_uh_free expects no peak at even "
            "level; peak at even level 2 at position 2",
        ),
    ]


# an encode row tries its laws in the order round trip, block count,
# irreducibility: with two laws broken on one object, the earlier one is
# reported
def test_encode_row_tries_round_trip_before_block_count(monkeypatch):
    def wrong_decode(decode):
        def wrong(q, pattern="12312"):
            if q.steps == "UUDD":
                return parse_partition("112")
            return decode(q, pattern)

        return wrong

    def extra_peak(peaks):
        return lambda p: peaks(p) + [(0, 1)] if p == "UUDD" else peaks(p)

    monkeypatch.setattr(bijections, "decode", wrong_decode(bijections.decode))
    message = "n=2: decode(encode(1,2,1)) roundtrip fails"
    assert failures(monkeypatch, paths, "peaks", extra_peak, 3) == [
        (
            "dyck-peak-distribution-is-narayana",
            "n=2: 0 Dyck paths with 1 peaks, Narayana number is 1",
        ),
        ("encode-decode-12312", message),
        ("encode-decode-12321", message),
        ("refined-block-counts", "n=2 k=1: formula gives 3, peak census gives 2"),
    ]


def test_encode_row_tries_block_count_before_irreducibility(monkeypatch):
    def wrong_irreducible(is_irreducible):
        return lambda p: is_irreducible(p) != (p.word == (1, 1, 2))

    def extra_peak(peaks):
        return lambda p: peaks(p) + [(0, 1)] if p == "HUD" else peaks(p)

    monkeypatch.setattr(
        partitions, "is_irreducible", wrong_irreducible(partitions.is_irreducible)
    )
    message = "n=2: block count of 1,1,2 does not map to peak count of HUD"
    assert failures(monkeypatch, paths, "peaks", extra_peak, 3) == [
        (
            "irreducible-definitions-agree",
            "n=3: irreducibility definitions disagree on 1,1,2",
        ),
        ("encode-decode-12312", message),
        ("encode-decode-12321", message),
        ("refined-block-counts", "n=2 k=1: formula gives 3, peak census gives 2"),
        (
            "series-f-prime-counts",
            "n=2: 3 irreducible 12312-avoiders, series coefficient is 2",
        ),
    ]


@pytest.mark.parametrize("pattern", bijections.PATTERNS)
def test_encode_row_reads_peaks_once_per_path(monkeypatch, pattern):
    # the block-count and irreducibility laws share one peaks call per path
    seen = []

    def counting(p):
        seen.append(str(p))
        return peaks(p)

    peaks = paths.peaks
    monkeypatch.setattr(paths, "peaks", counting)
    verify._peak_levels.cache_clear()
    assert verify._encoding(pattern)(4) is None
    every_path = [str(q) for n in range(5) for q in paths.generate_paths(n, "uh_free")]
    assert sorted(seen) == sorted(every_path)
    verify._peak_levels.cache_clear()


def test_comparer_reports_smallest_n_then_k_then_source():
    calls = []

    def census(name, table):
        def count(n):
            calls.append((name, n))
            return Counter(table.get(n, {}))

        return count

    reference = (lambda n, k: 0, "n={n} k={k}: {source}, not {want}")
    sources = (
        (census("a", {2: {1: 1}, 3: {0: 1}}), "a has {got}"),
        (census("b", {2: {0: 2, 1: 1}, 3: {0: 1}}), "b has {got}"),
        (census("c", {}), "c has {got}"),
    )
    # n = 2 before n = 3; at n = 2, a disagrees at k = 1 but b already at k = 0
    check = verify._equation(reference, *sources, by_k=True)
    assert check(3) == "n=2 k=0: b has 2, not 0"
    assert calls == [
        ("a", 0), ("b", 0), ("c", 0), ("a", 1), ("b", 1), ("c", 1), ("a", 2), ("b", 2)
    ]
    # at n = 3, a and b disagree at k = 0: a is reported, b and c never counted
    calls.clear()
    assert verify._equate(reference, sources, True, 3) == "n=3 k=0: a has 1, not 0"
    assert calls == [("a", 3)]


def test_comparer_reads_a_row_of_n():
    check = verify._equation(
        (lambda n: n, "n={n}: {source}, want {want}"),
        (lambda n: n, "never"),
        (lambda n: n + (n == 4), "{got} of [{m}]"),
    )
    assert check(6) == "n=4: 5 of [5], want 4"


def test_bijection_comparer_reports_smallest_n_then_first_law_then_image():
    calls = []

    def law(name, fails_on):
        def holds(p, q):
            calls.append((name, p, q))
            return p != fails_on

        return holds

    def forward(p):
        calls.append(("forward", p))
        return p + 10

    def census(wrong_at):
        # the images in reverse order, with one image too many at wrong_at
        def target(n):
            calls.append(("target", n))
            return tuple(range(2 * n + 9, 9, -1)) + (10,) * (n == wrong_at)

        return target

    def row(fails_on, wrong_at):
        return verify._bijection(
            lambda n: tuple(range(2 * n)),
            forward,
            (census(wrong_at), "n={n}: image is not the target"),
            (law("a", fails_on), "n={n}: a fails on {p} -> {q}"),
            (law("b", None), "never"),
        )

    # n = 2 fails at its third object and n = 3 would too: the first law
    # that fails ends the check, before law b, object 3 and the image
    assert row(2, None)(3) == "n=2: a fails on 2 -> 12"
    assert calls == [
        ("target", 0),
        ("forward", 0), ("a", 0, 10), ("b", 0, 10),
        ("forward", 1), ("a", 1, 11), ("b", 1, 11),
        ("target", 1),
        ("forward", 0), ("a", 0, 10), ("b", 0, 10),
        ("forward", 1), ("a", 1, 11), ("b", 1, 11),
        ("forward", 2), ("a", 2, 12),
    ]
    # every object passes: the image is read last and compared as a multiset,
    # so the reversed target passes at n = 1 and the extra image fails n = 2
    calls.clear()
    assert row(None, 2)(3) == "n=2: image is not the target"
    assert calls[-2:] == [("b", 3, 13), ("target", 2)]


def test_run_frees_its_census():
    verify.run_checks(3)
    assert [cache.cache_info().currsize for cache in CACHES] == [0, 0, 0]
    assert verify._peak_levels.cache_info().currsize == 0


def test_run_frees_its_census_when_a_check_raises(monkeypatch):
    def raising(max_n):
        verify._paths(max_n, "dyck")
        raise RuntimeError("not a library error")

    monkeypatch.setattr(verify, "CHECKS", (("raising", 2, raising),))
    with pytest.raises(RuntimeError):
        verify.run_checks(2)
    assert [cache.cache_info().currsize for cache in CACHES] == [0, 0, 0]

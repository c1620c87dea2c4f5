"""Worst-case families at semilength 10^5: every map and fast predicate must
answer without recursing, and the round trips must hold.  No timing is
asserted; a quadratic or recursive body shows up as a hang or a
RecursionError here."""

import math
import tracemalloc

import pytest

from partition_paths import (
    InvalidObjectError,
    LatticePath,
    PATH_CLASSES,
    PreconditionError,
    SetPartition,
    avoids_12312_fast,
    avoids_12321_fast,
    decode,
    decode_from_odd_peaks,
    encode,
    encode_to_odd_peaks,
    find_pattern,
    generate_paths,
    large_schroder,
    parse_path,
    series_f,
    series_f_prime,
    to_odd_peaks,
    to_uh_free,
)
from partition_paths.bijections import MAPS

N = 10**5

UH_FREE_FAMILIES = {
    "H^n": "H" * N,
    "(UD)^n": "UD" * N,
    "(UUD)^(n/2) D^(n/2)": "UUD" * (N // 2) + "D" * (N // 2),
}


def staircase(size):
    """1 2 ... m 1 ... 1 with m = size / 2: avoids both patterns."""
    m = size // 2
    return list(range(1, m + 1)) + [1] * (size - m)


def rising_zigzag(m):
    """1 2 1 3 2 ... m (m-1): each letter below the maximum sits on the
    12312 rule's stack, which grows to a depth of m - 1."""
    return [1] + [c for k in range(2, m + 1) for c in (k, k - 1)]


@pytest.mark.parametrize("family", sorted(UH_FREE_FAMILIES))
@pytest.mark.parametrize("pattern", ["12312", "12321"])
def test_decode_encode_roundtrip(family, pattern):
    q = LatticePath(UH_FREE_FAMILIES[family])
    p = decode(q, pattern)
    assert len(p) == N + 1
    assert encode(p, pattern) == q


def test_decode_known_answers():
    assert decode(LatticePath("H" * N)).word == (1,) * (N + 1)
    assert decode(LatticePath("UD" * N), "12321").word == tuple(range(1, N + 2))


@pytest.mark.parametrize("family", sorted(UH_FREE_FAMILIES))
def test_odd_peak_rewrite_roundtrip(family):
    q = LatticePath(UH_FREE_FAMILIES[family])
    r = to_odd_peaks(q)
    assert r.semilength == N
    parse_path(r.steps, "no_even_peak")
    assert to_uh_free(r) == q


@pytest.mark.parametrize("pattern", ["12312", "12321"])
def test_staircase_encode_decode(pattern, encode_oracle):
    p = SetPartition(staircase(N + 1))
    q = encode(p, pattern)
    assert q.semilength == N
    assert q.steps == encode_oracle(p)
    assert decode(q, pattern) == p


FORWARD_ROWS = {
    "sigma": (encode, "12312"),
    "phi": (encode, "12321"),
    "full12312": (encode_to_odd_peaks, "12312"),
    "full12321": (encode_to_odd_peaks, "12321"),
}


@pytest.mark.parametrize("name", sorted(FORWARD_ROWS))
def test_forward_rows_on_a_long_line(name):
    # an avoider of 10^5 letters; then one whose last letter breaks
    # restricted growth, which the row reports through the checked route
    public, pattern = FORWARD_ROWS[name]
    read = MAPS[name]["forward"]
    p = SetPartition(staircase(N))
    assert read(str(p)) == public(p, pattern)
    text = str(SetPartition(staircase(N - 1))) + ",50001"  # its maximum is 49999
    with pytest.raises(InvalidObjectError) as exc:
        read(text)
    assert str(exc.value) == (
        "restricted-growth violation at position 100000: "
        "50001 exceeds previous maximum 49999 by more than one"
    )


# Each inverse row, with its public map, the arguments after the path, and an
# in-domain line of 10^5 steps: UH-free, or with every peak at an odd level.
UH_FREE_LINE = "UUD" * (N // 4) + "D" * (N // 4)
ODD_PEAK_LINE = "U" * (N // 2 - 1) + "D" * (N // 2 - 1) + "UD"
# A fault of each class at the line's end, and the message that names it.
CLASS_FAULTS = {
    UH_FREE_LINE: (
        "UHD",
        "decode expects a UH-free path; up step immediately followed by a "
        f"horizontal step at position {N + 1}",
    ),
    ODD_PEAK_LINE: (
        "UUDD",
        "to_uh_free expects no peak at even level; "
        f"peak at even level 2 at position {N + 2}",
    ),
}
INVERSE_ROWS = {
    "sigma": (decode, ("12312",), UH_FREE_LINE),
    "phi": (decode, ("12321",), UH_FREE_LINE),
    "psi": (to_uh_free, (), ODD_PEAK_LINE),
    "full12312": (decode_from_odd_peaks, ("12312",), ODD_PEAK_LINE),
    "full12321": (decode_from_odd_peaks, ("12321",), ODD_PEAK_LINE),
}


@pytest.mark.parametrize("name", sorted(INVERSE_ROWS))
def test_inverse_rows_on_a_long_line(name):
    # the kernel decides the domain in its pass; a fault at the very end of
    # the line sends it through the checked route, whose message names it
    public, args, line = INVERSE_ROWS[name]
    assert len(line) == N
    read = MAPS[name]["inverse"]
    assert read(line) == public(LatticePath(line), *args)
    with pytest.raises(InvalidObjectError) as exc:
        read(line + "U")
    assert str(exc.value) == "path ends at height 1, expected 0"
    fault, message = CLASS_FAULTS[line]
    with pytest.raises(PreconditionError) as exc:
        read(line + fault)
    assert str(exc.value) == message


def test_fast_predicates_on_staircases():
    p = SetPartition(staircase(N + 1))
    assert avoids_12312_fast(p) and avoids_12321_fast(p)
    # a final 2 after the ones completes 12312 but keeps 12321 avoided
    p = SetPartition(staircase(N) + [2])
    assert not avoids_12312_fast(p) and avoids_12321_fast(p)
    # a 2 before the ones completes 12321 but keeps 12312 avoided
    m = N // 2
    p = SetPartition(list(range(1, m + 1)) + [2] + [1] * (N - m))
    assert avoids_12312_fast(p) and not avoids_12321_fast(p)


@pytest.mark.parametrize("m", [*range(3, 9), N // 2])
def test_fast_predicates_on_the_rising_zigzag(m):
    # it avoids both patterns; a final 1 pops the whole 12312 stack at once,
    # still avoids 12312 and ends a descent that completes 12321
    patterns = SetPartition((1, 2, 3, 1, 2)), SetPartition((1, 2, 3, 2, 1))
    zigzag = rising_zigzag(m)
    for word, want in (zigzag, (True, True)), (zigzag + [1], (True, False)):
        p = SetPartition(word)
        assert (avoids_12312_fast(p), avoids_12321_fast(p)) == want
        if m <= 8:
            assert tuple(find_pattern(p, w) is None for w in patterns) == want


def test_large_schroder_matches_catalan_sum():
    # r(n) = sum over k of C(n+k, 2k) Cat(k): choose the 2k non-horizontal
    # steps among n + k steps and a Dyck path on them; independent of the
    # three-term recurrence that large_schroder evaluates
    n = 2000
    want = sum(
        math.comb(n + k, 2 * k) * (math.comb(2 * k, k) // (k + 1))
        for k in range(n + 1)
    )
    assert large_schroder(n) == want


def test_series_at_order_2000():
    # f(n) = sum over k of C(n, k) Cat(k), and the coefficient of x^n in
    # f' (1 + xf) = f needs O(n) products; both are independent of the
    # recurrences that series_f and series_f_prime evaluate
    n = 2000
    f = series_f(n).coefficients
    fp = series_f_prime(n).coefficients
    assert f[n] == sum(
        math.comb(n, k) * (math.comb(2 * k, k) // (k + 1)) for k in range(n + 1)
    )
    assert fp[n] + sum(fp[i] * f[n - 1 - i] for i in range(n)) == f[n]


def test_oracle_and_path_generator_do_not_recurse():
    # a pattern as long as the word, and paths of 2000 steps: both deeper
    # than the default recursion limit.  The generator's table of finishes
    # stops at its cap, so the first path of each class takes little memory.
    word = SetPartition((1,) * 3000)
    assert find_pattern(word, word) == tuple(range(3000))
    tracemalloc.start()
    try:
        firsts = {cls: next(generate_paths(1000, cls)) for cls in PATH_CLASSES}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for cls, first in firsts.items():
        assert parse_path(first.steps, cls) == first and first.semilength == 1000
    assert firsts["schroder"].steps == "U" * 1000 + "D" * 1000
    assert firsts["no_even_peak"].steps == "U" * 999 + "DU" + "D" * 999

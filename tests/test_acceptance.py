"""Acceptance suite: the binding exit criteria, one test per criterion.

Each test prints a PASS line (visible with pytest -s) and enforces the
stated exactness and time budgets.  Expected values come from independent
sources: brute-force containment scans, exhaustive path generation, and the
Bell-triangle and peak-census oracles.
"""

import io
import subprocess
import sys
import time
import tokenize
from collections import Counter
from inspect import getsource
from pathlib import Path

from partition_paths import (
    SetPartition,
    count_blocks,
    decode,
    encode,
    enumeration,
    is_irreducible,
    is_irreducible_char,
    avoids,
    avoids_12312_fast,
    avoids_12321_fast,
    parse_partition,
    parse_path,
    peaks,
    series_f,
    series_f_prime,
    to_odd_peaks,
    to_uh_free,
)

REF_PARTITION = parse_partition("11232343411")
VERIFY_N8 = Path(__file__).with_name("verify_n8.txt")  # the whole expected stdout
PATTERNS = ("12312", "12321")


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_reference_goldens():
    goldens = [
        ("encode", lambda: str(encode(REF_PARTITION)), "HUUUDUUDDHUUDDHDD"),
        (
            "decode-max",
            lambda: str(decode(parse_path("HUUDHHUUUDDHDHDUUDD"))),
            "1,1,2,2,2,3,2,3,2,3,1,4,3",
        ),
        (
            "decode-min",
            lambda: str(decode(parse_path("HUUDHHUUUDDHDHDUUDD"), "12321")),
            "1,1,2,2,2,3,1,3,2,3,2,4,3",
        ),
        (
            "odd-peak-rewrite",
            lambda: str(to_odd_peaks(parse_path("UUUDDHUDDUD"))),
            "UHUHUDDDUD",
        ),
    ]
    timings = []
    for name, fn, want in goldens:
        assert fn() == want, name
        dt = _best_time(fn)
        assert dt < 0.001, f"{name} took {dt * 1000:.3f} ms, budget is 1 ms"
        timings.append(f"{name} {dt * 1e6:.0f}us")
    print(f"PASS criterion-1 reference goldens exact ({', '.join(timings)})")


def test_criterion_2_encode_bijectivity(avoiders_of, paths_of):
    t0 = time.perf_counter()
    for pattern in PATTERNS:
        for n in range(9):
            avoiders = avoiders_of(n + 1, pattern)
            image = []
            for p in avoiders:
                q = encode(p, pattern)
                assert decode(q, pattern) == p, (pattern, n, p)
                image.append(str(q))
            uh_free = paths_of(n, "uh_free")
            assert sorted(image) == sorted(str(q) for q in uh_free), (pattern, n)
            for q in uh_free:
                assert encode(decode(q, pattern), pattern) == q, (pattern, n, q)
    dt = time.perf_counter() - t0
    assert dt < 30, f"bijectivity sweep took {dt:.1f} s, budget is 30 s"
    print(f"PASS criterion-2 encode/decode bijective for n<=8, both patterns ({dt:.1f}s)")


def test_criterion_3_rewrite_bijectivity(paths_of):
    for n in range(9):
        uh_free = paths_of(n, "uh_free")
        target = paths_of(n, "no_even_peak")
        image = []
        for p in uh_free:
            q = to_odd_peaks(p)
            assert to_uh_free(q) == p, (n, p)
            image.append(str(q))
        assert sorted(image) == sorted(str(q) for q in target), n
        for q in target:
            assert to_odd_peaks(to_uh_free(q)) == q, (n, q)
    print("PASS criterion-3 odd-peak rewrite bijective with two-sided inverse for n<=8")


def test_criterion_4_refined_counts(avoiders_of, paths_of):
    for n in range(9):
        peak_census = Counter(len(peaks(p)) for p in paths_of(n, "uh_free"))
        block_census = {
            pattern: Counter(
                p.block_count - 1 for p in avoiders_of(n + 1, pattern)
            )
            for pattern in PATTERNS
        }
        for k in range(n + 2):
            want = count_blocks(n, k)
            assert want == peak_census.get(k, 0), (n, k)
            for pattern in PATTERNS:
                assert want == block_census[pattern].get(k, 0), (pattern, n, k)
    print("PASS criterion-4 refined block/peak counts match both censuses for n<=8")


def test_criterion_5_series_identities(avoiders_of, paths_of):
    f = series_f(16).coefficients
    fp = series_f_prime(16).coefficients
    assert f[:6] == (1, 2, 5, 15, 51, 188)
    for n in range(9):
        assert f[n] == len(paths_of(n, "uh_free")), n
        for pattern in PATTERNS:
            assert f[n] == len(avoiders_of(n + 1, pattern)), (pattern, n)
        assert fp[n] == len(paths_of(n, "uh_free_no_level_one")), n
        for pattern in PATTERNS:
            irr = sum(1 for p in avoiders_of(n + 1, pattern) if is_irreducible(p))
            assert fp[n] == irr, (pattern, n)
    # f' * (1 - x(1-x) f) == 1 coefficientwise up to order 16
    order = 16
    factor = [1] + [
        -(f[n - 1] - (f[n - 2] if n >= 2 else 0)) for n in range(1, order + 1)
    ]
    product = [0] * (order + 1)
    for i, a in enumerate(fp):
        for j in range(order + 1 - i):
            product[i + j] += a * factor[j]
    assert product == [1] + [0] * order
    print("PASS criterion-5 series coefficients match all counts; reciprocal identity holds")


def test_criterion_6_skew_paths(paths_of):
    t0 = time.perf_counter()
    totals = [len(paths_of(n, "skew_dyck")) for n in range(6)]
    assert totals == [1, 1, 3, 10, 36, 137]
    fp = series_f_prime(7).coefficients
    for n in range(8):
        assert len(paths_of(n, "skew_dyck_end_down")) == fp[n], n
    dt = time.perf_counter() - t0
    assert dt < 10, f"skew sweep took {dt:.1f} s, budget is 10 s"
    print(f"PASS criterion-6 skew Dyck counts match the f' coefficients for n<=7 ({dt:.1f}s)")


def test_criterion_7_predicate_equivalences(partitions_of):
    p12312 = SetPartition((1, 2, 3, 1, 2))
    p12321 = SetPartition((1, 2, 3, 2, 1))
    for n in range(10):
        for p in partitions_of(n):
            assert avoids_12312_fast(p) == avoids(p, p12312), p
            assert avoids_12321_fast(p) == avoids(p, p12321), p
            if n:
                assert is_irreducible(p) == is_irreducible_char(p), p
    print("PASS criterion-7 fast predicates match the containment oracle for n<=9")


def test_criterion_8_verify_command_and_exact_arithmetic():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "partition_paths.cli", "verify", "--max-n", "8"],
        capture_output=True,
        text=True,
    )
    dt = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == VERIFY_N8.read_text()
    assert dt < 120, f"verify --max-n 8 took {dt:.1f} s, budget is 120 s"

    # no lossy conversion path exists in the counting code: its source has
    # no true division, no float literals and no float() calls
    source = getsource(enumeration)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    assert not any(t.type == tokenize.OP and t.string == "/" for t in tokens)
    assert not any(
        t.type == tokenize.NUMBER and ("." in t.string or "e" in t.string.lower())
        for t in tokens
    )
    assert not any(t.type == tokenize.NAME and t.string == "float" for t in tokens)
    for value in (
        count_blocks(12, 5),
        series_f(12).coefficients[12],
        series_f_prime(12).coefficients[12],
        enumeration.large_schroder(12),
        enumeration.bell_numbers(12)[12],
        enumeration.narayana(12, 5),
    ):
        assert type(value) is int
    print(f"PASS criterion-8 verify --max-n 8 exits 0 ({dt:.1f}s); counting code is float-free")

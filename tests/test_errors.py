"""The library's own errors, and the one check of a size argument.

Every size argument goes through ``errors.require_size``: a size that is not
a plain int, or is negative, raises InvalidObjectError naming the argument.
Every public function that builds or checks its own input answers an
argument of the wrong type with a LibraryError.
"""

import random
import re
import types

import pytest

from partition_paths import (
    PATH_CLASSES,
    PATTERNS,
    InvalidObjectError,
    LatticePath,
    LibraryError,
    LimitExceededError,
    PathFlags,
    PreconditionError,
    SeriesTable,
    SetPartition,
    bell_numbers,
    binomial,
    classify,
    count_blocks,
    decode,
    decode_from_odd_peaks,
    decode_trace,
    decompose,
    encode,
    encode_to_odd_peaks,
    generate_partitions,
    generate_paths,
    large_schroder,
    narayana,
    parse_partition,
    parse_path,
    partitions,
    paths,
    peaks,
    render,
    render_ascii,
    render_svg,
    run_checks,
    series,
    series_f,
    series_f_prime,
    to_odd_peaks,
    to_uh_free,
)

# Each function that takes a size, and the name its errors give the size.
# The generators check the size before their first step (see
# test_a_generator_checks_its_size_first), so a float size stops there.
SIZED = [
    pytest.param(
        lambda n: list(generate_partitions(n)), "partition size", id="generate_partitions"
    ),
    pytest.param(
        lambda n: list(generate_paths(n, "uh_free")), "semilength", id="generate_paths"
    ),
    pytest.param(series_f, "truncation order", id="series_f"),
    pytest.param(series_f_prime, "truncation order", id="series_f_prime"),
    pytest.param(bell_numbers, "truncation order", id="bell_numbers"),
    pytest.param(lambda n: series("schroder", n), "truncation order", id="series"),
    pytest.param(large_schroder, "n", id="large_schroder"),
    pytest.param(run_checks, "max_n", id="run_checks"),
]


def test_every_library_error_is_a_library_error_and_a_value_error():
    for error in (InvalidObjectError, PreconditionError, LimitExceededError):
        assert issubclass(error, LibraryError)
    assert issubclass(LibraryError, ValueError)


@pytest.mark.parametrize("fn, what", SIZED)
@pytest.mark.parametrize("size", [2.5, True, "3"])
def test_a_size_must_be_a_plain_int(fn, what, size):
    message = re.escape(f"{what} must be an int, got {size!r}")
    with pytest.raises(InvalidObjectError, match=f"^{message}$"):
        fn(size)


@pytest.mark.parametrize("fn, what", SIZED)
def test_a_size_must_be_non_negative(fn, what):
    with pytest.raises(InvalidObjectError, match=f"^{what} must be non-negative$"):
        fn(-1)


@pytest.mark.parametrize(
    "module, generate", [(partitions, "generate_partitions"), (paths, "generate_paths")]
)
def test_a_generator_checks_its_size_first(monkeypatch, module, generate):
    class Checked(Exception):
        pass

    def refuse(n, what):
        raise Checked(n, what)

    monkeypatch.setattr(module, "require_size", refuse)
    with pytest.raises(Checked):
        next(getattr(module, generate)(2.5))


def test_unknown_series_is_an_invalid_object():
    with pytest.raises(InvalidObjectError, match="^unknown series 'catalan'$"):
        series("catalan")


PARTITION = SetPartition((1, 2, 1, 3))
UH_FREE = LatticePath("UUDDHUD")
ODD_PEAKS = LatticePath("UDHUHD")
# Wrong for every argument below: a path stands where a partition goes, and
# a partition where a path, a name or a size goes.
WRONG = (None, 2.5, True, "3", [], UH_FREE, PARTITION)

# Each public function that builds or checks its own input, with valid
# values for each positional argument, and the type of what it returns (for
# a generator, of the first object it yields).
API = [
    (parse_partition, [["1,2,1", "1213"]], SetPartition),
    (parse_path, [["UUDD", "UDH"], PATH_CLASSES], LatticePath),
    (SetPartition, [[(1, 2, 1), ()]], SetPartition),
    (LatticePath, [["UUDD", ["U", "D"]]], LatticePath),
    (encode, [[PARTITION], PATTERNS], LatticePath),
    (decode, [[UH_FREE], PATTERNS], SetPartition),
    (decode_trace, [[UH_FREE], PATTERNS], str),
    (to_odd_peaks, [[UH_FREE]], LatticePath),
    (to_uh_free, [[ODD_PEAKS]], LatticePath),
    (encode_to_odd_peaks, [[PARTITION], PATTERNS], LatticePath),
    (decode_from_odd_peaks, [[ODD_PEAKS], PATTERNS], SetPartition),
    (decompose, [[PARTITION]], partitions.Decomposition),
    (paths.check_path, [[UH_FREE], ["schroder", "uh_free"]], type(None)),
    (peaks, [[UH_FREE]], list),
    (classify, [[UH_FREE]], PathFlags),
    (render, [[UH_FREE], ["ascii", "svg"]], str),
    (render_ascii, [[UH_FREE]], str),
    (render_svg, [[UH_FREE]], str),
    (
        generate_partitions,
        [[0, 3], [None, PARTITION, SetPartition((1, 2, 1, 2))]],
        SetPartition,
    ),
    (generate_paths, [[0, 3], PATH_CLASSES], LatticePath),
    (binomial, [[4, -1], [2, 5]], int),
    (narayana, [[4, 0], [2, -1]], int),
    (count_blocks, [[4, -1], [2, 0]], int),
    (large_schroder, [[4]], int),
    (bell_numbers, [[4]], list),
    (series, [["f", "bell"], [4]], SeriesTable),
    (series_f, [[4]], SeriesTable),
    (series_f_prime, [[4]], SeriesTable),
    (series_f(4).coefficient, [[0, 4]], int),
    (run_checks, [[0, 1]], list),
]


def test_random_calls_keep_the_library_error_contract():
    rng = random.Random(20082)
    for _ in range(2000):
        fn, slots, returns = rng.choice(API)
        args = [rng.choice(valid if rng.random() < 0.3 else WRONG) for valid in slots]
        case = f"{fn.__name__}(*{args!r})"
        try:
            value = fn(*args)
            if isinstance(value, types.GeneratorType):
                value = next(value)
        except LibraryError:
            continue
        except Exception as exc:
            pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")
        assert isinstance(value, returns), case

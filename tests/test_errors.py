"""The library's own errors, and the one check of a size argument.

Every size argument goes through ``errors.require_size``: a size that is not
a plain int, or is negative, raises InvalidObjectError naming the argument.
"""

import re

import pytest

from partition_paths import (
    InvalidObjectError,
    LibraryError,
    LimitExceededError,
    PreconditionError,
    bell_number,
    bell_numbers,
    generate_partitions,
    generate_paths,
    large_schroder,
    run_checks,
    series,
    series_f,
    series_f_prime,
)

# Each function that takes a size, and the name its errors give the size.
# The generators get limit=2, so that a float size that slipped past the
# type check would stop at the limit instead of starting an unbounded search.
SIZED = [
    pytest.param(
        lambda n: list(generate_partitions(n, limit=2)),
        "partition size",
        id="generate_partitions",
    ),
    pytest.param(
        lambda n: list(generate_paths(n, "uh_free", limit=2)),
        "semilength",
        id="generate_paths",
    ),
    pytest.param(series_f, "truncation order", id="series_f"),
    pytest.param(series_f_prime, "truncation order", id="series_f_prime"),
    pytest.param(bell_numbers, "truncation order", id="bell_numbers"),
    pytest.param(lambda n: series("schroder", n), "truncation order", id="series"),
    pytest.param(large_schroder, "n", id="large_schroder"),
    pytest.param(bell_number, "n", id="bell_number"),
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


def test_unknown_series_is_an_invalid_object():
    with pytest.raises(InvalidObjectError, match="^unknown series 'catalan'$"):
        series("catalan")

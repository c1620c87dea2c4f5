"""Shared exhaustive-enumeration caches and independent oracles."""

import math
from functools import lru_cache

import pytest

from partition_paths import (
    avoids,
    decompose,
    generate_partitions,
    generate_paths,
    parse_partition,
)


@lru_cache(maxsize=None)
def _partitions(m):
    return tuple(generate_partitions(m))


@lru_cache(maxsize=None)
def _avoiders(m, pattern):
    pat = parse_partition(pattern)
    return tuple(p for p in _partitions(m) if avoids(p, pat))


@lru_cache(maxsize=None)
def _paths(n, path_class):
    return tuple(generate_paths(n, path_class))


def _bell_by_binomials(order):
    # Independent oracle: B(n+1) = sum over k of C(n, k) B(k), with neither
    # partition generation nor the Bell triangle that bell_numbers builds.
    out = [1]
    for n in range(order):
        out.append(sum(math.comb(n, k) * b for k, b in enumerate(out)))
    return out


def _encode_by_decomposition(p):
    # Independent oracle: the encoding read off the factorization
    # 1 w1 2 w2 ... k wk, factor by factor.
    dec = decompose(p)
    out = []
    for i in range(1, dec.block_count + 1):
        if i >= 2:
            out.append("U" * (dec.late_occurrences[i - 2] + 1))
            out.append("D")
        for c in dec.words[i - 1]:
            out.append("H" if c == i else "D")
    return "".join(out)


@pytest.fixture(scope="session")
def partitions_of():
    return _partitions


@pytest.fixture(scope="session")
def avoiders_of():
    return _avoiders


@pytest.fixture(scope="session")
def paths_of():
    return _paths


@pytest.fixture(scope="session")
def bell_oracle():
    return _bell_by_binomials


@pytest.fixture(scope="session")
def encode_oracle():
    return _encode_by_decomposition

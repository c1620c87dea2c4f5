"""Cross-module identity suite.

Every structural claim the library makes is checked here exhaustively at
desk scale: counts, fast predicates against the containment oracle,
bijection roundtrips and image sets, statistic transport, and the series
identities.  Checks report the smallest size and the lexicographically
first counterexample on failure.  A count check is a row (``_equation``):
a reference count of n, or of (n, k), and sources that must equal it.  One
comparer, ``_equate``, reports the smallest n, then the smallest k, then the
first source in row order, counting a source only when it gets there.  To
check one more count, add a source to its row in ``CHECKS``.  A bijection
check is a row too (``_bijection``): a domain census, a forward map, a
target census and laws of an object and its image, read by ``_biject``.  To
check one more bijection, add a row.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

from . import bijections, enumeration, partitions, paths
from .errors import LibraryError, require_size


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_n: int
    failure: Optional[str]

    @property
    def ok(self) -> bool:
        return self.failure is None


@lru_cache(maxsize=None)
def _partitions(m: int):
    return tuple(partitions.generate_partitions(m))


@lru_cache(maxsize=None)
def _avoiders(m: int, pattern: str):
    pat = partitions.FAST_PATTERNS[pattern].word
    return tuple(p for p in _partitions(m) if partitions.avoids(p, pat))


@lru_cache(maxsize=None)
def _paths(n: int, path_class: str):
    return tuple(paths.generate_paths(n, path_class))


def _by_size(check, first=0):
    """The check of sizes first .. max_n made of ``check``, a check of one
    size: the failure at the smallest size that fails, or None."""
    return lambda max_n: next(filter(None, map(check, range(first, max_n + 1))), None)


def _equate(reference, sources, by_k: bool, n: int) -> Optional[str]:
    """The first mismatch of one census equation at size n, or None: its
    words, formatted with n, k, m = n + 1, got and want."""
    want, template = reference
    counts = []
    for k in range(n + 1) if by_k else (None,):
        expected = want(n) if k is None else want(n, k)
        for i, (count, words) in enumerate(sources):
            if i == len(counts):
                counts.append(count(n))
            got = counts[i] if k is None else counts[i][k]
            if got != expected:
                words = template.replace("{source}", words)
                return words.format(n=n, k=k, m=n + 1, got=got, want=expected)


def _equation(reference, *sources, by_k=False):
    """The check of sizes 0 .. max_n of one census equation: the reference
    ``(want, words)`` gives ``want(n)``, or ``want(n, k)`` for k in 0..n if
    ``by_k``, each source ``(count, words)`` a number or a Counter by k, and
    a failure the reference's words with the source's at ``{source}``."""
    return _by_size(partial(_equate, reference, sources, by_k))


def _biject(domain, forward, target, laws, n: int) -> Optional[str]:
    """The first failure of one bijection row at size n, or None.  Each p of
    ``domain(n)`` goes to q = forward(p), and the first law ``(holds, words)``
    in row order with ``holds(p, q)`` false gives its words, formatted with
    n, p and q; no later law or object is evaluated.  Once every p has
    passed, a sorted image other than the target's sorted ``census(n)``
    gives the target's words.

    The round trip inverse(q) = p is a law, evaluated in this direction
    only: it makes forward injective, and the image check makes forward's
    outputs exactly the target, as multisets.  So each q of the target is
    forward(p) for a p handled here, where inverse(q) = p was computed, and
    forward(inverse(q)) = q follows, since the maps are deterministic.
    """
    image = []
    for p in domain(n):
        q = forward(p)
        for holds, words in laws:
            if not holds(p, q):
                return words.format(n=n, p=p, q=q)
        image.append(q)
    census, words = target
    if sorted(image) != sorted(census(n)):
        return words.format(n=n)


def _bijection(domain, forward, target, *laws):
    """The check of sizes 0 .. max_n of one bijection row (see ``_biject``)."""
    return _by_size(partial(_biject, domain, forward, target, laws))


@lru_cache(maxsize=1)
def _peak_levels(q) -> list:  # one peaks call per path, for the laws that share it
    return [level for _, level in paths.peaks(q)]


def _encoding(pattern: str):
    """encode is a bijection, inverse decode, from the pattern's avoiders of
    [n+1] onto the UH-free paths of semilength n, carrying blocks to peaks."""
    return _bijection(
        lambda n: _avoiders(n + 1, pattern),
        lambda p: bijections.encode(p, pattern),
        (lambda n: _paths(n, "uh_free"),
         "n={n}: encode image differs from the UH-free path set"),
        (lambda p, q: bijections.decode(q, pattern) == p,
         "n={n}: decode(encode({p})) roundtrip fails"),
        (lambda p, q: p.block_count == len(_peak_levels(q)) + 1,
         "n={n}: block count of {p} does not map to peak count of {q}"),
        (lambda p, q: partitions.is_irreducible(p) == all(map(
            paths.CLASS_RULES["uh_free_no_level_one"].peak_ok, _peak_levels(q))),
         "n={n}: irreducibility of {p} does not match absence of level-one "
         "peaks in {q}"),
    )


def _each_pattern(count, words: str) -> tuple:
    """One source per bijection pattern: ``count`` of its avoiders of [n+1]."""
    return tuple(
        (lambda n, pat=pattern: count(_avoiders(n + 1, pat)),
         words.replace("{pattern}", pattern))
        for pattern in bijections.PATTERNS
    )


_BELL = (lambda n: enumeration.bell_numbers(n)[n], "n={n}: {source}, Bell number is {want}")
_RECURRENCE = "n={n}: {source}, recurrence gives {want}"
_SERIES = "n={n}: {source}, series coefficient is {want}"


def _check_partition_generator(n: int) -> Optional[str]:
    generated = [(lambda n: len(_partitions(n)), "generated {got} partitions")]
    if failure := _equate(_BELL, generated, False, n):
        return failure
    words = list(_partitions(n))
    if sorted(words) != words:
        return f"n={n}: generation order is not lexicographic"
    if len(set(words)) != len(words):
        return f"n={n}: duplicate partition generated"


def _check_fast_predicates(n: int) -> Optional[str]:
    census = {
        pattern: set(_avoiders(n, pattern)) for pattern in partitions.FAST_PATTERNS
    }
    for p in _partitions(n):
        for pattern, entry in partitions.FAST_PATTERNS.items():
            brute = p in census[pattern]
            if entry.avoids_fast(p) != brute:
                return (
                    f"n={n}: fast {pattern} check disagrees with brute force "
                    f"on {p} (brute says avoids={brute})"
                )


def _check_decompose_roundtrip(n: int) -> Optional[str]:
    for p in _partitions(n):
        if partitions.decompose(p).reassemble() != p:
            return f"n={n}: decompose does not reassemble {p}"


def _check_irreducible_agreement(n: int) -> Optional[str]:
    for p in _partitions(n):
        if partitions.is_irreducible(p) != partitions.is_irreducible_char(p):
            return f"n={n}: irreducibility definitions disagree on {p}"


def _check_paths_reparse(n: int) -> Optional[str]:
    for cls in paths.PATH_CLASSES:
        for p in _paths(n, cls):
            if paths.parse_path(str(p), cls) != p:
                return f"n={n}: {cls} path {p} does not survive parse"


def _check_series_identity(max_n: int) -> Optional[str]:
    # always order 16, whatever max_n (at most its cap, 16); its PASS line
    # still prints the capped max_n, which ROADMAP item 1 mends
    order = 16
    f = list(enumeration.series_f(order).coefficients)
    fp = list(enumeration.series_f_prime(order).coefficients)
    # x(1-x)f has coefficients f[n-1] - f[n-2]
    factor = [1] + [
        -(f[n - 1] - (f[n - 2] if n >= 2 else 0)) for n in range(1, order + 1)
    ]
    product = [
        sum(fp[i] * factor[n - i] for i in range(n + 1)) for n in range(order + 1)
    ]
    if product != [1] + [0] * order:
        return f"f' * (1 - x(1-x)f) is not 1 up to order {order}: {product}"


CHECKS = (
    ("partition-generator-bell-count", 10, _by_size(_check_partition_generator)),
    ("fast-avoidance-matches-oracle", 9, _by_size(_check_fast_predicates)),
    ("decompose-reassembles", 10, _by_size(_check_decompose_roundtrip, 1)),
    ("irreducible-definitions-agree", 9, _by_size(_check_irreducible_agreement, 1)),
    ("schroder-count-matches-recurrence", 8, _equation(
        (lambda n: enumeration._terms("schroder", n)[n], _RECURRENCE),
        (lambda n: len(_paths(n, "schroder")), "generated {got} schroder paths"),
    )),
    ("uh-free-count-equals-no-even-peak-count", 8, _equation(
        (lambda n: len(_paths(n, "uh_free")),
         "n={n}: {want} UH-free paths but {source}"),
        (lambda n: len(_paths(n, "no_even_peak")), "{got} without even-level peaks"),
    )),
    ("generated-paths-reparse", 8, _by_size(_check_paths_reparse)),
    ("dyck-peak-distribution-is-narayana", 8, _equation(
        (lambda n, k: enumeration.narayana(n, k),
         "n={n}: {source}, Narayana number is {want}"),
        (lambda n: Counter(len(paths.peaks(p)) for p in _paths(n, "dyck")),
         "{got} Dyck paths with {k} peaks"),
        by_k=True,
    )),
    ("skew-dyck-counts", 5, _equation(
        (lambda n: enumeration._terms("skew_dyck", n)[n], _RECURRENCE),
        (lambda n: len(_paths(n, "skew_dyck")), "generated {got} skew_dyck paths"),
    )),
    ("encode-decode-12312", 8, _encoding("12312")),
    ("encode-decode-12321", 8, _encoding("12321")),
    ("odd-peak-rewrite-bijection", 8, _bijection(
        lambda n: _paths(n, "uh_free"),
        lambda p: bijections.to_odd_peaks(p),
        (lambda n: _paths(n, "no_even_peak"),
         "n={n}: rewrite image differs from the no-even-peak set"),
        (lambda p, q: q.semilength == p.semilength,
         "n={n}: rewrite changes semilength of {p}"),
        (lambda p, q: bijections.to_uh_free(q) == p,
         "n={n}: backward rewrite fails on {q}"),
    )),
    ("refined-block-counts", 8, _equation(
        (lambda n, k: enumeration.count_blocks(n, k),
         "n={n} k={k}: formula gives {want}, {source}"),
        *_each_pattern(lambda ps: Counter(p.block_count - 1 for p in ps),
                       "census of {pattern}-avoiders gives {got}"),
        (lambda n: Counter(len(paths.peaks(p)) for p in _paths(n, "uh_free")),
         "peak census gives {got}"),
        by_k=True,
    )),
    ("series-f-counts", 8, _equation(
        (lambda n: enumeration.series_f(n).coefficient(n), _SERIES),
        (lambda n: len(_paths(n, "uh_free")), "{got} UH-free paths"),
        *_each_pattern(len, "{got} {pattern}-avoiding partitions of [{m}]"),
        (lambda n: sum(enumeration.count_blocks(n, k) for k in range(n + 1)),
         "refined counts sum to {got}"),
    )),
    ("series-f-prime-counts", 7, _equation(
        (lambda n: enumeration.series_f_prime(n).coefficient(n), _SERIES),
        (lambda n: len(_paths(n, "uh_free_no_level_one")),
         "{got} UH-free paths without level-one peaks"),
        *_each_pattern(lambda ps: sum(map(partitions.is_irreducible, ps)),
                       "{got} irreducible {pattern}-avoiders"),
        (lambda n: len(_paths(n, "skew_dyck_end_down")),
         "{got} skew Dyck paths ending with a down step"),
    )),
    ("series-algebraic-identity", 16, _check_series_identity),
)


def run_checks(max_n: int) -> list:
    """Run every identity check, each capped at min(max_n, its stated range).

    Results come back in the fixed declaration order, so output built from
    them is deterministic; a library error raised inside a check is its failure.
    The censuses the checks build are freed when the run ends.
    """
    require_size(max_n, "max_n")
    results = []
    try:
        for name, cap, fn in CHECKS:
            bound = min(max_n, cap)
            try:
                failure = fn(bound)
            except LibraryError as exc:
                failure = f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(name, bound, failure))
    finally:
        for census in (_partitions, _avoiders, _paths, _peak_levels):
            census.cache_clear()
    return results

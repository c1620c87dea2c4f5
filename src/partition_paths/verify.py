"""Cross-module identity suite.

Every structural claim the library makes is checked here exhaustively at
desk scale: generator counts against closed forms, fast predicates against
the containment oracle, bijection roundtrips and image sets, statistic
transport, and the series identities.  Checks report the smallest size and
the lexicographically first counterexample on failure.
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


def _check_partition_generator(n: int) -> Optional[str]:
    ps = _partitions(n)
    bell = enumeration.bell_number(n)
    if len(ps) != bell:
        return f"n={n}: generated {len(ps)} partitions, Bell number is {bell}"
    words = [p.word for p in ps]
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


def _check_row(cls: str, n: int) -> Optional[str]:
    """The generated path count against the recurrence row named after the class."""
    want = enumeration._terms(cls, n)[n]
    got = len(_paths(n, cls))
    if got != want:
        return f"n={n}: generated {got} {cls} paths, recurrence gives {want}"


def _check_uh_free_count(n: int) -> Optional[str]:
    a = len(_paths(n, "uh_free"))
    b = len(_paths(n, "no_even_peak"))
    if a != b:
        return f"n={n}: {a} UH-free paths but {b} without even-level peaks"


def _check_paths_reparse(n: int) -> Optional[str]:
    for cls in paths.PATH_CLASSES:
        for p in _paths(n, cls):
            if paths.parse_path(str(p), cls) != p:
                return f"n={n}: {cls} path {p} does not survive parse"


def _check_dyck_peaks_narayana(n: int) -> Optional[str]:
    census = Counter(len(paths.peaks(p)) for p in _paths(n, "dyck"))
    for k in range(n + 1):
        want = enumeration.narayana(n, k)
        if census.get(k, 0) != want:
            return (
                f"n={n}: {census.get(k, 0)} Dyck paths with {k} peaks, "
                f"Narayana number is {want}"
            )


def _check_encode_decode(pattern: str, n: int) -> Optional[str]:
    """encode is a bijection from the pattern's avoiders of [n+1] onto the
    UH-free paths of semilength n, with decode its inverse, and it carries
    block count and irreducibility to peak count and level-one peaks.

    Only decode(encode(p)) = p is evaluated.  It makes encode injective, and
    the image check makes encode's outputs exactly the UH-free paths, as
    multisets.  So every UH-free q is encode(p) for some avoider p the loop
    handled, where decode(q) = p was computed, and encode(decode(q)) = q
    follows.  The maps are deterministic, so a loop over the UH-free paths
    would only repeat calls whose results were compared here.
    """
    no_level_one_peak = paths.CLASS_RULES["uh_free_no_level_one"].peak_ok
    image = []
    for p in _avoiders(n + 1, pattern):
        q = bijections.encode(p, pattern)
        if bijections.decode(q, pattern) != p:
            return f"n={n}: decode(encode({p})) roundtrip fails"
        levels = [lvl for _, lvl in paths.peaks(q)]
        if p.block_count != len(levels) + 1:
            return f"n={n}: block count of {p} does not map to peak count of {q}"
        irreducible = partitions.is_irreducible(p)
        no_level_one = all(map(no_level_one_peak, levels))
        if irreducible != no_level_one:
            return (
                f"n={n}: irreducibility of {p} does not match absence of "
                f"level-one peaks in {q}"
            )
        image.append(q)
    uh_free = _paths(n, "uh_free")
    if sorted(q.steps for q in image) != sorted(p.steps for p in uh_free):
        return f"n={n}: encode image differs from the UH-free path set"


def _check_odd_peak_rewrite(n: int) -> Optional[str]:
    """to_odd_peaks is a semilength-preserving bijection from the UH-free
    paths onto the paths without even-level peaks, with to_uh_free its
    inverse.

    As in :func:`_check_encode_decode`, only to_uh_free(to_odd_peaks(p)) = p
    is evaluated: with the image check it covers every path q of the target,
    which is to_odd_peaks(p) for some p the loop handled, so
    to_odd_peaks(to_uh_free(q)) = q follows.
    """
    image = []
    for p in _paths(n, "uh_free"):
        q = bijections.to_odd_peaks(p)
        if q.semilength != p.semilength:
            return f"n={n}: rewrite changes semilength of {p}"
        if bijections.to_uh_free(q) != p:
            return f"n={n}: backward rewrite fails on {q}"
        image.append(q)
    target = _paths(n, "no_even_peak")
    if sorted(q.steps for q in image) != sorted(p.steps for p in target):
        return f"n={n}: rewrite image differs from the no-even-peak set"


def _check_block_counts(n: int) -> Optional[str]:
    peak_census = Counter(len(paths.peaks(p)) for p in _paths(n, "uh_free"))
    for pattern in bijections.PATTERNS:
        block_census = Counter(p.block_count - 1 for p in _avoiders(n + 1, pattern))
        for k in range(n + 1):
            formula = enumeration.count_blocks(n, k)
            if formula != block_census.get(k, 0):
                return (
                    f"n={n} k={k}: formula gives {formula}, census of "
                    f"{pattern}-avoiders gives {block_census.get(k, 0)}"
                )
            if formula != peak_census.get(k, 0):
                return (
                    f"n={n} k={k}: formula gives {formula}, peak census "
                    f"gives {peak_census.get(k, 0)}"
                )


def _check_series_f(n: int) -> Optional[str]:
    want = enumeration.series_f(n).coefficient(n)
    got = len(_paths(n, "uh_free"))
    if got != want:
        return f"n={n}: {got} UH-free paths, series coefficient is {want}"
    for pattern in bijections.PATTERNS:
        avoiders = len(_avoiders(n + 1, pattern))
        if avoiders != want:
            return (
                f"n={n}: {avoiders} {pattern}-avoiding partitions of "
                f"[{n + 1}], series coefficient is {want}"
            )
    total = sum(enumeration.count_blocks(n, k) for k in range(n + 1))
    if total != want:
        return f"n={n}: refined counts sum to {total}, series coefficient is {want}"


def _check_series_f_prime(n: int) -> Optional[str]:
    want = enumeration.series_f_prime(n).coefficient(n)
    no_level_one = len(_paths(n, "uh_free_no_level_one"))
    if no_level_one != want:
        return (
            f"n={n}: {no_level_one} UH-free paths without level-one peaks, "
            f"series coefficient is {want}"
        )
    for pattern in bijections.PATTERNS:
        irr = sum(
            1 for p in _avoiders(n + 1, pattern) if partitions.is_irreducible(p)
        )
        if irr != want:
            return (
                f"n={n}: {irr} irreducible {pattern}-avoiders, series "
                f"coefficient is {want}"
            )
    end_down = len(_paths(n, "skew_dyck_end_down"))
    if end_down != want:
        return (
            f"n={n}: {end_down} skew Dyck paths ending with a down step, "
            f"series coefficient is {want}"
        )


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
    return None


CHECKS = (
    ("partition-generator-bell-count", 10, _by_size(_check_partition_generator)),
    ("fast-avoidance-matches-oracle", 9, _by_size(_check_fast_predicates)),
    ("decompose-reassembles", 10, _by_size(_check_decompose_roundtrip, 1)),
    ("irreducible-definitions-agree", 9, _by_size(_check_irreducible_agreement, 1)),
    ("schroder-count-matches-recurrence", 8, _by_size(partial(_check_row, "schroder"))),
    ("uh-free-count-equals-no-even-peak-count", 8, _by_size(_check_uh_free_count)),
    ("generated-paths-reparse", 8, _by_size(_check_paths_reparse)),
    ("dyck-peak-distribution-is-narayana", 8, _by_size(_check_dyck_peaks_narayana)),
    ("skew-dyck-counts", 5, _by_size(partial(_check_row, "skew_dyck"))),
    ("encode-decode-12312", 8, _by_size(partial(_check_encode_decode, "12312"))),
    ("encode-decode-12321", 8, _by_size(partial(_check_encode_decode, "12321"))),
    ("odd-peak-rewrite-bijection", 8, _by_size(_check_odd_peak_rewrite)),
    ("refined-block-counts", 8, _by_size(_check_block_counts)),
    ("series-f-counts", 8, _by_size(_check_series_f)),
    ("series-f-prime-counts", 7, _by_size(_check_series_f_prime)),
    ("series-algebraic-identity", 16, _check_series_identity),
)


def run_checks(max_n: int) -> list:
    """Run every identity check, each capped at min(max_n, its stated range).

    Results come back in the fixed declaration order, so output built from
    them is deterministic; a library error raised inside a check is its failure.
    """
    require_size(max_n, "max_n")
    results = []
    for name, cap, fn in CHECKS:
        bound = min(max_n, cap)
        try:
            failure = fn(bound)
        except LibraryError as exc:
            failure = f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bound, failure))
    return results

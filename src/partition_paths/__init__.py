"""Pattern-avoiding set partitions, restricted Schroder paths, and the
bijections between them, with exact enumeration and exhaustive verification."""

from .bijections import (
    PATTERNS,
    decode,
    decode_from_odd_peaks,
    decode_trace,
    encode,
    encode_to_odd_peaks,
    to_odd_peaks,
    to_uh_free,
)
from .enumeration import (
    SeriesTable,
    bell_numbers,
    binomial,
    count_blocks,
    large_schroder,
    narayana,
    series,
    series_f,
    series_f_prime,
)
from .errors import (
    InvalidObjectError,
    LibraryError,
    LimitExceededError,
    PreconditionError,
)
from .partitions import (
    Decomposition,
    SetPartition,
    avoids,
    avoids_12312_fast,
    avoids_12321_fast,
    decompose,
    find_pattern,
    generate_partitions,
    is_irreducible,
    is_irreducible_char,
    parse_partition,
)
from .paths import (
    LatticePath,
    PATH_CLASSES,
    PathFlags,
    classify,
    generate_paths,
    parse_path,
    peaks,
)
from .rendering import render, render_ascii, render_svg
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

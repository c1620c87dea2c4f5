import os
import random
import subprocess
import sys
from collections import Counter, deque
from functools import lru_cache
from itertools import accumulate, product
from pathlib import Path

import pytest

from partition_paths import (
    InvalidObjectError,
    LatticePath,
    LibraryError,
    PreconditionError,
    SetPartition,
    decode,
    decode_from_odd_peaks,
    decode_trace,
    encode,
    encode_to_odd_peaks,
    find_pattern,
    generate_partitions,
    is_irreducible,
    parse_partition,
    parse_path,
    peaks,
    to_odd_peaks,
    to_uh_free,
)
from partition_paths import bijections
from partition_paths.bijections import MAPS
from partition_paths.partitions import FAST_PATTERNS
from partition_paths.paths import check_path

REF_PARTITION = parse_partition("11232343411")
REF_ENCODED = "HUUUDUUDDHUUDDHDD"
DECODE_INPUT = "HUUDHHUUUDDHDHDUUDD"


class TestEncode:
    def test_singleton_maps_to_empty_path(self):
        assert encode(SetPartition((1,))) == LatticePath("")

    def test_large_golden(self):
        assert str(encode(REF_PARTITION)) == REF_ENCODED

    def test_two_blocks(self):
        assert str(encode(SetPartition((1, 2)))) == "UD"

    def test_same_forward_map_for_both_patterns(self):
        p = parse_partition("1123")
        assert encode(p, "12312") == encode(p, "12321")

    def test_rejects_pattern_occurrence_with_witness(self):
        with pytest.raises(PreconditionError, match="positions 1,2,3,4,5"):
            encode(SetPartition((1, 2, 3, 1, 2)), "12312")
        with pytest.raises(PreconditionError) as exc:
            encode(SetPartition((1, 2, 3, 2, 1)), "12321")
        assert exc.value.witness == (0, 1, 2, 3, 4)

    def test_rejects_empty_partition(self):
        with pytest.raises(PreconditionError):
            encode(SetPartition())

    def test_rejects_unknown_pattern(self):
        with pytest.raises(PreconditionError):
            encode(SetPartition((1,)), "123")

    def test_unwitnessed_containment_is_a_precondition_error(self, monkeypatch):
        # encode reads the rule's step, which here refuses every letter
        refusing = FAST_PATTERNS["12312"]._replace(step=lambda state, c, mx: None)
        monkeypatch.setitem(FAST_PATTERNS, "12312", refusing)
        with pytest.raises(PreconditionError) as exc:
            encode(SetPartition((1, 2, 1, 2)), "12312")
        assert str(exc.value) == (
            "the fast 12312 test says 1,2,1,2 contains the pattern, "
            "but find_pattern finds no occurrence"
        )

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_single_pass_matches_decomposition(self, encode_oracle, pattern):
        for n in range(1, 11):
            for p in generate_partitions(n, avoiding=FAST_PATTERNS[pattern].word):
                assert encode(p, pattern).steps == encode_oracle(p), p


def _encode_without_checks(word):
    """The encoding pass alone, for a word known to be a nonempty avoider."""
    out = []
    slots = []  # slots[i]: where the ascent of label i + 2 goes in out
    late = []  # late[i]: occurrences of label i + 1 after the first i + 2
    mx = 1
    for c in word[1:]:
        if c == mx:
            out.append("H")
        elif c < mx:
            late[c - 1] += 1
            out.append("D")
        else:
            mx = c
            slots.append(len(out))
            late.append(0)
            out.append("")
    for slot, count in zip(slots, late):
        out[slot] = "U" * (count + 1) + "D"
    return "".join(out)


class TestEncodeKernel:
    """The encoding kernel decides its domain in the pass that encodes: it
    must answer None exactly off the checked domain, and encode on it."""

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_decides_exactly_the_checked_domain(self, pattern):
        rule = FAST_PATTERNS[pattern]
        for size in range(7):
            for word in product(range(5), repeat=size):
                try:
                    p = SetPartition(word)
                except InvalidObjectError:
                    p = None
                steps = bijections._encode(word, rule)
                if p and rule.avoids_fast(p):
                    assert steps == _encode_without_checks(word), word
                else:
                    assert steps is None, word


# The strings TestParse.test_parse_results pins in test_partitions.py.
PARSE_PINNED = (
    "1,,2", ",1", "1,", " 1 , 2 ", "1,3,x", "+1", "1_0", "12a", "112", "1,3", "",
    "  \t ",
)
# Each forward row that reads a partition, with its public map and pattern.
PARTITION_ROWS = {
    "sigma": (encode, "12312"),
    "phi": (encode, "12321"),
    "full12312": (encode_to_odd_peaks, "12312"),
    "full12321": (encode_to_odd_peaks, "12321"),
}


def _outcome(fn, *args):
    """What a call gives: its value and type, or its error's type and message."""
    try:
        value = fn(*args)
    except LibraryError as exc:
        return type(exc), str(exc)
    return type(value), value


class TestPartitionRows:
    """A forward row parses a line straight into its domain; on every line
    it must give what the public map gives on the parsed partition.  The
    partitions of [5] and [6] hold occurrences of either pattern, which no
    line of four characters can."""

    @pytest.mark.parametrize("name", sorted(PARTITION_ROWS))
    def test_matches_the_public_map(self, name, partitions_of):
        checked, pattern = PARTITION_ROWS[name]
        read = MAPS[name]["forward"]
        lines = [
            "".join(letters)
            for size in range(5)
            for letters in product("1230,x ", repeat=size)
        ]
        lines += [str(p) for n in (5, 6) for p in partitions_of(n)]
        for text in lines + list(PARSE_PINNED):
            want = _outcome(lambda: checked(parse_partition(text), pattern))
            assert _outcome(read, text) == want, text


class TestDecode:
    def test_max_rule_golden(self):
        assert str(decode(parse_path(DECODE_INPUT))) == "1,1,2,2,2,3,2,3,2,3,1,4,3"

    def test_min_rule_golden(self):
        assert (
            str(decode(parse_path(DECODE_INPUT), "12321"))
            == "1,1,2,2,2,3,1,3,2,3,2,4,3"
        )

    def test_empty_path(self):
        assert decode(LatticePath("")) == SetPartition((1,))
        assert decode(LatticePath(""), "12321") == SetPartition((1,))

    def test_single_peak(self):
        assert decode(LatticePath("UD")) == SetPartition((1, 2))
        assert decode(LatticePath("UD"), "12321") == SetPartition((1, 2))

    def test_rejects_uh_pair(self):
        with pytest.raises(PreconditionError, match="UH-free"):
            decode(LatticePath("UHD"))

    def test_rejects_left_steps(self):
        with pytest.raises(PreconditionError):
            decode(LatticePath("UUDL"))

    def test_trace_lists_index_step_label(self):
        assert decode_trace(LatticePath("UD")) == "0 U 1\n1 D 1\n2 U 2\n3 D 2"

    def test_trace_golden(self):
        assert decode_trace(parse_path(DECODE_INPUT), "12321") == (
            "0 U 1\n1 D 1\n2 H 1\n3 U 1\n4 U 2\n5 D 2\n6 H 2\n7 H 2\n8 U 2\n"
            "9 U 2\n10 U 3\n11 D 3\n12 D 1\n13 H 3\n14 D 2\n15 H 3\n16 D 2\n"
            "17 U 3\n18 U 4\n19 D 4\n20 D 3"
        )

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_trace_follows_the_docstring(self, paths_of, pattern):
        for n in range(7):
            for q in paths_of(n, "uh_free"):
                steps = "UD" + q.steps
                labels = _docstring_labels(steps, pattern)
                assert decode_trace(q, pattern) == _docstring_trace(q, pattern), q
                word = tuple(x for s, x in zip(steps, labels) if s != "U")
                assert decode(q, pattern).word == word, q


def _docstring_trace(q, pattern):
    """decode_trace's dump, built from the labels of decode's docstring."""
    steps = "UD" + q
    labels = _docstring_labels(steps, pattern)
    return "\n".join(f"{i} {s} {x}" for i, (s, x) in enumerate(zip(steps, labels)))


def _docstring_labels(steps, pattern):
    """The labels of the steps (a peak already prepended) by the rules of
    decode's docstring, one rule at a time, with the multisets kept whole."""
    labels, up, down, numbered = [], Counter(), Counter(), 0
    for i, s in enumerate(steps):
        if s == "U" and steps[i + 1 : i + 2] == "D":  # a peak up step
            numbered += 1
            label = numbered
        elif s in "UH":
            label = max(labels)
        elif steps[i - 1] == "U":  # a peak down step
            label = labels[-1]
        else:
            label = (max if pattern == "12312" else min)((up - down).elements())
        if s == "U":
            up[label] += 1
        elif s == "D":
            down[label] += 1
        labels.append(label)
    return labels


def _decode_by_lookahead(steps, pattern):
    """A reference decode loop: each step finds out whether it is half of a
    peak by looking one step ahead or behind by index."""
    steps = "UD" + steps
    word, free, seen_peaks = [], deque(), 0
    for i, s in enumerate(steps):
        if s == "U":
            if i + 1 < len(steps) and steps[i + 1] == "D":
                seen_peaks += 1
            free.append(seen_peaks)
        elif s == "H":
            word.append(seen_peaks)
        elif steps[i - 1] == "U":
            word.append(free.pop())
        else:
            word.append(free.pop() if pattern == "12312" else free.popleft())
    return tuple(word)


def _random_uh_free(rng, n):
    """A seeded random UH-free path of semilength n: a random Dyck path by the
    cycle lemma, with H steps dropped at its start and after down steps, where
    no H follows an up step."""
    m = rng.randint(0, n)  # the Dyck semilength; the other n - m steps are H
    word = ["D"] * (2 * m + 1)
    for i in rng.sample(range(2 * m + 1), m):
        word[i] = "U"
    heights = list(accumulate(map({"U": 1, "D": -1}.get, word)))
    k = heights.index(min(heights)) + 1  # the rotation from here stays >= 0
    runs = "".join(word[k:] + word[:k - 1]).split("D")  # U runs between D steps
    slots = Counter(rng.choices(range(len(runs)), k=n - m))
    return "D".join("H" * slots[i] + run for i, run in enumerate(runs))


class TestDecodeKernel:
    """The decode kernel reads each peak UD as one token; it must agree with
    the step-by-step reference loop."""

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_matches_reference_exhaustively(self, paths_of, pattern):
        for n in range(10):
            for q in paths_of(n, "uh_free"):
                assert bijections._decode(q, pattern) == _decode_by_lookahead(
                    q, pattern
                ), q

    def test_matches_reference_on_long_random_paths(self):
        rng = random.Random(2008)
        for _ in range(200):
            q = _random_uh_free(rng, rng.randint(10**3, 10**4))
            check_path(LatticePath(q), "uh_free")
            for pattern in ("12312", "12321"):
                assert bijections._decode(q, pattern) == _decode_by_lookahead(
                    q, pattern
                )


def _rewrite_forward_by_index(steps):
    """A reference psi kernel: it walks the path by index, counting each up
    run and consuming each run of empty factors in an inner loop."""
    out, open_factors = [], []
    i, n = 0, len(steps)
    while i < n:
        s = steps[i]
        if s == "H":
            out.append("H")
            i += 1
            continue
        if s == "U":
            if steps[i + 1] == "D":
                out.append("UD")
                i += 2
                continue
            k = 2
            while steps[i + k] == "U":
                k += 1
            out.append("U")
            i += k + 1
            left = k - 1
        else:
            out.append("D")
            i += 1
            left = open_factors.pop() - 1
        while left and steps[i] == "D":
            out.append("H")
            i += 1
            left -= 1
        if left:
            out.append("U")
            open_factors.append(left)
        else:
            out.append("D")
    return "".join(out)


def _rewrite_backward_by_index(steps):
    """A reference inverse psi kernel: it walks the path by index and finds a
    peak by looking one step ahead."""
    out, frames = [], []
    i, n = 0, len(steps)
    while i < n:
        s = steps[i]
        i += 1
        top = frames[-1] if frames else None
        if top is not None:
            if s == "D":
                out[top[0]] = "U" * (top[1] + 1) + "D"
                frames.pop()
            else:
                top[1] += 1
                if s == "H":
                    out.append("D")
                else:
                    frames.append(None)
        elif s == "H":
            out.append("H")
        elif s == "D":
            frames.pop()
            out.append("D")
        elif steps[i] == "D":
            out.append("UD")
            i += 1
        else:
            frames.append([len(out), 0])
            out.append("")
    return "".join(out)


class TestRewriteKernel:
    """The psi kernels read each peak UD as one token; they must agree with
    the index-walking reference kernels."""

    def _assert_agree(self, q):
        image = bijections._rewrite_forward(q)
        assert image == _rewrite_forward_by_index(q), q
        assert bijections._rewrite_backward(image) == _rewrite_backward_by_index(
            image
        ), image

    def test_forward_matches_reference_exhaustively(self, paths_of):
        for n in range(10):
            for q in paths_of(n, "uh_free"):
                assert bijections._rewrite_forward(q) == _rewrite_forward_by_index(q), q

    def test_backward_matches_reference_exhaustively(self, paths_of):
        for n in range(10):
            for q in paths_of(n, "no_even_peak"):
                assert bijections._rewrite_backward(q) == _rewrite_backward_by_index(
                    q
                ), q

    def test_matches_reference_on_long_random_paths(self):
        rng = random.Random(2025)
        for _ in range(12):  # semilength log-uniform in 10^3 .. 10^5
            q = _random_uh_free(rng, round(10 ** rng.uniform(3, 5)))
            check_path(LatticePath(q), "uh_free")
            self._assert_agree(q)

    @pytest.mark.parametrize(
        "family",
        [
            lambda k: "U" * k + "D" * k,
            lambda k: "UD" * k,
            lambda k: "H" * k,
            lambda k: "UUUDDD" * k,
        ],
        ids=["U^k D^k", "(UD)^k", "H^k", "(UUUDDD)^k"],
    )
    def test_matches_reference_on_deep_families(self, family):
        for k in (1, 2, 3, 1000, 30000):
            self._assert_agree(family(k))


def _in_class(text, path_class):
    try:
        parse_path(text, path_class)
    except InvalidObjectError:
        return False
    return True


@lru_cache(maxsize=None)
def _kernel_inputs(path_class):
    """Every string over U, D, H of length <= 10 and over U, D, H, P, L, x of
    length <= 6, each with whether it parses into the class.  A literal P
    matters: the kernels read each peak UD as the token P."""
    return tuple(
        (text, _in_class(text, path_class))
        for alphabet, longest in (("UDH", 10), ("UDHPLx", 6))
        for size in range(longest + 1)
        for text in map("".join, product(alphabet, repeat=size))
    )


class TestPathKernels:
    """Each inverse kernel decides its class in the pass that builds its image:
    it must answer None exactly where parse_path refuses the class, and agree
    with the reference loops everywhere else."""

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_decode_decides_exactly_uh_free(self, pattern):
        for text, ok in _kernel_inputs("uh_free"):
            word = bijections._decode(text, pattern)
            if ok:
                assert word == _decode_by_lookahead(text, pattern), text
            else:
                assert word is None, text

    def test_rewrite_backward_decides_exactly_no_even_peak(self):
        for text, ok in _kernel_inputs("no_even_peak"):
            q = bijections._rewrite_backward(text)
            if ok:
                assert q == _rewrite_backward_by_index(text), text
            else:
                assert q is None, text


# Each MAPS side that reads a path, with its public map and the arguments
# after the path.
PATH_ROWS = {
    ("sigma", "inverse"): (decode, "12312"),
    ("phi", "inverse"): (decode, "12321"),
    ("psi", "forward"): (to_odd_peaks,),
    ("psi", "inverse"): (to_uh_free,),
    ("full12312", "inverse"): (decode_from_odd_peaks, "12312"),
    ("full12321", "inverse"): (decode_from_odd_peaks, "12321"),
}
_WANTS = {"uh_free": "a UH-free path", "no_even_peak": "no peak at even level"}


def _check_first(name, q, pattern):
    """What the public map ``name`` gives on ``q`` when the path's class is
    checked before any kernel runs, with its value from the reference loops:
    decode and decode_trace check the pattern first, and decode_from_odd_peaks
    checks the path first, as to_uh_free."""
    if name in ("decode", "decode_trace") and pattern not in bijections.PATTERNS:
        raise PreconditionError(_unsupported(pattern))
    caller = "to_uh_free" if name == "decode_from_odd_peaks" else name
    path_class = "no_even_peak" if caller == "to_uh_free" else "uh_free"
    try:
        check_path(q, path_class)
    except InvalidObjectError as exc:
        raise PreconditionError(f"{caller} expects {_WANTS[path_class]}; {exc}")
    if caller == "to_uh_free":
        q = LatticePath(_rewrite_backward_by_index(q))
        if name == "to_uh_free":
            return q
        if pattern not in bijections.PATTERNS:
            raise PreconditionError(_unsupported(pattern))
    if name == "decode_trace":
        return _docstring_trace(q, pattern)
    return SetPartition(_decode_by_lookahead(q, pattern))


class TestPathRows:
    """The mirror of TestPartitionRows: a path side runs its kernel on the
    stripped line and takes the checked route only where the kernel refuses,
    so on every line it must give what the public map gives on the parsed
    path, and each public map must give what it gave when it checked the
    class before the kernel ran."""

    @pytest.mark.parametrize("row", sorted(PATH_ROWS), ids="-".join)
    def test_matches_the_public_map(self, row, paths_of):
        checked, *args = PATH_ROWS[row]
        read = MAPS[row[0]][row[1]]
        lines = [
            "".join(letters)
            for size in range(6)
            for letters in product("UDH x\t", repeat=size)
        ]
        lines += [
            str(q)
            for n in range(7)
            for path_class in ("uh_free", "no_even_peak")
            for q in paths_of(n, path_class)
        ]
        for text in lines + [None, ["U", "D"], b"UD"]:
            want = _outcome(lambda: checked(parse_path(text), *args))
            assert _outcome(read, text) == want, text

    @pytest.mark.parametrize(
        "fn", [decode, decode_trace, to_uh_free, decode_from_odd_peaks],
        ids=lambda fn: fn.__name__,
    )
    def test_public_maps_match_the_check_first_order(self, fn, paths_of):
        patterns = ("12312", "12321", "bogus")
        if fn is to_uh_free:
            patterns = (None,)
        for n in range(7):
            for q in paths_of(n, "schroder"):
                for pattern in patterns:
                    args = () if pattern is None else (pattern,)
                    want = _outcome(_check_first, fn.__name__, q, pattern)
                    assert _outcome(fn, q, *args) == want, (q, pattern)


class TestOddPeakRewrite:
    def test_golden(self):
        assert str(to_odd_peaks(parse_path("UUUDDHUDDUD"))) == "UHUHUDDDUD"

    def test_golden_inverse(self):
        assert str(to_uh_free(parse_path("UHUHUDDDUD"))) == "UUUDDHUDDUD"

    def test_base_cases(self):
        for text in ("", "H", "UD"):
            assert str(to_odd_peaks(LatticePath(text))) == text
            assert str(to_uh_free(LatticePath(text))) == text

    def test_two_up_steps(self):
        assert str(to_odd_peaks(LatticePath("UUDD"))) == "UHD"
        assert str(to_uh_free(LatticePath("UHD"))) == "UUDD"

    def test_forward_rejects_uh_pair(self):
        with pytest.raises(PreconditionError):
            to_odd_peaks(LatticePath("UHD"))

    def test_backward_rejects_even_peak(self):
        with pytest.raises(PreconditionError, match="even level"):
            to_uh_free(LatticePath("UUDD"))


class TestCompositions:
    def test_singleton(self):
        assert encode_to_odd_peaks(SetPartition((1,))) == LatticePath("")

    def test_two_blocks(self):
        assert str(encode_to_odd_peaks(SetPartition((1, 2)))) == "UD"

    def test_large_golden(self):
        # frozen from the first computation; the image has no even-level peak
        assert str(encode_to_odd_peaks(REF_PARTITION)) == "HUUUHDHUHDHDHD"

    def test_roundtrip(self):
        q = encode_to_odd_peaks(REF_PARTITION)
        assert decode_from_odd_peaks(q) == REF_PARTITION


CONTAINS_12312 = "partition contains pattern 12312 at positions 1,2,3,4,5"
EMPTY = "the empty partition is outside the bijection domain"
EVEN_PEAK = (
    "to_uh_free expects no peak at even level; peak at even level 2 at position 2"
)
LEFT_STEP = (
    "to_uh_free expects no peak at even level; unknown step character 'L' at "
    "position 5 (class no_even_peak uses U/D/H)"
)


def _unsupported(pattern):
    return f"unsupported pattern {pattern!r}, expected 12312 or 12321"


class TestCompositionErrors:
    """The compositions check their input once, at entry, and raise exactly
    what the first map of the chain raises, in the same order."""

    @pytest.mark.parametrize(
        "word, pattern, message, witness",
        [
            ((1, 2, 3, 1, 2), "12312", CONTAINS_12312, (0, 1, 2, 3, 4)),
            (
                (1, 2, 3, 2, 1),
                "12321",
                "partition contains pattern 12321 at positions 1,2,3,4,5",
                (0, 1, 2, 3, 4),
            ),
            ((), "12312", EMPTY, None),
            ((1,), "123", _unsupported("123"), None),
            ((1, 2, 3, 1, 2), "bogus", _unsupported("bogus"), None),
            ((), "bogus", _unsupported("bogus"), None),
        ],
    )
    def test_forward(self, word, pattern, message, witness):
        for fn in (encode, encode_to_odd_peaks):
            with pytest.raises(PreconditionError) as exc:
                fn(SetPartition(word), pattern)
            assert (str(exc.value), exc.value.witness) == (message, witness), fn

    @pytest.mark.parametrize(
        "steps, pattern, message",
        [
            ("UUDD", "12312", EVEN_PEAK),
            ("UUUDLD", "12321", LEFT_STEP),
            ("UD", "123", _unsupported("123")),
            ("UUDD", "bogus", EVEN_PEAK),
            ("UUUDLD", "bogus", LEFT_STEP),
        ],
    )
    def test_inverse(self, steps, pattern, message):
        with pytest.raises(PreconditionError) as exc:
            decode_from_odd_peaks(LatticePath(steps), pattern)
        assert (str(exc.value), exc.value.witness) == (message, None)


# A third pattern registered for pruning, with the maps imported after it.
_THIRD_ROW = """
import importlib
from partition_paths import bijections, partitions
from partition_paths.errors import PreconditionError
from partition_paths.paths import LatticePath

word = partitions.SetPartition((1, 2, 1, 2))
row = partitions.Pattern(word, (), lambda state, c, mx: state)
partitions.FAST_PATTERNS["1212"] = row
importlib.reload(bijections)
calls = (
    (bijections.encode, partitions.SetPartition((1, 2, 3, 2, 1))),
    (bijections.decode, LatticePath("UUDUUDDD")),
)
for fn, arg in calls:
    try:
        print(fn(arg, "1212"))
    except PreconditionError as exc:
        print(exc)
"""


def test_a_pattern_without_a_decode_rule_is_unsupported():
    """The maps state their own patterns: a pattern that only the pruning
    registry knows has no decode rule, so encode and decode refuse it."""
    paths = [str(Path(bijections.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", _THIRD_ROW], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [_unsupported("1212")] * 2


# Per map: the pattern its partitions avoid (None for the path rewrite psi)
# and the class of its forward images; psi's forward inputs are UH-free.
IMAGES = {
    "sigma": ("12312", "uh_free"),
    "phi": ("12321", "uh_free"),
    "psi": (None, "no_even_peak"),
    "full12312": ("12312", "no_even_peak"),
    "full12321": ("12321", "no_even_peak"),
}


def _assert_valid_path(q, path_class):
    rebuilt = LatticePath(q.steps)
    check_path(rebuilt, path_class)
    assert rebuilt == q and type(q.steps) is str


def _assert_valid_partition(p, pattern):
    assert SetPartition(p.word) == p and type(p.word) is tuple
    assert find_pattern(p, FAST_PATTERNS[pattern].word) is None, p


class TestOutputsPassTheCheckingConstructors:
    """The maps wrap their results without checking them; every result must
    still rebuild through the checking constructors and lie in its target.
    Each MAPS side reads the object's text, so its unchecked kernel runs."""

    def test_every_map_is_covered(self):
        assert set(IMAGES) == set(MAPS)

    @pytest.mark.parametrize("name", sorted(IMAGES))
    def test_outputs(self, name, paths_of):
        pattern, image = IMAGES[name]
        read = MAPS[name]
        for n in range(9):
            if pattern is None:
                sources = paths_of(n, "uh_free")
            else:
                sources = generate_partitions(n + 1, avoiding=FAST_PATTERNS[pattern].word)
            for x in sources:
                _assert_valid_path(read["forward"](str(x)), image)
            for q in paths_of(n, image):
                y = read["inverse"](str(q))
                if pattern is None:
                    _assert_valid_path(y, "uh_free")
                else:
                    _assert_valid_partition(y, pattern)


class TestExhaustive:
    def test_roundtrip_and_image(self, avoiders_of, paths_of):
        for pattern in ("12312", "12321"):
            for n in range(7):
                image = []
                for p in avoiders_of(n + 1, pattern):
                    q = encode(p, pattern)
                    assert decode(q, pattern) == p
                    image.append(str(q))
                target = sorted(str(q) for q in paths_of(n, "uh_free"))
                assert sorted(image) == target, (pattern, n)

    def test_inverse_roundtrip_on_paths(self, paths_of):
        for pattern in ("12312", "12321"):
            for n in range(6):
                for q in paths_of(n, "uh_free"):
                    assert encode(decode(q, pattern), pattern) == q

    def test_block_count_becomes_peak_count(self, avoiders_of):
        for pattern in ("12312", "12321"):
            for n in range(7):
                for p in avoiders_of(n + 1, pattern):
                    assert p.block_count == len(peaks(encode(p, pattern))) + 1

    def test_irreducible_means_no_level_one_peak(self, avoiders_of):
        for pattern in ("12312", "12321"):
            for n in range(7):
                for p in avoiders_of(n + 1, pattern):
                    q = encode(p, pattern)
                    no_level_one = all(lvl != 1 for _, lvl in peaks(q))
                    assert is_irreducible(p) == no_level_one

    def test_odd_peak_rewrite_is_a_bijection(self, paths_of):
        for n in range(7):
            image = []
            for p in paths_of(n, "uh_free"):
                q = to_odd_peaks(p)
                assert q.semilength == p.semilength
                assert to_uh_free(q) == p
                image.append(str(q))
            target = sorted(str(q) for q in paths_of(n, "no_even_peak"))
            assert sorted(image) == target, n
            for q in paths_of(n, "no_even_peak"):
                assert to_odd_peaks(to_uh_free(q)) == q

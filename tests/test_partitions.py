import copy
import copyreg
import enum
import math
import pickle
import random
from functools import lru_cache
from itertools import combinations, product

import pytest

from partition_paths import (
    Decomposition,
    InvalidObjectError,
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
from partition_paths.partitions import _growth

P12312 = SetPartition((1, 2, 3, 1, 2))
P12321 = SetPartition((1, 2, 3, 2, 1))
_Label = enum.IntEnum("_Label", "A B")


@lru_cache(maxsize=None)
def _standardized(letters):
    """Each letter replaced by its rank among the distinct letters."""
    rank = {c: r for r, c in enumerate(sorted(set(letters)), 1)}
    return tuple(rank[c] for c in letters)


class TestParse:
    def test_comma_separated(self):
        assert parse_partition("1,1,2").word == (1, 1, 2)

    def test_compact_digits(self):
        assert parse_partition("11232343411").word == (1, 1, 2, 3, 2, 3, 4, 3, 4, 1, 1)

    def test_labels_above_nine_need_commas(self):
        word = tuple(range(1, 12))
        assert parse_partition(",".join(str(c) for c in word)).word == word

    def test_first_letter_must_be_one(self):
        with pytest.raises(InvalidObjectError, match="position 1"):
            parse_partition("2,1")

    def test_growth_violation_reports_position(self):
        with pytest.raises(InvalidObjectError, match="position 3"):
            parse_partition("1,2,4")

    def test_zero_rejected(self):
        with pytest.raises(InvalidObjectError):
            parse_partition("1,0")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidObjectError, match="syntax"):
            parse_partition("1,x,2")

    @pytest.mark.parametrize(
        "word, position",
        [([True], 1), ((1, True), 2), ((1, False), 2), ((1, _Label.B), 2)],
    )
    def test_bool_letters_rejected(self, word, position):
        # bool and IntEnum are int subclasses, but True, or _Label.B on
        # Python 3.10, is no block index: str would print a word that
        # parse_partition rejects, so a letter must be a plain int
        message = f"letter at position {position} is not a positive integer"
        with pytest.raises(InvalidObjectError, match=message):
            SetPartition(word)

    def test_empty_text_is_empty_partition(self):
        p = parse_partition("")
        assert p.n == 0 and p.block_count == 0

    def test_str_roundtrip(self):
        for text in ("1", "1,1,2", "1,2,3,4,5"):
            assert str(parse_partition(text)) == text

    # each result, or exact message, pinned from the per-token syntax check;
    # the test of the joined tokens must give the same
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,,2", "syntax error in partition at token 2: ''"),
            (",1", "syntax error in partition at token 1: ''"),
            ("1,", "syntax error in partition at token 2: ''"),
            (" 1 , 2 ", (1, 2)),
            # the 3 at token 2 breaks restricted growth; the syntax error wins
            ("1,3,x", "syntax error in partition at token 3: 'x'"),
            ("+1", "syntax error in partition: '+1'"),
            ("1_0", "syntax error in partition: '1_0'"),
            ("12a", "syntax error in partition: '12a'"),
            ("112", (1, 1, 2)),
            (
                "1,3",
                "restricted-growth violation at position 2: "
                "3 exceeds previous maximum 1 by more than one",
            ),
            ("", ()),
            ("  \t ", ()),
        ],
    )
    def test_parse_results(self, text, expected):
        if isinstance(expected, tuple):
            p = parse_partition(text)
            assert type(p) is SetPartition and p == expected
        else:
            with pytest.raises(InvalidObjectError) as info:
                parse_partition(text)
            assert str(info.value) == expected


class TestGrowth:
    def test_growth_matches_the_constructor(self):
        # the maximum wherever the constructor accepts, its message where not
        words = [w for k in range(8) for w in product(range(5), repeat=k)]
        words += [(True,), (1, True), (1, 2, 1.0), (1.0,), ("1",), (1, "1")]
        for word in words:
            try:
                SetPartition(word)
            except InvalidObjectError as exc:
                with pytest.raises(InvalidObjectError) as info:
                    _growth(word)
                assert str(info.value) == str(exc), word
            else:
                blocks = _growth(word)
                assert type(blocks) is int and blocks == max(word, default=0), word


class TestStr:
    """str(p) is the comma form of the word, which parse_partition reads."""

    def test_empty_word(self):
        assert str(SetPartition()) == ""

    def test_singleton(self):
        assert str(SetPartition((1,))) == "1"

    def test_letters_of_two_digits(self):
        word = tuple(range(1, 13)) + (10, 1)
        assert str(SetPartition(word)) == "1,2,3,4,5,6,7,8,9,10,11,12,10,1"

    def test_parse_inverts_str(self, partitions_of):
        for p in partitions_of(8):
            assert parse_partition(str(p)) == p

    def test_parse_inverts_str_on_a_long_word(self):
        # 10^5 letters, up to 50,000: the comma form has no length limit
        p = SetPartition(tuple(range(1, 50_001)) + tuple(range(50_000, 0, -1)))
        text = str(p)
        assert text == ",".join(map(str, p))
        assert parse_partition(text) == p


class TestGenerate:
    def test_counts_match_bell_triangle(self, partitions_of, bell_oracle):
        bells = bell_oracle(10)
        for n in range(11):
            assert len(partitions_of(n)) == bells[n]

    def test_small_cases(self):
        assert [p.word for p in generate_partitions(1)] == [(1,)]
        assert [p.word for p in generate_partitions(2)] == [(1, 1), (1, 2)]
        assert len(list(generate_partitions(3))) == 5

    def test_lexicographic_and_distinct(self, partitions_of):
        for n in range(8):
            words = [p.word for p in partitions_of(n)]
            assert words == sorted(words)
            assert len(set(words)) == len(words)

    def test_empty_ground_set(self):
        assert [p.word for p in generate_partitions(0)] == [()]

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_pruned_generation_equals_filtered_oracle(self, avoiders_of, pattern):
        # the registered word prunes by its prefix rule, however it is spelled
        for spelling in (pattern, ",".join(pattern), f" {','.join(pattern)} "):
            word = parse_partition(spelling)
            for n in range(11):
                got = [p.word for p in generate_partitions(n, avoiding=word)]
                assert got == [p.word for p in avoiders_of(n, pattern)], (spelling, n)

    def test_unregistered_word_filters_by_avoids(self, partitions_of):
        for spelling in ("1212", "121", "1,2,3,4,1", ""):
            word = parse_partition(spelling)
            for n in range(8):
                got = list(generate_partitions(n, avoiding=word))
                want = [p for p in partitions_of(n) if avoids(p, word)]
                assert got == want, (spelling, n)

    @pytest.mark.parametrize("avoiding", ["12312", (1, 2, 1, 2), 1212, []])
    def test_pattern_must_be_a_set_partition(self, avoiding):
        with pytest.raises(InvalidObjectError, match="must be a SetPartition"):
            next(generate_partitions(3, avoiding=avoiding))


class TestContainment:
    def test_identity(self):
        p = SetPartition((1, 2, 1, 2))
        assert find_pattern(p, p) == (0, 1, 2, 3)

    def test_large_example_avoids_12312(self):
        p = parse_partition("11232343411")
        assert avoids(p, P12312)

    def test_witness_positions(self):
        p = SetPartition((1, 2, 3, 1, 2))
        assert find_pattern(p, SetPartition((1, 2, 1, 2))) == (0, 1, 3, 4)

    def test_pattern_longer_than_word(self, partitions_of):
        for p in partitions_of(4):
            assert avoids(p, P12312)
            assert avoids(p, P12321)

    def test_empty_pattern_always_contained(self):
        assert find_pattern(SetPartition((1,)), SetPartition()) == ()

    def test_matches_the_definition(self, partitions_of):
        # the lexicographically first tuple of positions whose subsequence
        # is order-isomorphic to the pattern, i.e. standardizes to it
        patterns = [q.word for m in range(5) for q in partitions_of(m)]
        patterns += [P12312.word, P12321.word, (1, 2, 1, 2, 3)]
        lengths = sorted({len(q) for q in patterns})
        for n in range(9):
            for p in partitions_of(n):
                first = {}
                for k in lengths:
                    for at, letters in zip(
                        combinations(range(n), k), combinations(p.word, k)
                    ):
                        first.setdefault(_standardized(letters), at)
                for q in patterns:
                    assert find_pattern(p, SetPartition(q)) == first.get(q), (p, q)


# patterns whose letters recur far apart, where skipping a value that cannot
# recur in time prunes most, and the two patterns of the bijections
_FAR_PATTERNS = [
    *map(parse_partition, ("12341", "12221", "11221", "123123", "121312")),
    P12312,
    P12321,
]


def _first_occurrences(word, lengths):
    """The lexicographically first positions of each standardized
    subsequence of ``word`` whose length is in ``lengths``."""
    first = {}
    for k in lengths:
        positions = combinations(range(len(word)), k)
        for at, letters in zip(positions, combinations(word, k)):
            first.setdefault(_standardized(letters), at)
    return first


class TestPrunedOracle:
    """find_pattern skips a candidate whose value cannot recur in time; the
    search must stay exhaustive and return the first occurrence."""

    lengths = sorted({len(q) for q in _FAR_PATTERNS})

    def test_far_recurrences_match_the_definition(self, partitions_of):
        for n in range(9):
            for p in partitions_of(n):
                first = _first_occurrences(p, self.lengths)
                for q in _FAR_PATTERNS:
                    assert find_pattern(p, q) == first.get(q.word), (p, q)

    def test_far_recurrences_on_random_words(self):
        rng = random.Random(18)
        seen = set()
        for _ in range(200):
            word = [1]
            blocks = rng.randint(2, 6)
            for _ in range(rng.randint(11, 15)):
                word.append(rng.randint(1, min(max(word) + 1, blocks)))
            p = SetPartition(word)
            first = _first_occurrences(p, self.lengths)
            for q in _FAR_PATTERNS:
                want = first.get(q.word)
                assert find_pattern(p, q) == want, (p, q)
                seen.add((q, want is None))
        assert len(seen) == 2 * len(_FAR_PATTERNS)  # both answers for each

    @pytest.mark.parametrize(
        "pattern", ["1212", "1221"], ids=["noncrossing", "nonnesting"]
    )
    def test_catalan_avoiders(self, pattern):
        avoiding = parse_partition(pattern)
        for n in range(10):
            count = sum(1 for _ in generate_partitions(n, avoiding=avoiding))
            assert count == math.comb(2 * n, n) // (n + 1), n


class TestFastPredicates:
    def test_large_example(self):
        assert avoids_12312_fast(parse_partition("11232343411"))

    def test_singleton(self):
        p = SetPartition((1,))
        assert avoids_12312_fast(p) and avoids_12321_fast(p)

    def test_two_block_alternation(self):
        assert avoids_12312_fast(SetPartition((1, 2, 1, 2, 1)))

    def test_cross_word_ascent_is_not_an_occurrence(self):
        # the letters after the first occurrences of 2 and 3 ascend, but no
        # single larger letter sees both, so the pattern does not occur
        p = SetPartition((1, 2, 1, 3, 2))
        assert avoids_12312_fast(p)
        assert avoids(p, P12312)

    def test_agree_with_oracle(self, partitions_of):
        for n in range(10):
            for p in partitions_of(n):
                assert avoids_12312_fast(p) == avoids(p, P12312), p
                assert avoids_12321_fast(p) == avoids(p, P12321), p

    def test_agree_with_oracle_on_random_words(self):
        rng = random.Random(20080515)
        seen = set()
        for _ in range(600):
            word = [1]
            blocks = rng.randint(2, 6)
            for _ in range(rng.randint(11, 15)):
                top = min(max(word) + 1, blocks)
                word.append(rng.randint(1, top))
            p = SetPartition(word)
            for fast, pattern in ((avoids_12312_fast, P12312), (avoids_12321_fast, P12321)):
                want = avoids(p, pattern)
                assert fast(p) == want, (p, pattern)
                seen.add((pattern, want))
        assert len(seen) == 4  # both answers occur for both patterns

    def test_empty_partition(self):
        p = SetPartition()
        assert avoids_12312_fast(p) and avoids_12321_fast(p)


class TestDecompose:
    def test_large_example(self):
        dec = decompose(parse_partition("11232343411"))
        assert dec.block_count == 4
        assert dec.maxima_positions == (0, 2, 3, 6)
        assert dec.words == ((1,), (), (2, 3), (3, 4, 1, 1))
        assert dec.late_occurrences == (2, 1, 1)

    def test_singleton(self):
        dec = decompose(SetPartition((1,)))
        assert dec == Decomposition(1, (0,), ((),), ())

    def test_two_singletons(self):
        dec = decompose(SetPartition((1, 2)))
        assert dec.block_count == 2
        assert dec.words == ((), ())
        assert dec.late_occurrences == (0,)

    def test_word_letters_bounded(self, partitions_of):
        for p in partitions_of(7):
            dec = decompose(p)
            for i, w in enumerate(dec.words, start=1):
                assert all(c <= i for c in w)

    def test_reassemble(self, partitions_of):
        for n in range(1, 11):
            for p in partitions_of(n):
                assert decompose(p).reassemble() == p

    def test_empty_rejected(self):
        with pytest.raises(InvalidObjectError):
            decompose(SetPartition())


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(SetPartition((1, 1)))
        assert not is_irreducible(SetPartition((1, 2)))
        assert is_irreducible(SetPartition((1, 2, 1)))

    def test_matches_the_definition(self, partitions_of):
        for n in range(1, 9):
            for p in partitions_of(n):
                w = p.word
                splits = any(set(w[:m]).isdisjoint(w[m:]) for m in range(1, n))
                assert is_irreducible(p) == (not splits), p

    def test_definitions_agree(self, partitions_of):
        for n in range(1, 8):
            for p in partitions_of(n):
                assert is_irreducible(p) == is_irreducible_char(p), p

    def test_empty_rejected(self):
        with pytest.raises(InvalidObjectError):
            is_irreducible(SetPartition())
        with pytest.raises(InvalidObjectError):
            is_irreducible_char(SetPartition())


class TestValue:
    """A partition is its word: a tuple that the constructor checked."""

    def test_attributes_cannot_be_set(self):
        p = SetPartition((1, 2))
        for name in ("word", "label"):
            with pytest.raises(AttributeError):
                setattr(p, name, (1, 3, 3))
        assert p == (1, 2) and p.word == (1, 2)

    def test_equals_and_hashes_as_its_word(self):
        p = SetPartition((1, 2, 1))
        assert p == (1, 2, 1) and hash(p) == hash((1, 2, 1))

    def test_slice_is_a_plain_tuple(self):
        p = SetPartition((1, 2, 1))
        assert p[1:] == (2, 1) and type(p[1:]) is tuple

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_type_and_value(self, duplicate):
        p = SetPartition((1, 2, 1, 3))
        q = duplicate(p)
        assert type(q) is SetPartition and q == p

    def test_unpickling_checks_the_word_again(self):
        with pytest.raises(InvalidObjectError, match="at position 2"):
            copyreg.__newobj__(SetPartition, (1, 3))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_checks_the_word_again(self, protocol):
        p = SetPartition((1, 2))
        data = pickle.dumps(p, protocol)
        q = pickle.loads(data)
        assert type(q) is SetPartition and q == p
        # the letter 2 as the payload spells it, made a 3
        two, three = (b"I2\n", b"I3\n") if protocol == 0 else (b"K\x02", b"K\x03")
        assert data.count(two) == 1
        with pytest.raises(InvalidObjectError, match="at position 2"):
            pickle.loads(data.replace(two, three))

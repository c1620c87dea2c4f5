import pytest

from partition_paths import (
    LatticePath,
    PreconditionError,
    SetPartition,
    decode,
    decode_from_odd_peaks,
    decode_trace,
    encode,
    encode_to_odd_peaks,
    generate_partitions,
    is_irreducible,
    parse_partition,
    parse_path,
    peaks,
    to_odd_peaks,
    to_uh_free,
)

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

    @pytest.mark.parametrize("pattern", ["12312", "12321"])
    def test_single_pass_matches_decomposition(self, encode_oracle, pattern):
        for n in range(1, 11):
            for p in generate_partitions(n, avoiding=pattern):
                assert encode(p, pattern).steps == encode_oracle(p), p


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

import copy
import copyreg
import itertools
import pickle
from collections import Counter

import pytest

from partition_paths import (
    InvalidObjectError,
    LatticePath,
    PATH_CLASSES,
    SetPartition,
    classify,
    generate_paths,
    large_schroder,
    narayana,
    parse_path,
    peaks,
)
from partition_paths.paths import _HALF_UNITS, check_path

REF_PATH = "HUUUDUUDDHUUDDHDD"

_ORDER = {"U": 0, "D": 1, "H": 2, "L": 3}


def _lex_key(p):
    return [_ORDER[s] for s in p.steps]


def _message(fn, *args):
    """The message fn raises, or None if it accepts its arguments."""
    try:
        fn(*args)
    except InvalidObjectError as exc:
        return str(exc)
    return None


class TestParse:
    def test_dyck(self):
        p = parse_path("UD", "dyck")
        assert p.semilength == 1

    def test_schroder_with_horizontal(self):
        p = parse_path("UHD", "schroder")
        assert p.heights() == [0, 1, 1, 0]

    def test_left_step_retrace_rejected(self):
        with pytest.raises(InvalidObjectError, match="retraces an up-step"):
            parse_path("UL", "skew_dyck")

    def test_up_step_retrace_rejected(self):
        with pytest.raises(InvalidObjectError, match="retraces a left-step"):
            parse_path("UUDLUD", "skew_dyck")

    def test_unknown_character(self):
        with pytest.raises(InvalidObjectError, match="position 2"):
            parse_path("UX", "schroder")
        with pytest.raises(InvalidObjectError, match="position 3"):
            parse_path("UDL", "dyck")

    def test_negative_prefix(self):
        with pytest.raises(InvalidObjectError, match="below the axis at position 1"):
            parse_path("DU", "dyck")

    def test_nonzero_final_height(self):
        with pytest.raises(InvalidObjectError, match="ends at height 2"):
            parse_path("UU", "dyck")

    @pytest.mark.parametrize(
        "steps, message",
        [
            ("DX", "path drops below the axis at position 1"),
            ("UXD", "unknown step character 'X' at position 2"),
            ("UU", "path ends at height 2, expected 0"),
        ],
    )
    def test_constructor_reports_the_first_fault_in_position_order(
        self, steps, message
    ):
        with pytest.raises(InvalidObjectError) as exc:
            LatticePath(steps)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "steps, path_class, message",
        [
            ("DX", "schroder", "path drops below the axis at position 1"),
            (
                "UUHD",
                "uh_free",
                "up step immediately followed by a horizontal step at position 2",
            ),
            ("UUDH", "no_even_peak", "peak at even level 2 at position 2"),
            (
                "UHUDUD",
                "uh_free_no_level_one",
                "up step immediately followed by a horizontal step at position 1",
            ),
        ],
    )
    def test_parse_reports_the_first_fault_in_position_order(
        self, steps, path_class, message
    ):
        with pytest.raises(InvalidObjectError) as exc:
            parse_path(steps, path_class)
        assert str(exc.value) == message

    def test_parse_and_check_give_one_answer(self):
        # every word of up to 6 letters that the constructor accepts
        built = []
        for k in range(7):
            for t in itertools.product("UDHLX", repeat=k):
                try:
                    built.append(LatticePath("".join(t)))
                except InvalidObjectError:
                    pass
        for path_class in PATH_CLASSES:
            for p in built:
                parsed = _message(parse_path, p.steps, path_class)
                assert _message(check_path, p, path_class) == parsed, (p, path_class)

    def test_a_built_path_is_walked_again_only_for_a_peak_rule(self):
        # the type proves the heights, so a forged path that drops below the
        # axis is caught only by the classes whose peak rule needs the walk
        forged = LatticePath._trusted("DUUD")
        drop = "path drops below the axis at position 1"
        for path_class in PATH_CLASSES:
            peak_rule = path_class in ("no_even_peak", "uh_free_no_level_one")
            want = drop if peak_rule else None
            assert _message(check_path, forged, path_class) == want, path_class

    def test_uh_free_violation(self):
        with pytest.raises(InvalidObjectError, match="horizontal step at position 1"):
            parse_path("UHD", "uh_free")

    def test_even_peak_violation(self):
        with pytest.raises(InvalidObjectError, match="even level 2"):
            parse_path("UUDD", "no_even_peak")

    def test_level_one_peak_violation(self):
        with pytest.raises(InvalidObjectError, match="level one"):
            parse_path("UD", "uh_free_no_level_one")

    def test_end_down_violation(self):
        with pytest.raises(InvalidObjectError, match="down step"):
            parse_path("UUDL", "skew_dyck_end_down")

    def test_empty_in_every_class(self):
        for cls in PATH_CLASSES:
            assert parse_path("", cls) == LatticePath("")

    @pytest.mark.parametrize("path_class", ["motzkin", None])
    def test_unknown_class(self, path_class):
        # UULD lies in no class, so None must not select the constructor's rules
        message = f"^unknown path class {path_class!r}$"
        with pytest.raises(InvalidObjectError, match=message):
            parse_path("UULD", path_class)
        with pytest.raises(InvalidObjectError, match=message):
            check_path(LatticePath("UULD"), path_class)


def _peaks_by_index(p):
    """A reference peak finder: each up step looks one step ahead by index."""
    out, h = [], 0
    for i, s in enumerate(p):
        h += {"U": 1, "D": -1, "H": 0, "L": -1}[s]
        if s == "U" and i + 1 < len(p) and p[i + 1] == "D":
            out.append((i, h))
    return out


class TestPeaks:
    def test_matches_index_reference_on_every_short_word(self):
        # trusted, so that words that are no path test the walk too
        for k in range(9):
            for t in itertools.product("UDHL", repeat=k):
                p = LatticePath._trusted("".join(t))
                assert peaks(p) == _peaks_by_index(p), p

    def test_single_peak(self):
        assert peaks(LatticePath("UD")) == [(0, 1)]

    def test_reference_path_levels(self):
        assert [lvl for _, lvl in peaks(LatticePath(REF_PATH))] == [3, 4, 4]

    def test_no_peak_across_horizontal(self):
        assert peaks(LatticePath("UHD")) == []


class TestClassify:
    def test_uh_pair(self):
        assert not classify(LatticePath("UHD")).uh_free

    def test_even_peak(self):
        flags = classify(LatticePath("UUDD"))
        assert not flags.no_even_peak
        assert flags.no_level_one_peak
        assert flags.ends_with_down

    def test_reference_path_is_uh_free(self):
        assert classify(LatticePath(REF_PATH)).uh_free

    def test_empty_path_satisfies_everything(self):
        flags = classify(LatticePath(""))
        assert flags == classify(LatticePath(""))
        assert all(
            (flags.uh_free, flags.no_even_peak, flags.no_level_one_peak,
             flags.ends_with_down)
        )


class TestGenerate:
    def test_schroder_counts(self, paths_of):
        assert [len(paths_of(n, "schroder")) for n in range(7)] == [
            1, 2, 6, 22, 90, 394, 1806,
        ]

    def test_semilength_one(self):
        assert [str(p) for p in generate_paths(1, "schroder")] == ["UD", "H"]

    def test_uh_free_semilength_two(self, paths_of):
        got = [str(p) for p in paths_of(2, "uh_free")]
        assert got == ["UUDD", "UDUD", "UDH", "HUD", "HH"]
        assert set(got) == {"HH", "HUD", "UDH", "UDUD", "UUDD"}

    def test_skew_semilength_two(self, paths_of):
        assert {str(p) for p in paths_of(2, "skew_dyck")} == {"UUDD", "UDUD", "UUDL"}

    def test_skew_end_down_semilength_two(self, paths_of):
        assert len(paths_of(2, "skew_dyck_end_down")) == 2

    def test_skew_counts(self, paths_of):
        assert [len(paths_of(n, "skew_dyck")) for n in range(6)] == [
            1, 1, 3, 10, 36, 137,
        ]

    def test_lexicographic_order(self, paths_of):
        for cls in PATH_CLASSES:
            for n in range(5):
                ps = paths_of(n, cls)
                keys = [_lex_key(p) for p in ps]
                assert keys == sorted(keys), (cls, n)
                assert len(set(str(p) for p in ps)) == len(ps)

    def test_generated_paths_reparse(self, paths_of):
        for cls in PATH_CLASSES:
            for n in range(5):
                for p in paths_of(n, cls):
                    assert parse_path(str(p), cls) == p

    def test_uh_free_matches_no_even_peak_count(self, paths_of):
        for n in range(7):
            assert len(paths_of(n, "uh_free")) == len(paths_of(n, "no_even_peak"))

    def test_schroder_count_matches_recurrence(self, paths_of):
        for n in range(7):
            assert len(paths_of(n, "schroder")) == large_schroder(n)

    def test_dyck_peak_census_is_narayana(self, paths_of):
        for n in range(7):
            census = Counter(len(peaks(p)) for p in paths_of(n, "dyck"))
            for k in range(n + 1):
                assert census.get(k, 0) == narayana(n, k), (n, k)


class TestLatticePath:
    def test_semilength_counts_horizontals_double(self):
        assert LatticePath("HH").semilength == 2
        assert LatticePath("UDH").semilength == 2
        assert LatticePath("UUDL").semilength == 2

    def test_semilength_is_the_half_unit_sum(self):
        checked = 0
        for length in range(9):
            for steps in itertools.product("UDHL", repeat=length):
                try:
                    q = LatticePath(steps)
                except InvalidObjectError:
                    continue
                assert q.semilength == sum(map(_HALF_UNITS.get, q)) // 2, q
                checked += 1
        assert checked > 1000

    def test_equality_and_hash(self):
        assert LatticePath("UD") == LatticePath("UD")
        assert len({LatticePath("UD"), LatticePath("UD")}) == 1

    def test_repr(self):
        assert repr(LatticePath("UD")) == "LatticePath('UD')"

    def test_attributes_cannot_be_set(self):
        q = LatticePath("UD")
        for name in ("steps", "label"):
            with pytest.raises(AttributeError):
                setattr(q, name, "UUDD")
        assert q == "UD" and q.steps == "UD"

    def test_equals_and_hashes_as_its_steps(self):
        q = LatticePath("UHD")
        assert q == "UHD" and hash(q) == hash("UHD")
        assert LatticePath() != SetPartition() and LatticePath("UD") != SetPartition((1,))

    def test_slice_is_a_plain_str(self):
        q = LatticePath("UHD")
        assert q[1:] == "HD" and type(q[1:]) is str

    def test_a_path_parses_again(self):
        with pytest.raises(
            InvalidObjectError,
            match="up step immediately followed by a horizontal step at position 1",
        ):
            parse_path(LatticePath("UHD"), "uh_free")

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_type_and_value(self, duplicate):
        p = LatticePath("UHDUD")
        q = duplicate(p)
        assert type(q) is LatticePath and q == p

    def test_unpickling_checks_the_steps_again(self):
        with pytest.raises(InvalidObjectError, match="drops below the axis at position 1"):
            copyreg.__newobj__(LatticePath, "DU")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_every_pickle_protocol_checks_the_steps_again(self, protocol):
        p = LatticePath("UD")
        data = pickle.dumps(p, protocol)
        q = pickle.loads(data)
        assert type(q) is LatticePath and q == p
        assert data.count(b"UD") == 1
        with pytest.raises(InvalidObjectError, match="drops below the axis at position 1"):
            pickle.loads(data.replace(b"UD", b"DU"))

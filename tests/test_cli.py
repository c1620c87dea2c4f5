import argparse
import errno
import io
import itertools
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from partition_paths import (
    InvalidObjectError,
    LibraryError,
    LimitExceededError,
    PreconditionError,
    avoids,
    decode,
    decode_from_odd_peaks,
    encode,
    encode_to_odd_peaks,
    generate_partitions,
    is_irreducible,
    parse_partition,
    parse_path,
    to_odd_peaks,
    to_uh_free,
)
from partition_paths import bijections, cli, enumeration, partitions, paths, rendering
from partition_paths.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each map's pattern (None for psi) and its public functions, both directions
PUBLIC = {
    "sigma": ("12312", encode, decode),
    "phi": ("12321", encode, decode),
    "psi": (None, to_odd_peaks, to_uh_free),
    "full12312": ("12312", encode_to_odd_peaks, decode_from_odd_peaks),
    "full12321": ("12321", encode_to_odd_peaks, decode_from_odd_peaks),
}


def _public(name, direction):
    pattern, forward, inverse = PUBLIC[name]
    f = forward if direction == "forward" else inverse
    return f if pattern is None else lambda x: f(x, pattern)


class TestMap:
    def test_sigma_forward_golden(self, capsys):
        code, out, _ = run(capsys, "map", "sigma", "forward", "11232343411")
        assert code == 0
        assert out == "HUUUDUUDDHUUDDHDD\n"

    def test_sigma_inverse_golden(self, capsys):
        code, out, _ = run(capsys, "map", "sigma", "inverse", "HUUDHHUUUDDHDHDUUDD")
        assert code == 0
        assert out == "1,1,2,2,2,3,2,3,2,3,1,4,3\n"

    def test_phi_inverse_golden(self, capsys):
        code, out, _ = run(capsys, "map", "phi", "inverse", "HUUDHHUUUDDHDHDUUDD")
        assert code == 0
        assert out == "1,1,2,2,2,3,1,3,2,3,2,4,3\n"

    def test_direction_is_only_the_leading_word(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map", "psi", "--direction", "inverse", "UHD"])
        assert exc.value.code == 64

    def test_psi_forward(self, capsys):
        code, out, _ = run(capsys, "map", "psi", "forward", "UUUDDHUDDUD")
        assert out == "UHUHUDDDUD\n"

    def test_psi_on_long_paths(self, capsys):
        # both directions run without recursion on 3000-step families
        code, out, err = run(capsys, "map", "psi", "forward", "H" * 3000)
        assert (code, out, err) == (0, "H" * 3000 + "\n", "")
        code, out, err = run(capsys, "map", "psi", "inverse", "UD" * 3000)
        assert (code, out, err) == (0, "UD" * 3000 + "\n", "")

    def test_full_maps(self, capsys):
        code, out, _ = run(capsys, "map", "full12312", "forward", "1,2")
        assert out == "UD\n"
        code, out, _ = run(capsys, "map", "full12321", "inverse", "UD")
        assert out == "1,2\n"

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\n1,1\n"))
        code, out, _ = run(capsys, "map", "sigma", "forward")
        assert code == 0
        assert out == "UD\nH\n"

    def test_inverse_reads_stdin(self, capsys, monkeypatch):
        # the direction word is taken before the objects are read from stdin
        monkeypatch.setattr("sys.stdin", io.StringIO("UHD\nUD\n"))
        assert run(capsys, "map", "psi", "inverse") == (0, "UUDD\nUD\n", "")

    def test_empty_path_decodes_to_singleton(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
        code, out, _ = run(capsys, "map", "sigma", "inverse")
        assert code == 0 and out == "1\n"

    @pytest.mark.parametrize("sep", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    def test_lines_split_at_newline_alone(self, capsys, monkeypatch, sep):
        # str.splitlines would split here and map UD twice; the step parser
        # reports the separator instead
        monkeypatch.setattr("sys.stdin", io.StringIO(f"UD{sep}UD\n"))
        assert run(capsys, "map", "psi", "forward") == (
            1,
            "",
            f"partition-paths: unknown step character {sep!r} at position 3 "
            "(class schroder uses U/D/H)\n",
        )

    def test_crlf_lines_map_one_by_one(self, capsys, monkeypatch):
        # the parser strips the carriage return that ends each line
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\r\n1,1\r\n"))
        assert run(capsys, "map", "sigma", "forward") == (0, "UD\nH\n", "")

    def test_precondition_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "map", "sigma", "forward", "12312")
        assert code == 2
        assert "positions 1,2,3,4,5" in err

    def test_invalid_object_exits_1(self, capsys):
        code, _, err = run(capsys, "map", "sigma", "forward", "2,1")
        assert code == 1
        assert "position 1" in err

    def test_inverse_requires_uh_free_path(self, capsys):
        code, _, err = run(capsys, "map", "sigma", "inverse", "UHD")
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "map", "sigma", "--format", "json", "forward", "1,2")
        assert json.loads(out) == "UD"

    @pytest.mark.parametrize("name", ["full12312", "full12321", "psi"])
    @pytest.mark.parametrize(
        "path, code, message",
        [
            (
                "UUDD",
                2,
                "to_uh_free expects no peak at even level; "
                "peak at even level 2 at position 2",
            ),
            (
                "UUDLDD",
                1,
                "unknown step character 'L' at position 4 (class schroder uses U/D/H)",
            ),
            ("DU", 1, "path drops below the axis at position 1"),
            # out of the domain too, but the drop comes first in position order
            ("UUDDDU", 1, "path drops below the axis at position 5"),
        ],
    )
    def test_inverse_failure_lines(self, capsys, name, path, code, message):
        # a path outside the domain is checked as a Schroder path, then
        # against the domain, so its message names the first fault
        assert run(capsys, "map", name, "inverse", path) == (
            code,
            "",
            f"partition-paths: {message}\n",
        )

    @pytest.mark.parametrize("name", ["sigma", "phi"])
    @pytest.mark.parametrize(
        "path, code, message",
        [
            (
                "UHD",
                2,
                "decode expects a UH-free path; "
                "up step immediately followed by a horizontal step at position 1",
            ),
            ("UUDDDU", 1, "path drops below the axis at position 5"),
            (
                "UUDLDD",
                1,
                "unknown step character 'L' at position 4 (class schroder uses U/D/H)",
            ),
            ("DU", 1, "path drops below the axis at position 1"),
        ],
    )
    def test_decode_inverse_failure_lines(self, capsys, name, path, code, message):
        assert run(capsys, "map", name, "inverse", path) == (
            code,
            "",
            f"partition-paths: {message}\n",
        )

    @pytest.mark.parametrize("name", list(bijections.MAPS))
    def test_inverse_equals_the_public_inverse(self, capsys, paths_of, name):
        domain = "uh_free" if name in ("sigma", "phi") else "no_even_peak"
        qs = [q for n in range(8) for q in paths_of(n, domain)]
        code, out, err = run(capsys, "map", name, "inverse", *qs)
        assert (code, err) == (0, "")
        assert out.splitlines() == [str(_public(name, "inverse")(q)) for q in qs]

    @pytest.mark.parametrize("name", list(bijections.MAPS))
    def test_forward_equals_the_public_forward(
        self, capsys, paths_of, avoiders_of, name
    ):
        pattern = PUBLIC[name][0]
        if pattern is None:
            xs = [q for n in range(8) for q in paths_of(n, "uh_free")]
        else:
            xs = [p for n in range(8) for p in avoiders_of(n + 1, pattern)]
        code, out, err = run(capsys, "map", name, "forward", *map(str, xs))
        assert (code, err) == (0, "")
        assert out.splitlines() == [str(_public(name, "forward")(x)) for x in xs]

    @pytest.mark.parametrize("name", ["sigma", "phi", "full12312", "full12321"])
    @pytest.mark.parametrize(
        "partition, code, message",
        [
            # a map's own pattern, which it does not avoid
            ("{}", 2, "partition contains pattern {} at positions 1,2,3,4,5"),
            (
                "2,1",
                1,
                "restricted-growth violation at position 1: "
                "2 exceeds previous maximum 0 by more than one",
            ),
            ("", 2, "the empty partition is outside the bijection domain"),
            ("1,a", 1, "syntax error in partition at token 2: 'a'"),
        ],
    )
    def test_pattern_forward_failure_lines(
        self, capsys, name, partition, code, message
    ):
        pattern = PUBLIC[name][0]
        assert run(capsys, "map", name, "forward", partition.format(pattern)) == (
            code,
            "",
            f"partition-paths: {message.format(pattern)}\n",
        )

    @pytest.mark.parametrize(
        "path, code, message",
        [
            (
                "UHD",
                2,
                "to_odd_peaks expects a UH-free path; "
                "up step immediately followed by a horizontal step at position 1",
            ),
            ("UUDDDU", 1, "path drops below the axis at position 5"),
            (
                "UUDLDD",
                1,
                "unknown step character 'L' at position 4 (class schroder uses U/D/H)",
            ),
            ("DU", 1, "path drops below the axis at position 1"),
        ],
    )
    def test_psi_forward_failure_lines(self, capsys, path, code, message):
        # psi forward parses into its domain first, and a line outside it
        # takes the checked route, as the inverses do
        assert run(capsys, "map", "psi", "forward", path) == (
            code,
            "",
            f"partition-paths: {message}\n",
        )


class TestListAndCount:
    def test_count_partitions_with_pattern(self, capsys):
        code, out, _ = run(capsys, "count", "partitions", "3", "--pattern", "12312")
        assert code == 0 and out == "5\n"

    @pytest.mark.parametrize("spelling", ["1,2,3,1,2", " 12321", "1, 2, 3, 2, 1"])
    def test_registered_pattern_found_by_its_word(self, capsys, monkeypatch, spelling):
        canonical = str(parse_partition(spelling)).replace(",", "")
        want = run(capsys, "list", "partitions", "7", "--pattern", canonical)
        assert want[0] == 0 and want[1]

        # any spelling of a registered pattern takes the pruned generator,
        # which never runs the subsequence search
        def no_search(p, pattern):
            raise AssertionError("subsequence search called")

        monkeypatch.setattr("partition_paths.partitions.avoids", no_search)
        assert run(capsys, "list", "partitions", "7", "--pattern", spelling) == want
        code, out, _ = run(capsys, "count", "partitions", "10", "--pattern", spelling)
        assert (code, out) == (0, "51822\n")

    def test_count_respects_general_patterns(self, capsys):
        code, out, _ = run(capsys, "count", "partitions", "3", "--pattern", "1,2")
        assert code == 0 and out == "1\n"

    def test_count_paths(self, capsys):
        code, out, _ = run(capsys, "count", "paths", "3", "--class", "schroder")
        assert out == "22\n"

    def test_list_paths_order(self, capsys):
        code, out, _ = run(capsys, "list", "paths", "2", "--class", "uh_free")
        assert out.splitlines() == ["UUDD", "UDUD", "UDH", "HUD", "HH"]

    def test_list_partitions(self, capsys):
        code, out, _ = run(capsys, "list", "partitions", "3")
        assert out.splitlines() == ["1,1,1", "1,1,2", "1,2,1", "1,2,2", "1,2,3"]

    def test_list_json_roundtrips(self, capsys):
        code, out, _ = run(capsys, "list", "partitions", "3", "--format", "json")
        for line in out.splitlines():
            text = json.loads(line)
            assert str(parse_partition(text)) == text
        code, out, _ = run(
            capsys, "list", "paths", "2", "--class", "skew_dyck", "--format", "json"
        )
        for line in out.splitlines():
            text = json.loads(line)
            assert str(parse_path(text, "skew_dyck")) == text

    @pytest.mark.parametrize("pattern", ["12321", "1212"])
    def test_list_partitions_with_pattern(self, capsys, pattern):
        # 12321 prunes the generation by its prefix rule, 1212 filters it
        code, out, _ = run(capsys, "list", "partitions", "6", "--pattern", pattern)
        word = parse_partition(pattern)
        want = [str(p) for p in generate_partitions(6) if avoids(p, word)]
        assert code == 0 and out.splitlines() == want
        assert 0 < len(want) < 203  # some partitions of [6] are dropped

    def test_limit_refusal_exits_64(self, capsys):
        code, _, err = run(capsys, "list", "partitions", "13")
        assert code == 64
        assert "exhaustive limit" in err
        code, out, err = run(capsys, "list", "partitions", "13", "--pattern", "12312")
        assert (code, out) == (64, "")
        assert "exhaustive limit" in err

    def test_max_n_flag_raises_limit(self, capsys):
        code, out, _ = run(capsys, "count", "partitions", "4", "--max-n", "4")
        assert code == 0 and out == "15\n"

    def test_limit_is_not_read_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("PARTITION_PATHS_MAX_N", "4")
        assert run(capsys, "count", "partitions", "5") == (0, "52\n", "")


# A reference for the class that check path and render infer: the first of
# schroder and skew_dyck whose alphabet holds every step letter of the text;
# and for check path's family: dyck when every step is a Dyck step.
_STEP_LETTERS = set("".join(r.alphabet for r in paths.CLASS_RULES.values()))
_INFERRED = [(c, set(paths.CLASS_RULES[c].alphabet)) for c in ("schroder", "skew_dyck")]
_DYCK_STEPS = set(paths.CLASS_RULES["dyck"].alphabet)


def _class_by_alphabet(text):
    letters = set(text) & _STEP_LETTERS
    for cls, alphabet in _INFERRED:
        if letters <= alphabet:
            return cls
    raise InvalidObjectError(
        "path mixes horizontal and left steps; no class allows both"
    )


def _family_by_alphabet(p, cls):
    return "dyck" if set(p) <= _DYCK_STEPS else cls


def _outcome(f, text):
    try:
        return f(text)
    except LibraryError as exc:
        return type(exc), str(exc)


class TestCheck:
    def test_partition_record(self, capsys):
        code, out, _ = run(capsys, "check", "partition", "1,2,1")
        assert code == 0
        assert "avoids_12312=true" in out
        assert "irreducible=true" in out
        assert "blocks=2" in out

    def test_partition_record_has_every_registered_pattern(self, capsys, monkeypatch):
        from partition_paths import partitions

        # every letter below the running maximum completes 121
        word = parse_partition("121")
        entry = partitions.Pattern(word, None, lambda state, c, mx: None)
        monkeypatch.setitem(partitions.FAST_PATTERNS, "121", entry)
        code, out, _ = run(capsys, "check", "partition", "1,2,1", "1,1,2")
        assert code == 0
        assert out == (
            "object=1,2,1 n=3 blocks=2 avoids_12312=true avoids_12321=true "
            "avoids_121=false irreducible=true\n"
            "object=1,1,2 n=3 blocks=2 avoids_12312=true avoids_12321=true "
            "avoids_121=true irreducible=false\n"
        )

    def test_form_feed_stays_in_its_line(self, capsys, monkeypatch):
        # one malformed line is no record, not the records of 1,2 and 1
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\x0c1\n"))
        assert run(capsys, "check", "partition") == (
            1,
            "",
            "partition-paths: syntax error in partition at token 2: '2\\x0c1'\n",
        )

    @staticmethod
    def _reference_line(p, fmt):
        # the record and the formatter built the plain way: join for the
        # word, isinstance and lower() for booleans, is_irreducible
        record = {"object": ",".join(map(str, p)), "n": p.n, "blocks": p.block_count}
        for key, entry in partitions.FAST_PATTERNS.items():
            record[f"avoids_{key}"] = entry.avoids_fast(p)
        record["irreducible"] = bool(p) and is_irreducible(p)
        if fmt == "json":
            return json.dumps(record)
        return " ".join(
            f"{k}={str(v).lower() if isinstance(v, bool) else v}"
            for k, v in record.items()
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_partition_records_are_unchanged(self, capsys, partitions_of, fmt):
        empty, singleton = partitions.SetPartition(), partitions.SetPartition((1,))
        words = [empty, singleton, *partitions_of(7)]
        texts = [",".join(map(str, p)) for p in words]
        code, out, err = run(capsys, "check", "partition", "--format", fmt, *texts)
        want = "".join(self._reference_line(p, fmt) + "\n" for p in words)
        assert (code, out, err) == (0, want, "")
        # an int equal to True is no boolean: n=1 and blocks=1 print as 1
        assert out.splitlines()[:2] == (
            [
                '{"object": "", "n": 0, "blocks": 0, "avoids_12312": true, '
                '"avoids_12321": true, "irreducible": false}',
                '{"object": "1", "n": 1, "blocks": 1, "avoids_12312": true, '
                '"avoids_12321": true, "irreducible": true}',
            ]
            if fmt == "json"
            else [
                "object= n=0 blocks=0 avoids_12312=true avoids_12321=true "
                "irreducible=false",
                "object=1 n=1 blocks=1 avoids_12312=true avoids_12321=true "
                "irreducible=true",
            ]
        )

    def test_path_record(self, capsys):
        code, out, _ = run(capsys, "check", "path", "UUDD")
        assert "no_even_peak=false" in out
        assert "no_level_one_peak=true" in out
        assert "family=dyck" in out

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "check", "path", "--format", "json", "UHD")
        record = json.loads(out)
        assert record["uh_free"] is False
        assert record["semilength"] == 2

    def test_skew_family_inferred(self, capsys):
        code, out, _ = run(capsys, "check", "path", "UUDL")
        assert code == 0 and "family=skew_dyck" in out

    def test_syntax_error_reported_before_growth_error(self, capsys):
        # the 3 at token 2 breaks restricted growth, but the syntax error wins
        code, out, err = run(capsys, "check", "partition", "1,3,x")
        assert (code, out) == (1, "")
        assert err == "partition-paths: syntax error in partition at token 3: 'x'\n"

    def test_mixed_alphabet_rejected(self, capsys):
        message = (
            "partition-paths: path mixes horizontal and left steps; "
            "no class allows both\n"
        )
        assert run(capsys, "check", "path", "UHDL") == (1, "", message)
        assert run(capsys, "render", "ULHD") == (1, "", message)

    def test_class_matches_the_alphabet_rule(self):
        # every text of up to 6 characters over the step letters, a letter
        # of no class, and a space: the same class, or the same error
        for length in range(7):
            for letters in itertools.product("UDHLX ", repeat=length):
                text = "".join(letters)
                assert _outcome(cli._infer_path_class, text) == _outcome(
                    _class_by_alphabet, text
                ), text

    @pytest.mark.parametrize("cls", ["schroder", "skew_dyck"])
    def test_family_matches_the_alphabet_rule(self, capsys, paths_of, cls):
        texts = [str(p) for n in range(7) for p in paths_of(n, cls)]
        code, out, err = run(capsys, "check", "path", "--format", "json", *texts)
        assert (code, err) == (0, "")
        assert [json.loads(line)["family"] for line in out.splitlines()] == [
            _family_by_alphabet(t, cls) for t in texts
        ]


class TestRender:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "UD")
        assert out == "/\\\n--\n"

    def test_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "path.svg"
        code, out, _ = run(
            capsys, "render", "H", "--format", "svg", "--out", str(target)
        )
        assert code == 0 and out == ""
        content = target.read_text()
        assert content.startswith("<svg ") and content.rstrip().endswith("</svg>")

    def test_multiple_objects_blank_line_separated(self, capsys):
        code, out, _ = run(capsys, "render", "UD", "H")
        assert out == "/\\\n--\n\n__\n--\n"


class TestSeries:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "series", "f", "--order", "4")
        assert out == "0 1\n1 2\n2 5\n3 15\n4 51\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "f_prime", "--order", "5", "--format", "json")
        assert json.loads(out) == [1, 1, 2, 6, 21, 79]

    def test_schroder_and_bell(self, capsys):
        code, out, _ = run(capsys, "series", "schroder", "--order", "3")
        assert out.splitlines()[-1] == "3 22"
        code, out, _ = run(capsys, "series", "bell", "--order", "3")
        assert out.splitlines()[-1] == "3 5"


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "16/16 checks passed"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
        results = json.loads(out)
        assert all(r["ok"] for r in results)

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        import partition_paths.verify as verify_mod

        broken = (("synthetic-check", 2, lambda m: "n=0: synthetic counterexample"),)
        monkeypatch.setattr(verify_mod, "CHECKS", verify_mod.CHECKS[:1] + broken)
        code, out, _ = run(capsys, "verify", "--max-n", "2")
        assert code == 3
        assert "FAIL synthetic-check: n=0: synthetic counterexample" in out
        assert out.splitlines()[-1] == "1/2 checks passed"

    def test_library_error_in_check_is_a_fail_line(self, capsys, monkeypatch):
        import partition_paths.verify as verify_mod
        from partition_paths import PreconditionError

        def raising(m):
            raise PreconditionError("synthetic precondition")

        broken = (("raising-check", 2, raising),)
        monkeypatch.setattr(verify_mod, "CHECKS", verify_mod.CHECKS[:1] + broken)
        code, out, _ = run(capsys, "verify", "--max-n", "2")
        assert code == 3
        assert "FAIL raising-check: raised PreconditionError: synthetic precondition" in out
        assert out.splitlines()[-1] == "1/2 checks passed"


class TestUsage:
    def test_unknown_command_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_bad_class_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "paths", "2", "--class", "motzkin"])
        assert exc.value.code == 64

    def test_missing_arguments_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list"])
        assert exc.value.code == 64

    def test_selector_mismatch_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "paths", "2", "--pattern", "12312"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(["count", "partitions", "2", "--class", "dyck"])
        assert exc.value.code == 64

    def test_negative_size_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "partitions", "-1"])
        assert exc.value.code == 64

    def test_negative_order_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "f", "--order", "-2"])
        assert exc.value.code == 64

    def test_negative_verify_bound_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-n", "-1"])
        assert exc.value.code == 64
        assert "--max-n must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--max-n", "-1"], "--max-n must be non-negative"),
            (["series", "f", "--order", "-1"], "--order must be non-negative"),
            (["list", "partitions", "-1"], "n must be non-negative"),
            (["count", "paths", "2", "--max-n", "-1"], "--max-n must be non-negative"),
            (["list", "paths", "2", "--pattern", "12312"], "--pattern applies only"),
            (["count", "partitions", "2", "--class", "dyck"], "--class applies only"),
            (
                ["list", "partitions", "3", "--frobnicate"],
                "unrecognized arguments: --frobnicate",
            ),
            (
                ["map", "sigma", "forward", "1,2", "--direction", "inverse"],
                "unrecognized arguments: --direction",
            ),
            (
                ["map", "sigma", "--direction", "forward", "inverse", "UD"],
                "unrecognized arguments: --direction",
            ),
        ],
    )
    def test_misuse_prints_the_subcommand_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (64, "")
        assert err.startswith(f"usage: partition-paths {argv[0]} ")
        assert f"partition-paths {argv[0]}: error: {message}" in err

    def test_unwritable_out_path_exits_64(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "list", "partitions", "3", "--out", str(target))
        assert (code, out) == (64, "")
        assert err.startswith(f"partition-paths: cannot write {target}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, stdout, code, where",
        [
            (["--out", "/dev/full"], None, 64, "/dev/full"),
            ([], "/dev/full", 1, "standard output"),
            ([], "closed", 1, "standard output"),
        ],
        ids=["out-full", "stdout-full", "stdout-closed"],
    )
    def test_unwritable_output_is_one_line(self, argv, stdout, code, where):
        if "/dev/full" in (stdout, *argv) and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        command = [sys.executable, "-m", "partition_paths.cli", "list", "partitions"]
        command += ["4", *argv]
        if stdout == "closed":  # so sys.stdout is None
            command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        with open(stdout if stdout == "/dev/full" else os.devnull, "w") as sink:
            proc = subprocess.run(command, stdout=sink, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"partition-paths: cannot write {where}: ")

    def test_unreadable_stdin_is_no_write_failure(self, capsys, monkeypatch):
        class Unreadable:
            def __iter__(self):
                raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(sys, "stdin", Unreadable())
        assert run(capsys, "map", "psi", "inverse") == (
            1,
            "",
            "partition-paths: cannot read standard input: Input/output error\n",
        )

    def test_a_read_error_follows_the_records_before_it(self, monkeypatch):
        class FailsAfterTwoLines:
            def __iter__(self):
                yield from ["UHD\n", "UD\n"]
                raise OSError(errno.EIO, "Input/output error")

        # stdout and stderr are one stream here, so that their order shows
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdin", FailsAfterTwoLines())
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        assert main(["map", "psi", "inverse"]) == 1
        assert both.getvalue() == (
            "UUDD\nUD\n"
            "partition-paths: cannot read standard input: Input/output error\n"
        )

    def test_undecodable_stdin_is_one_line(self):
        # a strict decoder, as in a UTF-8 locale outside UTF-8 mode
        proc = subprocess.run(
            [sys.executable, "-m", "partition_paths.cli", "map", "psi", "forward"],
            input=b"UD\n\xff\n",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert (proc.returncode, proc.stderr) == (
            1,
            b"partition-paths: cannot read standard input: not utf-8 "
            b"(invalid start byte)\n",
        )

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
    def test_closed_stdin_is_one_line(self, tmp_path, out):
        # sys.stdin is None; an --out file, opened first, takes descriptor 0
        command = [sys.executable, "-m", "partition_paths.cli", "map", "psi"]
        command += ["inverse", *(["--out", str(tmp_path / "out")] if out else [])]
        command = ["sh", "-c", 'exec "$@" <&-', "sh", *command]
        proc = subprocess.run(command, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1,
            "",
            "partition-paths: cannot read standard input: Bad file descriptor\n",
        )

    def test_closed_stdout_exits_1_without_traceback(self):
        # the reader stops after one line, as `| head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "partition_paths.cli", "list", "partitions", "11"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first == b"1,1,1,1,1,1,1,1,1,1,1\n"
        assert err == b""


def _stdin_objects(monkeypatch, stream):
    monkeypatch.setattr(sys, "stdin", stream)
    return list(cli._input_objects(argparse.Namespace(objects=[])))


def _split(text):
    """The line rule, read off the whole text: a line ends at "\\n" alone,
    empty input has no object and "\\n" one empty object."""
    return text.removesuffix("\n").split("\n") if text else []


class _Trickle(io.BytesIO):
    """Bytes handed on a few at a time, as a slow pipe hands them to the
    buffered reader under sys.stdin."""

    def __init__(self, data, size):
        super().__init__(data)
        self.size = size

    def read1(self, size=-1):
        return super().read1(self.size)


def _trickled(text, size, trickle=_Trickle):
    """text as sys.stdin is on POSIX: decoded and split at "\\n" alone."""
    return io.TextIOWrapper(trickle(text.encode(), size), "utf-8", newline="\n")


class TestStdinReader:
    """stdin is read by its own lines; they must come out as _split gives
    them, however the bytes arrive."""

    @pytest.mark.parametrize("size", [1, 2, 3])  # bytes per read: lines span reads
    def test_random_texts_split_as_the_whole_text(self, monkeypatch, size):
        rng = random.Random(3300 + size)
        for _ in range(2000):
            text = "".join(rng.choice("ab\n\r\x0c") for _ in range(rng.randint(0, 12)))
            stream = _trickled(text, size)
            assert _stdin_objects(monkeypatch, stream) == _split(text), text

    def test_one_long_line_is_read_in_linear_time(self, monkeypatch):
        # 62,500 reads of one line; a line grown by concatenation, read by
        # read, would copy about 10^11 characters
        deadline = time.perf_counter() + 10

        class Timed(_Trickle):
            def read1(self, size=-1):
                assert time.perf_counter() < deadline, "stdin is not read in linear time"
                return super().read1(size)

        text = "H" * 4_000_000 + "\n"
        stream = _trickled(text, 64, Timed)
        assert _stdin_objects(monkeypatch, stream) == _split(text)

    def test_memory_stays_flat_in_the_input(self, monkeypatch):
        # the whole text and its 200,000 lines, as they were held before
        # the first object was made, take over 13 MB
        bound = 4 * 2**20
        monkeypatch.setattr(sys, "stdin", io.StringIO("UUDHD\n" * 200_000))
        tracemalloc.start()
        try:
            for _ in cli._input_objects(argparse.Namespace(objects=[])):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_an_endless_stdin_streams_until_its_reader_stops(self):
        # `yes UD | partition-paths map psi forward | head -n 2`
        proc = subprocess.Popen(
            [sys.executable, "-m", "partition_paths.cli", "map", "psi", "forward"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        )

        def feed():
            try:
                while True:
                    proc.stdin.write(b"UD\n" * 4096)
            except BrokenPipeError:  # the map has exited
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            first = [proc.stdout.readline(), proc.stdout.readline()]
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        writer.join(timeout=60)
        err = proc.stderr.read()
        proc.stdin.close()
        proc.stderr.close()
        assert not writer.is_alive()
        assert (first, code, err) == ([b"UD\n", b"UD\n"], 1, b"")

    def test_a_record_is_written_before_stdin_ends(self):
        # someone typing into `partition-paths map psi forward`: one line,
        # then nothing more, with stdin still open
        command = [sys.executable, "-u", "-m", "partition_paths.cli", "map", "psi"]
        proc = subprocess.Popen(
            [*command, "forward"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            proc.stdin.write(b"UUDD\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            first = proc.stdout.readline() if ready else b""
            proc.stdin.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        assert (first, code, err) == (b"UHD\n", 0, b"")

    def test_the_fallback_stdin_splits_at_newline_alone(self, tmp_path):
        # with sys.stdin None the reader opens descriptor 0 itself, and a
        # lone \r must stay in its line, as it does through sys.stdin
        source = tmp_path / "in"
        source.write_bytes(b"1,2\r1\n")
        script = (
            "import sys; from partition_paths import cli; sys.stdin = None; "
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        with open(source) as stdin:
            proc = subprocess.run(
                [sys.executable, "-c", script, "check", "partition"],
                stdin=stdin,
                capture_output=True,
                text=True,
            )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1,
            "",
            "partition-paths: syntax error in partition at token 2: '2\\r1'\n",
        )


class TestLibraryErrors:
    @pytest.mark.parametrize(
        "error, code",
        [(InvalidObjectError, 1), (PreconditionError, 2), (LimitExceededError, 64)],
    )
    def test_exit_code_and_one_stderr_line(self, capsys, monkeypatch, error, code):
        def raising(args):
            yield "0 1"
            raise error("synthetic failure")

        monkeypatch.setattr(cli, "_run_series", raising)
        assert run(capsys, "series", "f") == (
            code,
            "0 1\n",
            "partition-paths: synthetic failure\n",
        )

    def test_every_library_error_has_an_exit_code(self):
        assert set(cli.EXIT_CODES) == set(LibraryError.__subclasses__())


def _random_invocation(rng, tmp_path):
    """A random argv for any subcommand, the text on stdin and the value of
    PARTITION_PATHS_MAX_N, which the CLI does not read (None to leave it
    unset); valid words and options are mixed with wrong ones, and every
    size stays small."""

    def pick(*options):
        return rng.choice(options)

    def word():
        c = rng.random()
        if c < 0.4:  # a restricted growth string, or close to one
            out, mx = [], 0
            for _ in range(rng.randint(0, 6)):
                slip = rng.random() < 0.1  # a letter that breaks restricted growth
                out.append(rng.randint(0, mx + 2) if slip else rng.randint(1, mx + 1))
                mx = max(mx, out[-1])
            return pick("", ",").join(map(str, out))
        if c < 0.8:  # steps, mostly balanced
            steps = "".join(rng.choice("UDHL") for _ in range(rng.randint(0, 10)))
            return steps + "D" * max(0, steps.count("U") - steps.count("D"))
        return "".join(rng.choice("UDHLX12, -") for _ in range(rng.randint(0, 8)))

    def words():
        return [word() for _ in range(rng.randint(0, 3))]

    def fmt(*formats):
        return ["--format", pick(*formats, "xml")] if rng.random() < 0.3 else []

    commands = ("list", "count", "map", "check", "render", "series", "verify")
    command = pick(*commands) if rng.random() < 0.97 else "bogus"
    argv = [command]
    if command in ("list", "count"):
        argv += [pick("partitions", "paths", "graphs"), str(rng.randint(-1, 6))]
        if rng.random() < 0.3:
            argv += ["--pattern", pick("12312", "12321", "1,2,1,2", "121", word())]
        if rng.random() < 0.3:
            argv += ["--class", pick(*paths.PATH_CLASSES, "motzkin")]
        if rng.random() < 0.2:
            argv += ["--max-n", str(rng.randint(-1, 3))]
        argv += fmt("text", "json")
    elif command == "map":
        argv += [pick(*bijections.MAPS, "rho")]
        if rng.random() < 0.5:
            argv += [pick("forward", "inverse")]
        argv += words()
        if rng.random() < 0.3:
            argv += ["--direction", pick("forward", "inverse", "sideways")]
        argv += fmt("text", "json")
    elif command == "check":
        argv += [pick("partition", "path", "graph"), *words()]
        argv += fmt("text", "json")
    elif command == "render":
        argv += words()
        if rng.random() < 0.3:
            argv += ["--class", pick(*paths.PATH_CLASSES)]
        argv += fmt(*rendering.RENDERERS)
    elif command == "series":
        argv += [pick(*enumeration.SERIES, "catalan")]
        argv += ["--order", str(rng.randint(-1, 40))]
        argv += fmt("text", "json")
    elif command == "verify":
        argv += ["--max-n", str(rng.randint(-1, 3))]
        argv += fmt("text", "json")
    if rng.random() < 0.05:
        argv += [pick("--out", "--frobnicate", "-q")]
    if rng.random() < 0.2:
        out = pick(tmp_path / "out.txt", tmp_path / "missing" / "x", tmp_path)
        argv += ["--out", str(out)]
    stdin = "\n".join(words())
    limit = pick("3", "-1", "many") if rng.random() < 0.15 else None
    return argv, stdin, limit


def test_random_invocations_keep_the_exit_code_contract(capsys, monkeypatch, tmp_path):
    rng = random.Random(20081)
    for _ in range(400):
        argv, stdin, limit = _random_invocation(rng, tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        if limit is None:
            monkeypatch.delenv("PARTITION_PATHS_MAX_N", raising=False)
        else:
            monkeypatch.setenv("PARTITION_PATHS_MAX_N", limit)
        case = f"argv={argv!r} stdin={stdin!r} PARTITION_PATHS_MAX_N={limit!r}"
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, 64), case
        assert "Traceback" not in err, case
        if code == 64:
            assert out == "", case


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "list", "paths", "3", "--class", "no_even_peak")
        _, second, _ = run(capsys, "list", "paths", "3", "--class", "no_even_peak")
        assert first == second

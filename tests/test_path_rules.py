"""The path-class rules and the map registry against oracles that do not
read them: literal definitions of each class, written out here."""

import itertools

import pytest

from partition_paths import (
    PATH_CLASSES,
    InvalidObjectError,
    PathFlags,
    PreconditionError,
    bijections,
    classify,
    parse_path,
    series_f,
)

MAX_STEPS = 8

RISE = {"U": 1, "D": -1, "H": 0, "L": -1}
RUN = {"U": 1, "D": 1, "H": 2, "L": -1}

ALPHABET = {
    "schroder": "UDH",
    "uh_free": "UDH",
    "no_even_peak": "UDH",
    "uh_free_no_level_one": "UDH",
    "dyck": "UD",
    "skew_dyck": "UDL",
    "skew_dyck_end_down": "UDL",
}


def heights_ok(w):
    h = 0
    for s in w:
        h += RISE[s]
        if h < 0:
            return False
    return h == 0


def peak_levels(w):
    levels, h = [], 0
    for i, s in enumerate(w):
        h += RISE[s]
        if w[i : i + 2] == "UD":
            levels.append(h)
    return levels


def segments_ok(w):
    # up and left steps never trace the same unit segment; x stays >= 0
    x = y = 0
    ups, lefts = set(), set()
    for s in w:
        if s == "U":
            if (x, y) in lefts:
                return False
            ups.add((x, y))
        elif s == "L":
            if x < 1 or (x - 1, y - 1) in ups:
                return False
            lefts.add((x - 1, y - 1))
        x += RUN[s]
        y += RISE[s]
    return True


def member(w, cls):
    levels = peak_levels(w)
    return (
        set(w) <= set(ALPHABET[cls])
        and heights_ok(w)
        and not (cls in ("uh_free", "uh_free_no_level_one") and "UH" in w)
        and not (cls == "no_even_peak" and any(lvl % 2 == 0 for lvl in levels))
        and not (cls == "uh_free_no_level_one" and 1 in levels)
        and not (cls.startswith("skew") and not segments_ok(w))
        and not (cls == "skew_dyck_end_down" and w and w[-1] != "D")
    )


def words(alphabet, max_len):
    for k in range(max_len + 1):
        for t in itertools.product(alphabet, repeat=k):
            yield "".join(t)


@pytest.mark.parametrize("cls", PATH_CLASSES)
def test_parse_generate_and_definition_agree(cls, paths_of):
    # every word over the class alphabet up to 8 steps, and every word over
    # all four steps up to 5, so that the alphabet rule is exercised too
    candidates = set(words(ALPHABET[cls], MAX_STEPS)) | set(words("UDHL", 5))
    accepted = set()
    for w in candidates:
        try:
            parse_path(w, cls)
        except InvalidObjectError:
            continue
        accepted.add(w)
    # a path has at least as many steps as its semilength
    generated = {
        p.steps
        for n in range(MAX_STEPS + 1)
        for p in paths_of(n, cls)
        if len(p) <= MAX_STEPS
    }
    defined = {w for w in candidates if member(w, cls)}
    assert accepted == defined
    assert generated == {w for w in defined if set(w) <= set(ALPHABET[cls])}


def test_classify_matches_definitions(paths_of):
    for n in range(8):
        for p in paths_of(n, "schroder"):
            w = p.steps
            levels = peak_levels(w)
            assert classify(p) == PathFlags(
                uh_free="UH" not in w,
                no_even_peak=all(lvl % 2 == 1 for lvl in levels),
                no_level_one_peak=1 not in levels,
                ends_with_down=not w or w[-1] == "D",
            ), w


@pytest.mark.parametrize("name", list(bijections.MAPS))
def test_every_map_inverts_on_its_domain(name, partitions_of, paths_of):
    # each side reads the object's text, as the CLI's map does
    read = bijections.MAPS[name]
    counts = series_f(6).coefficients
    for n in range(7):
        if name == "psi":  # the one map whose forward side reads a path
            candidates = paths_of(n, "schroder")
        else:
            candidates = partitions_of(n + 1)
        domain = 0
        for x in candidates:
            try:
                y = read["forward"](str(x))
            except PreconditionError:
                continue
            domain += 1
            assert read["inverse"](str(y)) == x, (name, x)
        # every domain (avoiders of [n+1], UH-free paths) has f(n) members
        assert domain == counts[n], (name, n)

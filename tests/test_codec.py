"""Unit tests for the .gem/.szw/.rot codecs and map reconstruction."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from conftest import K4_ROT, k33_word, random_connected_map, random_signed_word
from test_cli_fuzz import SEEDS, mutate
from mapcalc import (
    FlagMap,
    MapFormatError,
    MultiGraph,
    RotationSystem,
    ValidationFailure,
    embedding_to_map,
    format_word,
    from_signed_word,
    gon_counts,
    induced_graph,
    parse_gem,
    parse_rotation,
    parse_word,
    projective_loop_map,
    sphere_loop_map,
    validate,
    write_gem,
    write_rotation,
    zigzag_map_from_word,
)
from mapcalc.codec import _parse_gem_bulk, _parse_gem_lines

S1_TEXT = "gem 1\na 0 3\na 1 2\n"


def test_write_gem_text():
    assert write_gem(sphere_loop_map()) == S1_TEXT


def test_gem_round_trip():
    maps = (sphere_loop_map(), projective_loop_map(), zigzag_map_from_word(k33_word()),
            FlagMap(1, (True, False, 3, 2)))  # bools pass as the flag ids they equal
    for map_ in maps:
        again = parse_gem(write_gem(map_))
        assert again == map_
        assert gon_counts(again) == gon_counts(map_)


def test_gem_comments_and_blanks():
    text = "# a loop\n\ngem 1  # header\n a 0 3\na 1 2\n\n"
    assert parse_gem(text) == sphere_loop_map()


def test_gem_header_errors():
    with pytest.raises(MapFormatError):
        parse_gem("")
    with pytest.raises(MapFormatError):
        parse_gem("map 1\na 0 3\na 1 2\n")
    with pytest.raises(MapFormatError):
        parse_gem("gem x\n")
    with pytest.raises(MapFormatError):
        parse_gem("gem 0\n")


def test_gem_pair_errors():
    with pytest.raises(MapFormatError):
        parse_gem("gem 1\na 0 3\n")
    err = None
    try:
        parse_gem("gem 1\na 0 3\nb 1 2\n")
    except MapFormatError as exc:
        err = exc
    assert err is not None and err.line == 3
    with pytest.raises(MapFormatError):
        parse_gem("gem 1\na 0 4\na 1 2\n")
    with pytest.raises(MapFormatError):
        parse_gem("gem 1\na 0 3\na 0 2\n")
    with pytest.raises(MapFormatError):
        parse_gem("gem 1\na 0 0\na 1 2\n")


def test_gem_strict_validation():
    two_spheres = "gem 2\na 1 2\na 3 0\na 5 6\na 7 4\n"
    with pytest.raises(ValidationFailure, match="connected"):
        parse_gem(two_spheres)
    map_ = parse_gem(two_spheres, strict=False)
    assert not validate(map_).ok


def test_parse_word():
    w = parse_word("1 2 -1 2")
    assert w.m == 2
    assert w.entries == ((0, 1), (1, 1), (0, -1), (1, 1))
    assert parse_word("# intro\n1 1\n") == parse_word("1 1")


def test_parse_word_errors():
    for bad in ("", "1", "1 1 2", "1 1 3 3", "-1 1", "1 x", "0 0", "1 --1"):
        with pytest.raises(MapFormatError):
            parse_word(bad)


# Tokens that str.isdigit() or int() accept but that are not plain ASCII
# digits: a superscript, Arabic-Indic and fullwidth digits, a sign, an
# underscore separator.
NON_ASCII_DIGITS = ("\u00b2", "\u0661", "\uff13", "+1", "0_1", "1_0")


@pytest.mark.parametrize("text, pairs", [("gem 99999999999\n", 0), ("gem 99999999999\na 0 1\n", 1)])
def test_gem_large_header_fails_fast(text, pairs):
    """The line count is compared with 2m before anything is sized by m."""
    tracemalloc.start()
    try:
        with pytest.raises(MapFormatError) as info:
            parse_gem(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"expected 199999999998 pair lines, found {pairs}"
    assert info.value.line is None
    assert peak < 100_000


def random_map(rng, m):
    """A random pairing of the 4m flags, connected or not."""
    flags = list(range(4 * m))
    rng.shuffle(flags)
    return FlagMap.from_pairs(m, zip(flags[::2], flags[1::2]))


def gem_layouts(rng, text):
    """text rewritten in the layouts the line loop also reads: comments,
    blank lines, CRLF, no final newline, tabs, leading zeros, all at once."""
    lines = text.splitlines()
    yield "# a map\n\n" + "\n\n".join(lines) + "\n"
    yield "\n".join(f"{line}  # {i}" for i, line in enumerate(lines)) + "\n"
    yield "\r\n".join(lines) + "\r\n"
    yield "\n".join(lines)
    yield "\n".join("\t" + line.replace(" ", "\t") + "\t" for line in lines) + "\n"
    yield "\n".join(" ".join(t if t.isalpha() else "0" * rng.randint(1, 3) + t
                              for t in line.split()) for line in lines) + "\n"
    yield "\r\n ".join(line.replace(" ", " \t ", 1) for line in lines) + "  # end"


def misplaced_tokens(text):
    """text with each NON_ASCII_DIGITS token in place of the header count,
    of the first and of the last flag, and glued to a flag's digits."""
    head, *pairs = text.splitlines(keepends=True)
    for tok in NON_ASCII_DIGITS:
        yield f"gem {tok}\n" + "".join(pairs)
        yield head + pairs[0].replace(" ", f" {tok}", 1) + "".join(pairs[1:])
        yield head + "".join(pairs[:-1]) + pairs[-1].rsplit(" ", 1)[0] + f" {tok}\n"
        yield head + "".join(pairs[:-1]) + pairs[-1].rstrip("\n") + f"{tok}\n"
        yield head + f"a {tok} {tok}\n" + "".join(pairs[1:])


def outcome(parse, text, strict):
    """The map read, or the class, message and line of the error raised."""
    try:
        return parse(text, strict)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_bulk_gem_reader_matches_the_line_loop():
    """parse_gem equals the line loop on every text, in both modes: the
    same map, or the same error class, message and line.  Where the bulk
    pass takes a text, the line loop reads the same map from it."""
    rng = random.Random(25)
    texts = [write_gem(random_map(rng, m)) for m in range(1, 351)]
    texts += [write_gem(random_connected_map(rng, m)) for m in range(1, 41)]
    for m in range(1, 41):  # two copies side by side: disconnected
        alpha = random_connected_map(rng, m).alpha
        texts.append(write_gem(FlagMap(2 * m, alpha + tuple(y + 4 * m for y in alpha))))
    texts += [mutate(rng, rng.choice(SEEDS["gem"])) for _ in range(1000)]
    for _ in range(80):
        text = write_gem(random_map(rng, rng.randint(1, 8)))
        texts += gem_layouts(rng, text)
        texts.append(mutate(rng, text))
    for m in (1, 3, 12):
        texts += misplaced_tokens(write_gem(random_connected_map(rng, m)))
    texts += ["", "gem 0\n", "gem 1\n", "gem 1\na 0 3\na 1 2", "gem 1\na 0 3\na 1 2\n\n",
              "gem 1\na 0 3\na 1 2\na 1 2\n", "gem 1\na 0 0\na 1 2\n", "gem 1\na 0 3\na 1 4\n",
              "gem 1\na 0 " + "0" * 5000 + "3\na 1 2\n", "gem " + "0" * 5000 + "1\na 0 3\na 1 2\n",
              "gem 1\na 0 4\na 1 " + "0" * 5000 + "2\n",  # past int()'s digit limit on 3.11+
              "gem 1\na 0 " + LONG + "\na 1 2\n", "gem " + LONG + "\na 0 3\na 1 2\n"]
    assert len(texts) >= 2000
    taken = {True: 0, False: 0}
    for text in texts:
        for strict in (True, False):
            want = outcome(_parse_gem_lines, text, strict)
            assert outcome(parse_gem, text, strict) == want, (text, strict)
            bulk = _parse_gem_bulk(text, strict)
            if bulk is not None:
                assert bulk == want, (text, strict)
                taken[strict] += 1
    # The bulk pass takes write_gem's layout of every map in lenient mode,
    # and in strict mode when the map is connected.
    assert taken[True] >= 600 and taken[False] >= taken[True] + 40


def test_parsed_maps_equal_the_checking_constructors_maps(monkeypatch):
    """Every map that parse_gem, the bulk pass or the line loop returns in
    the differential test above holds alpha as a tuple, and equals and
    hashes as FlagMap(m, alpha) built by the checking constructor.  The
    test runs again with the three readers wrapped to keep their maps."""
    maps = []

    def keeping(parse):
        def parse_and_keep(text, strict):
            map_ = parse(text, strict)
            if map_ is not None:
                maps.append(map_)
            return map_
        return parse_and_keep

    module = sys.modules[__name__]
    for name in ("parse_gem", "_parse_gem_bulk", "_parse_gem_lines"):
        monkeypatch.setattr(module, name, keeping(getattr(module, name)))
    test_bulk_gem_reader_matches_the_line_loop()
    assert len(maps) >= 2000
    for map_ in maps:
        built = FlagMap(map_.m, map_.alpha)
        assert type(map_.alpha) is tuple
        assert map_ == built and hash(map_) == hash(built)


# A 5000-digit number, past int()'s digit limit on Python 3.11+.
LONG = "1" + "0" * 4999
TOO_LARGE = "integer of 5000 digits is too large (at most 640)"


@pytest.mark.parametrize("parse, text, line", [
    (parse_gem, "gem " + LONG + "\na 0 3\na 1 2\n", 1),
    (parse_gem, "# a map\ngem 1\na 0 " + LONG + "\na 1 2\n", 3),
    (parse_gem, "gem 1\na 0 3\n\na 1 " + LONG + "\n", 4),
    (parse_word, "1 1\n2 " + LONG, 2),
    (parse_word, "1\n\n-" + LONG, 3),
    (parse_rotation, "v " + LONG + ": 1 1\n", 1),
    (parse_rotation, "v 1: 1 1\nv 2: 2 " + LONG + "\n", 2),
    (parse_rotation, "v 1: 1 1\n# twists\ntwist: " + LONG + "\n", 3),
])
def test_parsers_name_the_line_of_an_integer_past_the_digit_limit(parse, text, line):
    """Every format reads its integers with codec.read_integer, which
    counts the digits before int() runs, so a 5000-digit id gives the
    same MapFormatError on every Python, with its line."""
    with pytest.raises(MapFormatError) as info:
        parse(text)
    assert str(info.value) == f"line {line}: {TOO_LARGE}"
    assert info.value.line == line


def test_leading_zeros_are_stripped_before_the_digits_are_counted():
    """A run of leading zeros of any length is a valid id, in every format
    and on both .gem paths."""
    zeros = "0" * 5000
    assert parse_gem(f"gem {zeros}1\na 0 {zeros}3\na 1 2\n") == sphere_loop_map()
    assert parse_gem(f"gem 1\n\na {zeros} 3\na 1 2\n") == sphere_loop_map()
    assert parse_word(f"{zeros}1 -{zeros}1") == parse_word("1 -1")
    assert parse_rotation(f"v {zeros}1: 1 {zeros}1\ntwist: {zeros}1\n") == \
        parse_rotation("v 1: 1 1\ntwist: 1\n")
    assert parse_gem("gem 1\na 0 " + "0" * 640 + "3\na 1 2\n") == sphere_loop_map()


@pytest.mark.parametrize("tok", NON_ASCII_DIGITS)
def test_parsers_take_ascii_digits_only(tok):
    texts = [
        (parse_gem, f"gem {tok}\n"),
        (parse_gem, f"gem 1\na {tok} 3\na 1 2\n"),
        (parse_gem, f"gem 1\na 0 3\na 1 {tok}\n"),
        (parse_word, f"1 {tok}"),
        (parse_word, f"{tok} {tok}"),
        (parse_word, f"1 -{tok}"),
        (parse_rotation, f"v {tok}: 1 1\n"),
        (parse_rotation, f"v 1: 1 {tok}\n"),
        (parse_rotation, f"v 1: 1 1\ntwist: {tok}\n"),
    ]
    for parse, text in texts:
        with pytest.raises(MapFormatError):
            parse(text)


def test_format_word_round_trip():
    rng = random.Random(53)
    for _ in range(20):
        w = random_signed_word(rng, rng.randint(1, 6))
        assert parse_word(format_word(w)) == w
    assert format_word(parse_word("1 2 -1 2")) == "1 2 -1 2\n"


def test_from_signed_word_loops():
    assert from_signed_word(parse_word("1 1")) == sphere_loop_map()
    assert from_signed_word(parse_word("1 -1")) == projective_loop_map()


def test_zigzag_map_from_single_loop_word():
    map_ = zigzag_map_from_word(parse_word("1 1"))
    v, f, z = gon_counts(map_)
    assert z == 1 and map_.m == 1


def test_from_signed_word_always_one_vertex():
    rng = random.Random(59)
    for _ in range(20):
        w = random_signed_word(rng, rng.randint(1, 6))
        map_ = from_signed_word(w)
        assert validate(map_).ok
        assert gon_counts(map_)[0] == 1


def test_parse_rotation_k4():
    rs = parse_rotation(K4_ROT)
    assert rs.graph.n == 4
    assert rs.graph.edge_count == 6
    assert rs.graph.degrees() == (3, 3, 3, 3)
    assert rs.twists == frozenset()
    assert rs.rotations[0] == ((0, 0), (1, 0), (2, 0))


def test_parse_rotation_vertex_order_and_twists():
    text = "v 2: 2\ntwist: 1\nv 1: 1 1 2\n"
    rs = parse_rotation(text)
    assert rs.graph.edges == ((0, 0), (0, 1))
    assert rs.twists == frozenset({0})


def test_rotation_round_trip():
    rs = parse_rotation("v 1: 1 1 2\nv 2: 2\ntwist: 1\n")
    assert parse_rotation(write_rotation(rs)) == rs
    assert parse_rotation(write_rotation(parse_rotation(K4_ROT))) == parse_rotation(K4_ROT)


def test_parse_rotation_errors():
    for bad in (
        "",
        "v 1: 1\n",
        "v 1: 1 1\nv 1: 2 2\n",
        "v 1: 1 1\nv 3: 2 2\n",
        "v 1: 1 1 2\n",
        "v 1: 1 1 3 3\n",
        "v 1: 1 1\ntwist: 2\n",
        "v 1: 1 1\ntwist: 1\ntwist: 1\n",
        "v 1: 1 x\n",
        "w 1: 1 1\n",
    ):
        with pytest.raises(MapFormatError):
            parse_rotation(bad)


# (text, message, line): every check parse_rotation makes, in its order.
ROTATION_ERRORS = [
    ("", "no vertex lines", None),
    ("v 1: 1 1\nv 1: 2 2\n", "line 2: vertex 1 listed twice", 2),
    ("v 1: 1 1\ntwist: 1\ntwist: 1\n", "line 3: malformed or repeated twist line", 3),
    ("v 1: 1 1\ntwist 2: 1\n", "line 2: malformed or repeated twist line", 2),
    ("v 1: 1 1\ntwist: 0\n", "line 2: bad twist token '0'", 2),
    ("v 1: 1 x\n", "line 1: bad edge token 'x'", 1),
    ("w 1: 1 1\n", "line 1: expected 'v k: ...' or 'twist: ...', got 'w 1: 1 1'", 1),
    ("v 1: 1 1\nv 3: 2 2\n", "vertex ids must be 1..2 without gaps", None),
    ("v 1: 1 1 3 3\n", "edge ids must be 1..2 without gaps", None),
    # A gap is reported before a count.
    ("v 1: 1 3\n", "edge ids must be 1..2 without gaps", None),
    ("v 1: 1\n", "edge ids [1] do not occur exactly twice", None),
    ("v 1: 1 1 2\n", "edge ids [2] do not occur exactly twice", None),
    # Edges are listed in the order vertex 1, 2, ... first use them.
    ("v 2: 4 1 1\nv 1: 3 3 3 2 2\n", "edge ids [3, 4] do not occur exactly twice", None),
    ("v 1: 1 1\ntwist: 2\n", "twist names unknown edge 2", None),
    ("v 1: 1 1 2 2\ntwist: 3 2\n", "twist names unknown edge 3", None),
]


@pytest.mark.parametrize("text, message, line", ROTATION_ERRORS)
def test_parse_rotation_error_messages(text, message, line):
    with pytest.raises(MapFormatError) as info:
        parse_rotation(text)
    assert (str(info.value), info.value.line) == (message, line)


def test_rotation_system_validation():
    g = parse_rotation(K4_ROT).graph
    with pytest.raises(ValueError):
        RotationSystem(g, (((0, 0),),) * 4, frozenset())
    with pytest.raises(ValueError):
        RotationSystem(g, parse_rotation(K4_ROT).rotations, frozenset({9}))


def test_embedding_to_map_loop_conventions():
    assert embedding_to_map(parse_rotation("v 1: 1 1\n")) == sphere_loop_map()
    assert embedding_to_map(parse_rotation("v 1: 1 1\ntwist: 1\n")) == projective_loop_map()


def test_embedding_to_map_recovers_the_graph():
    rs = parse_rotation(K4_ROT)
    map_ = embedding_to_map(rs)
    assert validate(map_).ok
    assert gon_counts(map_)[0] == 4
    g = induced_graph(map_, "v")
    assert g.edges == rs.graph.edges


def test_embedding_to_map_valid_on_random_rotations():
    g = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
    rng = random.Random(61)
    for _ in range(15):
        darts0 = [(e, 0) for e in range(3)]
        darts1 = [(e, 1) for e in range(3)]
        rng.shuffle(darts0)
        rng.shuffle(darts1)
        twists = frozenset(e for e in range(3) if rng.random() < 0.5)
        rs = RotationSystem(g, (tuple(darts0), tuple(darts1)), twists)
        map_ = embedding_to_map(rs)
        assert validate(map_).ok
        assert gon_counts(map_)[0] == 2

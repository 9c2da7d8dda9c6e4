"""File formats and map constructions.

Three line-oriented ASCII formats, all with '#' comments and 1-based edge
ids on disk (0-based internally):

  .gem   header "gem m", then 2m lines "a f1 f2" listing the alpha pairs
         of a map over flags 0..4m-1.
  .szw   whitespace-separated signed edge tokens of a cyclic
         double-occurrence word, e.g. "1 2 -1 2".
  .rot   vertex lines "v k: e1 e2 ..." giving the cyclic order of edge
         ends around each vertex, plus an optional "twist: e1 e2 ..."
         line marking orientation-reversing edges.

A .gem text in write_gem's own layout is read in bulk: one pattern match,
one split, int() mapped over the flag tokens, and set and max checks that
the 2m pairs cover the 4m flags once, so alpha is a fixed-point-free
involution by construction and strict mode only tests connectivity, by
one walk over the m rectangles; the FlagMap is built without re-running
its constructor's checks, which those prove.  Every other text, and
every text that fails a bulk check, goes through the line loop, which
stays the reference reader: it is the one that names the first faulty
line, so each error message and line number comes from it.

Reconstruction goes both ways: a signed word rebuilds the one-vertex map
it narrates (and from that the single-zigzag map it encodes), and a signed
rotation system expands into flags one dart at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .gem import FlagMap, MultiGraph, _rectangles_reached, phial, validate
from .words import SignedWord, _prechecked


class MapFormatError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ValidationFailure(ValueError):
    """Text parsed fine but the resulting map breaks a structural invariant."""


# The most digits an integer token may have once its leading zeros are
# stripped.  int() converts that many under every digit limit a Python
# allows (sys.int_info.str_digits_check_threshold is 640), and no id or
# count of a map that fits in memory comes near it.
_MAX_DIGITS = 640


def read_integer(token: str, line: int | None = None) -> int | None:
    """The value of a nonempty run of the ASCII digits 0-9, or None for any
    other token: the one integer reader of every text format and of the
    CLI's integer flags.

    int() alone also takes signs, underscores, surrounding spaces and
    digits of other scripts, and str.isdigit() also takes superscripts.
    Leading zeros are allowed, as in write_gem's bulk layout, and stripped
    before the digits are counted, so a token of more than _MAX_DIGITS
    digits raises MapFormatError with the line instead of meeting int()'s
    own digit limit, which only some Pythons have.
    """
    if not (token.isascii() and token.isdigit()):
        return None
    digits = token.lstrip("0")
    if len(digits) > _MAX_DIGITS:
        raise MapFormatError(f"integer of {len(digits)} digits is too large "
                             f"(at most {_MAX_DIGITS})", line)
    return int(digits) if digits else 0


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped content) with comments and blanks gone."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def parse_gem(text: str, strict: bool = True) -> FlagMap:
    """Read a .gem file; strict mode raises ValidationFailure on bad maps.

    Text in write_gem's layout (_GEM_TEXT) is read in bulk by
    _parse_gem_bulk.  Any other text, and any text that fails one of the
    bulk checks, is read by the line loop _parse_gem_lines, which names
    the first faulty line; both give the same map on every text the bulk
    pass takes.
    """
    map_ = _parse_gem_bulk(text, strict)
    if map_ is None:
        map_ = _parse_gem_lines(text, strict)
    return map_


# write_gem's layout: the header and one pair per line, single spaces, a
# newline after every line; ids may have leading zeros.
_GEM_TEXT = re.compile(r"gem \d+\n(?:a \d+ \d+\n)*", re.ASCII)


def _parse_gem_bulk(text: str, strict: bool) -> FlagMap | None:
    """parse_gem on text in write_gem's layout, or None to defer to the line loop.

    The pattern fixes where each token sits, so split() gives the header
    and the pairs.  The line count is checked against 2m before anything
    is sized by m.  When the 4m flags of the 2m lines are distinct and
    below 4m, the pairs cover every flag once: alpha is a fixed-point-free
    involution by construction, and strict mode only walks the rectangles
    for connectivity.  Those checks and the pattern's digit-only tokens
    prove all that FlagMap's constructor checks (m >= 1, 4m flags, each
    an int in range, no flag twice), so the map is built without running
    it again.
    """
    if _GEM_TEXT.fullmatch(text) is None:
        return None
    tokens = text.split()
    try:
        m = int(tokens[1])
        if m < 1 or len(tokens) != 6 * m + 2:
            return None
        xs = list(map(int, tokens[3::3]))
        ys = list(map(int, tokens[4::3]))
    except ValueError:  # a token longer than int()'s digit limit
        return None
    n = 4 * m
    flags = xs + ys
    if len(set(flags)) != n or max(flags) >= n:
        return None
    alpha = [0] * n
    for x, y in zip(xs, ys):
        alpha[x] = y
        alpha[y] = x
    if strict and _rectangles_reached(alpha) != m:
        return None
    return _prechecked(FlagMap, m=m, alpha=tuple(alpha))


def _parse_gem_lines(text: str, strict: bool) -> FlagMap:
    """parse_gem one content line at a time: the reference reader, and the
    one that names a fault with its message and 1-based line."""
    lines = _content_lines(text)
    if not lines:
        raise MapFormatError("empty input")
    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "gem":
        raise MapFormatError(f"expected header 'gem m', got {header!r}", ln)
    m = read_integer(parts[1], ln)
    if m is None:
        raise MapFormatError(f"bad rectangle count {parts[1]!r}", ln)
    if m < 1:
        raise MapFormatError(f"bad rectangle count {m}", ln)
    if len(lines) - 1 != 2 * m:
        raise MapFormatError(f"expected {2 * m} pair lines, found {len(lines) - 1}")
    alpha = [-1] * (4 * m)
    for ln, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "a":
            raise MapFormatError(f"expected 'a f1 f2', got {line!r}", ln)
        if (not line.isascii() or (x := read_integer(parts[1], ln)) is None
                or (y := read_integer(parts[2], ln)) is None):
            raise MapFormatError(f"bad flag ids in {line!r}", ln)
        for z in (x, y):
            if not 0 <= z < 4 * m:
                raise MapFormatError(f"flag {z} out of range 0..{4 * m - 1}", ln)
        if alpha[x] != -1 or alpha[y] != -1:
            raise MapFormatError(f"pair ({x}, {y}) reuses an already paired flag", ln)
        alpha[x], alpha[y] = y, x
    if -1 in alpha:
        raise MapFormatError(f"flag {alpha.index(-1)} left unpaired")
    map_ = FlagMap(m, tuple(alpha))
    if strict:
        report = validate(map_)
        if not report.ok:
            raise ValidationFailure("map invalid: " + ", ".join(report.failures()))
    return map_


def write_gem(map_: FlagMap) -> str:
    """Serialize map_ with pairs sorted by smaller flag."""
    pairs = sorted({(min(x, y), max(x, y)) for x, y in enumerate(map_.alpha)})
    lines = [f"gem {map_.m}"]
    lines.extend(f"a {x:d} {y:d}" for x, y in pairs)
    return "\n".join(lines) + "\n"


def parse_word(text: str) -> SignedWord:
    """Read a .szw word: signed 1-based edge tokens in traversal order."""
    tokens: list[tuple[int, int]] = []
    seen: set[int] = set()
    for ln, line in _content_lines(text):
        for tok in line.split():
            sign = -1 if tok.startswith("-") else 1
            body = tok[1:] if sign < 0 else tok
            k = read_integer(body, ln)
            if k is None or k < 1:
                raise MapFormatError(f"bad edge token {tok!r}", ln)
            if sign < 0 and k not in seen:
                raise MapFormatError(f"first occurrence of edge {k} must be positive", ln)
            seen.add(k)
            tokens.append((k - 1, sign))
    if not tokens:
        raise MapFormatError("empty word")
    if len(tokens) % 2:
        raise MapFormatError(f"word length {len(tokens)} is odd")
    m = len(tokens) // 2
    ids = sorted(e for e, _ in tokens)
    if ids != sorted(list(range(m)) * 2):
        raise MapFormatError(f"word must use each of the edge ids 1..{m} exactly twice")
    return SignedWord(m, tuple(tokens))


def format_word(w: SignedWord) -> str:
    """One line of signed 1-based edge tokens."""
    return " ".join(f"{'-' if s < 0 else ''}{e + 1}" for e, s in w.entries) + "\n"


def from_signed_word(w: SignedWord) -> FlagMap:
    """Rebuild the one-vertex map whose v-gon narrates the word.

    The word is the rotation at that vertex: occurrence one of edge e is
    dart (e, 0) and occurrence two is dart (e, 1), twisted when negative,
    with flags by the rule in _rotation_alpha.  The round trip back
    through vertex_word is a tested property, not an assumption.
    """
    second = w._second
    rotation = [(e, int(i == second[e])) for i, (e, _) in enumerate(w.entries)]
    twist_mask = sum(1 << e for e, s in w.entries if s < 0)
    return FlagMap(w.m, tuple(_rotation_alpha([rotation], twist_mask, w.m)))


def zigzag_map_from_word(w: SignedWord) -> FlagMap:
    """The single-zigzag map whose zigzag word is w (phial of the above)."""
    return phial(from_signed_word(w))


@dataclass(frozen=True)
class RotationSystem:
    """A multigraph with a cyclic dart order per vertex and twisted edges.

    Darts are (edge, end) with end 0 at the first parsed endpoint; each
    dart appears exactly once across all rotations.
    """

    graph: MultiGraph
    rotations: tuple[tuple[tuple[int, int], ...], ...]
    twists: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "twists", frozenset(self.twists))
        need = {(e, end) for e in range(self.graph.edge_count) for end in (0, 1)}
        got = [d for rot in self.rotations for d in rot]
        if len(self.rotations) != self.graph.n:
            raise ValueError("need one rotation per vertex")
        if len(got) != len(need) or set(got) != need:
            raise ValueError("rotations must cover every edge end exactly once")
        for e in self.twists:
            if not 0 <= e < self.graph.edge_count:
                raise ValueError(f"twisted edge {e} out of range")


def parse_rotation(text: str) -> RotationSystem:
    """Read a .rot file into a graph plus rotation and twist data."""
    vertex_lines: dict[int, list[int]] = {}
    twist_tokens: list[int] | None = None
    for ln, line in _content_lines(text):
        head, _, rest = line.partition(":")
        head_parts = head.split()
        if head_parts and head_parts[0] == "twist":
            if len(head_parts) != 1 or twist_tokens is not None:
                raise MapFormatError("malformed or repeated twist line", ln)
            twist_tokens = []
            for tok in rest.split():
                k = read_integer(tok, ln)
                if k is None or k < 1:
                    raise MapFormatError(f"bad twist token {tok!r}", ln)
                twist_tokens.append(k - 1)
            continue
        if (len(head_parts) != 2 or head_parts[0] != "v"
                or (vid := read_integer(head_parts[1], ln)) is None):
            raise MapFormatError(f"expected 'v k: ...' or 'twist: ...', got {line!r}", ln)
        vid -= 1
        if vid in vertex_lines:
            raise MapFormatError(f"vertex {vid + 1} listed twice", ln)
        tokens = []
        for tok in rest.split():
            k = read_integer(tok, ln)
            if k is None or k < 1:
                raise MapFormatError(f"bad edge token {tok!r}", ln)
            tokens.append(k - 1)
        vertex_lines[vid] = tokens
    if not vertex_lines:
        raise MapFormatError("no vertex lines")
    n = len(vertex_lines)
    if sorted(vertex_lines) != list(range(n)):
        raise MapFormatError(f"vertex ids must be 1..{n} without gaps")
    # One pass in vertex order: an edge's first use is its end 0.
    ends: dict[int, list[int]] = {}
    rotations = []
    for vid in range(n):
        rot = []
        for e in vertex_lines[vid]:
            at = ends.setdefault(e, [])
            rot.append((e, len(at)))
            at.append(vid)
        rotations.append(tuple(rot))
    m = len(ends)
    if sorted(ends) != list(range(m)):
        raise MapFormatError(f"edge ids must be 1..{m} without gaps")
    bad = [e + 1 for e, at in ends.items() if len(at) != 2]
    if bad:
        raise MapFormatError(f"edge ids {bad} do not occur exactly twice")
    for e in twist_tokens or ():
        if e not in ends:
            raise MapFormatError(f"twist names unknown edge {e + 1}")
    edges = tuple((ends[e][0], ends[e][1]) for e in range(m))
    return RotationSystem(MultiGraph(n, edges), tuple(rotations), frozenset(twist_tokens or ()))


def write_rotation(rs: RotationSystem) -> str:
    """Serialize a rotation system back to .rot text."""
    lines = []
    for vid, rot in enumerate(rs.rotations):
        lines.append(f"v {vid + 1}: " + " ".join(str(e + 1) for e, _ in rot))
    if rs.twists:
        lines.append("twist: " + " ".join(str(e + 1) for e in sorted(rs.twists)))
    return "\n".join(lines) + "\n"


def _rotation_alpha(
    rotations: Sequence[Sequence[tuple[int, int]]], twist_mask: int, m: int
) -> list[int]:
    """The flag involution of a signed rotation system, as a flat list.

    Dart (e, 0) enters flag 4e and leaves 4e+1; dart (e, 1) enters 4e+2
    and leaves 4e+3, or the reverse when bit e of twist_mask is set, so a
    dart always leaves by its entry flag ^ 1; alpha joins each dart's exit
    to the next dart's entry around its vertex.
    """
    alpha = [0] * (4 * m)
    _link(alpha, rotations, twist_mask)
    return alpha


def _link(
    alpha: list[int], rotations: Sequence[Sequence[tuple[int, int]]], twist_mask: int
) -> None:
    """Pair, in place, the flags of the darts of the given rotations by the
    rule in _rotation_alpha.  Each flag belongs to one dart and each pair
    to one vertex, so this replaces those vertices' old pairs and leaves
    every other vertex's alone."""
    for rot in rotations:
        if not rot:  # isolated vertex
            continue
        e, end = rot[-1]
        exit_flag = (4 * e + 2 * end) ^ ((twist_mask >> e) & end) ^ 1
        for e, end in rot:
            entry_flag = (4 * e + 2 * end) ^ ((twist_mask >> e) & end)
            alpha[exit_flag] = entry_flag
            alpha[entry_flag] = exit_flag
            exit_flag = entry_flag ^ 1


def _toggle_twist(alpha: list[int], e: int) -> None:
    """Flip the twist of edge e in a flat flag involution, in place.

    By the rule in _rotation_alpha the twist of e only decides which of
    4e+2 and 4e+3 is the entry and which the exit of dart (e, 1); every
    other dart keeps its flags.  So toggling it conjugates alpha by the
    transposition (4e+2 4e+3): pairs (4e+2, p) and (4e+3, q) become
    (4e+3, p) and (4e+2, q).  When 4e+2 and 4e+3 are paired with each
    other (dart (e, 1) alone at its vertex) the conjugate is alpha itself.
    """
    a = 4 * e + 2
    b = a + 1
    p, q = alpha[a], alpha[b]
    if p == b:
        return
    alpha[b], alpha[p] = p, b
    alpha[a], alpha[q] = q, a


def embedding_to_map(rs: RotationSystem) -> FlagMap:
    """Expand a signed rotation system into flags (rule in _rotation_alpha)."""
    twist_mask = sum(1 << e for e in rs.twists)
    m = rs.graph.edge_count
    return FlagMap(m, tuple(_rotation_alpha(rs.rotations, twist_mask, m)))

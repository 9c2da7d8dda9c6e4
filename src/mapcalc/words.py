"""Signed traversal words and the linear operators they induce.

A single-vertex map is written down by walking its one v-gon and recording
each rectangle as it is crossed: every edge id shows up twice, the first
occurrence is positive by convention and the second is positive exactly
when the edge is a balanced loop.  Single-zigzag maps get their word from
the phial, whose lone v-gon is the original zigzag.  The interlacement and
same-direction indicators of such a word combine into a symmetric GF(2)
operator on the edge universe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gem import FlagMap, antimap, dual, gon_counts, gons, phial
from .gf2 import Gf2Vec, LinearOp


class NotApplicableError(ValueError):
    """The map does not meet the gon-count hypothesis of the request."""


@dataclass(frozen=True)
class SignedWord:
    """Cyclic double-occurrence word of signed edge ids.

    Entries are (edge, sign) with 0-based edges and sign +1 or -1; each
    edge occurs exactly twice and its first stored occurrence is positive.
    The positions of each edge's two occurrences are found once, when the
    word is built.
    """

    m: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((int(e), int(s)) for e, s in self.entries))
        if len(self.entries) != 2 * self.m:
            raise ValueError(f"word must have {2 * self.m} entries")
        positions: list[list[int]] = [[] for _ in range(self.m)]
        for i, (e, s) in enumerate(self.entries):
            if not 0 <= e < self.m:
                raise ValueError(f"edge {e} out of range")
            if s not in (1, -1):
                raise ValueError(f"bad sign {s} on edge {e}")
            pos = positions[e]
            if len(pos) == 2:
                raise ValueError(f"edge {e} occurs more than twice")
            if not pos and s != 1:
                raise ValueError(f"first occurrence of edge {e} must be positive")
            pos.append(i)
        # 2m entries and no edge more than twice: every edge occurs twice.
        object.__setattr__(self, "_positions", tuple((p1, p2) for p1, p2 in positions))

    def occurrences(self, x: int) -> tuple[int, int]:
        """Positions of the two occurrences of edge x, in stored order."""
        if not 0 <= x < self.m:
            raise ValueError(f"edge {x} out of range")
        return self._positions[x]

    def same_direction(self, x: int) -> bool:
        """True when both occurrences of x carry the same sign."""
        _, p2 = self.occurrences(x)
        return self.entries[p2][1] == 1

    def canonical(self) -> SignedWord:
        """Least linearization over all rotations and both directions.

        Signs are recomputed for each candidate so its first occurrences
        are positive; edge ids are never relabeled.
        """
        same = [self.same_direction(x) for x in range(self.m)]
        ids = [e for e, _ in self.entries]
        best = None
        for seq in (ids, ids[::-1]):
            for r in range(len(seq)):
                rotated = seq[r:] + seq[:r]
                used: set[int] = set()
                cand = []
                for e in rotated:
                    if e not in used:
                        used.add(e)
                        cand.append((e, 1))
                    else:
                        cand.append((e, 1 if same[e] else -1))
                if best is None or cand < best:
                    best = cand
        return SignedWord(self.m, tuple(best))


def vertex_word(map_: FlagMap) -> SignedWord:
    """Signed word of the map's single v-gon, which passes every edge twice.

    A gon that meets every edge twice holds all 4m flags, so the word
    exists exactly when the map has one v-gon.
    """
    dec = gons(map_, "v")
    if dec.count != 1:
        raise NotApplicableError(
            f"v-gon word needs a single v-gon covering every edge twice; map has {dec.count} v-gons"
        )
    seq = dec.gons[0]
    edges_seq = [seq[i] // 4 for i in range(0, len(seq), 2)]
    pos = {flag: i for i, flag in enumerate(seq)}
    entries = []
    first_seen: set[int] = set()
    for e in edges_seq:
        if e not in first_seen:
            first_seen.add(e)
            entries.append((e, 1))
        else:
            balanced = pos[4 * e] % 2 == pos[4 * e + 2] % 2
            entries.append((e, 1 if balanced else -1))
    return SignedWord(map_.m, tuple(entries))


def zigzag_word(map_: FlagMap) -> SignedWord:
    """Signed word of the unique zigzag, read off the phial's single v-gon."""
    z = gons(map_, "z").count
    if z != 1:
        raise NotApplicableError(f"zigzag word needs a single zigzag; map has {z}")
    return vertex_word(phial(map_))


def interlacement(w: SignedWord, x: int) -> Gf2Vec:
    """Edges occurring exactly once strictly between the occurrences of x."""
    p1, p2 = w.occurrences(x)
    counts: dict[int, int] = {}
    for i in range(p1 + 1, p2):
        e = w.entries[i][0]
        counts[e] = counts.get(e, 0) + 1
    return Gf2Vec.from_edges(w.m, (e for e, c in counts.items() if c == 1))


def kappa(w: SignedWord, x: int) -> Gf2Vec:
    """The singleton {x} when x is traversed twice the same way, else zero."""
    if not 0 <= x < w.m:
        raise ValueError(f"edge {x} out of range")
    return Gf2Vec(w.m, (1 << x) if w.same_direction(x) else 0)


def c_operator(w: SignedWord) -> LinearOp:
    """Column x is kappa(w, x) + interlacement(w, x), extended linearly.

    prefix[i] is the XOR of {e} over the first i entries.  An edge seen
    twice strictly between the occurrences p1 < p2 of x cancels, so the
    interlacement of x is prefix[p2] ^ prefix[p1 + 1].  Starting at p1
    instead also takes in {x}, which is kappa when the second occurrence
    is positive.  The cost is one pass over the word and m big-int XORs.
    """
    entries = w.entries
    singles = [1 << e for e in range(w.m)]
    prefix = [0]
    acc = 0
    for e, _ in entries:
        acc ^= singles[e]
        prefix.append(acc)
    return LinearOp(w.m, tuple(prefix[p2] ^ prefix[p1 if entries[p2][1] == 1 else p1 + 1]
                               for p1, p2 in w._positions))


@dataclass(frozen=True)
class MapOperators:
    """The word operators a map admits; None marks a failed hypothesis.

    zigzag needs a single z-gon and comes from the zigzag word; its
    complement is identity + zigzag; face needs a single f-gon and comes
    from the vertex word of the dual.
    """

    m: int
    zigzag: LinearOp | None
    zigzag_complement: LinearOp | None
    face: LinearOp | None


def map_operators(map_: FlagMap) -> MapOperators:
    """Build whichever of the three word operators the map supports."""
    _, f, z = gon_counts(map_)
    return operators_of_counts(map_, f, z)


def operators_of_counts(map_: FlagMap, f: int, z: int) -> MapOperators:
    """map_operators for a map whose f- and z-gon counts are known."""
    zig = comp = face = None
    if z == 1:
        zig = c_operator(zigzag_word(map_))
        comp = LinearOp.identity(map_.m) + zig
    if f == 1:
        face = c_operator(vertex_word(dual(map_)))
    return MapOperators(map_.m, zig, comp, face)


def cozigzag_word(map_: FlagMap) -> SignedWord:
    """Vertex word of the phial's antimap; same edge cycle as the zigzag
    word with every balance flipped, so its operator is identity + zigzag
    (checked in the tests rather than assumed)."""
    z = gons(map_, "z").count
    if z != 1:
        raise NotApplicableError(f"cozigzag word needs a single zigzag; map has {z}")
    return vertex_word(antimap(phial(map_)))

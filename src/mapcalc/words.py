"""Signed traversal words and the linear operators they induce.

A single-vertex map is written down by walking its one v-gon and recording
each rectangle as it is crossed: every edge id shows up twice, the first
occurrence is positive by convention and the second is positive exactly
when the edge is a balanced loop.  The word of a map's single gon of any
kind is read off the gem.gon_labels trace of that kind: the v-gon gives
the vertex word, the z-gon the zigzag word (the phial's vertex word) and
the f-gon the face word (the dual's), so neither the phial nor the dual
is built.  The interlacement and same-direction indicators of such a
word combine into a symmetric GF(2) operator on the edge universe; which
of a map's operators exist, and the operators themselves, are kept by
analysis.MapAnalysis, which reads the words off its own traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gem import PARTNER, FlagMap, _as_int, _left_flags, antimap, gon_count, gon_labels, phial
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
        object.__setattr__(self, "entries", tuple((_as_int(e), _as_int(s)) for e, s in self.entries))
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


# What the word of each gon kind needs, as a NotApplicableError names it.
_SINGLE_GON = {
    "v": "v-gon word needs a single v-gon covering every edge twice; map has {} v-gons",
    "f": "face word needs a single face; map has {}",
    "z": "zigzag word needs a single zigzag; map has {}",
}


def gon_word(map_: FlagMap, kind: str) -> SignedWord:
    """Signed word of the map's single gon of `kind`.  A gon that meets
    every edge twice holds all 4m flags, so the word exists exactly when
    the map has one gon of that kind."""
    count, _, order = gon_labels(map_.alpha, PARTNER[kind])
    if count != 1:
        raise NotApplicableError(_SINGLE_GON[kind].format(count))
    return _single_gon_word(map_.m, order, kind)


def _single_gon_word(m: int, order: Sequence[int], kind: str) -> SignedWord:
    """Word of a single gon of `kind` from its gem.gon_labels order, where
    each pair of steps crosses one rectangle and names its edge.  An edge's
    second crossing is positive when its two kind-pairs, flags 4e and
    4e + 2 (4e + 1 for kind z), are entered the same way along the walk."""
    b = 1 if PARTNER[kind] == 2 else 2
    left = _left_flags(order)
    seen = bytearray(m)
    entries = []
    for x in order[::2]:
        e = x >> 2
        entries.append((e, 1 if not seen[e] or left[4 * e] == left[4 * e + b] else -1))
        seen[e] = 1
    return SignedWord(m, tuple(entries))


def vertex_word(map_: FlagMap) -> SignedWord:
    """Signed word of the map's single v-gon, which passes every edge twice."""
    return gon_word(map_, "v")


def zigzag_word(map_: FlagMap) -> SignedWord:
    """Signed word of the map's single zigzag."""
    return gon_word(map_, "z")


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


def cozigzag_word(map_: FlagMap) -> SignedWord:
    """Vertex word of the phial's antimap; same edge cycle as the zigzag
    word with every balance flipped, so its operator is identity + zigzag
    (checked in the tests rather than assumed)."""
    z = gon_count(map_.alpha, PARTNER["z"])
    if z != 1:
        raise NotApplicableError(f"cozigzag word needs a single zigzag; map has {z}")
    return vertex_word(antimap(phial(map_)))

"""Signed traversal words and the linear operators they induce.

A single-vertex map is written down by walking its one v-gon and recording
each rectangle as it is crossed: every edge id shows up twice, the first
occurrence is positive by convention and the second is positive exactly
when the edge is a balanced loop.  The word of a map's single gon of any
kind is read off the gem.gon_labels trace of that kind: the v-gon gives
the vertex word, the z-gon the zigzag word (the phial's vertex word) and
the f-gon the face word (the dual's), so neither the phial nor the dual
is built.  Such a trace-built word is made in one pass over the trace
(`_single_gon_word`), which writes its entries and the positions of each
edge's two occurrences and checks that every edge is crossed exactly
twice; each second occurrence's sign is read from the two flags the walk
enters the rectangle by.  The word is then built by gem._prechecked,
without the constructor's second walk.
The interlacement and same-direction indicators of such a word combine
into a symmetric GF(2) operator on the edge universe; which of a map's
operators exist, and the operators themselves, are kept by
analysis.MapAnalysis, which reads the words off its own traces.

A product X o c_W with a word operator is composed by prefix images
(`_word_columns`): column x of c_W sums the singletons {e} over a run of
the word, so column x of X o c_W sums their images X{e} over the same
run.  That is 3m big-int XORs, against m^2/8 table lookups for a general
compose.

The nullities of c_W and of I + c_W come from one walk each over the
word, with no elimination (`_link_cycles`).  For an edge e with
occurrences p1 < p2, column e of c_W sums the entries at positions
[p1', p2), where p1' = p1 when the second occurrence is positive and
p1 + 1 otherwise; I + c_W adds {e}, the entry at p1, which swaps p1' with
the other one of p1 and p1 + 1, called p1''.  Let S_i be the parity of y
over the first i entries, read mod 2m (S_0 = S_2m = 0, as every edge
occurs twice).  Then (c_W^T y)_e = S_p2 + S_p1', and
y_e = S_p1 + S_(p1+1) = S_p2 + S_(p2+1).  So y lies in ker c_W^T exactly
when S takes equal values on the links {p2, p1'} and {p1'', p2 + 1}.
Conversely, an S that is equal on every link and 0 at position 0 is the
parity sequence of exactly one y, with y_e = S_p1 + S_(p1+1): the two
links make that S_p2 + S_(p2+1) too.  Every position lies on exactly two
links, one of the edge at it and one of the edge before it, so the links
form cycles, and dim ker c_W^T = cycles - 1, which is dim ker c_W, as
rank c_W = rank c_W^T.  The walk counts the cycles and does no big-int
arithmetic; each cycle starts at the first unmarked position, which a C
scan (list.index) finds.  On a single-zigzag map's z-word the c_W walk
closes one cycle per vertex and the I + c_W walk one per face, the
certificate of analysis.MapAnalysis.zigzag_kernels, so the two counts
are v and f with no gon walk.  This is the word form of the binary nullity theorem for
circuit partitions (Cohn and Lempel, J. Combin. Theory Ser. A 13, 1972;
Traldi, European J. Combin. 32, 2011), but the derivation above is plain
linear algebra and assumes no theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gem import (PARTNER, FlagMap, _as_int, _partner, _prechecked, antimap, gon_count,
                  gon_labels, phial)
from .gf2 import Gf2Vec, LinearOp


class NotApplicableError(ValueError):
    """The map does not meet the gon-count hypothesis of the request."""


@dataclass(frozen=True)
class SignedWord:
    """Cyclic double-occurrence word of signed edge ids.

    Entries are (edge, sign) with 0-based edges and sign +1 or -1; each
    edge occurs exactly twice and its first stored occurrence is positive.
    The positions of each edge's two occurrences are found once, when the
    word is built, and kept in two flat lists.  The constructor checks a
    tuple of exact-int pairs as it is and converts anything else first;
    the fork stays because long words are built through this constructor,
    and checking them in place costs less than converting them first.
    A word read off a gon trace is built by _single_gon_word, whose one
    pass checks it and finds the positions, so it skips this check.
    """

    m: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        m = _as_int(self.m)
        if m < 0:
            raise ValueError(f"edge count must be nonnegative, got {m}")
        object.__setattr__(self, "m", m)
        try:
            self._index()
        except ValueError:
            # Any other spelling (a list, bools, int-like values), and any
            # fault, is made a tuple of int pairs once, which names the first
            # entry that is not an integer, and checked again, which names
            # the first fault.
            object.__setattr__(self, "entries", tuple((_as_int(e), _as_int(s)) for e, s in self.entries))
            self._index()

    def _index(self) -> None:
        """Check a tuple of exact-int pairs and keep the positions of each
        edge's occurrences."""
        m, entries = self.m, self.entries
        if type(entries) is not tuple:
            raise ValueError("entries are not a tuple")
        if len(entries) != 2 * m:
            raise ValueError(f"word must have {2 * m} entries")
        first, second = [-1] * m, [-1] * m
        for i, pair in enumerate(entries):
            e, s = pair
            if type(e) is not int or type(s) is not int or type(pair) is not tuple:
                raise ValueError("entry is not a pair of ints")
            if not 0 <= e < m:
                raise ValueError(f"edge {e} out of range")
            if s not in (1, -1):
                raise ValueError(f"bad sign {s} on edge {e}")
            if second[e] != -1:
                raise ValueError(f"edge {e} occurs more than twice")
            if first[e] == -1:
                if s != 1:
                    raise ValueError(f"first occurrence of edge {e} must be positive")
                first[e] = i
            else:
                second[e] = i
        # 2m entries and no edge more than twice: every edge occurs twice.
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_second", second)

    def occurrences(self, x: int) -> tuple[int, int]:
        """Positions of the two occurrences of edge x, in stored order."""
        x = _as_int(x)
        if not 0 <= x < self.m:
            raise ValueError(f"edge {x} out of range")
        return self._first[x], self._second[x]

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
    count, _, order = gon_labels(map_.alpha, _partner(kind))
    if count != 1:
        raise NotApplicableError(_SINGLE_GON[kind].format(count))
    return _single_gon_word(map_.m, order, kind)


def _single_gon_word(m: int, order: Sequence[int], kind: str) -> SignedWord:
    """Word of a single gon of `kind` from its gem.gon_labels order, where
    each pair of steps crosses one rectangle and names its edge.  An edge's
    second crossing is positive when its two kind-pairs, flags 4e and
    4e + b with b = 2 (b = 1 for kind z), are entered the same way along
    the walk (gem.loop_balances reads the same rule off gem._left_flags).
    The two crossings enter one flag of each kind-pair: 4e and 4e + b, or
    their partners 4e ^ p and (4e + b) ^ p, exactly when they are entered
    the same way.  Those two flags differ by b, the other two choices by
    b ^ p, which is not b.  So the sign is read from the two entered
    flags, order[2 * first[e]] and x, with no pass over the left flags.

    The one pass over the order writes the entries and the positions of
    each edge's two occurrences, so the word is built by _prechecked with
    no second pass.  An order of 2m crossings in which no edge is crossed
    a third time crosses every edge exactly twice; AssertionError if the
    order is not that, which no single gon of a valid trace is.
    """
    if len(order) != 4 * m:
        raise AssertionError(f"the gon crosses {len(order) // 2} rectangles, not {2 * m}")
    b = 1 if PARTNER[kind] == 2 else 2
    first, second = [-1] * m, [-1] * m
    entries = []
    append = entries.append
    for i, x in enumerate(order[::2]):
        e = x >> 2
        if first[e] < 0:
            first[e] = i
            append((e, 1))
        elif second[e] < 0:
            second[e] = i
            append((e, 1 if order[2 * first[e]] ^ x == b else -1))
        else:
            raise AssertionError(f"the gon crosses edge {e} more than twice")
    return _prechecked(SignedWord, m=m, entries=tuple(entries), _first=first, _second=second)


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
    return Gf2Vec(w.m, (1 << x) if w.same_direction(x) else 0)


def c_operator(w: SignedWord) -> LinearOp:
    """Column x is kappa(w, x) + interlacement(w, x), extended linearly.
    Prechecked: m columns, each a XOR of singletons of edges below m."""
    return _prechecked(LinearOp, m=w.m, cols=_word_columns(w, [1 << e for e in range(w.m)]))


def _word_columns(w: SignedWord, images: Sequence[int]) -> tuple[int, ...]:
    """Columns of X o c_operator(w), where images[e] is X{e}; with
    singletons as images they are c_operator(w)'s own.

    prefix[i] is the XOR of images[e] over the first i entries.  An edge
    seen twice strictly between the occurrences p1 < p2 of x cancels, so
    the interlacement of x maps to prefix[p2] ^ prefix[p1 + 1].  Starting
    at p1 instead also takes in X{x}, the image of kappa when the second
    occurrence is positive.
    """
    entries = w.entries
    prefix = [0]
    acc = 0
    for e, _ in entries:
        acc ^= images[e]
        prefix.append(acc)
    return tuple(prefix[p2] ^ prefix[p1 if entries[p2][1] == 1 else p1 + 1]
                 for p1, p2 in zip(w._first, w._second))


def _link_cycles(w: SignedWord, complement: bool) -> int:
    """The number of link cycles of c_W, or of I + c_W when `complement`:
    dim ker c_W + 1 (module docstring), from one walk over the word.

    Position i has two link ends: end 2i on the link of the edge at i, and
    end 2i + 1 on the link of the edge at i - 1.  ends[x] is the end that x
    is linked to, so following ends from a position's one end to its other
    walks a cycle.  The walk marks every position it passes, and the next
    cycle starts at the first unmarked position, found by seen.index; the
    sentinel slot seen[2m] is never marked, so the scan ends there.
    """
    m, entries = w.m, w.entries
    n = 2 * m
    ends = [0] * (2 * n)
    for p1, p2 in zip(w._first, w._second):
        # The links {p2, p1'} and {p1'', p2 + 1}.  The end of p1 is 2 p1 and
        # that of p1 + 1 is 2 p1 + 3; p1' is p1 exactly when c_W takes in
        # kappa, and the complement takes the other one.
        if (entries[p2][1] == 1) != complement:
            near, far = 2 * p1, 2 * p1 + 3
        else:
            near, far = 2 * p1 + 3, 2 * p1
        a, b = 2 * p2, 2 * ((p2 + 1) % n) + 1
        ends[a], ends[near] = near, a
        ends[far], ends[b] = b, far
    seen = [False] * (n + 1)
    cycles = 0
    start = 0
    while start < n:
        seen[start] = True
        stop = 2 * start + 1
        x = ends[stop - 1]
        while x != stop:
            i = x >> 1
            if seen[i]:  # only a fault in the link table leaves a cycle open
                raise AssertionError(f"the links of position {i} do not close a cycle")
            seen[i] = True
            x = ends[x ^ 1]
        cycles += 1
        start = seen.index(False, start)
    return cycles


def cozigzag_word(map_: FlagMap) -> SignedWord:
    """Vertex word of the phial's antimap; same edge cycle as the zigzag
    word with every balance flipped, so its operator is identity + zigzag
    (checked in the tests rather than assumed)."""
    z = gon_count(map_.alpha, PARTNER["z"])
    if z != 1:
        raise NotApplicableError(f"cozigzag word needs a single zigzag; map has {z}")
    return vertex_word(antimap(phial(map_)))

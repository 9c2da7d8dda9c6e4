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
twice; the word is then built without the constructor's second walk.
The interlacement and same-direction indicators of such a word combine
into a symmetric GF(2) operator on the edge universe; which of a map's
operators exist, and the operators themselves, are kept by
analysis.MapAnalysis, which reads the words off its own traces.

A product X o c_W with a word operator is composed by prefix images
(`_word_columns`): column x of c_W sums the singletons {e} over a run of
the word, so column x of X o c_W sums their images X{e} over the same
run.  That is 3m big-int XORs, against m^2/8 table lookups for a general
compose.

The null spaces of c_W^T and of (I + c_W)^T come from one walk each over
the word, with no elimination (`_kernel_vectors`).  For an edge e with
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
form cycles, and dim ker c_W^T = cycles - 1.  Each cycle K other than the
one through position 0 gives the basis vector of the edges e with exactly
one of p1(e) and p1(e) + 1 in K.  The walk labels each position with
its cycle, and one pass over the edges then writes every vector, so the
walk itself does no big-int arithmetic.  This is the word form of the binary
nullity theorem for circuit partitions (Cohn and Lempel, J. Combin.
Theory Ser. A 13, 1972; Traldi, European J. Combin. 32, 2011), but the
derivation above is plain linear algebra and assumes no theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .gem import PARTNER, FlagMap, _as_int, _left_flags, antimap, gon_count, gon_labels, phial
from .gf2 import Gf2Vec, LinearOp

T = TypeVar("T")


def _prechecked(cls: type[T], **fields: object) -> T:
    """An instance of the frozen dataclass cls holding `fields` as given,
    without running its __post_init__: for fields the caller has already
    checked to the same standard (the one-pass word of a gon trace, and
    codec's bulk .gem reader).  Every public constructor still checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class NotApplicableError(ValueError):
    """The map does not meet the gon-count hypothesis of the request."""


@dataclass(frozen=True)
class SignedWord:
    """Cyclic double-occurrence word of signed edge ids.

    Entries are (edge, sign) with 0-based edges and sign +1 or -1; each
    edge occurs exactly twice and its first stored occurrence is positive.
    The positions of each edge's two occurrences are found once, when the
    word is built, and kept in two flat lists.  The constructor checks a
    tuple of exact-int pairs as it is and converts anything else first.
    A word read off a gon trace is built by _single_gon_word, whose one
    pass checks it and finds the positions, so it skips this check.
    """

    m: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
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
    count, _, order = gon_labels(map_.alpha, PARTNER[kind])
    if count != 1:
        raise NotApplicableError(_SINGLE_GON[kind].format(count))
    return _single_gon_word(map_.m, order, kind)


def _single_gon_word(m: int, order: Sequence[int], kind: str) -> SignedWord:
    """Word of a single gon of `kind` from its gem.gon_labels order, where
    each pair of steps crosses one rectangle and names its edge.  An edge's
    second crossing is positive when its two kind-pairs, flags 4e and
    4e + 2 (4e + 1 for kind z), are entered the same way along the walk.

    The one pass over the order writes the entries and the positions of
    each edge's two occurrences, so the word is built by _prechecked with
    no second pass.  An order of 2m crossings in which no edge is crossed
    a third time crosses every edge exactly twice; AssertionError if the
    order is not that, which no single gon of a valid trace is.
    """
    if len(order) != 4 * m:
        raise AssertionError(f"the gon crosses {len(order) // 2} rectangles, not {2 * m}")
    b = 1 if PARTNER[kind] == 2 else 2
    left = _left_flags(order)
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
            append((e, 1 if left[4 * e] == left[4 * e + b] else -1))
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
    """Column x is kappa(w, x) + interlacement(w, x), extended linearly."""
    return LinearOp(w.m, _word_columns(w, [1 << e for e in range(w.m)]))


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


def _kernel_vectors(w: SignedWord, complement: bool) -> list[int]:
    """A basis of the null space of c_W^T, or of (I + c_W)^T when
    `complement`, from one walk over the word (module docstring).

    Position i has two link ends: end 2i on the link of the edge at i, and
    end 2i + 1 on the link of the edge at i - 1.  ends[x] is the end that x
    is linked to, so following ends from a position's one end to its other
    walks a cycle.  The walk writes each cycle's number into label[i] for
    every position i on it, with small ints only.  One pass over the edges
    then sets bit e in the vectors of both cycles when label[p1(e)] and
    label[p1(e) + 1] differ, which gives cycle K the edges with exactly one
    of p1(e) and p1(e) + 1 in K.  The cycle through position 0, number 0,
    is dropped.
    """
    m, entries = w.m, w.entries
    n = 2 * m
    first = w._first
    ends = [0] * (2 * n)
    for p1, p2 in zip(first, w._second):
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
    label = [None] * n
    cycles = 0
    for start in range(n):
        if label[start] is not None:
            continue
        label[start] = cycles
        stop = 2 * start + 1
        x = ends[stop - 1]
        while x != stop:
            i = x >> 1
            if label[i] is not None:  # only a fault in the link table leaves a cycle open
                raise AssertionError(f"the links of position {i} do not close a cycle")
            label[i] = cycles
            x = ends[x ^ 1]
        cycles += 1
    vectors = [0] * cycles
    for e, p1 in enumerate(first):
        k, j = label[p1], label[p1 + 1]
        if k != j:
            bit = 1 << e
            vectors[k] |= bit
            vectors[j] |= bit
    return vectors[1:]


def cozigzag_word(map_: FlagMap) -> SignedWord:
    """Vertex word of the phial's antimap; same edge cycle as the zigzag
    word with every balance flipped, so its operator is identity + zigzag
    (checked in the tests rather than assumed)."""
    z = gon_count(map_.alpha, PARTNER["z"])
    if z != 1:
        raise NotApplicableError(f"cozigzag word needs a single zigzag; map has {z}")
    return vertex_word(antimap(phial(map_)))

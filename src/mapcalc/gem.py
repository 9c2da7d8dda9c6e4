"""Combinatorial maps on closed surfaces, encoded as flag involutions.

A map with m edges is stored as m rectangles of four flags each; rectangle
e owns flags 4e..4e+3.  Inside its rectangle, flag x has a short partner
x ^ 1, a long partner x ^ 3 and a diagonal partner x ^ 2 (PARTNER).  A
fixed-point-free involution alpha glues rectangle corners together.  The
cycles that alternate alpha with short, long or diagonal partners are the
v-, f- and z-gons; they are the vertices, faces and zigzag walks of the
embedded graph, whose edges are the rectangles.  gon_labels is the one
gon walk: it traces one kind into each flag's gon id and the flags in
walk order, jumping to the next unlabelled flag by a C scan and stopping
once every flag is labelled.  A kind with one gon induces the bouquet of
m loops, built with no pass over the ids.  The gon counts and the induced
graphs read the ids, gons() slices the order into each gon's flag
sequence, the loop balances read which flags the walk leaves their
kind-pairs by, and the signed words (words.py) which flags it enters
them by.

Role permutations (dual, phial, antimap and partial ones) relabel the
flags inside each chosen rectangle so that the fixed partners take on the
permuted roles: alpha is conjugated, and the v-, f- and z-gons of the
result are the permuted gons of the input.

One construction rule holds across the package.  _as_int is the only
place a value becomes an int or is refused: every public constructor and
function that takes a count, id or size passes it through _as_int, so a
float or a string is a ValueError naming it, and a bool is 0 or 1.  The
flag ids of a FlagMap are only checked to be ints, so that a bad one is
named by its position.  Every public constructor checks all of its
fields.  A builder whose fields are valid by construction builds its
frozen dataclass through _prechecked instead, and states the one-line
proof in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import index
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

# The short (v), long (f) and diagonal (z) partner of flag x is x ^ PARTNER[kind].
PARTNER = {"v": 1, "f": 3, "z": 2}


def _partner(kind: str) -> int:
    """PARTNER[kind], or ValueError naming the gon kinds."""
    p = PARTNER.get(kind)
    if p is None:
        raise ValueError(f"gon kind must be 'v', 'f' or 'z', got {kind!r}")
    return p


DUAL_WORD = "lsd"
PHIAL_WORD = "dls"
ANTIMAP_WORD = "sdl"

# Offset permutation h per permutation word w, whose letter i names the
# image of role i (s, l, d = v, f, z): h carries the pairs {o, o ^ partner
# of role w[i]} onto the pairs {o, o ^ partner of role i}, so conjugating
# alpha by h inside a rectangle moves role i's gons onto role w[i].
_PERMUTATION_OFFSETS = {
    "sld": (0, 1, 2, 3),
    "lsd": (0, 3, 2, 1),
    "dls": (0, 2, 1, 3),
    "sdl": (0, 1, 3, 2),
    "dsl": (1, 2, 0, 3),
    "lds": (0, 2, 3, 1),
}


def _as_int(value: object) -> int:
    """operator.index(value), an exact int: 1.7 or "1" is refused, not
    truncated or parsed, and True is 1."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def _prechecked(cls: type[T], **fields: object) -> T:
    """An instance of the frozen dataclass cls holding `fields` as given,
    without running its __post_init__: for fields the caller has proved to
    the standard of the public constructor (module docstring)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class FlagMap:
    """A map: rectangle count and flag involution.

    The constructor only enforces shape (lengths, ranges) and that alpha
    is a permutation of the 4m flags, which every gon walk needs to end;
    use validate() to check the semantic invariants, so that broken
    candidates can still be inspected and reported on.
    """

    m: int
    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        m = _as_int(self.m)
        if m < 1:
            raise ValueError("need at least one rectangle")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", tuple(self.alpha))
        n = 4 * m
        if len(self.alpha) != n:
            raise ValueError(f"alpha must assign all {n} flags")
        for x, y in enumerate(self.alpha):
            if not isinstance(y, int) or not 0 <= y < n:
                raise ValueError(f"alpha[{x}] = {y!r} is not a flag id")
        if len(set(self.alpha)) != n:
            raise ValueError("alpha is not a permutation of the flags")

    @classmethod
    def from_pairs(cls, m: int, pairs: Iterable[tuple[int, int]]) -> FlagMap:
        """Build alpha from explicit flag pairs covering every flag once."""
        m = _as_int(m)
        alpha = [-1] * (4 * m)
        for x, y in pairs:
            for z in (x, y):
                if not isinstance(z, int) or not 0 <= z < 4 * m:
                    raise ValueError(f"flag {z!r} is not a flag id")
            if alpha[x] != -1 or alpha[y] != -1:
                raise ValueError(f"flag pair ({x}, {y}) reuses a paired flag")
            alpha[x], alpha[y] = y, x
        if -1 in alpha:
            raise ValueError(f"flag {alpha.index(-1)} left unpaired")
        return cls(m, tuple(alpha))

    @property
    def flag_count(self) -> int:
        return 4 * self.m


def sphere_loop_map() -> FlagMap:
    """One loop on the sphere: gon profile (v, f, z) = (1, 2, 1)."""
    return FlagMap.from_pairs(1, ((1, 2), (3, 0)))


def projective_loop_map() -> FlagMap:
    """One loop on the projective plane: gon profile (1, 1, 2)."""
    return FlagMap.from_pairs(1, ((0, 2), (1, 3)))


def single_edge_map() -> FlagMap:
    """One plain edge on the sphere: gon profile (2, 1, 1)."""
    return FlagMap.from_pairs(1, ((0, 1), (2, 3)))


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail per structural invariant; ok means all pass."""

    involution: bool
    fixed_point_free: bool
    connected: bool

    _NAMES = ("involution", "fixed_point_free", "connected")

    @property
    def ok(self) -> bool:
        return all(getattr(self, n) for n in self._NAMES)

    def checks(self) -> tuple[tuple[str, bool], ...]:
        return tuple((n, getattr(self, n)) for n in self._NAMES)

    def failures(self) -> tuple[str, ...]:
        return tuple(n for n, ok in self.checks() if not ok)


def _rectangles_reached(alpha: Sequence[int]) -> int:
    """How many rectangles one walk reaches from rectangle 0, stepping from
    each rectangle r to the rectangles alpha[x] >> 2 of its flags x.

    Inside a rectangle the short and long partners join all four flags,
    so this is a quarter of the flags that a walk from flag 0 along alpha,
    short and long partners reaches, whether or not alpha is an involution;
    the map is connected when it reaches all m.
    """
    seen = [False] * (len(alpha) >> 2)
    seen[0] = True
    queue = [0]
    for r in queue:
        x = 4 * r
        for y in alpha[x:x + 4]:
            s = y >> 2
            if not seen[s]:
                seen[s] = True
                queue.append(s)
    return len(queue)


def validate(map_: FlagMap) -> ValidationReport:
    """Check the map invariants on raw candidate data; connectivity is one
    walk over the m rectangles (_rectangles_reached)."""
    a = map_.alpha
    involution = all(a[a[x]] == x for x in range(len(a)))
    fixed_point_free = all(a[x] != x for x in range(len(a)))
    connected = _rectangles_reached(a) == map_.m
    return ValidationReport(involution, fixed_point_free, connected)


@dataclass(frozen=True)
class GonDecomposition:
    """Partition of all flags into gons of one kind, each gon's flags in
    the order gon_labels walks them."""

    kind: str
    gons: tuple[tuple[int, ...], ...]
    gon_of: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.gons)

    def partition(self) -> frozenset[frozenset[int]]:
        """Gons as a set of flag sets, traversal order forgotten."""
        return frozenset(frozenset(g) for g in self.gons)


def gons(map_: FlagMap, kind: str) -> GonDecomposition:
    """Components of the flag graph restricted to kind-pairs and alpha."""
    _, gon_of, order = gon_labels(map_.alpha, _partner(kind))
    seqs = tuple(tuple(seq) for _, seq in groupby(order, gon_of.__getitem__))
    return GonDecomposition(kind, seqs, tuple(gon_of))


def gon_labels(alpha: Sequence[int], partner: int) -> tuple[int, list[int], list[int]]:
    """(count, gon_of, order) of the gons that alternate alpha with x ^ partner.

    The one gon walk.  Gons are numbered by their smallest flags, gon_of
    holds each flag's gon, and order lists the flags gon by gon, each gon
    from its smallest flag with the kind-pair first: even positions of
    order enter a kind-pair and odd positions leave it through alpha.

    Each gon starts at the first unlabelled flag, which gon_of.index finds
    by a C scan from the last start, and the walk stops once every flag
    is labelled.  All n flags labelled means at least n appends, so the
    cheap length test screens the scan for -1.  On an involution alpha
    the length reaches n exactly with the last gon; on any other
    permutation a walk may label a flag twice, and only the scan decides.
    """
    n = len(alpha)
    gon_of = [-1] * n
    order: list[int] = []
    append = order.append
    count = 0
    start = 0
    while len(order) < n or -1 in gon_of:
        start = gon_of.index(-1, start)
        x = start
        while True:
            y = x ^ partner
            gon_of[x] = gon_of[y] = count
            append(x)
            append(y)
            x = alpha[y]
            if x == start:
                break
        count += 1
    return count, gon_of, order


def _left_flags(order: Sequence[int]) -> bytearray:
    """1 on each flag at an odd position of a gon_labels order: the flags
    the walk leaves their kind-pairs by.  Two kind-pairs are entered the
    same way along the walk when their flags agree here."""
    left = bytearray(len(order))
    for y in order[1::2]:
        left[y] = 1
    return left


def gon_count(alpha: Sequence[int], partner: int) -> int:
    """Number of gons that alternate alpha with x ^ partner."""
    return gon_labels(alpha, partner)[0]


def gon_counts(map_: FlagMap) -> tuple[int, int, int]:
    """(v, f, z) gon counts."""
    a = map_.alpha
    return gon_count(a, PARTNER["v"]), gon_count(a, PARTNER["f"]), gon_count(a, PARTNER["z"])


def apply_permutation(
    map_: FlagMap,
    rects: Iterable[int] | None,
    perm: str,
) -> FlagMap:
    """Permute the short/long/diagonal roles on the chosen rectangles.

    `perm` is a word over s, l, d giving the images of s, l, d in order
    ("lsd" swaps short and long, and so on); rects=None means all.  The
    flags of each chosen rectangle are relabeled by the offset permutation
    of `perm`, and alpha is conjugated to match.
    """
    h = _PERMUTATION_OFFSETS.get(perm)
    if h is None:
        raise ValueError(f"permutation word must rearrange 'sld', got {perm!r}")
    chosen = range(map_.m) if rects is None else sorted({_as_int(r) for r in rects})
    n = map_.flag_count
    phi = list(range(n))
    phi_inv = list(range(n))
    for r in chosen:
        if not 0 <= r < map_.m:
            raise ValueError(f"rectangle {r} out of range")
        for o in range(4):
            phi[4 * r + o] = 4 * r + h[o]
            phi_inv[4 * r + h[o]] = 4 * r + o
    a = map_.alpha
    return FlagMap(map_.m, tuple(phi_inv[a[phi[x]]] for x in range(n)))


def dual(map_: FlagMap) -> FlagMap:
    """Swap short and long roles everywhere; exchanges v- and f-gons."""
    return apply_permutation(map_, None, DUAL_WORD)


def phial(map_: FlagMap) -> FlagMap:
    """Swap short and diagonal roles everywhere; exchanges v- and z-gons."""
    return apply_permutation(map_, None, PHIAL_WORD)


def antimap(map_: FlagMap) -> FlagMap:
    """Swap long and diagonal roles everywhere; exchanges f- and z-gons."""
    return apply_permutation(map_, None, ANTIMAP_WORD)


@dataclass(frozen=True)
class MultiGraph:
    """Multigraph with loops allowed, edges indexed 0..len-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = _as_int(self.n)
        if n < 1:
            raise ValueError("need at least one vertex")
        edges = tuple((_as_int(u), _as_int(v)) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def spanning_forest(self, among: Iterable[int] | None = None) -> tuple[list[int], list[int]]:
        """(tree edge ids, paths) of a breadth-first spanning forest of the
        edges `among`, ascending ids (all edges by default).

        Each component is searched from its lowest vertex, each vertex's
        edges in id order; the first edge that reaches a new vertex joins
        the tree, so loops never do.  Tree edges are listed in that order,
        and paths[v] is the bitmask of the tree edges between v and its
        component's root.
        """
        edges = self.edges
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e in range(len(edges)) if among is None else among:
            u, v = edges[e]
            inc[u].append((e, v))
            inc[v].append((e, u))
        paths = [-1] * self.n
        tree = []
        for root in range(self.n):
            if paths[root] != -1:
                continue
            paths[root] = 0
            queue = [root]
            for u in queue:
                for e, w in inc[u]:
                    if paths[w] == -1:
                        paths[w] = paths[u] | 1 << e
                        tree.append(e)
                        queue.append(w)
        return tree, paths

    def is_bipartite(self) -> bool:
        """Every edge joins ends whose tree paths differ in an odd number of
        edges; a loop's ends differ in none."""
        paths = self.spanning_forest()[1]
        return all((paths[u] ^ paths[v]).bit_count() & 1 for u, v in self.edges)


def induced_graph(map_: FlagMap, kind: str) -> MultiGraph:
    """Multigraph with one vertex per gon of `kind` and one edge per rectangle.

    Edge e joins the gons holding e's two kind-pairs; kind v gives the
    embedded graph itself, kind f the one induced by faces, kind z the one
    induced by zigzags.
    """
    p = _partner(kind)
    count, gon_of, _ = gon_labels(map_.alpha, p)
    return _gon_graph(count, gon_of, p)


def _gon_graph(count: int, gon_of: Sequence[int], partner: int) -> MultiGraph:
    """induced_graph read off the count and gon_of of one gon_labels trace.
    Prechecked: gon ids are ints below the count.  A single gon holds
    every kind-pair, so its graph is the bouquet of m loops, built with no
    pass over gon_of."""
    if count == 1:
        return _prechecked(MultiGraph, n=1, edges=((0, 0),) * (len(gon_of) >> 2))
    # Offsets 0 and b lie on the rectangle's two different kind-pairs.
    b = 2 if partner == 1 else 1
    edges = []
    for x in range(0, len(gon_of), 4):
        u, v = gon_of[x], gon_of[x + b]
        edges.append((u, v) if u <= v else (v, u))
    return _prechecked(MultiGraph, n=count, edges=tuple(edges))


def euler_connectivity(map_: FlagMap) -> tuple[int, int]:
    """(chi, xi): Euler characteristic v - m + f and its defect 2 - chi."""
    v, f, _ = gon_counts(map_)
    return euler_of_counts(map_.m, v, f)


def euler_of_counts(m: int, v: int, f: int) -> tuple[int, int]:
    """euler_connectivity of an m-edge map with v vertices and f faces."""
    chi = v - m + f
    return chi, 2 - chi


def loop_balances(map_: FlagMap) -> tuple[str, ...]:
    """Classify every edge as 'balanced', 'unbalanced' or 'not_a_loop'.

    A loop (both short pairs on one v-gon) is balanced when its two short
    sides point in opposite geometric directions along the gon traversal,
    which means flags 4e and 4e+2 are entered the same way along the walk
    (_left_flags); one v-gon trace serves every edge.
    """
    _, gon_of, order = gon_labels(map_.alpha, PARTNER["v"])
    left = _left_flags(order)
    return tuple("not_a_loop" if gon_of[x] != gon_of[x + 2]
                 else "balanced" if left[x] == left[x + 2] else "unbalanced"
                 for x in range(0, len(order), 4))


def loop_balance(map_: FlagMap, edge: int) -> str:
    """loop_balances(map_)[edge]: the class of one edge."""
    edge = _as_int(edge)
    if not 0 <= edge < map_.m:
        raise ValueError(f"edge {edge} out of range")
    return loop_balances(map_)[edge]


def orientable(map_: FlagMap) -> bool:
    """True when the flag graph on short, long and alpha edges is bipartite
    (on the component of flag 0): one walk two-colours it and stops at the
    first edge whose ends share a colour."""
    a = map_.alpha
    color = [-1] * len(a)
    color[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        c = color[x] ^ 1
        for y in (a[x], x ^ 1, x ^ 3):
            if color[y] == -1:
                color[y] = c
                stack.append(y)
            elif color[y] != c:
                return False
    return True

"""Combinatorial maps on closed surfaces, encoded as flag involutions.

A map with m edges is stored as m rectangles of four flags each; rectangle
e owns flags 4e..4e+3.  The three ways to split a rectangle's four flags
into two pairs are the classes A = {01, 23}, B = {12, 30} and C = {02, 13}.
A per-rectangle role string says which class plays the short sides, the
long sides and the diagonals, in that order; the canonical assignment is
"ABC".  A fixed-point-free involution alpha glues rectangle corners
together.  The cycles that alternate alpha with short, long or diagonal
pairs are the v-, f- and z-gons; they are the vertices, faces and zigzag
walks of the embedded graph, whose edges are the rectangles.

Role permutations (dual, phial, antimap) only rewrite the role strings;
normalize relabels flags inside each rectangle so the canonical role
string becomes correct again, without touching the gon structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

ROLE_INDEX = {"s": 0, "l": 1, "d": 2}
KIND_TO_ROLE = {"v": 0, "f": 1, "z": 2}

DUAL_WORD = "lsd"
PHIAL_WORD = "dls"
ANTIMAP_WORD = "sdl"

# partner offset inside the rectangle, per pair-class
_PARTNER = {"A": (1, 0, 3, 2), "B": (3, 2, 1, 0), "C": (2, 3, 0, 1)}

# the two pairs of each class, as offset tuples
_CLASS_PAIRS = {
    "A": ((0, 1), (2, 3)),
    "B": ((1, 2), (3, 0)),
    "C": ((0, 2), (1, 3)),
}

# Offset permutation h for a rectangle with role string c: h carries A-pairs
# onto c[0]-pairs, B-pairs onto c[1]-pairs and C-pairs onto c[2]-pairs, so
# conjugating alpha by h makes the canonical role string "ABC" correct.
_NORMALIZE_OFFSETS = {
    "ABC": (0, 1, 2, 3),
    "BAC": (0, 3, 2, 1),
    "CBA": (0, 2, 1, 3),
    "ACB": (0, 1, 3, 2),
    "BCA": (1, 2, 0, 3),
    "CAB": (0, 2, 3, 1),
}


@dataclass(frozen=True)
class FlagMap:
    """A map: rectangle count, flag involution and per-rectangle roles.

    The constructor only enforces shape (lengths, ranges, role alphabet);
    use validate() to check the semantic invariants, so that broken
    candidates can still be inspected and reported on.
    """

    m: int
    alpha: tuple[int, ...]
    roles: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("need at least one rectangle")
        object.__setattr__(self, "alpha", tuple(self.alpha))
        n = 4 * self.m
        if len(self.alpha) != n:
            raise ValueError(f"alpha must assign all {n} flags")
        for x, y in enumerate(self.alpha):
            if not isinstance(y, int) or not 0 <= y < n:
                raise ValueError(f"alpha[{x}] = {y!r} is not a flag id")
        if self.roles is None:
            object.__setattr__(self, "roles", ("ABC",) * self.m)
        else:
            object.__setattr__(self, "roles", tuple(self.roles))
        if len(self.roles) != self.m:
            raise ValueError("need one role string per rectangle")
        for r in self.roles:
            if not (isinstance(r, str) and len(r) == 3 and set(r) <= set("ABC")):
                raise ValueError(f"bad role string {r!r}")

    @classmethod
    def from_pairs(
        cls,
        m: int,
        pairs: Iterable[tuple[int, int]],
        roles: Sequence[str] | None = None,
    ) -> FlagMap:
        """Build alpha from explicit flag pairs covering every flag once."""
        alpha = [-1] * (4 * m)
        for x, y in pairs:
            for z in (x, y):
                if not 0 <= z < 4 * m:
                    raise ValueError(f"flag {z} out of range")
            if alpha[x] != -1 or alpha[y] != -1:
                raise ValueError(f"flag pair ({x}, {y}) reuses a paired flag")
            alpha[x], alpha[y] = y, x
        if -1 in alpha:
            raise ValueError(f"flag {alpha.index(-1)} left unpaired")
        return cls(m, tuple(alpha), tuple(roles) if roles is not None else None)

    @property
    def flag_count(self) -> int:
        return 4 * self.m

    def role_class(self, rect: int, kind: str) -> str:
        """Pair-class letter playing role `kind` on rectangle `rect`."""
        return self.roles[rect][KIND_TO_ROLE[kind]]

    def role_partner(self, flag: int, kind: str) -> int:
        """The flag paired with `flag` by its rectangle's `kind` pairs."""
        r, o = divmod(flag, 4)
        return 4 * r + _PARTNER[self.roles[r][KIND_TO_ROLE[kind]]][o]


def _partner(map_: FlagMap, role_idx: int, flag: int) -> int:
    r, o = divmod(flag, 4)
    return 4 * r + _PARTNER[map_.roles[r][role_idx]][o]


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
    roles_bijective: bool
    squares_ok: bool
    connected: bool

    _NAMES = ("involution", "fixed_point_free", "roles_bijective", "squares_ok", "connected")

    @property
    def ok(self) -> bool:
        return all(getattr(self, n) for n in self._NAMES)

    def checks(self) -> tuple[tuple[str, bool], ...]:
        return tuple((n, getattr(self, n)) for n in self._NAMES)

    def failures(self) -> tuple[str, ...]:
        return tuple(n for n, ok in self.checks() if not ok)


def _flag_connected(map_: FlagMap) -> bool:
    n = map_.flag_count
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in (map_.alpha[x], _partner(map_, 0, x), _partner(map_, 1, x)):
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def _square_is_cycle(map_: FlagMap, rect: int) -> bool:
    start = 4 * rect
    x = start
    visited = set()
    for step in range(4):
        visited.add(x)
        x = _partner(map_, step % 2, x)
    return x == start and len(visited) == 4


def validate(map_: FlagMap) -> ValidationReport:
    """Check the map invariants on raw candidate data."""
    a = map_.alpha
    involution = all(a[a[x]] == x for x in range(len(a)))
    fixed_point_free = all(a[x] != x for x in range(len(a)))
    roles_bijective = all(sorted(r) == ["A", "B", "C"] for r in map_.roles)
    squares_ok = roles_bijective and all(_square_is_cycle(map_, r) for r in range(map_.m))
    connected = _flag_connected(map_)
    return ValidationReport(involution, fixed_point_free, roles_bijective, squares_ok, connected)


@dataclass(frozen=True)
class GonDecomposition:
    """Partition of all flags into gons of one kind, with traversal order.

    Each gon is the flag sequence of one alternating cycle, starting at its
    smallest flag with the kind-edge first, so even positions enter a
    kind-pair and odd positions leave it through alpha.
    """

    kind: str
    gons: tuple[tuple[int, ...], ...]
    gon_of: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.gons)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.gons)

    def partition(self) -> frozenset[frozenset[int]]:
        """Gons as a set of flag sets, traversal order forgotten."""
        return frozenset(frozenset(g) for g in self.gons)


def gons(map_: FlagMap, kind: str) -> GonDecomposition:
    """Components of the flag graph restricted to kind-pairs and alpha."""
    role_idx = KIND_TO_ROLE[kind]
    n = map_.flag_count
    gon_of = [-1] * n
    out: list[tuple[int, ...]] = []
    for start in range(n):
        if gon_of[start] != -1:
            continue
        seq: list[int] = []
        x = start
        while True:
            seq.append(x)
            gon_of[x] = len(out)
            y = _partner(map_, role_idx, x)
            seq.append(y)
            gon_of[y] = len(out)
            x = map_.alpha[y]
            if x == start:
                break
        out.append(tuple(seq))
    return GonDecomposition(kind, tuple(out), tuple(gon_of))


def gon_counts(map_: FlagMap) -> tuple[int, int, int]:
    """(v, f, z) gon counts."""
    return tuple(gons(map_, k).count for k in ("v", "f", "z"))


def parse_role_permutation(word: str) -> tuple[int, int, int]:
    """Read a permutation word over s, l, d listing the images in order."""
    if sorted(word) != ["d", "l", "s"]:
        raise ValueError(f"permutation word must rearrange 'sld', got {word!r}")
    return tuple(ROLE_INDEX[c] for c in word)


def apply_permutation(
    map_: FlagMap,
    rects: Iterable[int] | None,
    perm: str | tuple[int, int, int],
) -> FlagMap:
    """Permute the short/long/diagonal roles on the chosen rectangles.

    `perm` is a word over s, l, d giving the images of s, l, d in order
    ("lsd" swaps short and long, and so on); rects=None means all.
    Only role strings change; alpha and the flag labels stay put.
    """
    p = parse_role_permutation(perm) if isinstance(perm, str) else perm
    chosen = range(map_.m) if rects is None else sorted(set(rects))
    roles = list(map_.roles)
    for r in chosen:
        if not 0 <= r < map_.m:
            raise ValueError(f"rectangle {r} out of range")
        old = roles[r]
        new = ["", "", ""]
        for i in range(3):
            new[p[i]] = old[i]
        roles[r] = "".join(new)
    return FlagMap(map_.m, map_.alpha, tuple(roles))


def dual(map_: FlagMap) -> FlagMap:
    """Swap short and long roles everywhere; exchanges v- and f-gons."""
    return apply_permutation(map_, None, DUAL_WORD)


def phial(map_: FlagMap) -> FlagMap:
    """Swap short and diagonal roles everywhere; exchanges v- and z-gons."""
    return apply_permutation(map_, None, PHIAL_WORD)


def antimap(map_: FlagMap) -> FlagMap:
    """Swap long and diagonal roles everywhere; exchanges f- and z-gons."""
    return apply_permutation(map_, None, ANTIMAP_WORD)


def normalize(map_: FlagMap) -> FlagMap:
    """Equivalent map with canonical roles, via per-rectangle relabeling.

    Conjugates alpha with the offset permutation that realizes each
    rectangle's role string; gon structure is preserved.
    """
    if all(r == "ABC" for r in map_.roles):
        return map_
    n = map_.flag_count
    phi = [0] * n
    for r, role in enumerate(map_.roles):
        h = _NORMALIZE_OFFSETS[role]
        for o in range(4):
            phi[4 * r + o] = 4 * r + h[o]
    phi_inv = [0] * n
    for x, y in enumerate(phi):
        phi_inv[y] = x
    alpha = tuple(phi_inv[map_.alpha[phi[x]]] for x in range(n))
    return FlagMap(map_.m, alpha, ("ABC",) * map_.m)


@dataclass(frozen=True)
class MultiGraph:
    """Multigraph with loops allowed, edges indexed 0..len-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def incidence(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (edge id, other end); loops listed twice."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((e, v))
            inc[v].append((e, u))
        return inc

    def is_connected(self) -> bool:
        inc = self.incidence()
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for _, w in inc[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n

    def is_bipartite(self) -> bool:
        inc = self.incidence()
        color = [-1] * self.n
        for s0 in range(self.n):
            if color[s0] != -1:
                continue
            color[s0] = 0
            stack = [s0]
            while stack:
                u = stack.pop()
                for _, w in inc[u]:
                    if w == u:
                        return False
                    if color[w] == -1:
                        color[w] = color[u] ^ 1
                        stack.append(w)
                    elif color[w] == color[u]:
                        return False
        return True


def induced_graph(map_: FlagMap, kind: str) -> MultiGraph:
    """Multigraph with one vertex per gon of `kind` and one edge per rectangle.

    Edge e joins the gons holding e's two kind-pairs; kind v gives the
    embedded graph itself, kind f the one induced by faces, kind z the one
    induced by zigzags.
    """
    dec = gons(map_, kind)
    role_idx = KIND_TO_ROLE[kind]
    edges = []
    for e in range(map_.m):
        (a, _), (b, _) = _CLASS_PAIRS[map_.roles[e][role_idx]]
        u, v = dec.gon_of[4 * e + a], dec.gon_of[4 * e + b]
        edges.append((min(u, v), max(u, v)))
    return MultiGraph(dec.count, tuple(edges))


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
    which with canonical roles means flags 4e and 4e+2 sit at positions of
    equal parity.  Non-canonical roles are normalized first; one v-gon
    trace serves every edge.
    """
    nm = normalize(map_)
    dec = gons(nm, "v")
    parity = [0] * nm.flag_count
    for seq in dec.gons:
        for i in range(1, len(seq), 2):
            parity[seq[i]] = 1
    out = []
    for e in range(nm.m):
        a, b = 4 * e, 4 * e + 2
        if dec.gon_of[a] != dec.gon_of[b]:
            out.append("not_a_loop")
        else:
            out.append("balanced" if parity[a] == parity[b] else "unbalanced")
    return tuple(out)


def loop_balance(map_: FlagMap, edge: int) -> str:
    """loop_balances(map_)[edge]: the class of one edge."""
    if not 0 <= edge < map_.m:
        raise ValueError(f"edge {edge} out of range")
    return loop_balances(map_)[edge]


def orientable(map_: FlagMap) -> bool:
    """True when the flag graph on short, long and alpha edges is bipartite."""
    n = map_.flag_count
    color = [-1] * n
    color[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (map_.alpha[x], _partner(map_, 0, x), _partner(map_, 1, x)):
            if color[y] == -1:
                color[y] = color[x] ^ 1
                stack.append(y)
            elif color[y] == color[x]:
                return False
    return True

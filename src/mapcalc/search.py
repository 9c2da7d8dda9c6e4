"""Map enumeration and embedding search.

enumerate_maps walks every fixed-point-free pairing of 4m flags and keeps
the connected ones: the full census of m-edge maps.  It fills one alpha
list in place, pairing the lowest unpaired flag with each unpaired flag
above it in turn, and checks only that a complete pairing is connected.
search_embedding hunts for an embedding with one face and one zigzag of
a multigraph g after at most max_subdivisions edge subdivisions; a fixed
seed and budget always reproduce the same outcome.

A candidate is a rotation per vertex of g and a twist mask a, scored on
codec._rotation_alpha's flat flag involution by walking gons with the
face and zigzag partners of gem.PARTNER.  It decides every subdivision
level: a new vertex on each edge of a set p, with twist a on each first
segment, gives f(g, a) faces and z(g, a ^ p) zigzags, and a second one
undoes the first.  So the sweep skips a candidate unless the face through
flag 0 covers every flag, and a zigzag that does too ends the sweep.
Else, as one toggled twist moves z by at most 1, it tries the p with
z(a) - 1 <= |p| < the fewest subdivisions so far, fewest first.  The
first candidate met with the fewest wins, also if the budget cuts the
sweep after it; only then is a FlagMap built.  A winner that subdivides
no edge ends the search, so its map is the flag list the search holds;
only a subdivided one is rebuilt from the rotation system of
subdivide_graph's graph.

The sweep runs when candidate_count(g) <= EXHAUSTIVE_LIMIT.  Switching at
a vertex reverses its rotation (the first dart stays first) and toggles
the twists of its non-loop edges without changing the map (Mohar and
Thomassen, Graphs on Surfaces, 2001); switches toggle exactly a cut.  So
the sweep fixes the twists of MultiGraph.spanning_forest's tree at 0.
Reversing a loop swaps the labels of its two darts, also without
changing the map.  So each vertex pins its first dart on no loop (on a
vertex with only loops, (e, 0) of the first loop e), and every loop whose
darts are both unpinned keeps (e, 0) before (e, 1).  Switching at every
vertex and then reversing those loops maps kept rotations to kept
rotations and keeps every twist, so _sweep_plan also keeps one rotation
tuple of each such pair.  It loses no embedding, and an uncut sweep
visits one candidate per class of switching and loop reversal.  Their
number is the outcome's space: for a loop-free g, candidate_count(g) >>
g.n, or >> (g.n - 1) when no vertex has degree 3 or more; with r
reversed loops, >> (g.n + r) when some vertex has three darts on no
reversed loop.  Per rotation tuple it links again only the darts of the
vertices whose rotation changed, draws the tuple's candidates from the
budget at once (checking the time limit there) and sweeps the free
twists in Gray-code order, flipping one twist in place per candidate.
Larger graphs get seeded random restarts with local moves on g itself,
which count f + z with gem.gon_count and never subdivide.  Like the
sweep, they keep one flag list and edit it in place: a swap links its
vertex's darts again, a twist flips one edge, and a rejected move is
undone the same way.  gem.gon_count only counts, as nothing else of the
walk is read here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, permutations, product
from math import factorial, inf, prod
from typing import Iterator, Sequence

from .codec import RotationSystem, _link, _rotation_alpha, _toggle_twist, embedding_to_map
from .gem import PARTNER, FlagMap, MultiGraph, _as_int, _prechecked, _rectangles_reached, gon_count

EXHAUSTIVE_LIMIT = 10**6
_RESTART_STALL = 200


def enumerate_maps(m: int) -> Iterator[FlagMap]:
    """Yield every connected map with m rectangles.

    One alpha list is filled in place: the lowest unpaired flag takes each
    unpaired partner in increasing order.  A complete pairing, a
    fixed-point-free involution by construction, is yielded as a
    prechecked FlagMap when one walk over its rectangles reaches all m
    (gem._rectangles_reached, the connectivity check of validate).
    """
    m = _as_int(m)
    if m < 1:
        raise ValueError("need at least one rectangle")
    n = 4 * m
    alpha = [-1] * n
    lows: list[int] = []  # the lowest unpaired flag of each open pair
    x = y = 0  # x's partner is the next unpaired flag above y
    while True:
        y += 1
        while y < n and alpha[y] != -1:
            y += 1
        if y < n:
            alpha[x], alpha[y] = y, x
            if 2 * len(lows) + 2 < n:
                lows.append(x)
                x = y = alpha.index(-1, x + 1)
                continue
            if _rectangles_reached(alpha) == m:
                yield _prechecked(FlagMap, m=m, alpha=tuple(alpha))
        elif not lows:
            return
        else:
            x = lows.pop()
            y = alpha[x]
        alpha[x] = alpha[y] = -1


def subdivide_graph(g: MultiGraph, counts: tuple[int, ...]) -> MultiGraph:
    """Insert counts[e] new degree-2 vertices into edge e.

    Edge e keeps its id for the segment at its first endpoint; the other
    segments get fresh ids in order of processing, so the id mapping is
    deterministic.  Prechecked: g's ends and each new vertex are ints
    below the new vertex count.
    """
    if len(counts) != g.edge_count:
        raise ValueError("need one subdivision count per edge")
    n = g.n
    edges = list(g.edges)
    for e, k in enumerate(map(_as_int, counts)):
        if k < 0:
            raise ValueError("subdivision counts must be nonnegative")
        if k == 0:
            continue
        u, v = edges[e]
        chain = [u] + list(range(n, n + k)) + [v]
        n += k
        edges[e] = (chain[0], chain[1])
        edges.extend((chain[i], chain[i + 1]) for i in range(1, k + 1))
    return _prechecked(MultiGraph, n=n, edges=tuple(edges))


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one search: candidate count, subdivision depth, wall time
    (None for no time limit).

    Outcomes are reproducible for a fixed seed and budget; a wall-time
    limit can only truncate the deterministic candidate stream early.
    """

    max_candidates: int = 100_000
    max_subdivisions: int = 0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_candidates", "max_subdivisions"):
            value = getattr(self, name)
            try:
                value = _as_int(value)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, value)
        t = self.time_limit
        if t is not None and not (isinstance(t, (int, float)) and 0 < t < inf):
            raise ValueError("time_limit must be positive and finite")


@dataclass(frozen=True)
class SearchOutcome:
    """status is found, exhausted or budget_exceeded; subdivisions gives the
    per-original-edge counts (0 or 1) of the found map, the fewest possible
    unless the budget cut the sweep, then the fewest among those seen.
    mode is "exhaustive" or "randomized" and space its candidate count:
    for the sweep the number of candidates an uncut sweep visits, one per
    class of switching and loop reversal (for a loop-free g,
    candidate_count(g) >> g.n, or >> (g.n - 1) when every degree is at
    most 2; each reversed loop halves it again when some vertex has three
    darts on no reversed loop); candidate_count(g) for the randomized
    phase, which drew `restarts` starting points.
    best_score is the lowest f + z seen: 2 when found, else the randomized
    phase's lowest, and None after the sweep (it does not count gons).
    """

    status: str
    map: FlagMap | None
    subdivisions: tuple[int, ...] | None
    candidates: int
    seed: int
    mode: str
    space: int
    restarts: int = 0
    best_score: int | None = None


def _dart_lists(g: MultiGraph) -> list[list[tuple[int, int]]]:
    darts: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        darts[u].append((e, 0))
        darts[v].append((e, 1))
    return [sorted(d) for d in darts]


def candidate_count(g: MultiGraph) -> int:
    """Size of the rotation-times-twist space with first darts pinned."""
    total = 1 << g.edge_count
    for degree in g.degrees():
        total *= factorial(max(degree - 1, 0))
    return total


def _gon_length(alpha: list[int], partner: int) -> int:
    """Flags on the gon through flag 0 that alternates alpha with x ^ partner."""
    x = 0
    length = 0
    while True:
        x = alpha[x ^ partner]
        length += 2
        if x == 0:
            return length


# g's rotations, twist mask, edges to subdivide, and for a winner that
# subdivides none the flag list the search holds for it (else None).
_Winner = tuple[Sequence, int, tuple[int, ...], list[int] | None]


def _winner_map(g: MultiGraph, winner: _Winner) -> tuple[FlagMap, tuple[int, ...]]:
    """The winner's map on subdivide_graph(g, counts), and counts.

    A winner that subdivides no edge ends the search at once, so the flag
    list it carries is still its candidate's, and the map is that list.
    Prechecked: _link and _toggle_twist keep the list _rotation_alpha of
    the candidate's rotations and twists, which pairs each flag once,
    never with itself (codec._rotation_map).  A subdivided winner is
    rebuilt: dart (e, 1) moves to e's far segment, a new vertex joins e's
    two segments, and the twist of e stays on its first segment, which
    keeps the id e.  Prechecked: the darts are those of _dart_lists,
    relabelled by far, and the twists are edges of g."""
    rots, mask, subdivided, alpha = winner
    counts = tuple(int(e in subdivided) for e in range(g.edge_count))
    if not subdivided:
        return _prechecked(FlagMap, m=g.edge_count, alpha=tuple(alpha)), counts
    twists = frozenset(e for e in range(g.edge_count) if (mask >> e) & 1)
    far = {e: fresh for fresh, e in enumerate(subdivided, g.edge_count)}
    rots = [tuple((far.get(e, e) if end else e, end) for e, end in rot) for rot in rots]
    rots += [((e, 1), (far[e], 0)) for e in subdivided]
    rs = _prechecked(RotationSystem, graph=subdivide_graph(g, counts), rotations=tuple(rots),
                     twists=twists)
    return embedding_to_map(rs), counts


class _Counter:
    """The candidate budget, plus the randomized phase's restart count and
    lowest f + z."""

    def __init__(self, limit: int, deadline: float | None):
        self.limit = limit
        self.deadline = deadline
        self.used = 0
        self.restarts = 0
        self.best_score: int | None = None

    def draw(self, want: int) -> int:
        """Hand out min(want, what is left) candidates: 0 once none are
        left or the time limit has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            return 0
        granted = min(want, self.limit - self.used)
        self.used += granted
        return granted


def _toggles_to_one_zigzag(alpha: list[int], fewest: int) -> tuple[int, ...] | None:
    """The first edge set p, fewest edges first, with |p| < fewest whose
    twist toggles leave one zigzag; one toggle moves z by at most 1.
    fewest is at least 1, so () when alpha has one zigzag already."""
    n_flags, zigzag = len(alpha), PARTNER["z"]
    if _gon_length(alpha, zigzag) == n_flags:
        return ()
    if fewest < 2:
        return None  # z >= 2 here, which needs |p| >= 1
    for k in range(gon_count(alpha, zigzag) - 1, fewest):
        for p in combinations(range(n_flags // 4), k):
            for e in p:
                _toggle_twist(alpha, e)
            hit = _gon_length(alpha, zigzag) == n_flags
            for e in p:
                _toggle_twist(alpha, e)
            if hit:
                return p
    return None


_Rotation = tuple[tuple[int, int], ...]
_Plan = tuple[list[list[list[_Rotation]]], list[int]]  # blocks of per-vertex rotations, free edges


def _sweep_plan(g: MultiGraph, tree: list[int]) -> _Plan:
    """The rotation tuples the sweep visits, as blocks whose products it
    takes in turn, and the free edges, those not in tree (the edges of
    MultiGraph.spanning_forest), whose twists it sweeps.

    Each vertex pins its first dart on no loop (when all of its darts are
    on loops, (e, 0) of the first loop e) and keeps (e, 0) before (e, 1)
    on every loop e whose darts are both unpinned: reversing e swaps those
    labels and gives an isomorphic map.  phi, a switch at every vertex and
    then the reversal of every such loop, maps kept tuples to kept tuples,
    keeps every twist and reverses the order of the unrelabelled darts
    after each pin.  So the pivot, the last vertex with two of those, keeps
    the rotations in which the first of them sorts below the last.
    Without a pivot, phi can fix a rotation at every vertex.  Read as a
    word, the edges of a rotation's darts after its pin, phi reverses it;
    so each vertex with more than one kept rotation, from the last, keeps
    those whose word sorts below its reverse in a block of their own and
    passes the palindromes on, and the tuples that phi fixes form the last
    block."""
    unrelabelled = _dart_lists(g)  # each vertex's pin, then the darts phi does not relabel
    reversed_loops: list[list[int]] = [[] for _ in unrelabelled]
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            reversed_loops[u].append(e)
    pivot = None
    for v, (darts, mine) in enumerate(zip(unrelabelled, reversed_loops)):
        if mine:
            if 2 * len(mine) == len(darts):
                del mine[0]
            unrelabelled[v] = darts = [d for d in darts if d[0] not in mine]
        if len(darts) >= 3:
            pivot = v
    kept = []
    for v, (darts, mine) in enumerate(zip(unrelabelled, reversed_loops)):
        pin = darts[0]
        seqs = [(pin, *p) for p in permutations(darts[1:]) if v != pivot or p[0] < p[-1]]
        for e in mine:  # insert (e, 0) before (e, 1) in every way
            a, b = (e, 0), (e, 1)
            gaps = list(combinations_with_replacement(range(1, len(seqs[0]) + 1), 2))
            seqs = [(*s[:i], a, *s[i:j], b, *s[j:]) for s in seqs for i, j in gaps]
        kept.append(seqs)
    blocks = []
    if pivot is None:
        for v in reversed(range(g.n)):
            if len(kept[v]) > 1:
                words = [[e for e, _ in r[1:]] for r in kept[v]]  # phi reverses each word
                blocks.append(kept[:v] + [[r for r, w in zip(kept[v], words) if w < w[::-1]]]
                              + kept[v + 1:])
                kept = kept[:v] + [[r for r, w in zip(kept[v], words) if w == w[::-1]]] + kept[v + 1:]
    blocks.append(kept)
    in_tree = set(tree)
    return blocks, [e for e in range(g.edge_count) if e not in in_tree]


def _exhaustive(
    g: MultiGraph, plan: _Plan, counter: _Counter, max_subdivisions: int
) -> tuple[_Winner | None, bool]:
    """Sweep the plan's candidates.  Returns the first winner met with the
    fewest subdivisions (None without one), and False when the budget or
    the time limit cut the sweep; a winner that needs none ends it."""
    blocks, free = plan
    n_edges = g.edge_count
    n_flags = 4 * n_edges
    face = PARTNER["f"]
    size = 1 << len(free)
    # Candidate i twists free[j] when bit j of i ^ (i >> 1) is set, so it
    # differs from candidate i - 1 in free[lowest set bit of i] alone, and
    # flips[i] is flag 4e + 2 of that edge e.  The last candidate twists
    # free[-1] alone, which flips[0] undoes.  So each tuple's list enters
    # with free[-1] twisted, and only the darts of the vertices whose
    # rotation changed are linked again (a tree's list enters with edge 0
    # twisted and is built anew per tuple).
    last = free[-1] if free else 0
    entry = 1 << last
    flips = [4 * last + 2] + [4 * free[(i & -i).bit_length() - 1] + 2 for i in range(1, size)]
    fewest = max_subdivisions + 1
    winner = previous = None
    for rots in chain.from_iterable(product(*block) for block in blocks):
        granted = counter.draw(size)
        if free and previous is not None:
            _link(alpha, [r for r, q in zip(rots, previous) if r is not q], entry)
        else:
            alpha = _rotation_alpha(rots, entry, n_edges)
        previous = rots
        for i in range(granted):
            a = flips[i]  # codec._toggle_twist, inline
            b = a + 1
            x, y = alpha[a], alpha[b]
            if x != b:
                alpha[b], alpha[x] = x, b
                alpha[a], alpha[y] = y, a
            x, length = alpha[face], 2  # the face through flag 0
            while x:
                x = alpha[x ^ face]
                length += 2
            if length != n_flags or (p := _toggles_to_one_zigzag(alpha, fewest)) is None:
                continue
            mask = i ^ (i >> 1)
            twist_mask = sum(1 << e for j, e in enumerate(free) if (mask >> j) & 1)
            if not p:
                counter.used -= granted - i - 1  # hand back the unvisited rest
                return (rots, twist_mask, p, alpha), True
            winner = rots, twist_mask, p, None
            fewest = len(p)
        if granted < size:
            return winner, False
    return winner, True


def _randomized(g: MultiGraph, counter: _Counter, rng: random.Random) -> _Winner | None:
    """Random restarts plus local moves (swap two rotation entries or
    toggle one twist), accepting moves that do not increase f + z.  Returns
    the first winner, or None once the budget or the time limit is spent.

    Each restart builds one flag list, and each move edits it in place: a
    swap links the darts of its vertex again (codec._link) and a twist
    flips one edge (codec._toggle_twist).  A rejected move is undone the
    same way, so the list is always _rotation_alpha of rots and mask."""
    n_edges = g.edge_count
    face, zigzag = PARTNER["f"], PARTNER["z"]
    dart_lists = _dart_lists(g)
    swappable = [v for v, darts in enumerate(dart_lists) if len(darts) >= 3]
    rots: list[_Rotation] = []
    mask = 0
    alpha: list[int] = []
    best: int | None = None  # lowest f + z of the current restart
    stall = _RESTART_STALL + 1
    while True:
        restart = stall > _RESTART_STALL
        if restart:
            counter.restarts += 1
            rots = []
            for darts in dart_lists:  # a random rotation per vertex, first dart pinned
                rest = darts[1:]
                rng.shuffle(rest)
                rots.append((darts[0], *rest))
            mask = rng.getrandbits(n_edges)
            alpha = _rotation_alpha(rots, mask, n_edges)
        elif swappable and rng.random() < 0.5:
            v = rng.choice(swappable)
            kept = rots[v]
            rot = list(kept)
            i, j = rng.sample(range(1, len(rot)), 2)
            rot[i], rot[j] = rot[j], rot[i]
            rots[v] = tuple(rot)
            _link(alpha, (rots[v],), mask)
        else:
            v, e = -1, rng.randrange(n_edges)
            mask ^= 1 << e
            _toggle_twist(alpha, e)
        if not counter.draw(1):
            return None
        value = gon_count(alpha, face) + gon_count(alpha, zigzag)
        if value == 2:
            return rots, mask, (), alpha
        if restart or value <= best:
            stall = 0 if restart or value < best else stall + 1
            best = value
            if counter.best_score is None or value < counter.best_score:
                counter.best_score = value
        else:
            stall += 1
            if v < 0:  # undo the rejected move
                mask ^= 1 << e
                _toggle_twist(alpha, e)
            else:
                rots[v] = kept
                _link(alpha, (kept,), mask)


def search_embedding(
    g: MultiGraph,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
) -> SearchOutcome:
    """Look for a single-face-single-zigzag embedding of g or a subdivision.

    g is swept once, which decides every subdivision level, when
    candidate_count(g) <= EXHAUSTIVE_LIMIT; otherwise the randomized phase
    searches g itself.  A candidate is one (rotations, twist mask) of g.
    """
    seed = _as_int(seed)
    tree = g.spanning_forest()[0]
    if len(tree) != g.n - 1:
        raise ValueError("search needs a connected graph")
    if g.edge_count == 0:
        raise ValueError("search needs at least one edge")
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    counter = _Counter(budget.max_candidates, deadline)
    count = candidate_count(g)
    if count <= EXHAUSTIVE_LIMIT:
        blocks, free = plan = _sweep_plan(g, tree)
        mode, space = "exhaustive", sum(prod(map(len, b)) for b in blocks) << len(free)
        winner, swept = _exhaustive(g, plan, counter, budget.max_subdivisions)
    else:
        mode, space, swept = "randomized", count, False
        winner = _randomized(g, counter, random.Random(seed))
    status = "exhausted" if swept else "budget_exceeded"
    found, counts = (None, None) if winner is None else _winner_map(g, winner)
    return SearchOutcome(
        status if found is None else "found", found, counts, counter.used, seed, mode, space,
        counter.restarts, counter.best_score if found is None else 2)

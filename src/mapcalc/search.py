"""Map enumeration and embedding search.

enumerate_maps walks every fixed-point-free pairing of 4m flags and keeps
the connected ones, which gives the full census of m-edge maps.
search_embedding hunts for an embedding of a given multigraph (after
optional edge subdivision) whose map has one face and one zigzag: small
candidate spaces are swept exhaustively in a fixed order, larger ones by
seeded random restarts with local moves, so a fixed seed and budget
always reproduce the same outcome.

A candidate is a rotation per vertex plus a twist bit mask.  It is scored
on the flat flag involution that embedding_to_map would build (the list
from codec._rotation_alpha), walking gons with the long (face) and
diagonal (zigzag) partners of gem.PARTNER; no FlagMap is built until a
candidate wins.  The exhaustive sweep builds that list once per rotation
tuple, with no twists, and visits the twist masks in increasing order,
toggling in place (codec._toggle_twist) the twists that differ from the
previous mask; it walks only the face, then the zigzag, through flag 0
and rejects the candidate as soon as one of them misses a flag.  The
randomized phase rebuilds the list per candidate and counts f + z
exactly with gem.gon_count.  SearchBudget rejects negative limits and a
time limit that is not positive and finite.

The exhaustive sweep is quotiented by vertex switching.  Switching at a
vertex reverses its rotation (the first dart stays first) and toggles
the twists of its non-loop edges; the map does not change (Mohar and
Thomassen, Graphs on Surfaces, 2001).  Switching a set of vertices
toggles exactly the edges of its cut, so every candidate switches into
one with the tree twists fixed at 0 on MultiGraph.spanning_forest's tree.
The sweep therefore visits only the masks of the other edges: each level
sweeps candidate_count(sub) >> (sub.n - 1) candidates, its `space` in
SearchOutcome.levels, and loses no embedding.  Whether a level is swept
exhaustively is still decided on the full candidate_count.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from math import factorial, inf
from typing import Iterator

from .codec import RotationSystem, _rotation_alpha, _toggle_twist, embedding_to_map
from .gem import PARTNER, FlagMap, MultiGraph, gon_count, validate

EXHAUSTIVE_LIMIT = 10**6
_RESTART_STALL = 200


def enumerate_maps(m: int) -> Iterator[FlagMap]:
    """Yield every connected map with m rectangles."""
    if m < 1:
        raise ValueError("need at least one rectangle")

    def matchings(avail: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not avail:
            yield ()
            return
        x = avail[0]
        for i in range(1, len(avail)):
            rest = avail[1:i] + avail[i + 1 :]
            for tail in matchings(rest):
                yield ((x, avail[i]),) + tail

    for pairs in matchings(tuple(range(4 * m))):
        map_ = FlagMap.from_pairs(m, pairs)
        if validate(map_).ok:
            yield map_


def subdivide_graph(g: MultiGraph, counts: tuple[int, ...]) -> MultiGraph:
    """Insert counts[e] new degree-2 vertices into edge e.

    Edge e keeps its id for the segment at its first endpoint; the other
    segments get fresh ids in order of processing, so the id mapping is
    deterministic.
    """
    if len(counts) != g.edge_count:
        raise ValueError("need one subdivision count per edge")
    n = g.n
    edges = list(g.edges)
    for e, k in enumerate(counts):
        if k < 0:
            raise ValueError("subdivision counts must be nonnegative")
        if k == 0:
            continue
        u, v = edges[e]
        chain = [u] + list(range(n, n + k)) + [v]
        n += k
        edges[e] = (chain[0], chain[1])
        edges.extend((chain[i], chain[i + 1]) for i in range(1, k + 1))
    return MultiGraph(n, tuple(edges))


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
        if self.max_candidates < 0:
            raise ValueError("max_candidates must be nonnegative")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be nonnegative")
        if self.time_limit is not None and not 0 < self.time_limit < inf:
            raise ValueError("time_limit must be positive and finite")


@dataclass(frozen=True)
class SearchOutcome:
    """status is found, exhausted or budget_exceeded; subdivisions gives the
    per-original-edge counts used by the found map.

    levels has one (subdivision counts, "exhaustive" or "randomized",
    candidates used, space) entry per subdivision pattern tried, in order;
    their candidates sum to `candidates`.  space is the number of
    candidates the level sweeps: candidate_count(sub) >> (sub.n - 1) for
    an exhaustive level, which fixes the tree twists, and
    candidate_count(sub) for a randomized one.  restarts counts the
    random starting points the randomized phase drew.  best_score is the lowest f + z
    seen: 2 when found, else the randomized phase's lowest, and None when
    only exhaustive sweeps ran (they reject candidates without counting).
    """

    status: str
    map: FlagMap | None
    subdivisions: tuple[int, ...] | None
    candidates: int
    seed: int
    levels: tuple[tuple[tuple[int, ...], str, int, int], ...] = ()
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
    for darts in _dart_lists(g):
        total *= factorial(max(len(darts) - 1, 0))
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


def _winner(g: MultiGraph, rots, mask: int) -> FlagMap:
    twists = frozenset(e for e in range(g.edge_count) if (mask >> e) & 1)
    return embedding_to_map(RotationSystem(g, tuple(rots), twists))


class _Stop(Exception):
    pass


class _Counter:
    """Shared candidate budget across subdivision levels, plus the
    randomized phase's restart count and lowest f + z."""

    def __init__(self, limit: int, deadline: float | None):
        self.limit = limit
        self.deadline = deadline
        self.used = 0
        self.restarts = 0
        self.best_score: int | None = None

    def note_score(self, value: int | None) -> None:
        if value is not None and (self.best_score is None or value < self.best_score):
            self.best_score = value

    def tick(self) -> None:
        if self.used >= self.limit or (
            self.deadline is not None and time.monotonic() > self.deadline
        ):
            raise _Stop
        self.used += 1


def _exhaustive(g: MultiGraph, counter: _Counter) -> FlagMap | None:
    per_vertex = []
    for darts in _dart_lists(g):
        head, rest = darts[0], darts[1:]
        per_vertex.append([(head, *p) for p in permutations(rest)])
    n_edges = g.edge_count
    n_flags = 4 * n_edges
    face, zigzag = PARTNER["f"], PARTNER["z"]
    tree = set(g.spanning_forest()[0])
    free = [e for e in range(n_edges) if e not in tree]
    # Sweep index i sets the twist of free[j] to bit j of i; i - 1 and i
    # differ in free[0 .. lowest set bit of i], which is toggles[bit_length].
    toggles = [free[:k] for k in range(len(free) + 1)]
    for rots in product(*per_vertex):
        alpha = _rotation_alpha(rots, 0, n_edges)
        for i in range(1 << len(free)):
            counter.tick()
            for e in toggles[(i & -i).bit_length()]:
                _toggle_twist(alpha, e)
            if _gon_length(alpha, face) == n_flags and _gon_length(alpha, zigzag) == n_flags:
                mask = sum(1 << e for j, e in enumerate(free) if (i >> j) & 1)
                return _winner(g, rots, mask)
    return None


def _random_rotations(g: MultiGraph, rng: random.Random) -> list[tuple[tuple[int, int], ...]]:
    rots = []
    for darts in _dart_lists(g):
        rest = darts[1:]
        rng.shuffle(rest)
        rots.append((darts[0], *rest))
    return rots


def _randomized(g: MultiGraph, counter: _Counter, rng: random.Random) -> FlagMap:
    """Random restarts plus local moves (swap two rotation entries or
    toggle one twist), accepting moves that do not increase f + z.  Runs
    until a candidate wins or the budget raises _Stop."""
    n_edges = g.edge_count
    swappable = [v for v, darts in enumerate(_dart_lists(g)) if len(darts) >= 3]

    def score(rots, mask) -> int:
        counter.tick()
        alpha = _rotation_alpha(rots, mask, n_edges)
        return gon_count(alpha, PARTNER["f"]) + gon_count(alpha, PARTNER["z"])

    rots: list[tuple[tuple[int, int], ...]] | None = None
    mask = 0
    best: int | None = None  # lowest f + z of the current restart
    stall = _RESTART_STALL + 1
    try:
        while True:
            if stall > _RESTART_STALL:
                counter.note_score(best)
                counter.restarts += 1
                rots = _random_rotations(g, rng)
                mask = rng.getrandbits(n_edges)
                best = score(rots, mask)
                if best == 2:
                    return _winner(g, rots, mask)
                stall = 0
                continue
            new_rots, new_mask = list(rots), mask
            if swappable and (not n_edges or rng.random() < 0.5):
                v = rng.choice(swappable)
                rot = list(new_rots[v])
                i, j = rng.sample(range(1, len(rot)), 2)
                rot[i], rot[j] = rot[j], rot[i]
                new_rots[v] = tuple(rot)
            else:
                new_mask ^= 1 << rng.randrange(n_edges)
            value = score(new_rots, new_mask)
            if value == 2:
                return _winner(g, new_rots, new_mask)
            if value <= best:
                stall = stall + 1 if value == best else 0
                rots, mask, best = new_rots, new_mask, value
            else:
                stall += 1
    finally:
        counter.note_score(best)


def search_embedding(
    g: MultiGraph,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
) -> SearchOutcome:
    """Look for a single-face-single-zigzag embedding of g or a subdivision.

    Subdivision patterns are explored in nondecreasing total count; each
    level is swept exhaustively when its candidate space is at most
    EXHAUSTIVE_LIMIT and sampled randomly otherwise (a randomized level
    consumes the remaining candidate budget).
    """
    if not g.is_connected():
        raise ValueError("search needs a connected graph")
    if g.edge_count == 0:
        raise ValueError("search needs at least one edge")
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    counter = _Counter(budget.max_candidates, deadline)
    rng = random.Random(seed)
    levels: list[tuple[tuple[int, ...], str, int, int]] = []

    def outcome(status: str, found: FlagMap | None = None, counts=None) -> SearchOutcome:
        best = 2 if found is not None else counter.best_score
        return SearchOutcome(status, found, counts, counter.used, seed,
                             tuple(levels), counter.restarts, best)

    try:
        for total in range(budget.max_subdivisions + 1):
            for combo in combinations_with_replacement(range(g.edge_count), total):
                per_edge = [0] * g.edge_count
                for e in combo:
                    per_edge[e] += 1
                counts = tuple(per_edge)
                sub = subdivide_graph(g, counts)
                used = counter.used
                count = candidate_count(sub)
                exhaustive = count <= EXHAUSTIVE_LIMIT
                space = count >> (sub.n - 1) if exhaustive else count
                try:
                    if exhaustive:
                        found = _exhaustive(sub, counter)
                    else:
                        found = _randomized(sub, counter, rng)
                finally:
                    mode = "exhaustive" if exhaustive else "randomized"
                    levels.append((counts, mode, counter.used - used, space))
                if found is not None:
                    return outcome("found", found, counts)
    except _Stop:
        return outcome("budget_exceeded")
    # Only exhaustive levels end without a winner or _Stop.
    return outcome("exhausted")

"""Oracles for the search's flat candidate evaluation and its one sweep.

The search scores a candidate on the flag involution list that
codec._rotation_alpha builds from (rotations, twist mask) and walks gons
with the canonical partners x ^ 3 (faces) and x ^ 2 (zigzags).  These
tests compare that list with embedding_to_map and with the original
pair-by-pair expansion kept below, compare the in-place twist toggles and
the per-tuple relinking of the exhaustive sweep with a rebuild, compare
the counts with gon_counts, pin whole search outcomes, check that
switching at a vertex leaves the gon counts alone and that reversing
every rotation or any set of loops does too, check how subdividing an
edge moves the face and zigzag counts, check that the zigzags are the
faces of the Petrie dual, check that one twist toggle moves the face and
zigzag counts by at most 1 (the premise of the sweep's prune), compare
the reduced sweep (tree twists fixed at 0, loops kept in one direction,
one tuple of each mirror pair) with a full sweep of every candidate and
every parity class and with the switching-only sweep it replaced, check
that a time limit cuts a sweep in the middle, compare the one sweep
with a copy of the level-by-level search it replaced, compare the
randomized phase's one flag list, edited in place, and its outcomes with
a copy of the rebuild-per-candidate phase it replaced, and compare the
count-only gon_count with gon_labels on the lists the search counts.
"""

from __future__ import annotations

import inspect
import random
import sys
import time
from itertools import combinations, combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path

import pytest

import mapcalc
from mapcalc import (
    FlagMap,
    MultiGraph,
    RotationSystem,
    SearchBudget,
    candidate_count,
    check_theorem4,
    embedding_to_map,
    gon_counts,
    gons,
    search_embedding,
    subdivide_graph,
    validate,
    write_gem,
)
from mapcalc import search
from mapcalc.codec import _rotation_alpha, _toggle_twist
from mapcalc.gem import PARTNER, gon_count, gon_labels
from mapcalc.search import _Counter, _dart_lists, _exhaustive, _gon_length, _sweep_plan, _winner_map

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import SearchSubdiv  # noqa: E402

FACE, ZIGZAG = PARTNER["f"], PARTNER["z"]

K4 = MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
K5 = MultiGraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
LOOP = MultiGraph(1, ((0, 0),))
THETA = MultiGraph(2, ((0, 1), (0, 1), (0, 1)))
PENDANT = MultiGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
BOUQUET2 = MultiGraph(1, ((0, 0), (0, 0)))
BOUQUETS = MultiGraph(2, ((0, 0),) * 4 + ((0, 1), (1, 1)))
SMALL = (LOOP, THETA, PENDANT, BOUQUET2, MultiGraph(2, ((0, 1),)), MultiGraph(2, ((0, 0), (0, 1))))


def random_multigraph(rng: random.Random) -> MultiGraph:
    """Connected: a random tree, then extra edges that may be loops or
    parallel edges; tree leaves that get no extra edge keep degree 1."""
    n = rng.randint(1, 6)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    extra = rng.randint(0 if n > 1 else 1, 5)
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    rng.shuffle(edges)
    return MultiGraph(n, tuple(edges))


def random_rotation_system(rng: random.Random, g: MultiGraph) -> tuple[RotationSystem, int]:
    rots = []
    for darts in _dart_lists(g):
        rng.shuffle(darts)
        rots.append(tuple(darts))
    mask = rng.getrandbits(g.edge_count)
    twists = frozenset(e for e in range(g.edge_count) if (mask >> e) & 1)
    return RotationSystem(g, tuple(rots), twists), mask


def all_rotation_systems(g: MultiGraph):
    """Every rotation system of g with first darts pinned, every twist mask."""
    per_vertex = [[(d[0], *p) for p in permutations(d[1:])] for d in _dart_lists(g)]
    for rots in product(*per_vertex):
        for mask in range(1 << g.edge_count):
            twists = frozenset(e for e in range(g.edge_count) if (mask >> e) & 1)
            yield RotationSystem(g, rots, twists), mask


def reference_embedding_map(rs: RotationSystem) -> FlagMap:
    """The original expansion: one (exit, entry) flag pair per dart."""
    pairs = []
    for rot in rs.rotations:
        k = len(rot)
        for i, (e, end) in enumerate(rot):
            if end == 0:
                exit_flag = 4 * e + 1
            else:
                exit_flag = 4 * e + 2 if e in rs.twists else 4 * e + 3
            e2, end2 = rot[(i + 1) % k]
            if end2 == 0:
                entry_flag = 4 * e2
            else:
                entry_flag = 4 * e2 + 3 if e2 in rs.twists else 4 * e2 + 2
            pairs.append((exit_flag, entry_flag))
    return FlagMap.from_pairs(rs.graph.edge_count, pairs)


def assert_flat_matches(rs: RotationSystem, mask: int) -> None:
    m = rs.graph.edge_count
    alpha = _rotation_alpha(rs.rotations, mask, m)
    map_ = embedding_to_map(rs)
    assert tuple(alpha) == map_.alpha
    assert map_ == reference_embedding_map(rs)
    f, z = gons(map_, "f").count, gons(map_, "z").count
    assert gon_counts(map_)[1:] == (f, z)
    assert (gon_count(alpha, FACE), gon_count(alpha, ZIGZAG)) == (f, z)
    assert (_gon_length(alpha, FACE) == 4 * m) == (f == 1)
    assert (_gon_length(alpha, ZIGZAG) == 4 * m) == (z == 1)


def test_flat_alpha_and_counts_on_random_rotation_systems():
    rng = random.Random(2003)
    for _ in range(2000):
        rs, mask = random_rotation_system(rng, random_multigraph(rng))
        assert_flat_matches(rs, mask)


@pytest.mark.parametrize("g", SMALL + (K4,), ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_flat_alpha_and_counts_on_every_candidate(g):
    for rs, mask in all_rotation_systems(g):
        assert_flat_matches(rs, mask)


def test_zigzags_are_the_faces_of_the_petrie_dual():
    """z(rot, t) = f(rot, t ^ 1...1): the Petrie dual twists every edge,
    and its faces are the zigzags of the original."""
    rng = random.Random(2020)
    for _ in range(3000):
        rs, mask = random_rotation_system(rng, random_multigraph(rng))
        m = rs.graph.edge_count
        petrie = mask ^ ((1 << m) - 1)
        assert (gon_count(_rotation_alpha(rs.rotations, mask, m), ZIGZAG)
                == gon_count(_rotation_alpha(rs.rotations, petrie, m), FACE))


def test_flat_alpha_skips_isolated_vertices():
    g = MultiGraph(3, ((0, 2), (2, 2)))
    rs = RotationSystem(g, (((0, 0),), (), ((0, 1), (1, 0), (1, 1))), frozenset({1}))
    assert_flat_matches(rs, 0b10)


# Degree-1 far ends: a lone dart (e, 1) pairs 4e+2 with 4e+3.
TOGGLE_GRAPHS = SMALL + (K4, MultiGraph(3, ((1, 0), (1, 2), (2, 2))))


@pytest.mark.parametrize("g", TOGGLE_GRAPHS, ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_twist_toggles_match_a_rebuild_on_every_candidate(g):
    """Binary counting order: from mask - 1 to mask, toggle edges
    0 .. (lowest set bit of mask), starting from the mask-0 list."""
    m = g.edge_count
    per_vertex = [[(d[0], *p) for p in permutations(d[1:])] for d in _dart_lists(g)]
    for rots in product(*per_vertex):
        alpha = _rotation_alpha(rots, 0, m)
        for mask in range(1 << m):
            for e in range((mask & -mask).bit_length()):
                _toggle_twist(alpha, e)
            assert alpha == _rotation_alpha(rots, mask, m)


@pytest.mark.parametrize("g", TOGGLE_GRAPHS, ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_gray_order_toggles_match_a_rebuild_on_every_candidate(g):
    """The exhaustive sweep's order: candidate i has mask i ^ (i >> 1) and
    differs from candidate i - 1 in the lowest set bit of i alone; the list
    starts at mask 1, which toggling edge 0 turns into mask 0."""
    m = g.edge_count
    per_vertex = [[(d[0], *p) for p in permutations(d[1:])] for d in _dart_lists(g)]
    for rots in product(*per_vertex):
        alpha = _rotation_alpha(rots, 1, m)
        for i in range(1 << m):
            _toggle_twist(alpha, (i & -i).bit_length() - 1 if i else 0)
            assert alpha == _rotation_alpha(rots, i ^ (i >> 1), m)


def test_twist_toggles_in_any_order_match_a_rebuild():
    rng = random.Random(5)
    for _ in range(500):
        g = random_multigraph(rng)
        rs, mask = random_rotation_system(rng, g)
        alpha = _rotation_alpha(rs.rotations, mask, g.edge_count)
        for _ in range(3):
            e = rng.randrange(g.edge_count)
            _toggle_twist(alpha, e)
            mask ^= 1 << e
            assert alpha == _rotation_alpha(rs.rotations, mask, g.edge_count)


def switch(rs: RotationSystem, v: int) -> RotationSystem:
    """Reverse v's rotation (first dart stays first) and toggle the twist
    of every non-loop edge at v."""
    rot = rs.rotations[v]
    rotations = list(rs.rotations)
    rotations[v] = (rot[0],) + tuple(reversed(rot[1:]))
    flipped = {e for e, _ in rot if len(set(rs.graph.edges[e])) == 2}
    return RotationSystem(rs.graph, tuple(rotations), rs.twists ^ frozenset(flipped))


def test_switching_preserves_gon_counts():
    rng = random.Random(1995)
    switched_non_loop = 0
    for _ in range(500):
        rs, _ = random_rotation_system(rng, random_multigraph(rng))
        want = gon_counts(embedding_to_map(rs))
        for _ in range(3):
            v = rng.randrange(rs.graph.n)
            new = switch(rs, v)
            switched_non_loop += new.twists != rs.twists
            assert gon_counts(embedding_to_map(new)) == want
            rs = new
    assert switched_non_loop > 100


def mirror(rotations):
    """Every rotation reversed, first dart first: switching at every vertex
    reverses every rotation and toggles each non-loop edge twice."""
    return tuple(rot[:1] + rot[:0:-1] for rot in rotations)


def vfz(alpha: list[int]) -> tuple[int, int, int]:
    return tuple(gon_count(alpha, PARTNER[kind]) for kind in "vfz")


def assert_same_gon_counts(rotations, others, m: int) -> int:
    """v, f and z of (rotations, a) and (others, a) agree for every twist
    mask a, so for every a ^ p; returns the number of masks checked."""
    alpha, other = _rotation_alpha(rotations, 1, m), _rotation_alpha(others, 1, m)
    for i in range(1 << m):  # mask i ^ (i >> 1), as in the sweep
        e = (i & -i).bit_length() - 1 if i else 0
        _toggle_twist(alpha, e)
        _toggle_twist(other, e)
        assert vfz(alpha) == vfz(other)
    return 1 << m


def test_switching_at_every_vertex_is_the_mirror():
    rng = random.Random(2001)
    for _ in range(200):
        rs, _ = random_rotation_system(rng, random_multigraph(rng))
        switched = rs
        for v in range(rs.graph.n):
            switched = switch(switched, v)
        assert switched.rotations == mirror(rs.rotations)
        assert switched.twists == rs.twists


def test_mirror_keeps_gon_counts_on_every_candidate_and_random_systems():
    """The premise of the sweep's mirror pin, on every candidate of the
    QUOTIENT_GRAPHS at levels 0 and 1 and on 1000 random rotation systems
    with every twist mask."""
    cases = mirrored_apart = 0
    for g in (sub for h in QUOTIENT_GRAPHS.values() for sub in levels_0_and_1(h)):
        per_vertex = [[(d[0], *p) for p in permutations(d[1:])] for d in _dart_lists(g)]
        for rots in product(*per_vertex):
            cases += assert_same_gon_counts(rots, mirror(rots), g.edge_count)
            mirrored_apart += mirror(rots) != rots
    rng = random.Random(1978)
    for _ in range(1000):
        rs, _ = random_rotation_system(rng, random_multigraph(rng))
        cases += assert_same_gon_counts(rs.rotations, mirror(rs.rotations), rs.graph.edge_count)
        mirrored_apart += mirror(rs.rotations) != rs.rotations
    assert cases > 100_000 and mirrored_apart > 1000


def test_mirror_oracle_sees_one_reversed_rotation():
    # Reversing one vertex's rotation alone, twists kept, is not a switch:
    # on K4 it changes the gon counts for some rotation system.
    changed = False
    for rs, mask in all_rotation_systems(K4):
        one = (mirror(rs.rotations[:1]) + rs.rotations[1:])
        if vfz(_rotation_alpha(one, mask, 6)) != vfz(_rotation_alpha(rs.rotations, mask, 6)):
            changed = True
            break
    assert changed


def reverse_loops(rotations, loops):
    """Swap the labels (e, 0) and (e, 1) of each edge e in loops."""
    swap = {(e, end): (e, 1 - end) for e in loops for end in (0, 1)}
    return tuple(tuple(swap.get(d, d) for d in rot) for rot in rotations)


def loops_of(g: MultiGraph) -> list[int]:
    return [e for e, (u, v) in enumerate(g.edges) if u == v]


def test_loop_reversal_keeps_gon_counts_on_every_candidate_and_random_systems():
    """The premise of the sweep's loop quotient: reversing loops, twists
    kept, relabels each reversed loop's flags by x ^ 2 (x ^ 3 when it is
    twisted), so v, f and z stay.  Checked with a seeded nonempty set of
    loops on every candidate of the QUOTIENT_GRAPHS with loops at levels 0
    and 1, and on 1000 random rotation systems with loops, with every
    twist mask."""
    rng = random.Random(1977)
    cases = systems = 0
    for g in (sub for h in QUOTIENT_GRAPHS.values() for sub in levels_0_and_1(h)):
        if loops := loops_of(g):
            per_vertex = [[(d[0], *p) for p in permutations(d[1:])] for d in _dart_lists(g)]
            for rots in product(*per_vertex):
                chosen = [e for e in loops if rng.getrandbits(1)] or loops
                cases += assert_same_gon_counts(rots, reverse_loops(rots, chosen), g.edge_count)
    while systems < 1000:  # at most 7 edges, 128 masks, to keep the test short
        rs, _ = random_rotation_system(rng, random_multigraph(rng))
        if (loops := loops_of(rs.graph)) and rs.graph.edge_count <= 7:
            systems += 1
            chosen = [e for e in loops if rng.getrandbits(1)] or loops
            cases += assert_same_gon_counts(rs.rotations, reverse_loops(rs.rotations, chosen),
                                            rs.graph.edge_count)
    assert cases > 40_000


def test_loop_reversal_oracle_sees_a_loop_end_moved():
    # Swapping the labels of a loop's dart (1, 1) and another edge's dart
    # (2, 1) at the same vertex moves the loop's end in the rotation: on
    # the digon with a loop it changes the gon counts of some candidate.
    # Swapping the two darts of one edge, loop or not, is a reversal and
    # changes none.
    g = QUOTIENT_GRAPHS["digon-loop"]
    changed = False
    for rs, mask in all_rotation_systems(g):
        wrong = tuple(tuple({(1, 1): (2, 1), (2, 1): (1, 1)}.get(d, d) for d in rot)
                      for rot in rs.rotations)
        want = vfz(_rotation_alpha(rs.rotations, mask, 3))
        changed |= vfz(_rotation_alpha(wrong, mask, 3)) != want
        for e in range(3):
            assert vfz(_rotation_alpha(reverse_loops(rs.rotations, [e]), mask, 3)) == want
    assert changed


def test_switching_oracle_sees_a_plain_twist_toggle():
    # Toggling one edge's twist without reversing the rotation is not a
    # switch: on K4 it changes the gon counts for some rotation system.
    changed = False
    for rs, _ in all_rotation_systems(K4):
        one = RotationSystem(K4, rs.rotations, rs.twists ^ {0})
        if gon_counts(embedding_to_map(one)) != gon_counts(embedding_to_map(rs)):
            changed = True
            break
    assert changed


def subdivided_embedding(g, rots, counts, twists):
    """Rotations and twist mask of subdivide_graph(g, counts) that carry g's
    rotations over: dart (e, 1) becomes the last segment's dart (s, 1), and
    each new degree-2 vertex joins the two segments that meet there.
    twists[e] lists the twists of e's segments, first segment first."""
    segments = []
    fresh = g.edge_count
    for e, k in enumerate(counts):
        segments.append([e] + list(range(fresh, fresh + k)))
        fresh += k
    sub_rots = [tuple((segments[e][-1], 1) if end else (e, 0) for e, end in rot)
                for rot in rots]
    mask = 0
    for e, segs in enumerate(segments):
        sub_rots += [((a, 1), (b, 0)) for a, b in zip(segs, segs[1:])]
        mask |= sum(bit << s for s, bit in zip(segs, twists[e]))
    return sub_rots, mask


def test_subdivision_moves_faces_by_twist_sums_and_zigzags_by_parity():
    # With t_e the XOR of e's segment twists and p_e = counts[e] mod 2:
    # f(sub) = f(g, t) and z(sub) = z(g, t ^ p).
    rng = random.Random(2003)
    for _ in range(1000):
        g = random_multigraph(rng)
        rots = []
        for darts in _dart_lists(g):
            rng.shuffle(darts)
            rots.append(tuple(darts))
        counts = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(g.edge_count))
        twists = [[rng.getrandbits(1) for _ in range(k + 1)] for k in counts]
        sub = subdivide_graph(g, counts)
        sub_rots, sub_mask = subdivided_embedding(g, rots, counts, twists)
        assert [sorted(rot) for rot in sub_rots] == _dart_lists(sub)
        summed = sum((sum(ts) & 1) << e for e, ts in enumerate(twists))
        parity = sum((k & 1) << e for e, k in enumerate(counts))
        sub_alpha = _rotation_alpha(sub_rots, sub_mask, sub.edge_count)
        assert gon_count(sub_alpha, FACE) == gon_count(
            _rotation_alpha(rots, summed, g.edge_count), FACE)
        assert gon_count(sub_alpha, ZIGZAG) == gon_count(
            _rotation_alpha(rots, summed ^ parity, g.edge_count), ZIGZAG)


# (name, seed, max_candidates, max_subdivisions, status, candidates,
#  subdivisions, alpha pairs of write_gem(map) joined on one line),
# recorded with the object-based evaluator that built a FlagMap and ran
# gons per candidate, except k4-seed0-sub0, recorded with the
# switching-reduced exhaustive sweep (tree twists fixed at 0), and
# loop-seed0-sub1, theta-seed0-sub2 and pendant-seed0-sub2, recorded with
# the one sweep of g that decides every subdivision level.  That sweep
# counts a candidate of g once, not once per subdivision pattern, so it
# uses fewer candidates, and its winners carry the twists of g.  The
# candidate counts of theta and pendant were re-recorded (16 -> 8, 4 -> 2,
# same maps) when the sweep came to keep one rotation of each mirror pair
# and sweep twists in Gray-code order.  bouquet4 was re-recorded (from
# budget_exceeded after 2000 candidates to found after 81) when the sweep
# came to keep one rotation per loop reversal, which cut its space from
# 40,320 to 5088.  k4 to bouquet4 end in the exhaustive sweep, k5 and
# bouquets in the randomized phase.
PINNED = [
    ("k4", 0, 100000, 0, "found", 2, (0, 0, 0, 0, 0, 0),
     "a 0 9 a 1 4 a 2 17 a 3 12 a 5 8 a 6 21 a 7 15 a 10 23 a 11 18 a 13 16 a 14 20 a 19 22"),
    ("loop", 0, 100000, 0, "exhausted", 2, None, None),
    ("loop", 0, 100000, 1, "found", 2, (1,), "a 0 7 a 1 6 a 2 4 a 3 5"),
    ("theta", 0, 100000, 2, "found", 8, (1, 0, 0),
     "a 0 9 a 1 4 a 2 13 a 3 12 a 5 8 a 6 10 a 7 15 a 11 14"),
    ("pendant", 0, 100000, 2, "found", 2, (1, 0, 0, 0),
     "a 0 11 a 1 10 a 2 17 a 3 16 a 4 19 a 5 18 a 6 8 a 7 13 a 9 12 a 14 15"),
    ("bouquet4", 0, 2000, 0, "found", 81, (0, 0, 0, 0),
     "a 0 15 a 1 8 a 2 7 a 3 14 a 4 13 a 5 10 a 6 11 a 9 12"),
    ("k5", 0, 2000, 0, "found", 14, (0,) * 10,
     "a 0 9 a 1 4 a 2 24 a 3 17 a 5 12 a 6 18 a 7 33 a 8 13 a 10 22 a 11 31 "
     "a 14 26 a 15 35 a 16 21 a 19 28 a 20 25 a 23 36 a 27 38 a 29 32 a 30 37 a 34 39"),
    ("k5", 1, 2000, 0, "found", 6, (0,) * 10,
     "a 0 5 a 1 8 a 2 21 a 3 24 a 4 13 a 6 19 a 7 29 a 9 12 a 10 30 a 11 36 "
     "a 14 26 a 15 35 a 16 25 a 17 20 a 18 32 a 22 31 a 23 37 a 27 39 a 28 33 a 34 38"),
    ("k5", 2, 2000, 0, "found", 15, (0,) * 10,
     "a 0 5 a 1 12 a 2 24 a 3 17 a 4 9 a 6 32 a 7 29 a 8 13 a 10 23 a 11 30 "
     "a 14 38 a 15 35 a 16 21 a 18 28 a 19 33 a 20 25 a 22 37 a 26 39 a 27 34 a 31 36"),
    ("bouquets", 0, 2000, 0, "budget_exceeded", 2000, None, None),
    ("bouquets", 1, 2000, 0, "budget_exceeded", 2000, None, None),
]
GRAPHS = {"k4": K4, "loop": LOOP, "theta": THETA, "pendant": PENDANT,
          "bouquet4": MultiGraph(1, ((0, 0),) * 4), "k5": K5, "bouquets": BOUQUETS}


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-seed{c[1]}-sub{c[3]}")
def test_pinned_search_outcomes(case):
    name, seed, max_candidates, max_subdivisions, status, candidates, subdivisions, pairs = case
    budget = SearchBudget(max_candidates=max_candidates, max_subdivisions=max_subdivisions)
    outcome = search_embedding(GRAPHS[name], budget, seed=seed)
    got_pairs = " ".join(write_gem(outcome.map).splitlines()[1:]) if outcome.map else None
    assert (outcome.status, outcome.candidates, outcome.subdivisions, got_pairs) == (
        status, candidates, subdivisions, pairs)


def test_pinned_family_reaches_both_phases():
    modes = set()
    for name, seed, max_candidates, max_subdivisions, *_ in PINNED:
        budget = SearchBudget(max_candidates=max_candidates, max_subdivisions=max_subdivisions)
        outcome = search_embedding(GRAPHS[name], budget, seed=seed)
        modes.add(outcome.mode)
    assert modes == {"exhaustive", "randomized"}


# Two loops joined by an edge need 2 subdivisions; three loops on a path
# need 3, so every limit up to 2 ends exhausted.
DUMBBELL = MultiGraph(2, ((0, 1), (1, 1), (0, 0)))
LOOPED_PATH = MultiGraph(3, ((0, 1), (1, 2), (2, 2), (0, 0), (1, 1)))

# Each graph is swept at subdivision levels 0 and 1 (every single-edge
# subdivision): loops, multi-edges, pendant edges, bouquets, theta and K4.
# In the dumbbell and the looped path, as in loop-pendant and digon-loop,
# no vertex has three darts off reversed loops, so the sweep splits its
# rotations on each vertex of degree >= 3 in turn.
QUOTIENT_GRAPHS = {"loop": LOOP, "theta": THETA, "pendant": PENDANT, "bouquet2": BOUQUET2,
                   "bouquet3": MultiGraph(1, ((0, 0),) * 3), "edge": MultiGraph(2, ((0, 1),)),
                   "loop-pendant": MultiGraph(2, ((0, 0), (0, 1))),
                   "digon-loop": MultiGraph(2, ((0, 1), (1, 1), (0, 1))), "k4": K4,
                   "dumbbell": DUMBBELL, "looped-path": LOOPED_PATH}


def levels_0_and_1(g: MultiGraph) -> list[MultiGraph]:
    subs = [g]
    for e in range(g.edge_count):
        counts = [0] * g.edge_count
        counts[e] = 1
        subs.append(subdivide_graph(g, tuple(counts)))
    return subs


def plan_of(g: MultiGraph):
    return _sweep_plan(g, g.spanning_forest()[0])


def tree_normal_form(rs: RotationSystem, tree: list[int]) -> RotationSystem:
    """Switch the vertices whose tree path from vertex 0 has an odd number
    of twisted edges; afterwards no tree edge is twisted."""
    g = rs.graph
    odd = {0: False}
    for _ in tree:
        for e in tree:
            u, v = g.edges[e]
            if (u in odd) != (v in odd):
                known, other = (u, v) if u in odd else (v, u)
                odd[other] = odd[known] ^ (e in rs.twists)
    for v in (v for v, flip in odd.items() if flip):
        rs = switch(rs, v)
    return rs


def reversed_loops(g: MultiGraph) -> list[int]:
    """The loops whose reversal the sweep quotients out: every loop, but
    the first one at a vertex whose darts all belong to loops (in a
    connected graph, only when n = 1), since that loop's (e, 0) is pinned."""
    loops = loops_of(g)
    return loops[1:] if g.n == 1 else loops


def orbit_key(rs: RotationSystem, tree: list[int], loops: list[int]) -> tuple[int, ...]:
    """The least flag list in the class of rs under switching and the
    reversal of the given loops.  Each class meets the tree normal form
    and its mirror (a switch at every vertex), and those two with every
    subset of the loops reversed are all of its members with no twisted
    tree edge.  Also checks that the normal form twists no tree edge."""
    rs = tree_normal_form(rs, tree)
    assert not rs.twists & set(tree)
    mask = sum(1 << e for e in rs.twists)
    m = rs.graph.edge_count
    return min(tuple(_rotation_alpha(reverse_loops(rots, subset), mask, m))
               for rots in (rs.rotations, mirror(rs.rotations))
               for k in range(len(loops) + 1) for subset in combinations(loops, k))


def sweep_trace(g: MultiGraph, monkeypatch, marker: str) -> list[tuple[tuple, tuple[int, ...]]]:
    """(rotation tuple, copy of the flag list) each time _exhaustive runs
    the line that contains marker.  The zigzag walk is reported short and
    no subdivision is allowed, so no candidate wins and every tuple is
    swept."""
    lines, first = inspect.getsourcelines(_exhaustive)
    traced = first + next(i for i, line in enumerate(lines) if marker in line)
    seen = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == traced:
            seen.append((frame.f_locals["rots"], tuple(frame.f_locals["alpha"])))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is _exhaustive.__code__ else None

    with monkeypatch.context() as patch:
        patch.setattr(search, "_gon_length", lambda alpha, partner: 0)
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            winner, swept = _exhaustive(g, plan_of(g), _Counter(10**9, None), 0)
        finally:
            sys.settrace(previous)
    assert (winner, swept) == (None, True)
    return seen


def reduced_sweep(g: MultiGraph, monkeypatch) -> list[tuple[int, ...]]:
    """The flag involution of every candidate _exhaustive visits, in order,
    copied each time the inline face walk's first line runs."""
    return [alpha for _, alpha in sweep_trace(g, monkeypatch, "# the face through flag 0")]


@pytest.mark.parametrize("name", QUOTIENT_GRAPHS)
def test_relinked_flag_list_matches_a_rebuild_on_every_tuple(name, monkeypatch):
    """Each rotation tuple's flag list, after the sweep links again only
    the darts of the vertices whose rotation changed, equals a rebuild with
    free[-1] twisted (edge 0 for a tree), the state in which a tuple's
    Gray-order sweep starts and ends."""
    for g in levels_0_and_1(QUOTIENT_GRAPHS[name]):
        free = plan_of(g)[1]
        entry = 1 << (free[-1] if free else 0)
        tuples = sweep_trace(g, monkeypatch, "previous = rots")
        assert len(tuples) == sum(prod(map(len, block)) for block in plan_of(g)[0])
        for rots, alpha in tuples:
            assert alpha == tuple(_rotation_alpha(rots, entry, g.edge_count))


def assert_spanning_tree(g: MultiGraph, tree: list[int]) -> None:
    """n - 1 edges that join every vertex to vertex 0; a loop joins nothing."""
    assert len(tree) == g.n - 1
    reached = {0}
    for _ in tree:
        reached |= {w for e in tree if reached & set(g.edges[e]) for w in g.edges[e]}
    assert reached == set(range(g.n))


def edge_sets(m: int, most: int):
    """Every set of at most `most` of m edges, as a bit mask."""
    for k in range(most + 1):
        for p in combinations(range(m), k):
            yield sum(1 << e for e in p)


@pytest.mark.parametrize("name", QUOTIENT_GRAPHS)
def test_reduced_sweep_matches_a_full_sweep(name, monkeypatch):
    """The reduced sweep visits exactly one candidate per class under
    switching and loop reversal and loses no parity class: with up to 2
    subdivisions it needs as few as the full sweep, where a candidate
    (rs, a) and a set p of edges to subdivide once count when f(a) = 1 and
    z(a ^ p) = 1."""
    for g in levels_0_and_1(QUOTIENT_GRAPHS[name]):
        m = g.edge_count
        tree = g.spanning_forest()[0]
        assert_spanning_tree(g, tree)
        loops = reversed_loops(g)
        visited = reduced_sweep(g, monkeypatch)
        orbit_of = {}
        full_found = False
        full_fewest = None
        for rs, mask in all_rotation_systems(g):
            alpha = _rotation_alpha(rs.rotations, mask, m)
            fz = (gon_count(alpha, FACE), gon_count(alpha, ZIGZAG))
            full_found |= fz == (1, 1)
            if fz[0] == 1:
                for p in edge_sets(m, 2):
                    if gon_count(_rotation_alpha(rs.rotations, mask ^ p, m), ZIGZAG) == 1:
                        k = bin(p).count("1")
                        full_fewest = k if full_fewest is None else min(full_fewest, k)
                        break
            key = orbit_key(rs, tree, loops)
            assert (gon_count(list(key), FACE), gon_count(list(key), ZIGZAG)) == fz
            orbit_of[tuple(alpha)] = key
        visited_orbits = [orbit_of[alpha] for alpha in visited]
        assert len(set(visited_orbits)) == len(visited)  # no class twice
        assert set(visited_orbits) == set(orbit_of.values())  # every class
        winner, _ = _exhaustive(g, plan_of(g), _Counter(10**9, None), 0)
        assert (winner is not None) == full_found
        winner, _ = _exhaustive(g, plan_of(g), _Counter(10**9, None), 2)
        assert (len(winner[2]) if winner else None) == full_fewest
        if winner:
            found, counts = _winner_map(g, winner)
            assert sum(counts) == full_fewest
            assert validate(found).ok
            assert gon_counts(found)[1:] == (1, 1)


def assert_one_toggle_moves_gons_by_at_most_one(rotations, mask: int, m: int) -> int:
    """Returns how many single toggles changed the zigzag count."""
    alpha = _rotation_alpha(rotations, mask, m)
    f, z = gon_count(alpha, FACE), gon_count(alpha, ZIGZAG)
    moved = 0
    for e in range(m):
        toggled = _rotation_alpha(rotations, mask ^ 1 << e, m)
        assert abs(gon_count(toggled, FACE) - f) <= 1
        assert abs(gon_count(toggled, ZIGZAG) - z) <= 1
        moved += gon_count(toggled, ZIGZAG) != z
    return moved


def test_one_twist_toggle_moves_faces_and_zigzags_by_at_most_one():
    """The premise of the sweep's prune: z(a ^ p) >= z(a) - |p|."""
    rng = random.Random(1978)
    moved = 0
    for _ in range(1000):
        rs, mask = random_rotation_system(rng, random_multigraph(rng))
        m = rs.graph.edge_count
        moved += assert_one_toggle_moves_gons_by_at_most_one(rs.rotations, mask, m)
    assert moved > 100


@pytest.mark.parametrize("g", SMALL + (K4,), ids=lambda g: f"n{g.n}-e{g.edge_count}")
def test_one_twist_toggle_moves_gons_by_at_most_one_on_every_candidate(g):
    for rs, mask in all_rotation_systems(g):
        assert_one_toggle_moves_gons_by_at_most_one(rs.rotations, mask, g.edge_count)


def level_by_level_search(g: MultiGraph, max_subdivisions: int) -> int | None:
    """The fewest total subdivisions with an f = z = 1 embedding, or None,
    as the search found it before one sweep decided every level: patterns
    of counts (2 on one edge included) in nondecreasing total, each
    subdivided graph swept in full, with no switching quotient.  It stops
    at the first level with a winner, so at a lower limit it finds the
    same total, or None when that total is above the limit."""
    for total in range(max_subdivisions + 1):
        for combo in combinations_with_replacement(range(g.edge_count), total):
            sub = subdivide_graph(g, tuple(combo.count(e) for e in range(g.edge_count)))
            for rs, mask in all_rotation_systems(sub):
                alpha = _rotation_alpha(rs.rotations, mask, sub.edge_count)
                if gon_count(alpha, FACE) == 1 and gon_count(alpha, ZIGZAG) == 1:
                    return total
    return None


def assert_found_map(g: MultiGraph, outcome) -> None:
    assert len(outcome.subdivisions) == g.edge_count
    assert set(outcome.subdivisions) <= {0, 1}
    assert outcome.map.m == g.edge_count + sum(outcome.subdivisions)
    assert validate(outcome.map).ok
    assert gon_counts(outcome.map)[1:] == (1, 1)
    claim4 = check_theorem4(outcome.map)
    assert claim4.applicable and claim4.holds


def small_random_graphs(count: int, seed: int) -> list[MultiGraph]:
    """Distinct connected multigraphs whose level-2 subdivisions stay small
    enough to sweep in full."""
    rng = random.Random(seed)
    graphs: list[MultiGraph] = []
    while len(graphs) < count:
        n = rng.randint(1, 4)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n == 1, 4))]
        g = MultiGraph(n, tuple(edges))
        if candidate_count(g) <= 256 and g not in graphs:
            graphs.append(g)
    return graphs


DIFFERENTIAL_GRAPHS = {**QUOTIENT_GRAPHS,
                       **{f"random{i}": g for i, g in enumerate(small_random_graphs(16, 2003))}}


@pytest.mark.parametrize("name", DIFFERENTIAL_GRAPHS)
def test_one_sweep_agrees_with_the_level_by_level_search(name):
    g = DIFFERENTIAL_GRAPHS[name]
    fewest = level_by_level_search(g, 2)
    for max_subdivisions in (0, 1, 2):
        want = None if fewest is None or fewest > max_subdivisions else fewest
        budget = SearchBudget(max_candidates=10**9, max_subdivisions=max_subdivisions)
        outcome = search_embedding(g, budget)
        assert outcome.mode == "exhaustive"
        if want is None:
            assert (outcome.status, outcome.candidates) == ("exhausted", outcome.space)
        else:
            assert outcome.status == "found"
            assert sum(outcome.subdivisions) == want
            assert_found_map(g, outcome)


def switching_only_plan(g: MultiGraph):
    """The sweep plan before loop reversal, kept as an oracle: each vertex
    pins its smallest dart, and the last vertex of degree >= 3 keeps one
    rotation of each mirror pair, r[1] < r[-1]; one block."""
    per_vertex = [[(d[0], *p) for p in permutations(d[1:])] for d in _dart_lists(g)]
    for rots in reversed(per_vertex):
        if len(rots[0]) >= 3:
            rots[:] = [r for r in rots if r[1] < r[-1]]
            break
    tree = set(g.spanning_forest()[0])
    return [per_vertex], [e for e in range(g.edge_count) if e not in tree]


def looped_random_graphs(count: int, seed: int) -> list[MultiGraph]:
    """Distinct connected multigraphs, each extra edge a loop half the
    time, with candidate_count <= 40,000 so that both sweeps stay short."""
    rng = random.Random(seed)
    graphs: list[MultiGraph] = []
    while len(graphs) < count:
        n = rng.randint(1, 5)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(n == 1, 4)):
            u = rng.randrange(n)
            edges.append((u, u) if rng.random() < 0.5 else (u, rng.randrange(n)))
        g = MultiGraph(n, tuple(edges))
        if candidate_count(g) <= 40_000 and g not in graphs:
            graphs.append(g)
    return graphs


def test_loop_reversal_sweep_agrees_with_the_switching_only_sweep():
    """On 320 random multigraphs, most with loops, at limits 0 to 3 with no
    budget cut, the sweep and the switching-only sweep agree on whether a
    winner exists and on its fewest subdivisions; every winner map
    validates, has f = z = 1 and satisfies claim 4."""
    graphs = looped_random_graphs(320, 1979)
    assert sum(bool(loops_of(g)) for g in graphs) > 200
    levels = set()
    for g in graphs:
        for limit in range(4):
            new, swept = _exhaustive(g, plan_of(g), _Counter(10**9, None), limit)
            old, old_swept = _exhaustive(g, switching_only_plan(g), _Counter(10**9, None), limit)
            assert swept and old_swept
            assert (len(new[2]) if new else None) == (len(old[2]) if old else None)
            if new:
                levels.add(len(new[2]))
                found, _ = _winner_map(g, new)
                assert validate(found).ok
                assert gon_counts(found)[1:] == (1, 1)
                claim4 = check_theorem4(found)
                assert claim4.applicable and claim4.holds
    assert levels == {0, 1, 2, 3}


# No embedding with one face and one zigzag, and no loop to reverse; its
# sweep of 27,648 candidates (5 free edges, 864 rotation tuples) takes
# about 0.025 s on a 2-vCPU Xeon with Python 3.11.  No loop-free graph
# with a larger exhausted sweep turned up in random searches over
# multigraphs on 2 to 7 vertices.
SLOW_SWEEP = MultiGraph(5, ((0, 1), (0, 3), (1, 2), (1, 2), (1, 2), (1, 2), (3, 4), (3, 4), (3, 4)))


def test_time_limit_cuts_a_sweep_in_the_middle():
    """The deadline is checked once per rotation tuple, when the tuple's
    candidates are drawn, so a short limit ends the sweep part way."""
    full = search_embedding(SLOW_SWEEP, SearchBudget(max_candidates=10**6))
    assert (full.status, full.mode, full.candidates, full.space) == (
        "exhausted", "exhaustive", 27_648, 27_648)
    start = time.monotonic()
    cut = search_embedding(SLOW_SWEEP, SearchBudget(max_candidates=10**6, time_limit=0.001))
    assert time.monotonic() - start < 0.5
    assert (cut.status, cut.map) == ("budget_exceeded", None)
    assert 0 < cut.candidates < cut.space == full.space


def test_budget_cut_mid_tuple_counts_what_was_visited():
    """A budget that ends inside a rotation tuple (2^5 twist masks here)
    visits exactly that many candidates, as a winner mid-tuple does."""
    for limit in (1, 31, 33, 1000):
        cut = search_embedding(SLOW_SWEEP, SearchBudget(max_candidates=limit))
        assert (cut.status, cut.candidates) == ("budget_exceeded", limit)
    k4 = search_embedding(K4, SearchBudget(max_candidates=1000))
    assert (k4.status, k4.candidates) == ("found", 2)


def test_budget_cut_after_a_winner_is_found():
    """Theta's first candidate wins with 2 subdivisions and its second with
    1, the fewest; a budget of 1 candidate keeps the first."""
    assert level_by_level_search(THETA, 2) == 1
    cut = search_embedding(THETA, SearchBudget(max_candidates=1, max_subdivisions=2))
    assert (cut.status, cut.candidates, cut.subdivisions) == ("found", 1, (1, 1, 0))
    assert_found_map(THETA, cut)
    full = search_embedding(THETA, SearchBudget(max_candidates=2, max_subdivisions=2))
    assert (full.status, full.candidates, full.subdivisions) == ("found", 2, (1, 0, 0))


def rebuilding_randomized(g: MultiGraph, counter: _Counter, rng: random.Random,
                          visited: list[list[int]]):
    """search._randomized as it was before it kept one flag list per
    restart: each candidate's list is built anew by _rotation_alpha from a
    copy of the rotations, and appended to visited.  Returns (rotations,
    twist mask) of the winner, or None."""
    n_edges = g.edge_count
    dart_lists = _dart_lists(g)
    swappable = [v for v, darts in enumerate(dart_lists) if len(darts) >= 3]
    rots, mask = [], 0
    best = None
    stall = search._RESTART_STALL + 1
    while True:
        restart = stall > search._RESTART_STALL
        if restart:
            counter.restarts += 1
            new_rots = []
            for darts in dart_lists:
                rest = darts[1:]
                rng.shuffle(rest)
                new_rots.append((darts[0], *rest))
            new_mask = rng.getrandbits(n_edges)
        else:
            new_rots, new_mask = list(rots), mask
            if swappable and rng.random() < 0.5:
                v = rng.choice(swappable)
                rot = list(new_rots[v])
                i, j = rng.sample(range(1, len(rot)), 2)
                rot[i], rot[j] = rot[j], rot[i]
                new_rots[v] = tuple(rot)
            else:
                new_mask ^= 1 << rng.randrange(n_edges)
        if not counter.draw(1):
            return None
        alpha = _rotation_alpha(new_rots, new_mask, n_edges)
        visited.append(alpha)
        value = gon_labels(alpha, FACE)[0] + gon_labels(alpha, ZIGZAG)[0]
        if value == 2:
            return new_rots, new_mask
        if restart or value <= best:
            stall = 0 if restart or value < best else stall + 1
            rots, mask, best = new_rots, new_mask, value
            if counter.best_score is None or value < counter.best_score:
                counter.best_score = value
        else:
            stall += 1


def test_randomized_phase_matches_a_rebuild_per_candidate(monkeypatch):
    """With every graph sent to the randomized phase, the flag list that
    it edits in place is, at every candidate, the list that a rebuild from
    that candidate's rotations and twists gives, and each outcome is the
    one the rebuilding copy above reaches: 300 seeded multigraphs, with
    swaps and twists rejected and undone, restarts, winners and budget
    cuts among them."""
    monkeypatch.setattr(search, "EXHAUSTIVE_LIMIT", 0)
    held: list[list[int]] = []

    def scored(alpha, partner):
        if partner == FACE:
            held.append(list(alpha))
        return gon_count(alpha, partner)

    monkeypatch.setattr(search, "gon_count", scored)
    rng = random.Random(35)
    budget = SearchBudget(max_candidates=600)
    found = restarted = cut = 0
    for seed in range(300):
        g = random_multigraph(rng)
        held.clear()
        outcome = search_embedding(g, budget, seed=seed)
        counter = _Counter(budget.max_candidates, None)
        rebuilt: list[list[int]] = []
        winner = rebuilding_randomized(g, counter, random.Random(seed), rebuilt)
        assert held == rebuilt
        if winner is None:
            expected = None
        else:
            rots, mask = winner
            twists = {e for e in range(g.edge_count) if (mask >> e) & 1}
            expected = embedding_to_map(RotationSystem(g, rots, twists))
        assert (outcome.map, outcome.candidates, outcome.restarts, outcome.best_score) == (
            expected, counter.used, counter.restarts, 2 if winner else counter.best_score)
        found += winner is not None
        restarted += counter.restarts > 1
        cut += winner is None
    assert found > 100 and restarted > 10 and cut > 10


def test_search_counts_gons_as_the_labelled_walk_on_the_pool(monkeypatch):
    """On every flag list that the search counts gons on with gem.gon_count
    on the search-subdiv pool graphs, the count-only walk counts what
    gon_labels labels, for each partner: the searches of the benchmark, in
    both phases, then the first 200 candidates of the randomized phase on
    every pool graph."""
    calls = []

    def compared(alpha, partner):
        calls.append(partner)
        for p in PARTNER.values():
            assert gon_count(alpha, p) == gon_labels(alpha, p)[0]
        return gon_count(alpha, partner)

    monkeypatch.setattr(search, "gon_count", compared)
    workload = SearchSubdiv()
    pool = workload.build(mapcalc, 0)
    modes = {workload.item(mapcalc, g, seed).mode for g, seed in pool}
    assert modes == {"exhaustive", "randomized"} and len(calls) > 400
    monkeypatch.setattr(search, "EXHAUSTIVE_LIMIT", 0)
    for g, seed in pool:
        search_embedding(g, SearchBudget(max_candidates=200), seed=seed)
    assert len(calls) > 10_000

"""Unit tests for bond and cycle spaces against brute-force enumeration."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import (
    all_cuts,
    fundamental_cycles,
    is_even_subgraph,
    k33_map,
    members,
    random_connected_graph,
)
from mapcalc import (
    Gf2Subspace,
    MultiGraph,
    bond_of,
    bond_space,
    cycle_space,
    enumerate_maps,
    induced_graph,
    projective_loop_map,
    space_bundle,
    sphere_loop_map,
)
from mapcalc import spaces

TRIANGLE = MultiGraph(3, ((0, 1), (1, 2), (2, 0)))


def test_bond_of_triangle_corner():
    assert bond_of(TRIANGLE, {0}).edges() == (0, 2)
    assert bond_of(TRIANGLE, {0, 1}).edges() == (1, 2)
    assert bond_of(TRIANGLE, set()).bits == 0
    assert bond_of(TRIANGLE, {0, 1, 2}).bits == 0
    with pytest.raises(ValueError):
        bond_of(TRIANGLE, {3})


@pytest.mark.parametrize("vertex", [1.5, "a"])
def test_bond_of_names_a_vertex_that_is_not_an_integer(vertex):
    """A float is not taken as a vertex outside every edge, which gave the
    empty cut, and a string does not raise a bare TypeError; bools are 0
    and 1."""
    with pytest.raises(ValueError, match=f"^expected an integer, got {vertex!r}$"):
        bond_of(TRIANGLE, {vertex})
    assert bond_of(TRIANGLE, {True}) == bond_of(TRIANGLE, {1})


def test_loops_never_in_bonds():
    g = MultiGraph(2, ((0, 1), (0, 0)))
    assert bond_of(g, {0}).edges() == (0,)
    assert all(not x & 0b10 for x in members(bond_space(g)))


def test_triangle_spaces():
    b = bond_space(TRIANGLE)
    c = cycle_space(TRIANGLE)
    assert b.dim == 2 and c.dim == 1
    assert members(c) == {0, 0b111}


def test_disconnected_graph_rejected():
    g = MultiGraph(2, ())
    with pytest.raises(ValueError):
        bond_space(g)
    with pytest.raises(ValueError):
        cycle_space(g)
    with pytest.raises(ValueError):
        bond_space(MultiGraph(3, ((0, 1), (1, 0), (2, 2))))


def count_tree_walks(monkeypatch) -> list[MultiGraph]:
    """The graphs whose spanning tree the cycle-space check walks, in call
    order; a walk of the all-edge forest fails the test."""
    walks = []
    forest = MultiGraph.spanning_forest

    def counted(self, among=None):
        if among is None:
            raise AssertionError("the cycle-space check walks no all-edge forest")
        walks.append(self)
        return forest(self, among)

    monkeypatch.setattr(MultiGraph, "spanning_forest", counted)
    return walks


def test_cycle_space_walks_the_spanning_forest_once(monkeypatch):
    """bond_space tells connectivity from its own dimension, so the only
    walk is the check's walk of the spanning tree that the perp leaves; a
    disconnected graph still raises ValueError, before any walk."""
    walks = count_tree_walks(monkeypatch)
    assert cycle_space(TRIANGLE).dim == 1
    assert walks == [TRIANGLE]
    with pytest.raises(ValueError, match="bond and cycle spaces need a connected graph"):
        cycle_space(MultiGraph(3, ((0, 1), (1, 0), (2, 2))))
    assert walks == [TRIANGLE]


def test_bond_spaces_of_a_bundle_walk_no_forest(monkeypatch):
    """The absorption checks read only bond spaces, so a bundle walks a
    graph's tree only when that graph's cycle space is read, and once."""
    walks = count_tree_walks(monkeypatch)
    bundle = space_bundle(k33_map())
    assert (bundle.vertex_bonds.dim, bundle.face_bonds.dim, bundle.zigzag_bonds.dim) == (5, 3, 0)
    assert walks == []
    assert bundle.vertex_cycles.dim == 4
    assert bundle.vertex_cycles.dim == 4
    assert walks == [bundle.vertex_graph]


def test_tree_cycles_needs_a_spanning_tree():
    """n - 1 edges that close a cycle and miss a vertex, or a wrong number
    of edges, are no spanning tree; a spanning tree gives one fundamental
    cycle per other edge, in edge order, loops as themselves."""
    g = MultiGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 3)))
    assert spaces._tree_cycles(g, 0b00111) is None
    assert spaces._tree_cycles(g, 0b00011) is None
    assert spaces._tree_cycles(g, 0b01111) is None
    assert spaces._tree_cycles(g, 0b01011) == (0b00111, 0b10000)
    assert spaces._tree_cycles(MultiGraph(1, ((0, 0),)), 0) == (0b1,)


def containment_oracle(g: MultiGraph, space: Gf2Subspace) -> bool:
    """The cross-check the tree equality replaced: the space has the
    connected-graph dimension and holds every fundamental cycle of the
    breadth-first forest."""
    cycles = fundamental_cycles(g)
    return (len(cycles) == space.dim == g.edge_count - g.n + 1
            and all(map(space.contains, cycles)))


def tree_check_accepts(g: MultiGraph, space: Gf2Subspace) -> bool:
    try:
        return spaces._checked_cycle_space(g, space) is space
    except AssertionError:
        return False


def oracle_graph(rng: random.Random, i: int) -> MultiGraph:
    """Connected multigraph with up to 40 edges; every fifth is a tree and
    every seventh has one vertex, the rest mix loops and parallel bundles."""
    n = 1 if i % 7 == 0 else rng.randint(2, 12)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if i % 5:
        size = rng.randint(n, 40)
        while len(edges) < size:
            kind = rng.random()
            if kind < 0.2:
                w = rng.randrange(n)
                edges.append((w, w))
            elif kind < 0.45 and edges:
                edges += [rng.choice(edges)] * rng.randint(1, 3)
            else:
                edges.append((rng.randrange(n), rng.randrange(n)))
        edges = edges[:40]
    rng.shuffle(edges)
    return MultiGraph(n, tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges))


def test_tree_check_accepts_exactly_what_containment_accepts():
    """On 600 seeded multigraphs, the tree equality and the containment
    oracle agree on the cycle space and on canonical spaces near it: one
    row dropped, one vector added, a row replaced, a random subspace of the
    cycle space's dimension, the bond space, and the perp of the bond
    space with one extra cut."""
    rng = random.Random(2300)
    accepted = rejected = 0
    kinds = Counter()
    for i in range(600):
        g = oracle_graph(rng, i)
        m = g.edge_count
        kinds["loops"] += any(u == v for u, v in g.edges)
        kinds["parallel"] += len(set(g.edges) | {(v, u) for u, v in g.edges}) < 2 * m
        kinds["single vertex"] += g.n == 1
        kinds["tree"] += m == g.n - 1
        bonds = bond_space(g)
        cycles = bonds.perp()
        candidates = [cycles, bonds, Gf2Subspace.span(m, cycles.rows[1:])]
        if m:
            extra = rng.getrandbits(m)
            candidates.append(Gf2Subspace.span(m, cycles.rows + (extra,)))
            candidates.append(Gf2Subspace.span(m, (rng.getrandbits(m) for _ in range(cycles.dim))))
            candidates.append(bonds.sum(Gf2Subspace.span(m, [extra])).perp())
        if cycles.dim:
            k = rng.randrange(cycles.dim)
            rows = cycles.rows[:k] + (rng.getrandbits(m),) + cycles.rows[k + 1:]
            candidates.append(Gf2Subspace.span(m, rows))
        for space in candidates:
            verdict = containment_oracle(g, space)
            assert tree_check_accepts(g, space) is verdict
            accepted += verdict
            rejected += not verdict
    assert accepted >= 600 and rejected >= 1500
    assert min(kinds.values()) >= 80


def star_oracle(g: MultiGraph) -> Gf2Subspace:
    """Span of the single-vertex cuts, one bond_of call per vertex."""
    return Gf2Subspace.span(g.edge_count, (bond_of(g, {v}) for v in range(g.n)))


def random_multigraph(rng: random.Random) -> MultiGraph:
    """Connected multigraph on 1..7 vertices: a random tree, then random
    edges, loops and parallel copies, in random order and orientation."""
    n = rng.randint(1, 7)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 4)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    for _ in range(rng.randint(0, 2)):
        w = rng.randrange(n)
        edges.append((w, w))
    for _ in range(rng.randint(0, 2)):
        if edges:
            edges.append(rng.choice(edges))
    rng.shuffle(edges)
    return MultiGraph(n, tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges))


def test_one_pass_stars_match_bond_of_on_random_multigraphs():
    rng = random.Random(41)
    loops = parallels = 0
    for _ in range(300):
        g = random_multigraph(rng)
        assert bond_space(g) == star_oracle(g)
        loops += any(u == v for u, v in g.edges)
        parallels += len(set(map(frozenset, g.edges))) < g.edge_count
    assert loops >= 100 and parallels >= 100


def test_one_pass_stars_match_bond_of_on_census_graphs():
    for m in (1, 2, 3):
        for map_ in enumerate_maps(m):
            for kind in ("v", "f", "z"):
                g = induced_graph(map_, kind)
                assert bond_space(g) == star_oracle(g)


def test_bond_space_matches_cut_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng)
        assert members(bond_space(g)) == all_cuts(g)


def test_cycle_space_matches_even_subgraphs():
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_graph(rng)
        assert members(cycle_space(g)) == {
            bits for bits in range(1 << g.edge_count) if is_even_subgraph(g, bits)
        }


def test_spaces_are_orthogonal_complements():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_graph(rng)
        b, c = bond_space(g), cycle_space(g)
        assert b.dim + c.dim == g.edge_count
        assert all((x & y).bit_count() % 2 == 0 for x in b.rows for y in c.rows)
        assert b.perp() == c and c.perp() == b


def test_bundle_dims_on_small_maps():
    assert space_bundle(sphere_loop_map()).dims() == (0, 1, 1, 0, 0, 1)
    assert space_bundle(projective_loop_map()).dims() == (0, 1, 0, 1, 1, 0)
    assert space_bundle(k33_map()).dims() == (5, 4, 3, 6, 0, 9)


def test_bundle_universe_is_edge_count():
    bundle = space_bundle(k33_map())
    assert bundle.m == 9
    assert bundle.vertex_bonds.m == 9
    assert bundle.zigzag_cycles.dim == 9

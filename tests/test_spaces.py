"""Unit tests for bond and cycle spaces against brute-force enumeration."""

from __future__ import annotations

import random

import pytest

from conftest import all_cuts, is_even_subgraph, k33_map, members, random_connected_graph
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

TRIANGLE = MultiGraph(3, ((0, 1), (1, 2), (2, 0)))


def test_bond_of_triangle_corner():
    assert bond_of(TRIANGLE, {0}).edges() == (0, 2)
    assert bond_of(TRIANGLE, {0, 1}).edges() == (1, 2)
    assert bond_of(TRIANGLE, set()).bits == 0
    assert bond_of(TRIANGLE, {0, 1, 2}).bits == 0
    with pytest.raises(ValueError):
        bond_of(TRIANGLE, {3})


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


def test_cycle_space_walks_the_spanning_forest_once(monkeypatch):
    """bond_space tells connectivity from its own dimension, so the only
    walk is the one for the fundamental cycles; a disconnected graph still
    raises ValueError, before any walk."""
    walks = []
    forest = MultiGraph.spanning_forest

    def counted(self):
        walks.append(self)
        return forest(self)

    monkeypatch.setattr(MultiGraph, "spanning_forest", counted)
    assert cycle_space(TRIANGLE).dim == 1
    assert walks == [TRIANGLE]
    with pytest.raises(ValueError, match="bond and cycle spaces need a connected graph"):
        cycle_space(MultiGraph(3, ((0, 1), (1, 0), (2, 2))))
    assert walks == [TRIANGLE]


def test_bond_spaces_of_a_bundle_walk_no_forest(monkeypatch):
    """The absorption checks read only bond spaces, so a bundle walks a
    graph's forest only when that graph's cycle space is read."""
    walks = []
    forest = MultiGraph.spanning_forest

    def counted(self):
        walks.append(self)
        return forest(self)

    monkeypatch.setattr(MultiGraph, "spanning_forest", counted)
    bundle = space_bundle(k33_map())
    assert (bundle.vertex_bonds.dim, bundle.face_bonds.dim, bundle.zigzag_bonds.dim) == (5, 3, 0)
    assert walks == []
    assert bundle.vertex_cycles.dim == 4
    assert walks == [bundle.vertex_graph]


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

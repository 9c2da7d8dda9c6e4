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
    random_signed_word,
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
    zigzag_map_from_word,
)

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
    """The graphs whose spanning tree cycle_space walks, in call order; a
    walk of the all-edge forest fails the test."""
    walks = []
    forest = MultiGraph.spanning_forest

    def counted(self, among=None):
        if among is None:
            raise AssertionError("cycle_space walks no all-edge forest")
        walks.append(self)
        return forest(self, among)

    monkeypatch.setattr(MultiGraph, "spanning_forest", counted)
    return walks


def test_cycle_space_walks_the_spanning_forest_once(monkeypatch):
    """Kruskal's union-find tells connectivity, so the only walk is the
    one of the maximum-id spanning tree; a disconnected graph raises
    ValueError before any walk."""
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


def test_kruskal_cycles_of_loops_bundles_and_disconnected_graphs():
    """The highest id of each parallel bundle joins the tree and every
    other edge closes its cycle through it; loops are their own cycles; a
    graph with two components is refused before any walk."""
    cases = [
        (MultiGraph(1, ()), ()),
        (MultiGraph(1, ((0, 0),) * 3), (0b001, 0b010, 0b100)),
        (MultiGraph(2, ((0, 1), (1, 0), (0, 1))), (0b101, 0b110)),
        (MultiGraph(3, ((0, 1), (1, 2), (0, 1), (2, 1), (1, 0))), (0b10001, 0b01010, 0b10100)),
        (MultiGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 3))), (0b00111, 0b10000)),
    ]
    for g, rows in cases:
        assert cycle_space(g) == Gf2Subspace(g.edge_count, rows) == bond_space(g).perp()
    for g in (MultiGraph(2, ()), MultiGraph(3, ((0, 1), (1, 0), (2, 2))),
              MultiGraph(4, ((0, 1), (2, 3), (1, 0), (3, 2)))):
        with pytest.raises(ValueError, match="^bond and cycle spaces need a connected graph$"):
            cycle_space(g)


def containment_oracle(g: MultiGraph, space: Gf2Subspace) -> bool:
    """The space has the connected-graph dimension and holds every
    fundamental cycle of the breadth-first forest."""
    cycles = fundamental_cycles(g)
    return (len(cycles) == space.dim == g.edge_count - g.n + 1
            and all(map(space.contains, cycles)))


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


def differential_graphs():
    """Every graph of every map with m <= 3, the 600 seeded oracle graphs,
    and the graphs of seeded single-zigzag maps up to m = 350."""
    for m in (1, 2, 3):
        for map_ in enumerate_maps(m):
            for kind in "vfz":
                yield induced_graph(map_, kind)
    rng = random.Random(2300)
    for i in range(600):
        yield oracle_graph(rng, i)
    for m in (4, 9, 31, 63, 64, 65, 128, 250, 301, 350):
        map_ = zigzag_map_from_word(random_signed_word(rng, m))
        for kind in "vfz":
            yield induced_graph(map_, kind)


def test_cycle_space_is_the_perp_of_the_bond_space():
    """The tree-built basis equals the perp of the stars' RREF, row for
    row, and holds every fundamental cycle of the breadth-first forest."""
    kinds = Counter()
    for g in differential_graphs():
        cycles = cycle_space(g)
        assert cycles == bond_space(g).perp()
        assert containment_oracle(g, cycles)
        kinds["graphs"] += 1
        kinds["loops"] += any(u == v for u, v in g.edges)
        kinds["parallel"] += len(set(map(frozenset, g.edges))) < g.edge_count
        kinds["single vertex"] += g.n == 1
        kinds["tree"] += g.edge_count == g.n - 1
        kinds["wide"] += g.edge_count > 64
    assert kinds["graphs"] == 3 * 9603 + 600 + 3 * 10
    assert min(kinds.values()) >= 15


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

"""Bond and cycle spaces of the three graphs induced by a map.

For a connected multigraph the bond space is spanned by the single-vertex
edge cuts and the cycle space by the fundamental cycles of any spanning
tree; the two are orthogonal complements of each other under the parity
form.  The cycle space is built as the complement of the bond space and
checked against the fundamental cycles of the breadth-first forest.  A map
yields three graphs (from its v-, f- and z-gons) and so six subspaces of
the edge universe, plus the sum of the vertex and face bond spaces.  A
SpaceBundle builds each of them on its first read: the absorption claims
read only the three bond spaces, and no claim reads the zigzag graph's
cycle space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gem import FlagMap, MultiGraph, induced_graph
from .gf2 import Gf2Subspace, Gf2Vec


def bond_of(g: MultiGraph, vertices: set[int] | frozenset[int]) -> Gf2Vec:
    """Edges with exactly one end inside the vertex set; loops never qualify."""
    for w in vertices:
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} out of range")
    inside = set(vertices)
    bits = 0
    for e, (u, v) in enumerate(g.edges):
        if (u in inside) != (v in inside):
            bits |= 1 << e
    return Gf2Vec(g.edge_count, bits)


def bond_space(g: MultiGraph) -> Gf2Subspace:
    """Span of the single-vertex cuts of a connected multigraph.

    The cuts come from one pass over the edges; a loop toggles its bit at
    the same vertex twice, so it is in no cut.  The cuts of a graph with k
    components span n - k dimensions, so the span itself tells whether g
    is connected.
    """
    stars = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        stars[u] ^= 1 << e
        stars[v] ^= 1 << e
    space = Gf2Subspace.span(g.edge_count, stars)
    if space.dim != g.n - 1:
        raise ValueError("bond and cycle spaces need a connected graph")
    return space


def _fundamental_cycles(g: MultiGraph) -> list[int]:
    """Cycle bitmasks of the non-tree edges of g's spanning forest."""
    tree, paths = g.spanning_forest()
    in_tree = set(tree)
    return [paths[u] ^ paths[v] ^ 1 << e
            for e, (u, v) in enumerate(g.edges) if e not in in_tree]


def cycle_space(g: MultiGraph) -> Gf2Subspace:
    """Orthogonal complement of the bond space, cross-checked against the
    fundamental cycles; loops are their own cycles.

    The two constructions are independent, so a mismatch is an internal
    error.  bond_space raises ValueError first when g is not connected.
    """
    return _checked_cycle_space(g, bond_space(g))


def _checked_cycle_space(g: MultiGraph, bonds: Gf2Subspace) -> Gf2Subspace:
    """bonds.perp() for a connected g, cross-checked by its fundamental cycles.

    These are independent, so if there are dim = m - n + 1 of them and the
    complement contains each, the complement is their span.
    """
    space = bonds.perp()
    cycles = _fundamental_cycles(g)
    if not len(cycles) == space.dim == g.edge_count - g.n + 1:
        raise AssertionError("cycle space dimension violates the connected-graph formula")
    if not all(map(space.contains, cycles)):
        raise AssertionError("cycle space disagrees with the fundamental cycles")
    return space


@dataclass(frozen=True)
class SpaceBundle:
    """The three induced graphs of a map, their six edge subspaces and the
    sum of the vertex and face bond spaces that claims 3b and 3c share.

    Each subspace is built on its first read and kept.  A cycle space is
    checked against its graph's fundamental cycles, so a failed check
    raises AssertionError on the first read of that cycle space.
    """

    m: int
    vertex_graph: MultiGraph
    face_graph: MultiGraph
    zigzag_graph: MultiGraph

    @cached_property
    def vertex_bonds(self) -> Gf2Subspace:
        return bond_space(self.vertex_graph)

    @cached_property
    def vertex_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.vertex_graph, self.vertex_bonds)

    @cached_property
    def face_bonds(self) -> Gf2Subspace:
        return bond_space(self.face_graph)

    @cached_property
    def face_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.face_graph, self.face_bonds)

    @cached_property
    def vertex_face_bonds(self) -> Gf2Subspace:
        """Bv + Bf: 3c's target, and 3b's as its perp."""
        return self.vertex_bonds.sum(self.face_bonds)

    @cached_property
    def zigzag_bonds(self) -> Gf2Subspace:
        return bond_space(self.zigzag_graph)

    @cached_property
    def zigzag_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.zigzag_graph, self.zigzag_bonds)

    def dims(self) -> tuple[int, int, int, int, int, int]:
        """Dimensions in the order (vb, vc, fb, fc, zb, zc); builds all six."""
        return (
            self.vertex_bonds.dim,
            self.vertex_cycles.dim,
            self.face_bonds.dim,
            self.face_cycles.dim,
            self.zigzag_bonds.dim,
            self.zigzag_cycles.dim,
        )


def space_bundle(map_: FlagMap) -> SpaceBundle:
    """The three induced graphs of a map, with their spaces built on first read."""
    return SpaceBundle(map_.m, *(induced_graph(map_, k) for k in ("v", "f", "z")))

"""Bond and cycle spaces of the three graphs induced by a map.

For a connected multigraph the bond space is spanned by the single-vertex
edge cuts and the cycle space by the fundamental cycles of any spanning
tree; the two are orthogonal complements of each other under the parity
form.  A map yields three graphs (from its v-, f- and z-gons) and so six
subspaces of the edge universe.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Span of the single-vertex cuts of a connected multigraph."""
    if not g.is_connected():
        raise ValueError("bond space needs a connected graph")
    return Gf2Subspace.span(g.edge_count, (bond_of(g, {v}) for v in range(g.n)))


def _fundamental_cycles(g: MultiGraph) -> list[int]:
    """Cycle bitmasks of the non-tree edges of a DFS spanning tree."""
    inc = g.incidence()
    path = [0] * g.n
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    in_tree = set()
    while stack:
        u = stack.pop()
        for e, w in inc[u]:
            if not seen[w]:
                seen[w] = True
                in_tree.add(e)
                path[w] = path[u] ^ (1 << e)
                stack.append(w)
    cycles = []
    for e, (u, v) in enumerate(g.edges):
        if e not in in_tree:
            cycles.append(path[u] ^ path[v] ^ (1 << e))
    return cycles


def cycle_space(g: MultiGraph) -> Gf2Subspace:
    """Span of the fundamental cycles; loops are their own cycles.

    Cross-checked against the orthogonal complement of the bond space; the
    two constructions are independent, so a mismatch is an internal error.
    """
    if not g.is_connected():
        raise ValueError("cycle space needs a connected graph")
    return _checked_cycle_space(g, bond_space(g))


def _checked_cycle_space(g: MultiGraph, bonds: Gf2Subspace) -> Gf2Subspace:
    """Cycle space of a connected g, cross-checked against bonds.perp()."""
    space = Gf2Subspace.span(g.edge_count, _fundamental_cycles(g))
    if space != bonds.perp():
        raise AssertionError("cycle space disagrees with bond space complement")
    return space


@dataclass(frozen=True)
class SpaceBundle:
    """The three induced graphs of a map and their six edge subspaces."""

    m: int
    vertex_graph: MultiGraph
    face_graph: MultiGraph
    zigzag_graph: MultiGraph
    vertex_bonds: Gf2Subspace
    vertex_cycles: Gf2Subspace
    face_bonds: Gf2Subspace
    face_cycles: Gf2Subspace
    zigzag_bonds: Gf2Subspace
    zigzag_cycles: Gf2Subspace

    def dims(self) -> tuple[int, int, int, int, int, int]:
        """Dimensions in the order (vb, vc, fb, fc, zb, zc)."""
        return (
            self.vertex_bonds.dim,
            self.vertex_cycles.dim,
            self.face_bonds.dim,
            self.face_cycles.dim,
            self.zigzag_bonds.dim,
            self.zigzag_cycles.dim,
        )


def space_bundle(map_: FlagMap) -> SpaceBundle:
    """Build all three induced graphs and their bond and cycle spaces."""
    return bundle_of_graphs(*(induced_graph(map_, k) for k in ("v", "f", "z")))


def bundle_of_graphs(
    vertex_graph: MultiGraph, face_graph: MultiGraph, zigzag_graph: MultiGraph
) -> SpaceBundle:
    """The six subspaces of a map's three induced graphs; each cycle space
    is cross-checked against the bond space built beside it."""
    graphs = (vertex_graph, face_graph, zigzag_graph)
    spaces = []
    for g in graphs:
        b = bond_space(g)
        c = _checked_cycle_space(g, b)
        if b.dim != g.n - 1 or c.dim != g.edge_count - g.n + 1:
            raise AssertionError("subspace dimensions violate the connected-graph formulas")
        spaces.extend((b, c))
    return SpaceBundle(vertex_graph.edge_count, *graphs, *spaces)

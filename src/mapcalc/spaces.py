"""Bond and cycle spaces of the three graphs induced by a map.

For a connected multigraph the bond space is spanned by the single-vertex
edge cuts and the cycle space by the fundamental cycles of any spanning
tree; the two are orthogonal complements of each other under the parity
form.  The cycle space is built as the complement of the bond space and
checked against the fundamental cycles of the breadth-first forest.  A map
yields three graphs (from its v-, f- and z-gons) and so six subspaces of
the edge universe; analysis.MapAnalysis builds each on its first read.
"""

from __future__ import annotations

from .gem import MultiGraph
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

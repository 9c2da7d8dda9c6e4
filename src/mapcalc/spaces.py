"""Bond and cycle spaces of the three graphs induced by a map.

For a connected multigraph the bond space is spanned by the single-vertex
edge cuts and the cycle space by the fundamental cycles of any spanning
tree; the two are orthogonal complements of each other under the parity
form.  Each is built once, in canonical form, by its own route: the bond
space as the RREF of the stars, the cycle space from the maximum-id
spanning tree, with no elimination.  A map yields three graphs (from its
v-, f- and z-gons) and so six subspaces of the edge universe;
analysis.MapAnalysis builds each on its first read.
"""

from __future__ import annotations

from .gem import MultiGraph, _as_int
from .gf2 import Gf2Subspace, Gf2Vec, _rref


def bond_of(g: MultiGraph, vertices: set[int] | frozenset[int]) -> Gf2Vec:
    """Edges with exactly one end inside the vertex set; loops never qualify."""
    inside = {_as_int(w) for w in vertices}
    for w in inside:
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} out of range")
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
    is connected.  The subspace is built unchecked from the RREF of the
    stars, which are XORs of bits below the edge count.  On one vertex
    every edge is a loop and the star is empty, so the space is zero and
    no star is summed.
    """
    if g.n == 1:
        return Gf2Subspace(g.edge_count, ())
    stars = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        stars[u] ^= 1 << e
        stars[v] ^= 1 << e
    space = Gf2Subspace(g.edge_count, _rref(stars))
    if space.dim != g.n - 1:
        raise ValueError("bond and cycle spaces need a connected graph")
    return space


def cycle_space(g: MultiGraph) -> Gf2Subspace:
    """Canonical basis of a connected g's cycle space: the fundamental
    cycles of its maximum-id spanning tree, in increasing order of their
    non-tree edges; a loop is its own cycle.

    Kruskal keeps each edge, in descending id, that joins two union-find
    components, until it has n - 1; fewer is a ValueError.  One walk of
    the tree gives each vertex's path to the root.  Built unchecked: the
    ends of a skipped edge e are already joined by kept edges of higher
    id, so e is the lowest bit of its cycle and in no other cycle
    (Kruskal's cycle property).  So the rows have strictly increasing
    pivots, each clear in the other rows.
    """
    n, edges = g.n, g.edges
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    tree = []
    for e in range(len(edges) - 1, -1, -1):
        if len(tree) == n - 1:  # every lower edge closes a cycle
            break
        u, v = map(root, edges[e])
        if u != v:
            parent[u] = v
            tree.append(e)
    if len(tree) != n - 1:
        raise ValueError("bond and cycle spaces need a connected graph")
    _, paths = g.spanning_forest(reversed(tree))
    kept = set(tree)
    return Gf2Subspace(len(edges), tuple(paths[u] ^ paths[v] ^ 1 << e
                                         for e, (u, v) in enumerate(edges) if e not in kept))

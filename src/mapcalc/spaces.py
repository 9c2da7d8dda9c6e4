"""Bond and cycle spaces of the three graphs induced by a map.

For a connected multigraph the bond space is spanned by the single-vertex
edge cuts and the cycle space by the fundamental cycles of any spanning
tree; the two are orthogonal complements of each other under the parity
form.  The cycle space is built as the complement of the bond space and
checked by one tuple equality: the edges that are not pivots of its basis
must form a spanning tree, whose fundamental cycles, in edge order, must
be the basis itself.  A correct complement passes, since its non-pivot
edges are the bond space's top pivots, the greedy highest-id spanning
tree, so each other edge is the lowest edge of its fundamental cycle
(Kruskal's cycle property).  A space that passes is spanned by the
fundamental cycles of a spanning tree, so it is the cycle space.  A map
yields three graphs (from its v-, f- and z-gons) and so six subspaces of
the edge universe; analysis.MapAnalysis builds each on its first read.
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
    stars, which are XORs of bits below the edge count.
    """
    stars = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        stars[u] ^= 1 << e
        stars[v] ^= 1 << e
    space = Gf2Subspace(g.edge_count, _rref(stars))
    if space.dim != g.n - 1:
        raise ValueError("bond and cycle spaces need a connected graph")
    return space


def cycle_space(g: MultiGraph) -> Gf2Subspace:
    """Orthogonal complement of the bond space, cross-checked against the
    fundamental cycles of a spanning tree; loops are their own cycles.

    bond_space raises ValueError first when g is not connected.
    """
    return _checked_cycle_space(g, bond_space(g).perp())


def _tree_cycles(g: MultiGraph, tree: int) -> tuple[int, ...] | None:
    """Fundamental cycles of the spanning tree whose edges are the set bits
    of `tree`, in the order of their non-tree edges; None unless those are
    n - 1 edges that reach every vertex from vertex 0.

    The walk reads only the tree's edges.
    """
    n, edges = g.n, g.edges
    bits = format(tree, f"0{len(edges)}b")[::-1]  # bits[e] == "1": e is a tree edge
    ids = [e for e, b in enumerate(bits) if b == "1"]
    if len(ids) != n - 1:
        return None
    reached, paths = g.spanning_forest(ids)
    if len(reached) != n - 1:
        return None
    return tuple(paths[u] ^ paths[v] ^ 1 << e
                 for e, (u, v), b in zip(range(len(edges)), edges, bits) if b == "0")


def _checked_cycle_space(g: MultiGraph, space: Gf2Subspace) -> Gf2Subspace:
    """space, the perp of a connected g's bond space, once it is checked to
    be the canonical basis of g's cycle space (see the module docstring).
    The pivots are the lowest bits of the rows, ORed in one pass; the tree
    is the edges outside them.

    An AssertionError names an internal error: the edges that are not
    pivots of space do not form a spanning tree, or the tree's fundamental
    cycles are not space's basis.
    """
    pivots = 0
    for r in space.rows:
        pivots |= r & -r
    cycles = _tree_cycles(g, ((1 << g.edge_count) - 1) & ~pivots)
    if cycles is None:
        raise AssertionError("cycle space pivots leave no spanning tree")
    if cycles != space.rows:
        raise AssertionError("cycle space disagrees with the fundamental cycles")
    return space

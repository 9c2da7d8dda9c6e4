"""Everything the structural checks read from one map, computed once.

MapAnalysis is the one per-map store.  It holds the three induced graphs,
whose vertex counts are the gon counts, their six bond and cycle spaces,
the sum of the vertex and face bond spaces, the word operators c_P, c_P~
and c_D, the image and kernel of c_P~ o c_P, and the composed operator
c_P~ o c_D.  The graphs and counts are built with the analysis, each
read off one gem.gon_labels trace of its kind, because every check reads
all three graphs, through the counts or a bond space.  The words of c_P
and c_D are read off the kept traces of the single z-gon and f-gon, so
no gon is walked twice and no phial or dual is built.  Everything else
is a cached_property: it is computed on first read and kept on the
analysis, so a check that needs it again reads it instead of rebuilding
it.  Nothing is cached elsewhere, apart from what an operator keeps of
its own forward elimination (see gf2.LinearOp): an analysis and all it
holds go away with the last reference to it.

c_P~ o c_P is never composed: gf2.product_spaces reads its image and
kernel from the passes c_P and c_P~ already ran for theorem 2.  The
absorption checks build only the three bond spaces, verify_all adds the
vertex and face cycle spaces on a single-zigzag map (no claim reads the
zigzag graph's), and complete() builds everything.

space_bundle and map_operators, the names the acceptance criteria use for
a map's spaces and its operators, are MapAnalysis itself.
"""

from __future__ import annotations

from functools import cached_property

from .gem import PARTNER, FlagMap, _gon_graph, gon_labels
from .gf2 import Gf2Subspace, LinearOp, product_spaces
from .spaces import _checked_cycle_space, bond_space
from .words import _single_gon_word, c_operator


class MapAnalysis:
    """The graphs and gon counts of one map, and its lazily memoized
    spaces and operators.

    A cycle space is checked against its graph's fundamental cycles, so a
    failed check raises AssertionError on its first read.
    """

    def __init__(self, map_: FlagMap) -> None:
        self.map = map_
        self.m = map_.m
        # Plain attributes, not cached_propertys: on Python 3.11 a
        # cached_property's first read costs about 1.3 us (it takes a lock),
        # a few percent of a whole analysis of a small map.
        graphs = []
        self._orders: dict[str, list[int]] = {}  # of each kind with one gon, for its word
        for kind, p in PARTNER.items():
            count, gon_of, order = gon_labels(map_.alpha, p)
            graphs.append(_gon_graph(count, gon_of, p))
            if count == 1:
                self._orders[kind] = order
        self.vertex_graph, self.face_graph, self.zigzag_graph = graphs
        # (v, f, z) gon counts, the vertex counts of the three graphs.
        self.counts = (self.vertex_graph.n, self.face_graph.n, self.zigzag_graph.n)

    @classmethod
    def of(cls, subject: FlagMap | MapAnalysis) -> MapAnalysis:
        """The analysis itself, or a new one of a plain map."""
        return subject if isinstance(subject, cls) else cls(subject)

    def complete(self) -> MapAnalysis:
        """Compute every artefact now rather than on first use, all six
        subspaces included."""
        self.dims()
        for name in ("vertex_face_bonds", "zigzag_product_spaces", "face_product"):
            getattr(self, name)
        return self

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
    def zigzag_bonds(self) -> Gf2Subspace:
        return bond_space(self.zigzag_graph)

    @cached_property
    def zigzag_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.zigzag_graph, self.zigzag_bonds)

    @cached_property
    def vertex_face_bonds(self) -> Gf2Subspace:
        """Bv + Bf: 3c's target, and 3b's as its perp."""
        return self.vertex_bonds.sum(self.face_bonds)

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

    def _word_operator(self, kind: str) -> LinearOp | None:
        order = self._orders.get(kind)
        return None if order is None else c_operator(_single_gon_word(self.m, order, kind))

    @cached_property
    def zigzag(self) -> LinearOp | None:
        """c_P, from the zigzag word, or None without a single zigzag."""
        return self._word_operator("z")

    @cached_property
    def zigzag_complement(self) -> LinearOp | None:
        """c_P~ = identity + c_P, or None without a single zigzag."""
        zig = self.zigzag
        return None if zig is None else LinearOp.identity(self.m) + zig

    @cached_property
    def face(self) -> LinearOp | None:
        """c_D, from the face word, or None without a single face."""
        return self._word_operator("f")

    @cached_property
    def zigzag_product_spaces(self) -> tuple[Gf2Subspace, Gf2Subspace] | None:
        """(image, kernel) of c_P~ o c_P, or None without a single zigzag."""
        zig = self.zigzag
        return None if zig is None else product_spaces(self.zigzag_complement, zig)

    @cached_property
    def face_product(self) -> LinearOp | None:
        """c_P~ o c_D, or None unless the map has one face and one zigzag."""
        comp, face = self.zigzag_complement, self.face
        return None if comp is None or face is None else comp.compose(face)


# The acceptance criteria's names for a map's spaces and for its operators.
space_bundle = map_operators = MapAnalysis

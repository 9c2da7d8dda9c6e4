"""Everything the structural checks read from one map, computed once.

MapAnalysis is the one per-map store.  It holds the three induced
graphs, whose vertex counts are the gon counts, their six bond and cycle
spaces, the sum of the vertex and face bond spaces and its perp, the
word operators c_P, c_P~ and c_D, the kernels of c_P, c_P~ and
c_P~ o c_P and their images, and the composed operator c_P~ o c_D.  The
graphs and counts are built with the analysis, each read off one
gem.gon_labels trace of its kind, because every check reads all three
graphs, through the counts or a bond space.  The words of c_P and c_D
are read off the kept traces of the single z-gon and f-gon, so no gon is
walked twice and no phial or dual is built.  Everything else is a
cached_property: it is computed on first read and kept on the analysis,
so a check that needs it again reads it instead of rebuilding it.
Nothing is cached elsewhere, apart from the kernel and image an operator
keeps (see gf2.LinearOp): an analysis and all it holds go away with the
last reference to it.

No kernel is eliminated.  ker c_P^T and ker c_P~^T are walked off the
kept zigzag word in O(m) (words._kernel_vectors), and each is checked
against its operator: c_P must map every vector of the first to zero,
and c_P~ every vector of the second.  That check proves them ker c_P
and ker c_P~: a walked K = ker c^T that c maps to zero lies in ker c,
and as rank c = rank c^T the two have the same dimension, so K = ker c.
Every image is the perp of a kernel, which holds for any matrix, as
Im c = (ker c^T)^perp.  ker c_P~ o c_P is the sum of the two kernels by
the Bezout split: as I = c_P + c_P~, each x in it is c_P x + c_P~ x,
with c_P x in ker c_P~ and c_P~ x in ker c_P; the same split of the
transposes makes Im c_P~ o c_P the perp of that sum.

The analysis takes one perp per distinct subspace, kept by its canonical
rows, and every perp goes through that store: the images, the cycle
spaces and 3b's target (Bv + Bf)^perp.  Where 2b, 2d and 3c hold, the
kernels are Bv, Bf and Bv + Bf, so Im c_P, Im c_P~ and Im c_P~ o c_P
are the very objects Cv, Cf and that target, and a map pays two or three
perps, not six; a kernel that differs from its bond space pays its own.
No operator is composed: c_P is read off the kept z-word, c_P~ is c_P
with bit e of column e flipped, written in one pass with no identity
operator and no sum, and c_P~ o c_D is read off the kept f-word by
prefix images (words._word_columns).  The absorption checks build only
the three bond spaces, verify_all adds the vertex and face cycle spaces
on a single-zigzag map (no claim reads the zigzag graph's), and
complete() builds everything.

space_bundle and map_operators, the names the acceptance criteria use for
a map's spaces and its operators, are MapAnalysis itself.
"""

from __future__ import annotations

from functools import cached_property

from .gem import PARTNER, FlagMap, _gon_graph, gon_labels
from .gf2 import Gf2Subspace, LinearOp, _apply_bits, _rref
from .spaces import _checked_cycle_space, bond_space
from .words import SignedWord, _kernel_vectors, _single_gon_word, _word_columns, c_operator


class MapAnalysis:
    """The graphs and gon counts of one map, and its lazily memoized
    spaces and operators.

    A cycle space is checked against the fundamental cycles of the
    spanning tree its basis leaves (spaces._checked_cycle_space), so a
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
        self._words: dict[str, SignedWord] = {}
        for kind, p in PARTNER.items():
            count, gon_of, order = gon_labels(map_.alpha, p)
            graphs.append(_gon_graph(count, gon_of, p))
            if count == 1:
                self._orders[kind] = order
        self.vertex_graph, self.face_graph, self.zigzag_graph = graphs
        self._perps: dict[tuple[int, ...], Gf2Subspace] = {}
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
        for name in ("vertex_face_cycles", "zigzag_images", "zigzag_product_spaces", "face_product"):
            getattr(self, name)
        return self

    def _perp(self, space: Gf2Subspace) -> Gf2Subspace:
        """space.perp(), taken once per distinct subspace and kept."""
        perp = self._perps.get(space.rows)
        if perp is None:
            perp = self._perps[space.rows] = space.perp()
        return perp

    @cached_property
    def vertex_bonds(self) -> Gf2Subspace:
        return bond_space(self.vertex_graph)

    @cached_property
    def vertex_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.vertex_graph, self._perp(self.vertex_bonds))

    @cached_property
    def face_bonds(self) -> Gf2Subspace:
        return bond_space(self.face_graph)

    @cached_property
    def face_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.face_graph, self._perp(self.face_bonds))

    @cached_property
    def zigzag_bonds(self) -> Gf2Subspace:
        return bond_space(self.zigzag_graph)

    @cached_property
    def zigzag_cycles(self) -> Gf2Subspace:
        return _checked_cycle_space(self.zigzag_graph, self._perp(self.zigzag_bonds))

    @cached_property
    def vertex_face_bonds(self) -> Gf2Subspace:
        """Bv + Bf: 3c's target."""
        return self.vertex_bonds.sum(self.face_bonds)

    @cached_property
    def vertex_face_cycles(self) -> Gf2Subspace:
        """(Bv + Bf)^perp, the meet of the vertex and face cycle spaces:
        3b's target."""
        return self._perp(self.vertex_face_bonds)

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

    def _word(self, kind: str) -> SignedWord | None:
        """The word of the single gon of `kind`, or None; built once."""
        if kind in self._orders and kind not in self._words:
            self._words[kind] = _single_gon_word(self.m, self._orders[kind], kind)
        return self._words.get(kind)

    @cached_property
    def zigzag(self) -> LinearOp | None:
        """c_P, from the zigzag word, or None without a single zigzag."""
        word = self._word("z")
        return None if word is None else c_operator(word)

    @cached_property
    def zigzag_complement(self) -> LinearOp | None:
        """c_P~ = identity + c_P, or None without a single zigzag: column e
        of c_P with bit e flipped."""
        zig = self.zigzag
        if zig is None:
            return None
        return LinearOp(self.m, tuple(c ^ 1 << e for e, c in enumerate(zig.cols)))

    @cached_property
    def face(self) -> LinearOp | None:
        """c_D, from the face word, or None without a single face."""
        word = self._word("f")
        return None if word is None else c_operator(word)

    @cached_property
    def zigzag_kernels(self) -> tuple[Gf2Subspace, Gf2Subspace, Gf2Subspace] | None:
        """(ker c_P, ker c_P~, ker c_P~ o c_P), or None without a single
        zigzag.  The first two are walked off the zigzag word as the null
        spaces of the transposes and checked against their operators
        (module docstring): AssertionError if an operator does not map
        every walked vector to zero."""
        zig = self.zigzag
        if zig is None:
            return None
        word = self._word("z")
        kernels = []
        for name, op, complement in (("c_P", zig, False), ("c_P~", self.zigzag_complement, True)):
            vectors = _kernel_vectors(word, complement)
            if any(_apply_bits(op.cols, x) for x in vectors):
                raise AssertionError(f"{name} does not map its word kernel to zero")
            kernels.append(Gf2Subspace(self.m, _rref(vectors)))
        kernel, co_kernel = kernels
        return kernel, co_kernel, kernel.sum(co_kernel)

    @cached_property
    def zigzag_images(self) -> tuple[Gf2Subspace, Gf2Subspace] | None:
        """(Im c_P, Im c_P~), or None without a single zigzag."""
        kernels = self.zigzag_kernels
        return None if kernels is None else (self._perp(kernels[0]), self._perp(kernels[1]))

    @cached_property
    def zigzag_product_spaces(self) -> tuple[Gf2Subspace, Gf2Subspace] | None:
        """(image, kernel) of c_P~ o c_P, or None without a single zigzag."""
        kernels = self.zigzag_kernels
        return None if kernels is None else (self._perp(kernels[2]), kernels[2])

    @cached_property
    def face_product(self) -> LinearOp | None:
        """c_P~ o c_D, or None unless the map has one face and one zigzag."""
        comp, word = self.zigzag_complement, self._word("f")
        if comp is None or word is None:
            return None
        return LinearOp(self.m, _word_columns(word, comp.cols))


# The acceptance criteria's names for a map's spaces and for its operators.
space_bundle = map_operators = MapAnalysis

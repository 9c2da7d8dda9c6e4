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

No kernel is built: zigzag_kernels certifies ker c_P = Bv in O(m) and
returns vertex_bonds itself.  Stars: column e of c_P is XORed into both
ends of edge e of the vertex graph, and each vertex's sum, the image of
its star, must be zero, so Bv lies in ker c_P.  Count: the link walk of
the zigzag word (words._link_cycles) must close v cycles, so
dim ker c_P = v - 1 = dim Bv.  ker c_P~ = Bf is certified the same way
on the face graph.  On a one-gon graph (v = 1, or f = 1 as on the dual
of a one-vertex map) every edge is a loop, so each column enters the one
star twice and its sum is zero whatever the operator: the star check is
skipped there, and the count alone certifies ker = 0 = B.
ker c_P~ o c_P is Bv + Bf by the Bezout split: as
I = c_P + c_P~, each x in it is c_P x + c_P~ x, with c_P x in ker c_P~
and c_P~ x in ker c_P.  c_P and c_P~ are symmetric and commute, so each
image is the perp of its kernel (Im c = (ker c^T)^perp).  So 2b, 2d and
3c compare certified objects.  The cycle spaces Cv and Cf are built
from spanning trees (spaces.cycle_space), not as perps, so 2a and 2c
compare two constructions that share no code: a fault in either shows
as a violated claim with a witness.  The images and (Bv + Bf)^perp,
3b's target, go through one store of perps kept by canonical rows, so
a map pays one perp per distinct space among Bv, Bf and Bv + Bf.

No operator is composed: c_P is read off the kept z-word, c_P~ is c_P
with bit e of column e flipped, written in one pass with no identity
operator and no sum, and c_P~ o c_D is read off the kept f-word by
prefix images (words._word_columns).  All three are built by
gem._prechecked, as their columns are in range by construction, and so
are the induced graphs (gem._gon_graph).  The absorption checks build
only the three bond spaces, verify_all adds the vertex and face cycle
spaces on a single-zigzag map (no claim reads the zigzag graph's), and
complete() builds everything.

space_bundle and map_operators, the names the acceptance criteria use for
a map's spaces and its operators, are MapAnalysis itself.
"""

from __future__ import annotations

from functools import cached_property

from .gem import PARTNER, FlagMap, _gon_graph, _prechecked, gon_labels
from .gf2 import Gf2Subspace, LinearOp
from .spaces import bond_space, cycle_space
from .words import SignedWord, _link_cycles, _single_gon_word, _word_columns, c_operator


class MapAnalysis:
    """The graphs and gon counts of one map, and its lazily memoized
    spaces and operators."""

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
        return cycle_space(self.vertex_graph)

    @cached_property
    def face_bonds(self) -> Gf2Subspace:
        return bond_space(self.face_graph)

    @cached_property
    def face_cycles(self) -> Gf2Subspace:
        return cycle_space(self.face_graph)

    @cached_property
    def zigzag_bonds(self) -> Gf2Subspace:
        return bond_space(self.zigzag_graph)

    @cached_property
    def zigzag_cycles(self) -> Gf2Subspace:
        return cycle_space(self.zigzag_graph)

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
        of c_P with bit e flipped.  Prechecked: flipping bit e < m keeps
        each of c_P's m columns below 2^m."""
        zig = self.zigzag
        if zig is None:
            return None
        cols = tuple(c ^ 1 << e for e, c in enumerate(zig.cols))
        return _prechecked(LinearOp, m=self.m, cols=cols)

    @cached_property
    def face(self) -> LinearOp | None:
        """c_D, from the face word, or None without a single face."""
        word = self._word("f")
        return None if word is None else c_operator(word)

    @cached_property
    def zigzag_kernels(self) -> tuple[Gf2Subspace, Gf2Subspace, Gf2Subspace] | None:
        """(ker c_P, ker c_P~, ker c_P~ o c_P), or None without a single
        zigzag: the objects vertex_bonds, face_bonds and vertex_face_bonds,
        once the certificate of the module docstring holds.  AssertionError,
        naming the operator, if its link walk does not close one cycle per
        gon or it does not map the star of a gon to zero."""
        zig = self.zigzag
        if zig is None:
            return None
        word = self._word("z")
        for name, op, complement, graph in (("c_P", zig, False, self.vertex_graph),
                                            ("c_P~", self.zigzag_complement, True, self.face_graph)):
            cycles = _link_cycles(word, complement)
            if cycles != graph.n:
                raise AssertionError(f"the {name} walk closes {cycles} link cycles, not {graph.n}")
            if graph.n == 1:  # every edge a loop: the star check is vacuous
                continue
            stars = [0] * graph.n
            for col, (u, v) in zip(op.cols, graph.edges):
                stars[u] ^= col
                stars[v] ^= col
            for gon, image in enumerate(stars):
                if image:
                    raise AssertionError(f"{name} does not map the star of gon {gon} to zero")
        return self.vertex_bonds, self.face_bonds, self.vertex_face_bonds

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
        """c_P~ o c_D, or None unless the map has one face and one zigzag.
        Prechecked: m columns, each a XOR of c_P~'s columns."""
        comp, word = self.zigzag_complement, self._word("f")
        if comp is None or word is None:
            return None
        return _prechecked(LinearOp, m=self.m, cols=_word_columns(word, comp.cols))


# The acceptance criteria's names for a map's spaces and for its operators.
space_bundle = map_operators = MapAnalysis

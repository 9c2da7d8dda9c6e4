"""Everything the structural checks read from one map, computed once.

A MapAnalysis holds the map's SpaceBundle: its three induced graphs,
whose vertex counts are its gon counts, and their six edge subspaces.
It also holds the word operators, the image and kernel of c_P~ o c_P,
and the composed operator c_P~ o c_D.  Each gon kind is traced once, by
the flat gem.gon_labels walk its graph is read from; the words of c_P
and c_D are read straight off the single z-gon and f-gon
(words.gon_word), so no phial or dual is built.  Each artefact is
computed on first use and kept on the analysis, so a check that needs it
again reads it instead of rebuilding it; an operator keeps its own
forward elimination, kernel and image (see gf2.LinearOp).  c_P~ o c_P is
never composed: gf2.product_spaces reads its image and kernel from the
passes c_P and c_P~ already ran for theorem 2.  The bundle builds each
subspace when a claim first reads it: the absorption checks build only
the three bond spaces, verify_all adds the vertex and face cycle spaces
on a single-zigzag map (no claim reads the zigzag graph's), and
complete() builds all six.  Nothing is cached elsewhere: an analysis and
all it holds go away with the last reference to it.
"""

from __future__ import annotations

from functools import cached_property

from .gem import FlagMap
from .gf2 import Gf2Subspace, LinearOp, product_spaces
from .spaces import SpaceBundle, space_bundle
from .words import MapOperators, operators_of_counts


class MapAnalysis:
    """Lazily memoized graphs, gon counts, spaces and operators of one map."""

    def __init__(self, map_: FlagMap) -> None:
        self.map = map_

    @classmethod
    def of(cls, subject: FlagMap | MapAnalysis) -> MapAnalysis:
        """The analysis itself, or a new one of a plain map."""
        return subject if isinstance(subject, cls) else cls(subject)

    def complete(self) -> MapAnalysis:
        """Compute every artefact now rather than on first use, all six
        subspaces included."""
        for name in ("counts", "bundle", "zigzag_product_spaces", "face_product"):
            getattr(self, name)
        self.bundle.dims()
        return self

    @cached_property
    def counts(self) -> tuple[int, int, int]:
        """(v, f, z) gon counts, the vertex counts of the three graphs."""
        b = self.bundle
        return b.vertex_graph.n, b.face_graph.n, b.zigzag_graph.n

    @cached_property
    def bundle(self) -> SpaceBundle:
        """The three induced graphs; their bond and cycle spaces are built
        on first read."""
        return space_bundle(self.map)

    @cached_property
    def operators(self) -> MapOperators:
        """c_P, c_P~ and c_D, each None when its hypothesis fails."""
        _, f, z = self.counts
        return operators_of_counts(self.map, f, z)

    @cached_property
    def zigzag_product_spaces(self) -> tuple[Gf2Subspace, Gf2Subspace] | None:
        """(image, kernel) of c_P~ o c_P, or None without a single zigzag."""
        ops = self.operators
        return None if ops.zigzag is None else product_spaces(ops.zigzag_complement, ops.zigzag)

    @cached_property
    def face_product(self) -> LinearOp | None:
        """c_P~ o c_D, or None unless the map has one face and one zigzag."""
        ops = self.operators
        if ops.zigzag_complement is None or ops.face is None:
            return None
        return ops.zigzag_complement.compose(ops.face)

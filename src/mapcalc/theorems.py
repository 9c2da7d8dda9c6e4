"""Machine checks of the eleven claims about map subspaces, from one table.

Each entry of _CLAIMS is one claim: its id, whose first character is its
group 1..4; the gon counts its hypothesis needs to be 1 (none, z, or f and
z); got and want, read from the map's MapAnalysis; the dims key of got;
and the relation that must hold:

  meet      got is two subspaces whose intersection lies in want (1a..1c);
  equal     got and want are the same subspace (2a..2d, 3b, 3c);
  xi        got's dimension is want, the connectivity xi (3a);
  identity  got is the identity operator (4).

Checks, rechecks, THEOREM_IDS and GROUPS (the CLI's --theorem choices) all
derive from the table.  A failed hypothesis makes a claim inapplicable, a
first-class result, not an error.  A violated claim reports a witness,
which recheck_counterexample tests for membership in got and want
themselves (for a meet, in both subspaces), never in what the check
computed from them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .analysis import MapAnalysis
from .gem import FlagMap, euler_of_counts
from .gf2 import Gf2Subspace, Gf2Vec


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one check; holds is vacuously true when inapplicable."""

    theorem: str
    applicable: bool
    holds: bool
    dims: dict[str, int] = field(default_factory=dict)
    counterexample: tuple[int, ...] | None = None
    note: str = ""


def report_json(report: TheoremReport) -> dict:
    """Schema: {theorem, applicable, holds, dims, counterexample?}, with
    1-based edge ids in the counterexample."""
    out = {
        "theorem": report.theorem,
        "applicable": report.applicable,
        "holds": report.holds,
        "dims": dict(report.dims),
    }
    if report.counterexample is not None:
        out["counterexample"] = [e + 1 for e in report.counterexample]
    return out


def _containment_witness(small: Gf2Subspace, big: Gf2Subspace) -> tuple[int, ...] | None:
    """Edges of a basis vector of `small` outside `big`, if any."""
    for v in small.basis():
        if not big.contains(v):
            return v.edges()
    return None


def _equality_witness(a: Gf2Subspace, b: Gf2Subspace) -> tuple[int, ...] | None:
    """Edges of a vector in exactly one of two subspaces, if they differ.

    Canonical bases make equal subspaces equal objects, so only unequal
    ones are searched for a witness.
    """
    if a == b:
        return None
    return _containment_witness(a, b) or _containment_witness(b, a)


@dataclass(frozen=True)
class _Claim:
    """One claim of the table; see the module docstring."""

    theorem: str
    needs: tuple[tuple[int, str], ...]  # (index in (v, f, z), noun) of each count that must be 1
    relation: str  # "meet", "equal", "xi" or "identity"
    key: str
    got: Callable[[MapAnalysis], Any]
    want: Callable[[MapAnalysis], Any] = lambda analysis: None

    def unmet(self, analysis: MapAnalysis) -> str:
        """The not-applicable note, or "" when the hypothesis holds."""
        parts = [f"{analysis.counts[i]} {noun}"
                 for i, noun in self.needs if analysis.counts[i] != 1]
        return "not applicable: " + ", ".join(parts) if parts else ""

    def check(self, analysis: MapAnalysis) -> TheoremReport:
        if self.needs and (note := self.unmet(analysis)):
            return TheoremReport(self.theorem, False, True, note=note)
        got, want = self.got(analysis), self.want(analysis)
        if self.relation == "xi":
            dims = {self.key: got.dim, "xi": want}
            return TheoremReport(self.theorem, True, got.dim == want, dims)
        if self.relation == "identity":
            witness = next(((x,) for x, col in enumerate(got.cols) if col != 1 << x), None)
            return TheoremReport(self.theorem, True, witness is None, {self.key: got.m}, witness)
        if self.relation == "meet":
            got = got[0].intersect(got[1])
            witness = _containment_witness(got, want)
        else:
            witness = _equality_witness(got, want)
        dims = {self.key: got.dim, "target": want.dim}
        return TheoremReport(self.theorem, True, witness is None, dims, witness)

    def confirms(self, analysis: MapAnalysis, edges: tuple[int, ...]) -> bool:
        """Whether the edge set violates the claim on the analysed map."""
        if self.relation == "xi" or self.unmet(analysis):
            return False
        vec = Gf2Vec.from_edges(analysis.m, edges)
        got, want = self.got(analysis), self.want(analysis)
        if self.relation == "identity":
            return got.apply(vec) != vec
        if self.relation == "meet":
            return got[0].contains(vec) and got[1].contains(vec) and not want.contains(vec)
        return got.contains(vec) != want.contains(vec)


_Z = ((2, "zigzags"),)
_FZ = ((1, "faces"), (2, "zigzags"))
_CLAIMS = (
    _Claim("1a", (), "meet", "intersection",
           lambda a: (a.vertex_bonds, a.face_bonds), lambda a: a.zigzag_bonds),
    _Claim("1b", (), "meet", "intersection",
           lambda a: (a.face_bonds, a.zigzag_bonds), lambda a: a.vertex_bonds),
    _Claim("1c", (), "meet", "intersection",
           lambda a: (a.zigzag_bonds, a.vertex_bonds), lambda a: a.face_bonds),
    _Claim("2a", _Z, "equal", "im", lambda a: a.zigzag_images[0], lambda a: a.vertex_cycles),
    _Claim("2b", _Z, "equal", "ker", lambda a: a.zigzag_kernels[0], lambda a: a.vertex_bonds),
    _Claim("2c", _Z, "equal", "im", lambda a: a.zigzag_images[1], lambda a: a.face_cycles),
    _Claim("2d", _Z, "equal", "ker", lambda a: a.zigzag_kernels[1], lambda a: a.face_bonds),
    _Claim("3a", _Z, "xi", "im",
           lambda a: a.zigzag_product_spaces[0],
           lambda a: euler_of_counts(a.m, *a.counts[:2])[1]),
    _Claim("3b", _Z, "equal", "im",
           lambda a: a.zigzag_product_spaces[0], lambda a: a.vertex_face_cycles),
    _Claim("3c", _Z, "equal", "ker",
           lambda a: a.zigzag_product_spaces[1], lambda a: a.vertex_face_bonds),
    _Claim("4", _FZ, "identity", "m", lambda a: a.face_product),
)

THEOREM_IDS = tuple(claim.theorem for claim in _CLAIMS)
GROUPS = tuple(dict.fromkeys(tid[0] for tid in THEOREM_IDS))
_BY_ID = {claim.theorem: claim for claim in _CLAIMS}
_BY_GROUP = {group: tuple(c for c in _CLAIMS if c.theorem[0] == group) for group in GROUPS}
_BY_GROUP["all"] = _CLAIMS


def check_group(map_: FlagMap | MapAnalysis, group: str) -> list[TheoremReport]:
    """The claims of one group, "1" to "4", or "all" of them, in id order."""
    if not isinstance(group, str) or group not in _BY_GROUP:
        raise ValueError(f"theorem group must be one of {', '.join(_BY_GROUP)}, got {group!r}")
    analysis = MapAnalysis.of(map_)
    return [claim.check(analysis) for claim in _BY_GROUP[group]]


def check_absorption(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """1a..1c: each pairwise intersection of bond spaces sits inside the third."""
    return check_group(map_, "1")


def check_theorem2(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """2a..2d: on single-zigzag maps, image and kernel of c_P and c_P~."""
    return check_group(map_, "2")


def check_theorem3(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """3a..3c: on single-zigzag maps, c_P~ o c_P measures the surface."""
    return check_group(map_, "3")


def check_theorem4(map_: FlagMap | MapAnalysis) -> TheoremReport:
    """4: with one face and one zigzag, c_P~ o c_D is the identity."""
    return check_group(map_, "4")[0]


def verify_all(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """All eleven checks in identifier order, on one analysis of the map."""
    return check_group(map_, "all")


def recheck_counterexample(map_: FlagMap | MapAnalysis, report: TheoremReport) -> bool:
    """Confirm that a reported counterexample indeed violates the claim."""
    claim = _BY_ID.get(report.theorem)
    if claim is None or report.counterexample is None:
        return False
    return claim.confirms(MapAnalysis.of(map_), report.counterexample)

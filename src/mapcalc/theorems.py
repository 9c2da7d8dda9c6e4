"""Machine checks of the four structural statements about map subspaces.

Identifiers 1a..1c cover the absorption containments between the three
bond spaces; 2a..2d compare the zigzag operator's image and kernel (and
its complement's) with cycle and bond spaces; 3a..3c do the same for the
composed operator against the surface invariant; 4 asserts that the
complement composed with the face operator is the identity.  Hypotheses
that fail make a check inapplicable, which is a first-class result, not
an error.

Every check takes a map or its MapAnalysis; verify_all builds one
analysis and hands it to each check, so the spaces and operators of a map
are computed once however many checks read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import MapAnalysis
from .gem import FlagMap, euler_of_counts
from .gf2 import Gf2Subspace, Gf2Vec, LinearOp

THEOREM_IDS = ("1a", "1b", "1c", "2a", "2b", "2c", "2d", "3a", "3b", "3c", "4")


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one check; holds is vacuously true when inapplicable."""

    theorem: str
    applicable: bool
    holds: bool
    dims: dict[str, int] = field(default_factory=dict)
    counterexample: tuple[int, ...] | None = None
    note: str = ""


def report_json(report: TheoremReport, one_based: bool = True) -> dict:
    """Schema: {theorem, applicable, holds, dims, counterexample?}."""
    out = {
        "theorem": report.theorem,
        "applicable": report.applicable,
        "holds": report.holds,
        "dims": dict(report.dims),
    }
    if report.counterexample is not None:
        shift = 1 if one_based else 0
        out["counterexample"] = [e + shift for e in report.counterexample]
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


def check_absorption(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """Each pairwise intersection of bond spaces sits inside the third."""
    bundle = MapAnalysis.of(map_).bundle
    triples = (
        ("1a", bundle.vertex_bonds, bundle.face_bonds, bundle.zigzag_bonds),
        ("1b", bundle.face_bonds, bundle.zigzag_bonds, bundle.vertex_bonds),
        ("1c", bundle.zigzag_bonds, bundle.vertex_bonds, bundle.face_bonds),
    )
    reports = []
    for tid, first, second, target in triples:
        meet = first.intersect(second)
        witness = _containment_witness(meet, target)
        reports.append(
            TheoremReport(
                tid,
                True,
                witness is None,
                {"intersection": meet.dim, "target": target.dim},
                witness,
            )
        )
    return reports


def _not_applicable(tids: tuple[str, ...], note: str) -> list[TheoremReport]:
    return [TheoremReport(tid, False, True, note=note) for tid in tids]


def check_theorem2(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """On single-zigzag maps the zigzag operator has image the cycle space
    and kernel the bond space of the vertex graph; its complement has the
    same relation to the face graph."""
    analysis = MapAnalysis.of(map_)
    _, _, z = analysis.counts
    if z != 1:
        return _not_applicable(("2a", "2b", "2c", "2d"), f"not applicable: {z} zigzags")
    bundle = analysis.bundle
    ops = analysis.operators
    cases = (
        ("2a", "im", ops.zigzag.image(), bundle.vertex_cycles),
        ("2b", "ker", ops.zigzag.kernel(), bundle.vertex_bonds),
        ("2c", "im", ops.zigzag_complement.image(), bundle.face_cycles),
        ("2d", "ker", ops.zigzag_complement.kernel(), bundle.face_bonds),
    )
    reports = []
    for tid, key, got, want in cases:
        witness = _equality_witness(got, want)
        reports.append(
            TheoremReport(
                tid,
                True,
                witness is None,
                {key: got.dim, "target": want.dim},
                witness,
            )
        )
    return reports


def check_theorem3(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """The composed operator measures the surface: its image dimension is
    xi, its image the meet of the two cycle spaces and its kernel the sum
    of the two bond spaces."""
    analysis = MapAnalysis.of(map_)
    v, f, z = analysis.counts
    if z != 1:
        return _not_applicable(("3a", "3b", "3c"), f"not applicable: {z} zigzags")
    bundle = analysis.bundle
    composed = analysis.zigzag_product
    im, ker = composed.image(), composed.kernel()
    _, xi = euler_of_counts(analysis.map.m, v, f)
    reports = [
        TheoremReport("3a", True, im.dim == xi, {"im": im.dim, "xi": xi})
    ]
    meet = bundle.vertex_cycles.intersect(bundle.face_cycles)
    witness = _equality_witness(im, meet)
    reports.append(
        TheoremReport("3b", True, witness is None, {"im": im.dim, "target": meet.dim}, witness)
    )
    total = bundle.vertex_bonds.sum(bundle.face_bonds)
    witness = _equality_witness(ker, total)
    reports.append(
        TheoremReport("3c", True, witness is None, {"ker": ker.dim, "target": total.dim}, witness)
    )
    return reports


def check_theorem4(map_: FlagMap | MapAnalysis) -> TheoremReport:
    """With one face and one zigzag, complement-after-face is the identity."""
    analysis = MapAnalysis.of(map_)
    _, f, z = analysis.counts
    if f != 1 or z != 1:
        parts = []
        if f != 1:
            parts.append(f"{f} faces")
        if z != 1:
            parts.append(f"{z} zigzags")
        return TheoremReport("4", False, True, note="not applicable: " + ", ".join(parts))
    composed = analysis.face_product
    m = analysis.map.m
    identity = LinearOp.identity(m)
    witness = None
    for x in range(m):
        if composed.cols[x] != identity.cols[x]:
            witness = (x,)
            break
    return TheoremReport("4", True, witness is None, {"m": m}, witness)


def verify_all(map_: FlagMap | MapAnalysis) -> list[TheoremReport]:
    """All eleven checks in identifier order, on one analysis of the map."""
    analysis = MapAnalysis.of(map_)
    return [
        *check_absorption(analysis),
        *check_theorem2(analysis),
        *check_theorem3(analysis),
        check_theorem4(analysis),
    ]


def recheck_counterexample(map_: FlagMap | MapAnalysis, report: TheoremReport) -> bool:
    """Confirm that a reported counterexample indeed violates the claim."""
    if report.counterexample is None:
        return False
    analysis = MapAnalysis.of(map_)
    vec = Gf2Vec.from_edges(analysis.map.m, report.counterexample)
    bundle = analysis.bundle
    if report.theorem == "1a":
        return (bundle.vertex_bonds.contains(vec) and bundle.face_bonds.contains(vec)
                and not bundle.zigzag_bonds.contains(vec))
    if report.theorem == "1b":
        return (bundle.face_bonds.contains(vec) and bundle.zigzag_bonds.contains(vec)
                and not bundle.vertex_bonds.contains(vec))
    if report.theorem == "1c":
        return (bundle.zigzag_bonds.contains(vec) and bundle.vertex_bonds.contains(vec)
                and not bundle.face_bonds.contains(vec))
    ops = analysis.operators
    if report.theorem in ("2a", "2b", "2c", "2d"):
        got, want = {
            "2a": (ops.zigzag.image(), bundle.vertex_cycles),
            "2b": (ops.zigzag.kernel(), bundle.vertex_bonds),
            "2c": (ops.zigzag_complement.image(), bundle.face_cycles),
            "2d": (ops.zigzag_complement.kernel(), bundle.face_bonds),
        }[report.theorem]
        return got.contains(vec) != want.contains(vec)
    composed = analysis.zigzag_product
    if report.theorem == "3b":
        meet = bundle.vertex_cycles.intersect(bundle.face_cycles)
        return composed.image().contains(vec) != meet.contains(vec)
    if report.theorem == "3c":
        total = bundle.vertex_bonds.sum(bundle.face_bonds)
        return composed.kernel().contains(vec) != total.contains(vec)
    if report.theorem == "4":
        return analysis.face_product.apply(vec) != vec
    return False

"""Unit tests for the structural subspace checks and their reports."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import k33_map, random_signed_word, single_face_dual
from mapcalc import (
    Gf2Subspace,
    LinearOp,
    MapAnalysis,
    TheoremReport,
    apply_permutation,
    bond_of,
    check_absorption,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    from_signed_word,
    gons,
    induced_graph,
    interlacement,
    kappa,
    projective_loop_map,
    recheck_counterexample,
    report_json,
    sphere_loop_map,
    verify_all,
    vertex_word,
    zigzag_map_from_word,
)
from mapcalc import theorems
from mapcalc.theorems import THEOREM_IDS, _containment_witness, _equality_witness

# Operator columns of a known one-face-one-zigzag embedding of K4, 1-based
# edge sets; their composition column by column is the identity.
K4_COMPLEMENT_COLS = {1: {1, 5, 4, 6}, 2: {6, 5, 3}, 3: {2, 4}, 4: {4, 3, 1, 5}, 5: {4, 1, 2}, 6: {1, 2}}
K4_FACE_COLS = {1: {5, 3}, 2: {3, 6, 5}, 3: {3, 1, 6, 2}, 4: {6, 5}, 5: {4, 2, 1}, 6: {6, 2, 3, 4}}


def from_table(table: dict[int, set[int]]) -> LinearOp:
    cols = []
    for x in range(1, 7):
        bits = 0
        for e in table[x]:
            bits |= 1 << (e - 1)
        cols.append(bits)
    return LinearOp.from_columns(6, cols)


def test_all_checks_hold_on_k33():
    reports = verify_all(k33_map())
    assert [r.theorem for r in reports] == list(THEOREM_IDS)
    assert all(r.holds for r in reports)
    assert all(r.applicable for r in reports[:10])
    assert not reports[10].applicable
    assert reports[10].note == "not applicable: 4 faces"


def test_k33_dimensions():
    by_id = {r.theorem: r for r in verify_all(k33_map())}
    assert by_id["2a"].dims == {"im": 4, "target": 4}
    assert by_id["2b"].dims == {"ker": 5, "target": 5}
    assert by_id["2c"].dims == {"im": 6, "target": 6}
    assert by_id["2d"].dims == {"ker": 3, "target": 3}
    assert by_id["3a"].dims == {"im": 1, "xi": 1}
    assert by_id["3b"].dims == {"im": 1, "target": 1}
    assert by_id["3c"].dims == {"ker": 8, "target": 8}


def test_sphere_loop_reports():
    by_id = {r.theorem: r for r in verify_all(sphere_loop_map())}
    assert all(r.holds for r in by_id.values())
    assert by_id["2a"].dims == {"im": 1, "target": 1}
    assert by_id["3a"].dims == {"im": 0, "xi": 0}
    assert not by_id["4"].applicable
    assert by_id["4"].note == "not applicable: 2 faces"


def test_projective_loop_reports():
    reports = check_theorem2(projective_loop_map())
    assert all(not r.applicable and r.holds for r in reports)
    assert reports[0].note == "not applicable: 2 zigzags"
    reports = check_theorem3(projective_loop_map())
    assert all(not r.applicable for r in reports)
    report = check_theorem4(projective_loop_map())
    assert not report.applicable
    assert report.note == "not applicable: 2 zigzags"
    assert all(r.holds for r in check_absorption(projective_loop_map()))


def test_k4_tables_compose_to_identity():
    complement = from_table(K4_COMPLEMENT_COLS)
    face = from_table(K4_FACE_COLS)
    assert complement.compose(face).cols == LinearOp.identity(6).cols
    assert complement.apply(face.column(2)).edges() == (2,)


def test_absorption_on_random_single_vertex_maps():
    rng = random.Random(67)
    for _ in range(20):
        map_ = zigzag_map_from_word(random_signed_word(rng, rng.randint(1, 6)))
        reports = verify_all(map_)
        assert all(r.holds for r in reports)


def test_report_json_schema():
    report = TheoremReport("2a", True, True, {"im": 4, "target": 4}, None, "ignored")
    out = report_json(report)
    assert out == {"theorem": "2a", "applicable": True, "holds": True, "dims": {"im": 4, "target": 4}}
    witnessed = TheoremReport("1a", True, False, {}, (0, 2))
    assert report_json(witnessed)["counterexample"] == [1, 3]


def test_witness_helpers():
    small = Gf2Subspace.span(3, [0b011])
    big = Gf2Subspace.span(3, [0b110])
    assert _containment_witness(small, big) == (0, 1)
    assert _containment_witness(small, Gf2Subspace.full(3)) is None
    assert _equality_witness(small, small) is None
    assert _equality_witness(small, big) is not None


def test_recheck_rejects_fake_counterexamples():
    m33 = k33_map()
    assert not recheck_counterexample(m33, TheoremReport("2a", True, False, {}, (0,)))
    assert not recheck_counterexample(m33, TheoremReport("1a", True, False, {}, (1, 2)))
    assert not recheck_counterexample(m33, TheoremReport("3b", True, False, {}, (4,)))
    assert not recheck_counterexample(m33, TheoremReport("2a", True, True, {}, None))
    # No counterexample exists where the hypothesis fails or the id is unknown.
    assert not recheck_counterexample(m33, TheoremReport("4", True, False, {}, (0,)))
    p1 = projective_loop_map()
    assert not recheck_counterexample(p1, TheoremReport("2a", True, False, {}, (0,)))
    assert not recheck_counterexample(m33, TheoremReport("9", True, False, {}, (0,)))


@pytest.mark.parametrize("build, tid, field, wrong", [
    (k33_map, "2a", "want", lambda a: a.vertex_bonds),
    (k33_map, "3c", "want", lambda a: a.vertex_bonds),
    (k33_map, "1a", "got", lambda a: (a.vertex_bonds, a.vertex_bonds)),
    (single_face_dual, "4", "got", lambda a: a.face),
], ids=["2a", "3c", "1a", "4"])
def test_recheck_confirms_a_wrong_claims_witness(monkeypatch, build, tid, field, wrong):
    """A table entry with a deliberately wrong operand is violated on a real
    map: the check reports a witness, recheck of the same entry confirms
    it, and the true claim rejects it."""
    analysis = MapAnalysis(build())
    claim = replace(theorems._BY_ID[tid], **{field: wrong})
    report = claim.check(analysis)
    assert report.applicable and not report.holds
    assert report.counterexample is not None
    assert claim.confirms(analysis, report.counterexample)
    assert not recheck_counterexample(analysis, report)
    if claim.relation == "meet":
        # Recheck tests membership in both operands, not in a computed meet.
        monkeypatch.setattr(Gf2Subspace, "intersect", None)
        assert claim.confirms(analysis, report.counterexample)


def test_theorem4_on_searched_k4_map():
    from conftest import k4_graph
    from mapcalc import search_embedding

    outcome = search_embedding(k4_graph())
    assert outcome.status == "found"
    report = check_theorem4(outcome.map)
    assert report.applicable and report.holds
    assert report.counterexample is None
    assert recheck_counterexample(outcome.map, TheoremReport("4", True, False, {}, (0,))) is False


def test_splitting_a_balanced_edge_exposes_its_interlacement():
    """Turning one balanced edge of a one-vertex map into its dual role
    splits the vertex in two, and the bond between the halves is exactly
    {x} plus the interlacement of x in the vertex word."""
    rng = random.Random(71)
    checked = 0
    for _ in range(25):
        map_ = from_signed_word(random_signed_word(rng, rng.randint(1, 6)))
        w = vertex_word(map_)
        for x in range(map_.m):
            if not w.same_direction(x):
                continue
            split = apply_permutation(map_, [x], "lsd")
            dec = gons(split, "v")
            assert dec.count == 2
            g = induced_graph(split, "v")
            expected = kappa(w, x) + interlacement(w, x)
            assert bond_of(g, {0}) == expected
            checked += 1
    assert checked >= 20

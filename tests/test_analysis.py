"""One analysis per map: what verify_all builds, and that checks read it."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from conftest import k33_map, single_face_dual
from mapcalc import (
    MapAnalysis,
    TheoremReport,
    check_absorption,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    recheck_counterexample,
    verify_all,
)
from mapcalc import gem, gf2, spaces, words


def count_calls(monkeypatch, module, name: str, key=lambda *args: None) -> Counter:
    """Replace every mapcalc module binding of module.name by a wrapper
    that counts its calls, keyed by key(*args)."""
    original = getattr(module, name)
    calls: Counter = Counter()

    def counted(*args, **kwargs):
        calls[key(*args)] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "mapcalc" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_method(monkeypatch, cls, name: str) -> Counter:
    """Count the calls of cls.name, whoever makes them."""
    original = getattr(cls, name)
    calls: Counter = Counter()

    def counted(*args):
        calls[None] += 1
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("build, theorem4", [(k33_map, False), (single_face_dual, True)])
def test_verify_all_builds_each_artefact_once(monkeypatch, build, theorem4):
    map_ = build()
    expected = verify_all(map_)
    graphs = count_calls(monkeypatch, gem, "induced_graph", key=lambda m, kind: kind)
    bonds = count_calls(monkeypatch, spaces, "bond_space")
    analyses = count_method(monkeypatch, MapAnalysis, "__init__")
    operators = count_calls(monkeypatch, words, "c_operator")
    labels = count_calls(monkeypatch, gem, "gon_labels", key=lambda alpha, partner: partner)
    permutations = count_calls(monkeypatch, gem, "apply_permutation")
    reports = verify_all(map_)
    assert reports == expected
    assert reports[-1].applicable is theorem4 and reports[-1].holds
    assert graphs == {"v": 1, "f": 1, "z": 1}
    assert sum(bonds.values()) == 3
    assert sum(analyses.values()) == 1
    # c_P is built from its word and c_P~ = 1 + c_P; c_D too when f = 1.
    assert sum(operators.values()) == (2 if theorem4 else 1)
    # One trace per gon kind serves the counts and graphs; the words are
    # read off their gons, so no phial or dual is built.
    assert labels == {gem.PARTNER[kind]: 1 for kind in "vfz"}
    assert sum(permutations.values()) == 0


@pytest.mark.parametrize("build, composed", [(k33_map, 0), (single_face_dual, 1)])
def test_verify_all_composes_only_for_theorem4(monkeypatch, build, composed):
    """c_P~ o c_P is read from the word operators' own forward passes, one
    each; only theorem 4's c_P~ o c_D is composed, when f = 1."""
    analysis = MapAnalysis(build())
    composes = count_method(monkeypatch, gf2.LinearOp, "compose")
    passes = count_calls(monkeypatch, gf2, "_forward_pass", key=lambda rows, width: tuple(rows))
    assert all(r.holds for r in verify_all(analysis))
    assert sum(composes.values()) == composed
    words = {tuple(c | 1 << (op.m + j) for j, c in enumerate(op.cols))
             for op in (analysis.zigzag, analysis.zigzag_complement)}
    assert passes == {rows: 1 for rows in words}


def test_checks_accept_a_map_or_its_analysis():
    map_ = single_face_dual()
    analysis = MapAnalysis(map_)
    assert MapAnalysis.of(analysis) is analysis
    assert MapAnalysis.of(map_).map is map_
    for check in (check_absorption, check_theorem2, check_theorem3, check_theorem4):
        assert check(analysis) == check(map_)
    assert verify_all(analysis) == verify_all(map_)
    fake = TheoremReport("4", True, False, {}, (0,))
    assert recheck_counterexample(analysis, fake) == recheck_counterexample(map_, fake) is False


def test_artefacts_are_kept_and_complete_builds_them(monkeypatch):
    graphs = count_calls(monkeypatch, gem, "induced_graph", key=lambda m, kind: kind)
    analysis = MapAnalysis(k33_map())
    assert analysis.complete() is analysis
    assert analysis.counts == (6, 4, 1)
    assert analysis.face is None and analysis.face_product is None
    product = analysis.zigzag_complement.compose(analysis.zigzag)
    assert analysis.zigzag_product_spaces == (product.image(), product.kernel())
    assert analysis.zigzag_product_spaces is analysis.zigzag_product_spaces
    assert graphs == {"v": 1, "f": 1, "z": 1}
    check_absorption(analysis)
    check_theorem3(analysis)
    assert graphs == {"v": 1, "f": 1, "z": 1}


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_absorption_builds_no_cycle_space(monkeypatch, build):
    map_ = build()
    cycles = count_calls(monkeypatch, spaces, "_checked_cycle_space")
    perps = count_method(monkeypatch, gf2.Gf2Subspace, "perp")
    bonds = count_calls(monkeypatch, spaces, "bond_space")
    assert all(r.holds for r in check_absorption(map_))
    assert sum(cycles.values()) == 0
    assert sum(perps.values()) == 0
    assert sum(bonds.values()) == 3


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_verify_all_builds_no_zigzag_cycle_space(monkeypatch, build):
    analysis = MapAnalysis(build())
    cycles = count_calls(monkeypatch, spaces, "_checked_cycle_space",
                         key=lambda g, bonds: g)
    verify_all(analysis)
    assert cycles == {analysis.vertex_graph: 1, analysis.face_graph: 1}


def test_complete_builds_all_six_spaces(monkeypatch):
    analysis = MapAnalysis(k33_map())
    cycles = count_calls(monkeypatch, spaces, "_checked_cycle_space",
                         key=lambda g, bonds: g)
    bonds = count_calls(monkeypatch, spaces, "bond_space", key=lambda g: g)
    analysis.complete()
    graphs = (analysis.vertex_graph, analysis.face_graph, analysis.zigzag_graph)
    assert cycles == bonds == {g: 1 for g in graphs}
    verify_all(analysis)
    assert cycles == bonds == {g: 1 for g in graphs}


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_cross_check_guards_every_cycle_space_read(monkeypatch, build):
    map_ = build()
    original = spaces._fundamental_cycles

    def one_short(g):
        return original(g)[1:]

    monkeypatch.setattr(spaces, "_fundamental_cycles", one_short)
    assert all(r.holds for r in check_absorption(map_))
    with pytest.raises(AssertionError, match="cycle space"):
        verify_all(map_)


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_cross_check_guards_the_perp_side(monkeypatch, build):
    """A perp that drops a row no longer matches the fundamental cycles."""
    map_ = build()
    original = gf2.Gf2Subspace.perp

    def one_short(self):
        space = original(self)
        return gf2.Gf2Subspace(space.m, space.rows[1:])

    monkeypatch.setattr(gf2.Gf2Subspace, "perp", one_short)
    assert all(r.holds for r in check_absorption(map_))
    with pytest.raises(AssertionError, match="cycle space"):
        verify_all(map_)

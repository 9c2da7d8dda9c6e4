"""The construction rule (gem module docstring): every count, id and size
goes through gem._as_int, and every builder that skips the public
constructor's checks through gem._prechecked builds exactly the object
that the public constructor builds from the same fields."""

from __future__ import annotations

import random
import re
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path

import pytest

from conftest import random_connected_map, random_signed_word
import mapcalc
from mapcalc import (
    FlagMap,
    Gf2Subspace,
    LinearOp,
    MapAnalysis,
    MultiGraph,
    RotationSystem,
    SearchBudget,
    SignedWord,
    apply_permutation,
    bond_space,
    c_operator,
    dual,
    enumerate_maps,
    from_signed_word,
    gon_counts,
    gon_word,
    gons,
    induced_graph,
    single_edge_map,
    subdivide_graph,
    zigzag_map_from_word,
)
from mapcalc import search
from mapcalc.cli import _BUDGET_FLAGS
from mapcalc.gem import PARTNER, _gon_graph, gon_labels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import SearchSubdiv  # noqa: E402

EDGE = MultiGraph(2, ((0, 1),))
EDGE_ROTATIONS = (((0, 0),), ((0, 1),))


def not_an_integer(value) -> str:
    return f"^expected an integer, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("build, value", [
    pytest.param(lambda v: FlagMap(v, (1, 0, 3, 2)), 1.0, id="flagmap-m"),
    pytest.param(lambda v: MultiGraph(v, ()), 1.5, id="multigraph-n"),
    pytest.param(lambda v: MultiGraph(v, ((0, 1),)), 2.0, id="multigraph-n-whole-float"),
    pytest.param(lambda v: SignedWord(v, ()), "a", id="word-m-str"),
    pytest.param(lambda v: SignedWord(v, ()), 1.5, id="word-m-float"),
    pytest.param(lambda v: RotationSystem(EDGE, EDGE_ROTATIONS, {v}), 0.5, id="rotation-twist"),
    pytest.param(lambda v: RotationSystem(EDGE, (((v, 0),), ((0, 1),)), ()), 0.0,
                 id="rotation-dart-edge"),
    pytest.param(lambda v: RotationSystem(EDGE, (((0, 0),), ((0, v),)), ()), 1.0,
                 id="rotation-dart-end"),
])
def test_constructors_take_counts_and_ids_through_as_int(build, value):
    """A float or a string is refused with the ValueError that names it,
    not stored (FlagMap(1.0, ...) had flag_count 4.0 and was written as
    "gem 1.0") nor spelled into another message ("word must have aa
    entries")."""
    with pytest.raises(ValueError, match=not_an_integer(value)):
        build(value)


def test_rotation_darts_are_read_as_pairs_of_integers():
    """A dart given as a list is the same dart; a dart that is not a pair
    is a ValueError naming it, not a TypeError from the set check."""
    listed = RotationSystem(EDGE, ([[0, 0]], [[0, 1]]), ())
    assert listed == RotationSystem(EDGE, EDGE_ROTATIONS, ())
    assert_built_as_public(listed)
    for dart in (0, (0, 0, 0), None):
        with pytest.raises(ValueError, match=f"^dart {re.escape(repr(dart))} is not a pair of integers$"):
            RotationSystem(EDGE, ((dart,), ((0, 1),)), ())


def test_constructors_store_a_bool_count_as_0_or_1():
    bool_darts = RotationSystem(EDGE, (((False, False),), ((0, True),)), ())
    built = (FlagMap(True, (1, 0, 3, 2)).m, MultiGraph(True, ()).n,
             SignedWord(True, ((0, 1), (0, 1))).m, *RotationSystem(EDGE, EDGE_ROTATIONS, {False}).twists,
             *(x for rot in bool_darts.rotations for dart in rot for x in dart))
    assert built == (1, 1, 1, 0, 0, 0, 0, 1) and {type(x) for x in built} == {int}
    assert bool_darts.rotations == EDGE_ROTATIONS


@pytest.mark.parametrize("call, value", [
    pytest.param(lambda: list(enumerate_maps(1.5)), 1.5, id="enumerate_maps"),
    pytest.param(lambda: FlagMap.from_pairs(1.5, ()), 1.5, id="from_pairs"),
    pytest.param(lambda: apply_permutation(single_edge_map(), [0.5], "lsd"), 0.5, id="apply_permutation"),
    pytest.param(lambda: subdivide_graph(EDGE, (0.5,)), 0.5, id="subdivide_graph"),
])
def test_functions_take_counts_and_ids_through_as_int(call, value):
    with pytest.raises(ValueError, match=not_an_integer(value)):
        call()


@pytest.mark.parametrize("kwargs, message", [
    ({"max_subdivisions": 0.5}, "max_subdivisions must be an integer, got 0.5"),
    ({"max_candidates": 1.5}, "max_candidates must be an integer, got 1.5"),
    ({"max_candidates": "7"}, "max_candidates must be an integer, got '7'"),
    ({"time_limit": "a"}, "time_limit must be positive and finite"),
])
def test_search_budget_names_the_field_of_a_value_that_is_not_a_number(kwargs, message):
    """The message starts with the field, which the CLI turns into its flag."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        SearchBudget(**kwargs)
    assert str(exc.value).partition(" ")[0] in _BUDGET_FLAGS
    assert SearchBudget(max_candidates=True, max_subdivisions=False) == SearchBudget(1, 0)


@pytest.mark.parametrize("read", [gons, induced_graph, gon_word])
def test_an_unknown_gon_kind_is_refused_by_name(read):
    with pytest.raises(ValueError, match=r"^gon kind must be 'v', 'f' or 'z', got 'x'$"):
        read(single_edge_map(), "x")


def assert_built_as_public(got) -> None:
    """got equals, hashes as and has the same field values, down to their
    reprs (a bool or a list would show), as the object its class's
    checking constructor builds from got's fields."""
    cls = type(got)
    values = [getattr(got, f.name) for f in fields(cls)]
    public = cls(*values)
    assert got == public and hash(got) == hash(public)
    assert [repr(v) for v in values] == [repr(getattr(public, f.name)) for f in fields(cls)]


def seeded_maps():
    """Every map with m <= 3, then seeded connected maps up to m = 350."""
    for m in (1, 2, 3):
        yield from enumerate_maps(m)
    rng = random.Random(30)
    for m in (4, 7, 31, 63, 64, 65, 128, 250, 301, 350):
        yield random_connected_map(rng, m)


def test_gon_graph_builds_what_the_public_constructor_builds():
    built = 0
    for map_ in seeded_maps():
        for p in PARTNER.values():
            count, gon_of, _ = gon_labels(map_.alpha, p)
            assert_built_as_public(_gon_graph(count, gon_of, p))
            built += 1
    assert built == 3 * (3 + 96 + 9504 + 10)


def test_one_gon_kinds_take_the_bouquet_and_the_zero_bond_space():
    """On every kind with one gon of every map with m <= 3, the bouquet
    _gon_graph returns with no pass over gon_of is the graph read off the
    gon ids, and bond_space returns the zero space, the RREF of that
    graph's one star, with no star pass."""
    checked = 0
    for m in (1, 2, 3):
        for map_ in enumerate_maps(m):
            for p in PARTNER.values():
                count, gon_of, _ = gon_labels(map_.alpha, p)
                if count != 1:
                    continue
                b = 2 if p == 1 else 1
                g = _gon_graph(count, gon_of, p)
                assert g == MultiGraph(1, tuple((gon_of[x], gon_of[x + b]) for x in range(0, 4 * m, 4)))
                assert_built_as_public(g)
                stars = [0]
                for e, (u, v) in enumerate(g.edges):
                    stars[u] ^= 1 << e
                    stars[v] ^= 1 << e
                assert bond_space(g) == Gf2Subspace.span(m, stars) == Gf2Subspace.zero(m)
                checked += 1
    assert checked == 3 * (2 + 48 + 3840)


def test_bond_space_builds_what_span_builds():
    """The unchecked RREF of the stars is Gf2Subspace.span of the same
    stars, written here with a loop of its own."""
    for map_ in seeded_maps():
        for kind in "vfz":
            g = induced_graph(map_, kind)
            stars = [sum(1 << e for e, (a, b) in enumerate(g.edges) if (a == v) != (b == v))
                     for v in range(g.n)]
            assert bond_space(g) == Gf2Subspace.span(g.edge_count, stars)


def test_subdivide_graph_builds_what_the_public_constructor_builds():
    """On the search-subdiv pool graphs, with every 0/1 count per edge."""
    built = 0
    for g, _ in SearchSubdiv().build(mapcalc, 0):
        for counts in product((0, 1), repeat=g.edge_count):
            h = subdivide_graph(g, counts)
            assert_built_as_public(h)
            assert h.n == g.n + sum(counts)
            built += 1
    assert built > 120 * 16


def test_enumerate_maps_builds_what_the_public_constructor_builds():
    """Every map with m <= 3; a list alpha would show in its repr."""
    built = 0
    for m in (1, 2, 3):
        for map_ in enumerate_maps(m):
            assert_built_as_public(map_)
            built += 1
    assert built == 3 + 96 + 9504


def test_winner_rotation_systems_build_what_the_public_constructor_builds(monkeypatch):
    """The rotation system of every map found on the search-subdiv pool
    graphs at their benchmark budget, with and without subdivisions."""
    systems = []
    original = search.embedding_to_map

    def kept(rs):
        systems.append(rs)
        return original(rs)

    monkeypatch.setattr(search, "embedding_to_map", kept)
    workload = SearchSubdiv()
    subdivided = sum(sum(workload.item(mapcalc, g, seed).subdivisions or ())
                     for g, seed in workload.build(mapcalc, 0))
    assert len(systems) == 119 and subdivided > 0
    for rs in systems:
        assert_built_as_public(rs)


def one_face_one_zigzag(rng, m):
    """The dual of a seeded one-vertex map with one zigzag: f = z = 1."""
    while True:
        one_vertex = from_signed_word(random_signed_word(rng, m))
        if gon_counts(one_vertex)[2] == 1:
            return dual(one_vertex)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 300])
def test_word_operators_build_what_the_public_constructor_builds(m):
    """c_operator, c_P~ and c_P~ o c_D equal LinearOp(m, cols) on their
    own columns."""
    rng = random.Random(m)
    word = random_signed_word(rng, m)
    zig = MapAnalysis(zigzag_map_from_word(word))
    both = MapAnalysis(one_face_one_zigzag(rng, m))
    for op in (c_operator(word), zig.zigzag, zig.zigzag_complement, both.zigzag_complement,
               both.face_product):
        assert type(op) is LinearOp
        assert_built_as_public(op)

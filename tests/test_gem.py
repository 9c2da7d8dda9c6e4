"""Unit tests for the core map structure, gons and role permutations."""

from __future__ import annotations

import random

import pytest

from conftest import k33_map, random_connected_map, random_signed_word
from mapcalc import (
    FlagMap,
    MultiGraph,
    antimap,
    apply_permutation,
    dual,
    euler_connectivity,
    from_signed_word,
    gon_counts,
    gons,
    induced_graph,
    loop_balance,
    loop_balances,
    normalize,
    orientable,
    phial,
    projective_loop_map,
    single_edge_map,
    sphere_loop_map,
    validate,
)
from mapcalc.gem import _CLASS_PAIRS, _NORMALIZE_OFFSETS, parse_role_permutation

ALL_PERMS = ("sld", "lsd", "dls", "sdl", "dsl", "lds")


def test_factories_are_valid():
    for map_ in (sphere_loop_map(), projective_loop_map(), single_edge_map()):
        assert map_.m == 1
        assert validate(map_).ok


def test_factory_profiles():
    assert gon_counts(sphere_loop_map()) == (1, 2, 1)
    assert gon_counts(projective_loop_map()) == (1, 1, 2)
    assert gon_counts(single_edge_map()) == (2, 1, 1)


def test_euler_connectivity_values():
    assert euler_connectivity(sphere_loop_map()) == (2, 0)
    assert euler_connectivity(projective_loop_map()) == (1, 1)
    assert euler_connectivity(single_edge_map()) == (2, 0)


def test_orientability():
    assert orientable(sphere_loop_map())
    assert not orientable(projective_loop_map())
    assert orientable(single_edge_map())


def test_loop_balance_values():
    assert loop_balance(sphere_loop_map(), 0) == "balanced"
    assert loop_balance(projective_loop_map(), 0) == "unbalanced"
    assert loop_balance(single_edge_map(), 0) == "not_a_loop"
    with pytest.raises(ValueError):
        loop_balance(sphere_loop_map(), 1)


def reference_loop_balance(map_: FlagMap, edge: int) -> str:
    """The per-edge rule: normalize, trace the v-gons, compare the
    positions of flags 4e and 4e+2 on their gon."""
    nm = normalize(map_)
    dec = gons(nm, "v")
    if dec.gon_of[4 * edge] != dec.gon_of[4 * edge + 2]:
        return "not_a_loop"
    seq = dec.gons[dec.gon_of[4 * edge]]
    same = seq.index(4 * edge) % 2 == seq.index(4 * edge + 2) % 2
    return "balanced" if same else "unbalanced"


def test_loop_balances_match_the_per_edge_rule():
    rng = random.Random(41)
    seen = set()
    for i in range(300):
        m = rng.randint(1, 6)
        if i % 2:
            map_ = random_connected_map(rng, m)
        else:
            map_ = from_signed_word(random_signed_word(rng, m))
        rects = [r for r in range(m) if rng.random() < 0.5]
        map_ = apply_permutation(map_, rects, rng.choice(ALL_PERMS))
        expected = tuple(reference_loop_balance(map_, e) for e in range(m))
        assert loop_balances(map_) == expected
        assert tuple(loop_balance(map_, e) for e in range(m)) == expected
        seen.update(expected)
    assert seen == {"balanced", "unbalanced", "not_a_loop"}


def test_constructor_shape_checks():
    with pytest.raises(ValueError):
        FlagMap(0, ())
    with pytest.raises(ValueError):
        FlagMap(1, (1, 0, 3))
    with pytest.raises(ValueError):
        FlagMap(1, (1, 0, 3, 4))
    with pytest.raises(ValueError):
        FlagMap(1, (1, 0, 3, 2), roles=("AB",))
    with pytest.raises(ValueError):
        FlagMap(1, (1, 0, 3, 2), roles=("ABD",))
    with pytest.raises(ValueError):
        FlagMap(1, (1, 0, 3, 2), roles=("ABC", "ABC"))


def test_from_pairs_checks():
    with pytest.raises(ValueError):
        FlagMap.from_pairs(1, ((0, 4), (1, 2)))
    with pytest.raises(ValueError):
        FlagMap.from_pairs(1, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        FlagMap.from_pairs(1, ((0, 1),))


def test_validate_reports_fixed_points():
    report = validate(FlagMap(1, (0, 1, 3, 2)))
    assert report.involution
    assert not report.fixed_point_free
    assert not report.ok
    assert report.failures() == ("fixed_point_free",)


def test_validate_reports_non_involution():
    report = validate(FlagMap(1, (1, 0, 3, 0)))
    assert not report.involution


def test_validate_reports_disconnected():
    two_spheres = FlagMap.from_pairs(2, ((1, 2), (3, 0), (5, 6), (7, 4)))
    report = validate(two_spheres)
    assert report.involution and report.fixed_point_free
    assert not report.connected
    assert "connected" in report.failures()


def test_validate_reports_bad_roles():
    report = validate(FlagMap(1, (1, 0, 3, 2), roles=("AAB",)))
    assert not report.roles_bijective
    assert not report.squares_ok


def test_role_partners_on_canonical_roles():
    map_ = single_edge_map()
    assert map_.role_partner(0, "v") == 1
    assert map_.role_partner(0, "f") == 3
    assert map_.role_partner(0, "z") == 2
    assert map_.role_class(0, "v") == "A"


def test_gon_traversals_on_sphere_loop():
    s1 = sphere_loop_map()
    v = gons(s1, "v")
    assert v.gons == ((0, 1, 2, 3),)
    f = gons(s1, "f")
    assert f.partition() == frozenset({frozenset({0, 3}), frozenset({1, 2})})
    assert f.gon_of == (0, 1, 1, 0)
    z = gons(s1, "z")
    assert z.count == 1


def test_gons_partition_all_flags():
    rng = random.Random(3)
    for _ in range(20):
        map_ = random_connected_map(rng, rng.randint(1, 4))
        for kind in "vfz":
            dec = gons(map_, kind)
            flat = [x for g in dec.gons for x in g]
            assert sorted(flat) == list(range(map_.flag_count))
            assert all(len(g) % 2 == 0 for g in dec.gons)
            assert all(dec.gon_of[x] == i for i, g in enumerate(dec.gons) for x in g)


def test_parse_role_permutation():
    assert parse_role_permutation("sld") == (0, 1, 2)
    assert parse_role_permutation("lsd") == (1, 0, 2)
    for bad in ("ssd", "xyz", "sl", "slds"):
        with pytest.raises(ValueError):
            parse_role_permutation(bad)


def test_role_permutation_words():
    s1 = sphere_loop_map()
    assert dual(s1).roles == ("BAC",)
    assert phial(s1).roles == ("CBA",)
    assert antimap(s1).roles == ("ACB",)
    assert apply_permutation(s1, None, "sld").roles == ("ABC",)


def test_permutations_compose_like_s3():
    m33 = k33_map()
    assert dual(phial(m33)) == antimap(dual(m33))
    s1 = sphere_loop_map()
    assert dual(phial(s1)).roles == ("BCA",)
    assert phial(dual(s1)).roles == ("CAB",)


def test_permutations_are_involutions():
    rng = random.Random(5)
    for _ in range(10):
        map_ = random_connected_map(rng, rng.randint(1, 3))
        for op in (dual, phial, antimap):
            assert op(op(map_)) == map_


def test_permutation_swaps_gon_counts():
    m33 = k33_map()
    v, f, z = gon_counts(m33)
    assert gon_counts(dual(m33)) == (f, v, z)
    assert gon_counts(phial(m33)) == (z, f, v)
    assert gon_counts(antimap(m33)) == (v, z, f)


def test_permutation_fixes_named_gons():
    rng = random.Random(9)
    for _ in range(10):
        map_ = random_connected_map(rng, rng.randint(1, 3))
        assert gons(dual(map_), "z").partition() == gons(map_, "z").partition()
        assert gons(phial(map_), "f").partition() == gons(map_, "f").partition()
        assert gons(antimap(map_), "v").partition() == gons(map_, "v").partition()


def test_partial_permutation():
    m33 = normalize(k33_map())
    mixed = apply_permutation(m33, [0, 2], "lsd")
    assert mixed.roles[0] == "BAC" and mixed.roles[2] == "BAC"
    assert mixed.roles[1] == "ABC"
    assert apply_permutation(mixed, [0, 2], "lsd") == m33
    with pytest.raises(ValueError):
        apply_permutation(m33, [9], "lsd")


def test_normalize_offsets_realize_role_strings():
    for role, h in _NORMALIZE_OFFSETS.items():
        for i, letter in enumerate("ABC"):
            images = frozenset(
                frozenset(h[o] for o in pair) for pair in _CLASS_PAIRS[letter]
            )
            want = frozenset(frozenset(pair) for pair in _CLASS_PAIRS[role[i]])
            assert images == want, (role, letter)


def test_normalize_dual_of_sphere_loop():
    normalized = normalize(dual(sphere_loop_map()))
    assert normalized == single_edge_map()


def test_normalize_preserves_gon_structure():
    rng = random.Random(17)
    for _ in range(15):
        map_ = random_connected_map(rng, rng.randint(1, 3))
        for word in ALL_PERMS:
            turned = apply_permutation(map_, None, word)
            flat = normalize(turned)
            assert flat.roles == ("ABC",) * flat.m
            assert validate(flat).ok
            for kind in "vfz":
                assert sorted(gons(flat, kind).sizes()) == sorted(gons(turned, kind).sizes())
        assert normalize(map_) is map_


def test_balance_flips_under_antimap():
    assert loop_balance(antimap(sphere_loop_map()), 0) == "unbalanced"
    assert loop_balance(antimap(projective_loop_map()), 0) == "balanced"


def test_multigraph_basics():
    g = MultiGraph(3, ((0, 1), (1, 2), (2, 0), (1, 1)))
    assert g.edge_count == 4
    assert g.degrees() == (2, 4, 2)
    assert g.is_loop(3) and not g.is_loop(0)
    assert g.is_connected()
    assert not g.is_bipartite()
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        MultiGraph(0, ())


def test_multigraph_bipartite():
    assert MultiGraph(2, ((0, 1), (0, 1))).is_bipartite()
    assert not MultiGraph(3, ((0, 1), (1, 2), (2, 0))).is_bipartite()
    assert not MultiGraph(1, ((0, 0),)).is_bipartite()


def test_induced_graph_of_sphere_loop():
    s1 = sphere_loop_map()
    gv = induced_graph(s1, "v")
    assert (gv.n, gv.edges) == (1, ((0, 0),))
    gf = induced_graph(s1, "f")
    assert gf.n == 2 and not gf.is_loop(0)
    gz = induced_graph(s1, "z")
    assert gz.n == 1 and gz.is_loop(0)


def test_induced_graph_of_k33_embedding():
    m33 = k33_map()
    g = induced_graph(m33, "v")
    assert g.n == 6 and g.edge_count == 9
    assert g.degrees() == (3,) * 6
    assert g.is_bipartite()
    assert not orientable(m33)
    assert euler_connectivity(m33) == (1, 1)
    zg = induced_graph(m33, "z")
    assert zg.n == 1 and all(zg.is_loop(e) for e in range(9))

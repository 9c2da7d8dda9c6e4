"""Unit tests for the core map structure, gons and role permutations."""

from __future__ import annotations

import random
import re

import pytest

from conftest import k33_map, random_connected_map, random_signed_word, reference_gons
from mapcalc import (
    FlagMap,
    MultiGraph,
    antimap,
    apply_permutation,
    dual,
    euler_connectivity,
    from_signed_word,
    gon_counts,
    gon_labels,
    gons,
    induced_graph,
    loop_balance,
    loop_balances,
    orientable,
    phial,
    projective_loop_map,
    single_edge_map,
    sphere_loop_map,
    validate,
)
from mapcalc.gem import _PERMUTATION_OFFSETS, PARTNER, _rectangles_reached

ALL_PERMS = ("sld", "lsd", "dls", "sdl", "dsl", "lds")


def role_image(word):
    """Role indices (s, l, d = 0, 1, 2) that a permutation word sends s, l, d to."""
    return tuple("sld".index(c) for c in word)


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


def test_loop_balance_names_an_edge_that_is_not_an_integer():
    """0.0 is refused with the ValueError of MultiGraph, not a TypeError
    from indexing the balances; False is edge 0."""
    with pytest.raises(ValueError, match=r"^expected an integer, got 0\.0$"):
        loop_balance(sphere_loop_map(), 0.0)
    assert loop_balance(sphere_loop_map(), False) == "balanced"


def reference_loop_balance(map_: FlagMap, edge: int) -> str:
    """The per-edge rule: trace the v-gons, compare the positions of
    flags 4e and 4e+2 on their gon."""
    seqs, gon_of = reference_gons(map_, "v")
    if gon_of[4 * edge] != gon_of[4 * edge + 2]:
        return "not_a_loop"
    seq = seqs[gon_of[4 * edge]]
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


def test_constructor_rejects_a_non_permutation():
    """A gon walk on such an alpha would never return to its start."""
    for alpha in ((1, 1, 1, 1), (1, 0, 3, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            FlagMap(1, alpha)


def test_constructor_messages():
    """Each refusal names its fault, a bad flag by its position; bools pass
    as the flag ids they equal, and the first bad flag is the one named."""
    cases = (
        (0, (), "need at least one rectangle"),
        (1, (1, 0, 3), "alpha must assign all 4 flags"),
        (2, (1, 0, 3, 2), "alpha must assign all 8 flags"),
        (1, (1, 0, 3.0, 2), "alpha[2] = 3.0 is not a flag id"),
        (1, (1, 0, "3", 2), "alpha[2] = '3' is not a flag id"),
        (1, (1, 0, 3, None), "alpha[3] = None is not a flag id"),
        (1, (1, 0, 3, 4), "alpha[3] = 4 is not a flag id"),
        (1, (-1, 0, 3, 2), "alpha[0] = -1 is not a flag id"),
        (1, (1, 4, 3.5, 2), "alpha[1] = 4 is not a flag id"),
        (1, (1, 0, 3, 0), "alpha is not a permutation of the flags"),
        (1, (True, True, 3, 2), "alpha is not a permutation of the flags"),
    )
    for m, alpha, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FlagMap(m, alpha)
    for alpha in ((True, False, 3, 2), [1, 0, 3, 2]):
        map_ = FlagMap(1, alpha)
        assert map_.alpha == (1, 0, 3, 2) and type(map_.alpha) is tuple
    assert FlagMap(1, (True, False, 3, 2)).alpha[0] is True


def test_from_pairs_checks():
    with pytest.raises(ValueError):
        FlagMap.from_pairs(1, ((0, 4), (1, 2)))
    with pytest.raises(ValueError):
        FlagMap.from_pairs(1, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        FlagMap.from_pairs(1, ((0, 1),))
    for pairs, message in ((((0, 1.0), (2, 3)), "flag 1.0 is not a flag id"),
                           (((0, 1), (2, "3")), "flag '3' is not a flag id")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FlagMap.from_pairs(1, pairs)
    assert FlagMap.from_pairs(1, ((0, True), (2, 3))) == FlagMap(1, (1, 0, 3, 2))


def test_validate_reports_fixed_points():
    report = validate(FlagMap(1, (0, 1, 3, 2)))
    assert report.involution
    assert not report.fixed_point_free
    assert not report.ok
    assert report.failures() == ("fixed_point_free",)


def test_validate_reports_non_involution():
    report = validate(FlagMap(1, (1, 2, 0, 3)))
    assert not report.involution


def test_validate_reports_disconnected():
    two_spheres = FlagMap.from_pairs(2, ((1, 2), (3, 0), (5, 6), (7, 4)))
    report = validate(two_spheres)
    assert report.involution and report.fixed_point_free
    assert not report.connected
    assert "connected" in report.failures()


def reference_flag_walk(alpha):
    """(flags reached, colouring proper) of a walk from flag 0 that steps
    along alpha and the short and long partners, two-colouring as it goes."""
    color = {0: 0}
    stack = [0]
    proper = True
    while stack:
        x = stack.pop()
        for y in (alpha[x], x ^ 1, x ^ 3):
            if y not in color:
                color[y] = color[x] ^ 1
                stack.append(y)
            elif color[y] == color[x]:
                proper = False
    return len(color), proper


def perfect_matchings(flags):
    """Every set of disjoint pairs covering the flags."""
    if not flags:
        yield []
        return
    x, rest = flags[0], flags[1:]
    for i, y in enumerate(rest):
        for pairs in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(x, y), *pairs]


def relabel_rectangles(map_, perm):
    """map_ with rectangle r renamed perm[r], each flag keeping its offset."""
    phi = [4 * perm[x >> 2] + (x & 3) for x in range(map_.flag_count)]
    alpha = [0] * map_.flag_count
    for x, y in enumerate(map_.alpha):
        alpha[phi[x]] = phi[y]
    return FlagMap(map_.m, alpha)


def test_rectangle_walk_matches_the_flag_walk():
    """Connectivity walks the m rectangles: a quarter of the flags a walk
    from flag 0 reaches, on all 10,395 pairings of the 12 flags at m = 3,
    on disjoint unions of random maps with their rectangles shuffled, and
    on permutations that are not involutions.  orientable is that walk's
    two-colouring."""
    seen = {True: 0, False: 0}
    for pairs in perfect_matchings(list(range(12))):
        map_ = FlagMap.from_pairs(3, pairs)
        count, proper = reference_flag_walk(map_.alpha)
        assert 4 * _rectangles_reached(map_.alpha) == count
        assert validate(map_).connected == (count == 12)
        assert orientable(map_) == proper
        seen[count == 12] += 1
    assert seen == {True: 9504, False: 891}
    rng = random.Random(25)
    for _ in range(60):
        parts = [random_connected_map(rng, rng.randint(1, 9)) for _ in range(rng.randint(2, 3))]
        alpha, base = [], 0
        for part in parts:
            alpha.extend(y + base for y in part.alpha)
            base += part.flag_count
        perm = list(range(base // 4))
        rng.shuffle(perm)
        union = relabel_rectangles(FlagMap(base // 4, alpha), perm)
        count, proper = reference_flag_walk(union.alpha)
        assert 4 * _rectangles_reached(union.alpha) == count < union.flag_count
        assert not validate(union).connected
        assert orientable(union) == proper
    for _ in range(200):
        m = rng.randint(1, 12)
        alpha = list(range(4 * m))
        rng.shuffle(alpha)
        count, _ = reference_flag_walk(alpha)
        assert 4 * _rectangles_reached(alpha) == count


def test_role_partners_on_canonical_roles():
    assert PARTNER == {"v": 1, "f": 3, "z": 2}
    map_ = single_edge_map()
    for kind, p in PARTNER.items():
        for seq in gons(map_, kind).gons:
            assert all(seq[i + 1] == seq[i] ^ p for i in range(0, len(seq), 2))


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


def test_gon_labels_match_the_gon_decomposition():
    """The one trace and gons(), which slices it, agree with a plain walk
    per gon, on maps with partial role permutations too; gon_counts reads
    the same counts."""
    rng = random.Random(16)
    for i in range(600):
        m = rng.randint(1, 12)
        map_ = random_connected_map(rng, m)
        if i % 2:
            rects = [r for r in range(m) if rng.random() < 0.5]
            map_ = apply_permutation(map_, rects, rng.choice(ALL_PERMS))
        counts = []
        for kind in "vfz":
            seqs, gon_of = reference_gons(map_, kind)
            order = [x for seq in seqs for x in seq]
            assert gon_labels(map_.alpha, PARTNER[kind]) == (len(seqs), gon_of, order)
            dec = gons(map_, kind)
            assert (dec.gons, dec.gon_of) == (tuple(map(tuple, seqs)), tuple(gon_of))
            counts.append(len(seqs))
        assert gon_counts(map_) == tuple(counts)


def test_parse_role_permutation():
    s1 = sphere_loop_map()
    assert apply_permutation(s1, None, "lsd") == dual(s1)
    for bad in ("ssd", "xyz", "sl", "slds"):
        with pytest.raises(ValueError, match=f"must rearrange 'sld', got {bad!r}"):
            apply_permutation(s1, None, bad)


def test_role_permutation_words():
    s1 = sphere_loop_map()
    assert phial(s1) == s1
    assert antimap(s1) == projective_loop_map()
    assert apply_permutation(s1, None, "sld") == s1
    # Only the word spelling is taken; a tuple of role indices is rejected.
    for bad in ((1, 0, 2), (0, 1, 5), (0, 0, 1), (0, 1)):
        with pytest.raises(ValueError, match="permutation word must rearrange 'sld'"):
            apply_permutation(s1, None, bad)


def test_permutations_compose_like_s3():
    m33 = k33_map()
    assert dual(phial(m33)) == antimap(dual(m33))
    s1 = sphere_loop_map()
    assert dual(phial(s1)) == single_edge_map()
    assert phial(dual(s1)) == projective_loop_map()


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
    m33 = k33_map()
    mixed = apply_permutation(m33, [0, 2], "lsd")
    changed = {x // 4 for x in range(m33.flag_count) if mixed.alpha[x] != m33.alpha[x]}
    assert {0, 2} <= changed
    assert apply_permutation(mixed, [0, 2], "lsd") == m33
    with pytest.raises(ValueError):
        apply_permutation(m33, [9], "lsd")


def test_permutation_offsets_realize_role_words():
    def pairs(p):
        return frozenset(frozenset((o, o ^ p)) for o in range(4))

    partners = (PARTNER["v"], PARTNER["f"], PARTNER["z"])
    assert sorted(_PERMUTATION_OFFSETS) == sorted(ALL_PERMS)
    for word, h in _PERMUTATION_OFFSETS.items():
        assert sorted(h) == [0, 1, 2, 3]
        image = role_image(word)
        for i in range(3):
            moved = frozenset(frozenset(h[o] for o in pair) for pair in pairs(partners[image[i]]))
            assert moved == pairs(partners[i]), (word, i)


def test_dual_of_sphere_loop_is_single_edge():
    assert dual(sphere_loop_map()) == single_edge_map()


def test_permutations_carry_gon_structure():
    rng = random.Random(17)
    for _ in range(15):
        map_ = random_connected_map(rng, rng.randint(1, 3))
        for word in ALL_PERMS:
            turned = apply_permutation(map_, None, word)
            assert validate(turned).ok
            image = role_image(word)
            for i, kind in enumerate("vfz"):
                moved = "vfz"[image[i]]
                want = sorted(len(g) for g in gons(map_, kind).gons)
                assert sorted(len(g) for g in gons(turned, moved).gons) == want


# An oracle for permutations that uses neither gem's partners nor its
# offset table: each rectangle carries a role string naming which of the
# pair classes A = {01, 23}, B = {12, 30} and C = {02, 13} plays its short,
# long and diagonal sides, a permutation rewrites only those strings and
# alpha stays put, and gons are walked through the named classes.
CLASS_PARTNER = {"A": (1, 0, 3, 2), "B": (3, 2, 1, 0), "C": (2, 3, 0, 1)}


def permute_role_strings(roles, rects, word):
    image = role_image(word)
    out = list(roles)
    for r in rects:
        new = [""] * 3
        for i in range(3):
            new[image[i]] = out[r][i]
        out[r] = "".join(new)
    return out


def cyclic_key(seq):
    """seq as a cycle, up to rotation and reversal."""
    return min(tuple(s[i:] + s[:i]) for s in (seq, seq[::-1]) for i in range(len(seq)))


def role_string_gon_rects(map_, roles, kind):
    """Sorted cyclic rectangle sequences of the gons of one kind."""
    idx = "vfz".index(kind)
    seen = set()
    out = []
    for start in range(map_.flag_count):
        if start in seen:
            continue
        rects = []
        x = start
        while True:
            r, o = divmod(x, 4)
            y = 4 * r + CLASS_PARTNER[roles[r][idx]][o]
            seen.update((x, y))
            rects.append(r)
            x = map_.alpha[y]
            if x == start:
                break
        out.append(cyclic_key(rects))
    return sorted(out)


def gon_rects(map_, kind):
    return sorted(cyclic_key([x // 4 for x in seq[::2]]) for seq in gons(map_, kind).gons)


def test_partial_permutations_match_role_string_walk():
    rng = random.Random(23)
    for i in range(80):
        m = rng.randint(1, 5)
        if i % 2:
            map_ = random_connected_map(rng, m)
        else:
            map_ = from_signed_word(random_signed_word(rng, m))
        for word in ALL_PERMS:
            rects = [r for r in range(m) if rng.random() < 0.5]
            roles = permute_role_strings(["ABC"] * m, rects, word)
            turned = apply_permutation(map_, rects, word)
            # A second permutation on another subset composes with the first.
            word2 = rng.choice(ALL_PERMS)
            rects2 = [r for r in range(m) if rng.random() < 0.5]
            roles2 = permute_role_strings(roles, rects2, word2)
            turned2 = apply_permutation(turned, rects2, word2)
            for kind in "vfz":
                assert gon_rects(turned, kind) == role_string_gon_rects(map_, roles, kind)
                assert gon_rects(turned2, kind) == role_string_gon_rects(map_, roles2, kind)


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


def test_multigraph_edges_are_int_pairs_built_once():
    edges = ((0, 1), (1, 1))
    assert MultiGraph(2, edges).edges is edges
    for spelling in ([[0, 1], (1, 1)], ((False, True), (1, True)), [(0, 1), [1, 1]]):
        g = MultiGraph(2, spelling)
        assert g.edges == edges and type(g.edges) is tuple
        assert all(type(e) is tuple and {type(u) for u in e} == {int} for e in g.edges)
    for bad in (((0, 1), (1, 2)), [(0, 1), [2, 0]], ((-1, 0),), ((True, 2),)):
        with pytest.raises(ValueError, match="out of range"):
            MultiGraph(2, bad)


def test_multigraph_refuses_ids_that_are_not_integers():
    """Endpoints go through operator.index: a float or a string is named
    in a ValueError, not truncated or parsed; bools still pass."""
    for value, edges in ((1.7, ((0, 1.7),)), ("1", [("1", 0)]), (None, [[0, None]])):
        with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(repr(value))}$"):
            MultiGraph(2, edges)
    assert MultiGraph(2, [(False, True)]).edges == ((0, 1),)


def test_multigraph_bipartite():
    assert MultiGraph(2, ((0, 1), (0, 1))).is_bipartite()
    assert not MultiGraph(3, ((0, 1), (1, 2), (2, 0))).is_bipartite()
    assert not MultiGraph(1, ((0, 0),)).is_bipartite()


def reference_incidence(g: MultiGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (edge id, other end); loops listed twice."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        inc[u].append((e, v))
        inc[v].append((e, u))
    return inc


def reference_tree_edges(g: MultiGraph) -> list[int]:
    """The search's former tree: breadth-first from vertex 0, each vertex's
    darts in order; the first edge that reaches a new vertex joins."""
    darts: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        darts[u].append((e, 0))
        darts[v].append((e, 1))
    seen = [False] * g.n
    seen[0] = True
    queue = [0]
    tree = []
    for u in queue:
        for e, _ in sorted(darts[u]):
            a, b = g.edges[e]
            v = b if a == u else a
            if not seen[v]:
                seen[v] = True
                tree.append(e)
                queue.append(v)
    return tree


def reference_roots(g: MultiGraph) -> list[int]:
    """The lowest vertex of each vertex's component, by depth-first search."""
    inc = reference_incidence(g)
    root = [-1] * g.n
    for s0 in range(g.n):
        if root[s0] != -1:
            continue
        root[s0] = s0
        stack = [s0]
        while stack:
            u = stack.pop()
            for _, w in inc[u]:
                if root[w] == -1:
                    root[w] = s0
                    stack.append(w)
    return root


def reference_is_connected(g: MultiGraph) -> bool:
    """The former MultiGraph.is_connected: a depth-first count from vertex 0."""
    inc = reference_incidence(g)
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for _, w in inc[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def reference_is_bipartite(g: MultiGraph) -> bool:
    """The former MultiGraph.is_bipartite: a depth-first two-colouring."""
    inc = reference_incidence(g)
    color = [-1] * g.n
    for s0 in range(g.n):
        if color[s0] != -1:
            continue
        color[s0] = 0
        stack = [s0]
        while stack:
            u = stack.pop()
            for _, w in inc[u]:
                if w == u:
                    return False
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def assert_tree_path(g: MultiGraph, tree: list[int], path: int, v: int, root: int) -> None:
    """path is the edge set of a path of tree edges from v to root."""
    left = {e for e in range(g.edge_count) if path >> e & 1}
    assert left <= set(tree)
    x = v
    while left:
        step = [e for e in left if x in g.edges[e]]
        assert len(step) == 1
        left.remove(step[0])
        a, b = g.edges[step[0]]
        assert a != b
        x = b if a == x else a
    assert x == root


def test_spanning_forest_matches_the_reference_walks():
    rng = random.Random(1101)
    for _ in range(3000):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        g = MultiGraph(n, tuple(edges))
        tree, paths = g.spanning_forest()
        roots = reference_roots(g)
        ref = reference_tree_edges(g)
        assert tree[:len(ref)] == ref
        assert len(tree) == g.n - len(set(roots))
        if reference_is_connected(g):
            assert tree == ref
        for v in range(g.n):
            assert_tree_path(g, tree, paths[v], v, roots[v])
        assert g.is_connected() == reference_is_connected(g)
        assert g.is_bipartite() == reference_is_bipartite(g)
        # A forest of some of the edges is the forest of the graph that has
        # only those edges, with its edge ids mapped back.
        among = sorted(rng.sample(range(len(edges)), rng.randint(0, len(edges))))
        sub_tree, sub_paths = MultiGraph(n, tuple(edges[e] for e in among)).spanning_forest()
        tree, paths = g.spanning_forest(among)
        assert tree == [among[i] for i in sub_tree]
        assert paths == [sum(1 << e for i, e in enumerate(among) if p >> i & 1) for p in sub_paths]


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

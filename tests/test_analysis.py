"""One analysis per map: what verify_all builds, and that checks read it."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from conftest import count_calls, k33_map, random_signed_word, single_face_dual
from mapcalc import (
    LinearOp,
    MapAnalysis,
    TheoremReport,
    check_absorption,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    dual,
    from_signed_word,
    gon_counts,
    recheck_counterexample,
    verify_all,
    zigzag_map_from_word,
)
from mapcalc import gem, gf2, spaces, words
from mapcalc import analysis as analysis_module

# The gon kind of each partner offset.
KIND = {p: kind for kind, p in gem.PARTNER.items()}


def count_method(monkeypatch, cls, name: str, key=lambda *args: None) -> Counter:
    """Count the calls of cls.name, whoever makes them, keyed by key(*args)."""
    original = getattr(cls, name)
    calls: Counter = Counter()

    def counted(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


# Perps per map in verify_all: one per distinct space among Bv, Bf and
# Bv + Bf.  On the single-face dual Bf = 0, so Bv + Bf = Bv.
PERPS = {k33_map: 3, single_face_dual: 2}


@pytest.mark.parametrize("build, theorem4", [(k33_map, False), (single_face_dual, True)])
def test_verify_all_builds_each_artefact_once(monkeypatch, build, theorem4):
    map_ = build()
    expected = verify_all(map_)
    graphs = count_calls(monkeypatch, gem, "_gon_graph", key=lambda count, gon_of, p: KIND[p])
    bonds = count_calls(monkeypatch, spaces, "bond_space")
    analyses = count_method(monkeypatch, MapAnalysis, "__init__")
    operators = count_calls(monkeypatch, words, "c_operator")
    word_products = count_calls(monkeypatch, words, "_word_columns")
    traces = count_calls(monkeypatch, gem, "gon_labels", key=lambda alpha, p: KIND[p])
    gon_words = count_calls(monkeypatch, words, "gon_word")
    permutations = count_calls(monkeypatch, gem, "apply_permutation")
    perps = count_method(monkeypatch, gf2.Gf2Subspace, "perp")
    reports = verify_all(map_)
    assert reports == expected
    assert reports[-1].applicable is theorem4 and reports[-1].holds
    assert graphs == {"v": 1, "f": 1, "z": 1}
    assert sum(bonds.values()) == 3
    assert sum(analyses.values()) == 1
    # c_P is built from its word and c_P~ = 1 + c_P.  c_P~ o c_D, when
    # f = 1, is composed from the f-word by prefix images, so c_D itself is
    # never built.  The kernels are walked off the z-word, so c_P o c_P is
    # not built either.
    assert sum(operators.values()) == 1
    assert sum(word_products.values()) == (2 if theorem4 else 1)
    # One trace per gon kind serves the counts, the graphs and the words of
    # the single gons, so no gon is walked again and no phial or dual is
    # built.
    assert traces == {"v": 1, "f": 1, "z": 1}
    assert sum(gon_words.values()) == 0
    assert sum(permutations.values()) == 0
    # As 2b, 2d and 3c hold, Im c_P, Im c_P~ and Im c_P~ o c_P are the
    # perps of Bv, Bf and Bv + Bf, the very objects Cv, Cf and 3b's target.
    assert sum(perps.values()) == PERPS[build]


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_verify_all_eliminates_nothing_and_composes_nothing(monkeypatch, build):
    """c_P~ o c_D is composed from the f-word by prefix images, and the
    kernels of theorems 2 and 3 are certified by one link walk of the
    z-word each, so no operator's kernel is eliminated."""
    analysis = MapAnalysis(build())
    composes = count_method(monkeypatch, gf2.LinearOp, "compose")
    kernels = count_method(monkeypatch, gf2.LinearOp, "kernel")
    walks = count_calls(monkeypatch, words, "_link_cycles", key=lambda w, complement: complement)
    assert all(r.holds for r in verify_all(analysis))
    assert sum(composes.values()) == 0
    assert sum(kernels.values()) == 0
    assert walks == {False: 1, True: 1}


def test_analysis_matches_the_operator_api():
    """The split kernels, the images read as their perps, and the word
    products against LinearOp's own kernel, image and compose, on seeded
    single-zigzag maps: from random words, and duals of one-vertex maps
    with one zigzag (f = z = 1)."""
    rng = random.Random(61)
    maps = [zigzag_map_from_word(random_signed_word(rng, m)) for m in range(1, 41)]
    while len(maps) < 80:
        map_ = from_signed_word(random_signed_word(rng, rng.randint(1, 40)))
        if gon_counts(map_)[2] == 1:
            maps.append(dual(map_))
    for map_ in maps:
        analysis = MapAnalysis(map_)
        zig, comp = analysis.zigzag, analysis.zigzag_complement
        product = comp.compose(zig)
        assert analysis.zigzag_kernels == (zig.kernel(), comp.kernel(), product.kernel())
        assert analysis.zigzag_images == (zig.image(), comp.image())
        assert analysis.zigzag_product_spaces == (product.image(), product.kernel())
        if analysis.face is not None:
            assert analysis.face_product == comp.compose(analysis.face)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 300])
def test_zigzag_complement_is_identity_plus_c_p(m):
    """c_P~, written column by column with bit e of column e flipped,
    equals identity + c_P through LinearOp's own sum, on seeded words on
    both sides of the 64-bit word size."""
    rng = random.Random(m)
    for _ in range(4):
        analysis = MapAnalysis(zigzag_map_from_word(random_signed_word(rng, m)))
        comp = analysis.zigzag_complement
        assert type(comp.cols) is tuple
        assert comp == LinearOp.identity(m) + analysis.zigzag


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_zigzag_kernels_are_the_bond_spaces(monkeypatch, build):
    """The certificate returns the bond-space objects themselves and
    builds no subspace: no RREF, no sum and no operator kernel."""
    analysis = MapAnalysis(build())
    bonds = (analysis.vertex_bonds, analysis.face_bonds, analysis.vertex_face_bonds)
    rrefs = count_calls(monkeypatch, gf2, "_rref")
    sums = count_method(monkeypatch, gf2.Gf2Subspace, "sum")
    kernels = count_method(monkeypatch, gf2.LinearOp, "kernel")
    assert all(got is want for got, want in zip(analysis.zigzag_kernels, bonds, strict=True))
    assert sum(rrefs.values()) == sum(sums.values()) == sum(kernels.values()) == 0


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
@pytest.mark.parametrize("name", ["c_P", "c_P~"])
def test_a_wrong_link_count_stops_the_certificate(monkeypatch, build, name):
    """A link walk that closes one cycle too many for c_P, or for c_P~,
    stops the certificate; the absorption checks, which read no kernel,
    still hold."""
    map_ = build()
    original = words._link_cycles

    def one_more(w, complement):
        return original(w, complement) + (complement == (name == "c_P~"))

    monkeypatch.setattr(analysis_module, "_link_cycles", one_more)
    assert all(r.holds for r in check_absorption(map_))
    with pytest.raises(AssertionError, match=f"^the {re.escape(name)} walk closes"):
        verify_all(map_)


@pytest.mark.parametrize("build, name", [(k33_map, "c_P"), (k33_map, "c_P~"),
                                         (single_face_dual, "c_P")])
def test_a_star_off_the_kernel_stops_the_certificate(build, name):
    """One bit flipped in the column of an edge that is no loop of the
    vertex graph (for c_P) or of the face graph (for c_P~) puts a star
    outside the kernel, and the certificate names the operator.  On the
    single-face dual every edge is a loop of the face graph, whose one
    star is zero, so there the count alone certifies ker c_P~ = Bf = 0."""
    analysis = MapAnalysis(build())
    attr, graph = (("zigzag", analysis.vertex_graph) if name == "c_P"
                   else ("zigzag_complement", analysis.face_graph))
    op = getattr(analysis, attr)
    e = next(e for e, (u, v) in enumerate(graph.edges) if u != v)
    cols = list(op.cols)
    cols[e] ^= 1
    analysis.__dict__[attr] = LinearOp(op.m, tuple(cols))
    with pytest.raises(AssertionError, match=f"^{re.escape(name)} does not map the star of gon"):
        analysis.zigzag_kernels


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
    traces = count_calls(monkeypatch, gem, "gon_labels", key=lambda alpha, p: KIND[p])
    analysis = MapAnalysis(k33_map())
    assert analysis.complete() is analysis
    assert analysis.counts == (6, 4, 1)
    assert analysis.face is None and analysis.face_product is None
    product = analysis.zigzag_complement.compose(analysis.zigzag)
    assert analysis.zigzag_product_spaces == (product.image(), product.kernel())
    assert analysis.zigzag_product_spaces is analysis.zigzag_product_spaces
    assert traces == {"v": 1, "f": 1, "z": 1}
    check_absorption(analysis)
    check_theorem3(analysis)
    assert traces == {"v": 1, "f": 1, "z": 1}


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_absorption_builds_no_cycle_space(monkeypatch, build):
    map_ = build()
    cycles = count_calls(monkeypatch, spaces, "cycle_space")
    perps = count_method(monkeypatch, gf2.Gf2Subspace, "perp")
    bonds = count_calls(monkeypatch, spaces, "bond_space")
    assert all(r.holds for r in check_absorption(map_))
    assert sum(cycles.values()) == 0
    assert sum(perps.values()) == 0
    assert sum(bonds.values()) == 3


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_verify_all_builds_no_zigzag_cycle_space(monkeypatch, build):
    analysis = MapAnalysis(build())
    cycles = count_calls(monkeypatch, spaces, "cycle_space", key=lambda g: g)
    verify_all(analysis)
    assert cycles == {analysis.vertex_graph: 1, analysis.face_graph: 1}


def test_complete_builds_all_six_spaces(monkeypatch):
    analysis = MapAnalysis(k33_map())
    cycles = count_calls(monkeypatch, spaces, "cycle_space", key=lambda g: g)
    bonds = count_calls(monkeypatch, spaces, "bond_space", key=lambda g: g)
    analysis.complete()
    graphs = (analysis.vertex_graph, analysis.face_graph, analysis.zigzag_graph)
    assert cycles == bonds == {g: 1 for g in graphs}
    verify_all(analysis)
    assert cycles == bonds == {g: 1 for g in graphs}


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_a_kernel_off_its_bond_space_pays_both_perps(monkeypatch, build):
    """When ker c_P is not Bv, Im c_P is the perp of another space, and 2a
    and 2b each report a witness that recheck_counterexample confirms.
    Cv comes from its spanning tree, so Bv's perp is taken only as 3b's
    target, when Bv + Bf = Bv."""
    analysis = MapAnalysis(build())
    ker, comp_ker, product_ker = analysis.zigzag_kernels
    bonds = analysis.vertex_bonds
    assert ker == bonds and bonds.dim >= 1
    off = gf2.Gf2Subspace(ker.m, ker.rows[1:])
    analysis.__dict__["zigzag_kernels"] = (off, comp_ker, product_ker)
    perps = count_method(monkeypatch, gf2.Gf2Subspace, "perp", key=lambda space: space.rows)
    reports = {r.theorem: r for r in verify_all(analysis)}
    assert perps[off.rows] == 1
    assert perps[bonds.rows] == (analysis.vertex_face_bonds == bonds)
    assert max(perps.values()) == 1
    for theorem in ("2a", "2b"):
        report = reports[theorem]
        assert report.applicable and not report.holds
        assert report.counterexample is not None
        assert recheck_counterexample(analysis, report)
    assert all(r.holds for tid, r in reports.items() if tid not in ("2a", "2b"))


def assert_a_cross_check_fails(map_) -> None:
    """The absorption checks hold, and 2a or 2c is violated, each with a
    witness that recheck_counterexample confirms, so not all claims hold."""
    assert all(r.holds for r in check_absorption(map_))
    analysis = MapAnalysis(map_)
    reports = {r.theorem: r for r in verify_all(analysis)}
    caught = [reports[t] for t in ("2a", "2c") if not reports[t].holds]
    assert caught
    for report in caught:
        assert report.applicable and report.counterexample is not None
        assert recheck_counterexample(analysis, report)


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_cross_check_guards_every_cycle_space_read(monkeypatch, build):
    """A tree walk that misses one fundamental cycle leaves a cycle space
    that the image, the perp of the certified kernel, does not equal."""
    original = spaces.cycle_space

    def one_short(g):
        space = original(g)
        return gf2.Gf2Subspace(space.m, space.rows[1:])

    monkeypatch.setattr(analysis_module, "cycle_space", one_short)
    assert_a_cross_check_fails(build())


def row_xored_into_another(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """The same span in a basis that is not canonical."""
    return (rows[0] ^ rows[1],) + rows[1:] if len(rows) >= 2 else None


def pivot_moved_onto_a_tree_edge(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """The last row also takes the lowest non-pivot edge below its pivot,
    which becomes its pivot."""
    if not rows:
        return None
    last = rows[-1]
    below = (last & -last) - 1 & ~sum(r & -r for r in rows)
    return rows[:-1] + (last | below & -below,) if below else None


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
@pytest.mark.parametrize("mutate", [row_xored_into_another, pivot_moved_onto_a_tree_edge])
def test_cross_check_guards_a_perp_that_is_not_canonical(monkeypatch, build, mutate):
    """A perp whose basis spans the right space but is not the canonical
    one, or whose pivots no longer leave the spanning tree, makes an image
    differ from the tree-built cycle space."""
    original = gf2.Gf2Subspace.perp
    mutated = []

    def mutated_perp(self):
        space = original(self)
        rows = mutate(space.rows)
        if rows is None:
            return space
        mutated.append(space)
        return gf2.Gf2Subspace(space.m, rows)

    monkeypatch.setattr(gf2.Gf2Subspace, "perp", mutated_perp)
    assert_a_cross_check_fails(build())
    assert mutated


@pytest.mark.parametrize("build", [k33_map, single_face_dual])
def test_cross_check_guards_the_perp_side(monkeypatch, build):
    """A perp that drops a row no longer matches the fundamental cycles."""
    original = gf2.Gf2Subspace.perp

    def one_short(self):
        space = original(self)
        return gf2.Gf2Subspace(space.m, space.rows[1:])

    monkeypatch.setattr(gf2.Gf2Subspace, "perp", one_short)
    assert_a_cross_check_fails(build())

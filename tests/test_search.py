"""Unit tests for map enumeration, subdivision and embedding search."""

from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest

from conftest import K4_ROT, k4_graph
from mapcalc import (
    FlagMap,
    MultiGraph,
    SearchBudget,
    SearchOutcome,
    candidate_count,
    check_theorem4,
    enumerate_maps,
    gon_counts,
    search_embedding,
    single_edge_map,
    subdivide_graph,
    validate,
)
from mapcalc.cli import run
from mapcalc.search import EXHAUSTIVE_LIMIT

LOOP = MultiGraph(1, ((0, 0),))
PATH = MultiGraph(2, ((0, 1),))


def test_enumerate_size_one():
    census = list(enumerate_maps(1))
    assert len(census) == 3
    assert sorted(gon_counts(m) for m in census) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_enumerate_size_two():
    census = list(enumerate_maps(2))
    assert len(census) == 96
    assert all(validate(m).ok for m in census)
    assert len({m.alpha for m in census}) == 96


def reference_maps(m):
    """Every connected map with m rectangles, from a recursive generator
    of flag pairings: the lowest flag pairs with each other flag in turn."""
    def matchings(avail):
        if not avail:
            yield ()
            return
        x = avail[0]
        for i in range(1, len(avail)):
            rest = avail[1:i] + avail[i + 1:]
            for tail in matchings(rest):
                yield ((x, avail[i]),) + tail

    for pairs in matchings(tuple(range(4 * m))):
        map_ = FlagMap.from_pairs(m, pairs)
        if validate(map_).ok:
            yield map_


@pytest.mark.parametrize("m, count", [(1, 3), (2, 96), (3, 9504)])
def test_enumerate_matches_the_recursive_pairings(m, count):
    """Same maps, in the same order, as the recursive generator."""
    census = list(enumerate_maps(m))
    assert len(census) == count
    assert census == list(reference_maps(m))


def test_enumerate_rejects_bad_size():
    with pytest.raises(ValueError):
        list(enumerate_maps(0))


def test_subdivide_graph():
    triangle = MultiGraph(3, ((0, 1), (1, 2), (2, 0)))
    sub = subdivide_graph(triangle, (2, 0, 0))
    assert sub.n == 5
    assert sub.edges == ((0, 3), (1, 2), (2, 0), (3, 4), (4, 1))
    assert subdivide_graph(triangle, (0, 0, 0)) == triangle
    with pytest.raises(ValueError):
        subdivide_graph(triangle, (1, 0))
    with pytest.raises(ValueError):
        subdivide_graph(triangle, (-1, 0, 0))


def test_candidate_count():
    assert candidate_count(k4_graph()) == 1024
    assert candidate_count(LOOP) == 2
    assert candidate_count(PATH) == 2


def test_search_k4():
    outcome = search_embedding(k4_graph())
    assert outcome.status == "found"
    assert outcome.subdivisions == (0,) * 6
    v, f, z = gon_counts(outcome.map)
    assert f == 1 and z == 1
    assert check_theorem4(outcome.map).holds
    assert outcome.candidates <= 1024


def test_search_single_edge():
    outcome = search_embedding(PATH)
    assert outcome.status == "found"
    assert outcome.map == single_edge_map()


def test_search_loop_needs_subdivision():
    flat = search_embedding(LOOP)
    assert flat.status == "exhausted"
    assert flat.candidates == 2
    deeper = search_embedding(LOOP, SearchBudget(max_subdivisions=1))
    assert deeper.status == "found"
    assert deeper.subdivisions == (1,)
    v, f, z = gon_counts(deeper.map)
    assert f == 1 and z == 1


def test_search_budget_exceeded():
    outcome = search_embedding(k4_graph(), SearchBudget(max_candidates=1))
    assert outcome.status == "budget_exceeded"
    assert outcome.map is None
    assert outcome.candidates == 1


def test_search_time_limit():
    outcome = search_embedding(k4_graph(), SearchBudget(time_limit=1e-9))
    assert outcome.status == "budget_exceeded"
    assert outcome.candidates == 0


def test_search_is_deterministic():
    first = search_embedding(k4_graph(), seed=3)
    second = search_embedding(k4_graph(), seed=3)
    assert first == second


def test_randomized_search_is_seed_deterministic():
    k5 = MultiGraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
    assert candidate_count(k5) > 10**6
    budget = SearchBudget(max_candidates=2000)
    first = search_embedding(k5, budget, seed=1)
    second = search_embedding(k5, budget, seed=1)
    assert first.status == second.status
    assert first.candidates == second.candidates
    if first.map is not None:
        assert first.map == second.map
    assert first.status in ("found", "budget_exceeded")


def test_search_argument_checks(tmp_path, capsys):
    with pytest.raises(TypeError):
        search_embedding(k4_graph(), jobs=2)
    rot = tmp_path / "k4.rot"
    rot.write_text(K4_ROT)
    assert run(["search", str(rot), "--jobs", "2", "-o", str(tmp_path / "k4.gem")]) == 2
    assert "--jobs" in capsys.readouterr().err
    with pytest.raises(ValueError):
        search_embedding(MultiGraph(2, ()))
    with pytest.raises(ValueError):
        search_embedding(MultiGraph(1, ()))


def test_search_reports_seed():
    outcome = search_embedding(LOOP, seed=9)
    assert outcome.seed == 9


@pytest.mark.parametrize("limits", [
    {"max_candidates": -1},
    {"max_subdivisions": -1},
    {"time_limit": 0},
    {"time_limit": -1.0},
    {"time_limit": math.nan},
    {"time_limit": math.inf},
])
def test_search_budget_rejects_meaningless_limits(limits):
    with pytest.raises(ValueError):
        SearchBudget(**limits)


def test_search_budget_accepts_edge_limits():
    assert search_embedding(PATH, SearchBudget(max_candidates=0)).candidates == 0
    assert search_embedding(PATH, SearchBudget(time_limit=60.0)).status == "found"


@pytest.mark.parametrize("flags", [
    ("--subdiv", "-1"),
    ("--time-limit", "0"),
    ("--time-limit", "-1"),
    ("--budget", "-5"),
])
def test_cli_rejects_meaningless_limits(tmp_path, capsys, flags):
    rot = tmp_path / "k4.rot"
    rot.write_text(K4_ROT)
    out_path = tmp_path / "k4.gem"
    assert run(["search", str(rot), *flags, "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err + captured.out
    assert not out_path.exists()


@pytest.mark.parametrize("flags", [
    ("--budget", "-5"),
    ("--subdiv", "-1"),
    ("--time-limit", "0"),
    ("--time-limit", "nan"),
])
def test_cli_limit_errors_name_the_flag(tmp_path, capsys, flags):
    rot = tmp_path / "k4.rot"
    rot.write_text(K4_ROT)
    assert run(["search", str(rot), *flags, "-o", str(tmp_path / "k4.gem")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flags[0]} must be ")
    assert "max_" not in captured.err and "time_limit" not in captured.err
    assert "Traceback" not in captured.err + captured.out


def check_outcome(outcome):
    assert outcome.mode in ("exhaustive", "randomized")
    assert isinstance(outcome.space, int) and outcome.space > 0
    assert isinstance(outcome.candidates, int) and outcome.candidates >= 0
    if outcome.mode == "exhaustive":
        assert outcome.candidates <= outcome.space
    assert isinstance(outcome.restarts, int) and outcome.restarts >= 0
    assert outcome.best_score is None or isinstance(outcome.best_score, int)


def test_search_outcome_levels_exhaustive():
    """One sweep of the loop's 2 candidates decides levels 0 and 1: the
    twisted loop has one face, and one subdivision leaves one zigzag."""
    outcome = search_embedding(LOOP, SearchBudget(max_subdivisions=1))
    check_outcome(outcome)
    assert (outcome.status, outcome.subdivisions) == ("found", (1,))
    assert (outcome.mode, outcome.space, outcome.candidates) == ("exhaustive", 2, 2)
    assert (outcome.restarts, outcome.best_score) == (0, 2)
    flat = search_embedding(LOOP)
    check_outcome(flat)
    assert (flat.mode, flat.space, flat.candidates) == ("exhaustive", 2, 2)
    assert (flat.restarts, flat.best_score) == (0, None)


def test_search_outcome_levels_randomized():
    """Above EXHAUSTIVE_LIMIT every level is left to the randomized phase
    on the graph itself, whatever max_subdivisions allows."""
    bouquets = MultiGraph(2, ((0, 0),) * 4 + ((0, 1), (1, 1)))
    for max_subdivisions in (0, 2):
        budget = SearchBudget(max_candidates=2000, max_subdivisions=max_subdivisions)
        outcome = search_embedding(bouquets, budget, seed=0)
        check_outcome(outcome)
        assert (outcome.status, outcome.candidates) == ("budget_exceeded", 2000)
        assert (outcome.mode, outcome.space) == ("randomized", candidate_count(bouquets))
        assert outcome.restarts > 1
        assert outcome.best_score > 2


def test_search_outcome_levels_cut_by_budget():
    outcome = search_embedding(LOOP, SearchBudget(max_candidates=1, max_subdivisions=2))
    check_outcome(outcome)
    assert (outcome.status, outcome.map, outcome.subdivisions) == ("budget_exceeded", None, None)
    assert (outcome.mode, outcome.space, outcome.candidates) == ("exhaustive", 2, 1)


# Graph 43 of the search-subdiv benchmark pool: no embedding at level 0.
POOL_43 = MultiGraph(4, ((0, 1), (3, 3), (0, 2), (0, 2), (0, 3), (1, 1), (0, 2)))


def test_exhausted_levels_use_exactly_their_space():
    """A sweep that ends without a winner visits each of its space of
    classes under switching and loop reversal once, and so decides every
    level up to max_subdivisions.  Graph 43 has two loops and a vertex of
    degree >= 3 without loops, so space = candidate_count >> (n + 2).
    It needs exactly 3 subdivisions: exhausted at 2, found at 3 by the same
    384 candidates."""
    flat = search_embedding(LOOP)
    assert (flat.status, flat.mode, flat.candidates, flat.space) == (
        "exhausted", "exhaustive", 2, 2)
    assert POOL_43.n == 4 and candidate_count(POOL_43) >> (4 + 2) == 384
    outcome = search_embedding(POOL_43, SearchBudget(max_candidates=20_000, max_subdivisions=2),
                               seed=43)
    check_outcome(outcome)
    assert (outcome.status, outcome.mode, outcome.candidates, outcome.space) == (
        "exhausted", "exhaustive", 384, 384)
    deeper = search_embedding(POOL_43, SearchBudget(max_candidates=20_000, max_subdivisions=3),
                              seed=43)
    assert (deeper.status, deeper.candidates) == ("found", 384)
    assert deeper.subdivisions == (0, 1, 1, 0, 0, 1, 0)
    assert gon_counts(deeper.map)[1:] == (1, 1)
    assert check_theorem4(deeper.map).holds


# Graph 5 of the search-subdiv benchmark pool: three loops, one at each vertex.
POOL_5 = MultiGraph(3, ((2, 2), (1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (0, 0)))


def test_three_loops_fit_in_the_pool_budget():
    """The pool's budget of 20,000 candidates once ran out on graph 5 with
    one subdivision in hand.  Its loops are reversed now, so its space is
    candidate_count >> (n + 3) and the sweep meets a winner that needs
    none."""
    budget = SearchBudget(max_candidates=20_000, max_subdivisions=2)
    outcome = search_embedding(POOL_5, budget, seed=5)
    check_outcome(outcome)
    assert outcome.space == candidate_count(POOL_5) >> (3 + 3) == 8640
    assert (outcome.status, outcome.candidates, outcome.subdivisions) == (
        "found", 3013, (0,) * 7)
    assert check_theorem4(outcome.map).holds


def test_cli_search_stats(tmp_path, capsys):
    rot = tmp_path / "loop.rot"
    rot.write_text("v 1: 1 1\n")
    code = run(["search", str(rot), "--subdiv", "1", "--stats", "-o", str(tmp_path / "l.gem")])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("found after 2 candidates")
    stats = json.loads(captured.err)
    assert set(stats) == {"status", "candidates", "seed", "mode", "space", "restarts",
                          "best_score"}
    assert stats["status"] == "found" and stats["candidates"] == 2 and stats["seed"] == 0
    assert (stats["mode"], stats["space"]) == ("exhaustive", 2)
    assert isinstance(stats["restarts"], int)
    assert stats["best_score"] is None or isinstance(stats["best_score"], int)
    assert run(["search", str(rot), "-o", str(tmp_path / "none.gem")]) == 3
    assert capsys.readouterr().err == ""


def test_cli_search_stats_keys_are_the_outcome_fields(tmp_path, capsys):
    """--stats prints every SearchOutcome field but the map and its
    subdivisions, in field order."""
    rot = tmp_path / "loop.rot"
    rot.write_text("v 1: 1 1\n")
    assert run(["search", str(rot), "--stats", "-o", str(tmp_path / "l.gem")]) == 3
    stats = json.loads(capsys.readouterr().err)
    fields = [f.name for f in dataclasses.fields(SearchOutcome)]
    assert list(stats) == [name for name in fields if name not in ("map", "subdivisions")]


def reversed_loops_per_vertex(g: MultiGraph) -> list[int]:
    """How many loops the sweep reverses at each vertex: all of them, but
    one at a vertex whose darts all belong to loops."""
    loops = [sum(u == v == w for u, v in g.edges) for w in range(g.n)]
    return [k - (2 * k == d) for k, d in zip(loops, g.degrees())]


def orbit_count(g: MultiGraph) -> int:
    """Classes of g's candidates under switching and loop reversal, by
    Burnside's lemma.  Tree twists fixed at 0 and (e, 0) kept before
    (e, 1) on each of the r reversed loops leave candidate_count >>
    (n - 1 + r) candidates, which the mirror with every such loop reversed
    pairs up, except those it fixes.  At a vertex with l reversed loops it
    fixes only palindromes of those loops around at most two other darts,
    l! rotations; with three or more other darts, none."""
    reversed_loops = reversed_loops_per_vertex(g)
    fixed = 1
    for d, k in zip(g.degrees(), reversed_loops):
        fixed *= math.factorial(k) if d - 2 * k <= 2 else 0
    free = g.edge_count - g.n + 1
    return ((candidate_count(g) >> (g.n - 1 + sum(reversed_loops))) + (fixed << free)) >> 1


def test_sweep_space_is_the_switching_quotient():
    """space, read off the sweep's rotation blocks and free edges, is the
    number of classes under switching and loop reversal.  Without loops it
    is candidate_count >> n, or >> (n - 1) when no vertex has degree 3 or
    more; with a vertex that has three darts off reversed loops it is
    candidate_count >> (n + r) for r reversed loops."""
    rng = random.Random(1996)
    shifts = set()
    cases = {"loop-free": 0, "pivot": 0, "fixed": 0}
    while sum(cases.values()) < 300:
        n = rng.randint(1, 6)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n == 1, 4))]
        g = MultiGraph(n, tuple(edges))
        if candidate_count(g) > EXHAUSTIVE_LIMIT:
            continue
        outcome = search_embedding(g, SearchBudget(max_candidates=1))
        assert outcome.mode == "exhaustive"
        assert outcome.space == orbit_count(g)
        reversed_loops = reversed_loops_per_vertex(g)
        if not any(u == v for u, v in g.edges):
            shift = g.n - 1 + any(d >= 3 for d in g.degrees())
            assert outcome.space == candidate_count(g) >> shift
            shifts.add(shift - g.n)
            cases["loop-free"] += 1
        elif any(d - 2 * k >= 3 for d, k in zip(g.degrees(), reversed_loops)):
            assert outcome.space == candidate_count(g) >> (g.n + sum(reversed_loops))
            cases["pivot"] += 1
        else:
            assert outcome.space > candidate_count(g) >> (g.n + sum(reversed_loops))
            cases["fixed"] += 1
    assert shifts == {-1, 0}
    assert min(cases.values()) >= 50

"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import random
import sys
from collections import Counter

from mapcalc import (
    FlagMap,
    Gf2Subspace,
    MultiGraph,
    SignedWord,
    dual,
    from_signed_word,
    gon_counts,
    parse_rotation,
    parse_word,
    validate,
    zigzag_map_from_word,
)
from mapcalc.gem import PARTNER

# Single-zigzag word of a projective-plane embedding of K_{3,3};
# 1-based signed tokens as they appear in .szw files.
K33_TOKENS = "1 8 5 6 9 4 5 7 3 4 -8 2 3 -9 1 2 -7 6"

K4_ROT = """\
v 1: 1 2 3
v 2: 1 4 5
v 3: 2 4 6
v 4: 3 5 6
"""


def k33_word() -> SignedWord:
    return parse_word(K33_TOKENS)


def k33_map() -> FlagMap:
    return zigzag_map_from_word(k33_word())


def k4_graph() -> MultiGraph:
    return parse_rotation(K4_ROT).graph


def random_signed_word(rng: random.Random, m: int) -> SignedWord:
    ids = list(range(m)) * 2
    rng.shuffle(ids)
    seen: set[int] = set()
    entries = []
    for e in ids:
        if e in seen:
            entries.append((e, rng.choice((1, -1))))
        else:
            seen.add(e)
            entries.append((e, 1))
    return SignedWord(m, tuple(entries))


def single_face_dual() -> FlagMap:
    """Dual of a one-vertex map with one zigzag: f = z = 1."""
    rng = random.Random(7)
    while True:
        map_ = from_signed_word(random_signed_word(rng, 8))
        if gon_counts(map_)[2] == 1:
            return dual(map_)


def random_connected_map(rng: random.Random, m: int) -> FlagMap:
    """Random fixed-point-free pairing of the 4m flags, retried until connected."""
    while True:
        flags = list(range(4 * m))
        rng.shuffle(flags)
        pairs = [(flags[2 * i], flags[2 * i + 1]) for i in range(2 * m)]
        map_ = FlagMap.from_pairs(m, pairs)
        if validate(map_).ok:
            return map_


def reference_gons(map_: FlagMap, kind: str) -> tuple[list[list[int]], list[int]]:
    """(flag sequences, gon of each flag) of the gons of `kind`, by a plain
    walk per gon that shares no code with gem.gon_labels: gons in the
    order of their smallest flags, each from that flag, kind-pair first."""
    p = PARTNER[kind]
    gon_of = [-1] * map_.flag_count
    seqs: list[list[int]] = []
    for start in range(map_.flag_count):
        if gon_of[start] != -1:
            continue
        seq = []
        x = start
        while True:
            seq += (x, x ^ p)
            x = map_.alpha[x ^ p]
            if x == start:
                break
        for y in seq:
            gon_of[y] = len(seqs)
        seqs.append(seq)
    return seqs, gon_of


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


def random_connected_graph(rng: random.Random, max_extra: int = 3) -> MultiGraph:
    """Small connected multigraph: a random tree plus a few random edges."""
    n = rng.randint(2, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(1, max_extra)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((min(u, v), max(u, v)))
    return MultiGraph(n, tuple(edges))


def random_subspace(rng: random.Random, m: int) -> Gf2Subspace:
    vecs = [rng.getrandbits(m) for _ in range(rng.randint(0, m))]
    return Gf2Subspace.span(m, vecs)


def members(space: Gf2Subspace) -> set[int]:
    """All member bitmasks by brute-force combination of the basis."""
    out = {0}
    for row in space.rows:
        out |= {x ^ row for x in out}
    return out


def all_cuts(g: MultiGraph) -> set[int]:
    """Bitmasks of every vertex-set cut of g (loops never cut)."""
    cuts = set()
    for mask in range(1 << g.n):
        bits = 0
        for e, (u, v) in enumerate(g.edges):
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                bits |= 1 << e
        cuts.add(bits)
    return cuts


def is_even_subgraph(g: MultiGraph, bits: int) -> bool:
    """True when every vertex meets an even number of non-loop chosen edges."""
    deg = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        if (bits >> e) & 1 and u != v:
            deg[u] += 1
            deg[v] += 1
    return all(d % 2 == 0 for d in deg)

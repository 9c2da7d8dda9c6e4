"""Unit tests for signed words, their operators and word extraction."""

from __future__ import annotations

import random
import re

import pytest

from conftest import k33_map, k33_word, random_connected_map, random_signed_word, reference_gons
from mapcalc import (
    LinearOp,
    NotApplicableError,
    SignedWord,
    apply_permutation,
    c_operator,
    cozigzag_word,
    dual,
    from_signed_word,
    gon_word,
    interlacement,
    kappa,
    map_operators,
    phial,
    projective_loop_map,
    single_edge_map,
    sphere_loop_map,
    vertex_word,
    zigzag_map_from_word,
    zigzag_word,
)


def word(*tokens: int) -> SignedWord:
    """Tokens are signed 1-based ids, mirroring the file format."""
    entries = tuple((abs(t) - 1, 1 if t > 0 else -1) for t in tokens)
    return SignedWord(len(tokens) // 2, entries)


def rotated(w: SignedWord, r: int, flip: bool = False) -> SignedWord:
    """Same cyclic word read from another starting point or direction."""
    ids = [e for e, _ in w.entries]
    if flip:
        ids.reverse()
    ids = ids[r:] + ids[:r]
    seen: set[int] = set()
    entries = []
    for e in ids:
        if e not in seen:
            seen.add(e)
            entries.append((e, 1))
        else:
            entries.append((e, 1 if w.same_direction(e) else -1))
    return SignedWord(w.m, tuple(entries))


def test_word_validation():
    with pytest.raises(ValueError):
        SignedWord(2, ((0, 1), (1, 1), (0, 1)))
    with pytest.raises(ValueError):
        SignedWord(1, ((0, -1), (0, 1)))
    with pytest.raises(ValueError):
        SignedWord(1, ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        SignedWord(2, ((0, 1), (0, 1), (0, 1), (1, 1)))
    with pytest.raises(ValueError):
        SignedWord(1, ((0, 1), (1, 1)))


def test_word_refuses_ids_and_signs_that_are_not_integers():
    """Edge ids and signs go through operator.index: a float or a string
    is named in a ValueError, not truncated or parsed; bools still pass."""
    for value, entries in ((0.5, ((0, 1), (0.5, 1.2))), ("1", ((0, "1"), (0, 1))),
                           (1.0, [(0, 1), (0, 1.0)])):
        with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(repr(value))}$"):
            SignedWord(1, entries)
    assert SignedWord(1, [(False, True), (0, 1)]) == word(1, 1)


def test_occurrences_and_direction():
    w = word(1, 2, -1, 2)
    assert w.occurrences(0) == (0, 2)
    assert w.occurrences(1) == (1, 3)
    assert not w.same_direction(0)
    assert w.same_direction(1)
    for x in (-1, 2):
        with pytest.raises(ValueError):
            w.occurrences(x)


def test_occurrences_match_a_scan_of_the_word():
    rng = random.Random(43)
    for m in range(12):
        w = random_signed_word(rng, m)
        for x in range(m):
            assert w.occurrences(x) == tuple(i for i, (e, _) in enumerate(w.entries) if e == x)


def test_canonical_is_rotation_invariant():
    rng = random.Random(41)
    for _ in range(25):
        w = random_signed_word(rng, rng.randint(1, 6))
        want = w.canonical()
        for flip in (False, True):
            for r in range(2 * w.m):
                assert rotated(w, r, flip).canonical() == want
    assert want.canonical() == want


def test_vertex_word_of_loops():
    assert vertex_word(sphere_loop_map()) == word(1, 1)
    assert vertex_word(projective_loop_map()) == word(1, -1)


def test_vertex_word_needs_single_covering_gon():
    with pytest.raises(NotApplicableError):
        vertex_word(single_edge_map())
    with pytest.raises(NotApplicableError):
        vertex_word(k33_map())
    # The word is of the single v-gon; there is no gon index to choose.
    with pytest.raises(TypeError):
        vertex_word(sphere_loop_map(), 0)


def reference_vertex_word(map_):
    """Signed word of v-gon 0, applicable when that gon covers every edge
    twice: a sort of its edge sequence checks the covering."""
    seqs, _ = reference_gons(map_, "v")
    seq = seqs[0]
    edges_seq = [seq[i] // 4 for i in range(0, len(seq), 2)]
    if sorted(edges_seq) != sorted(list(range(map_.m)) * 2):
        raise NotApplicableError(f"{len(seqs)} v-gons")
    pos = {flag: i for i, flag in enumerate(seq)}
    entries = []
    first_seen: set[int] = set()
    for e in edges_seq:
        if e not in first_seen:
            first_seen.add(e)
            entries.append((e, 1))
        else:
            balanced = pos[4 * e] % 2 == pos[4 * e + 2] % 2
            entries.append((e, 1 if balanced else -1))
    return SignedWord(map_.m, tuple(entries))


def test_vertex_word_matches_the_sorted_covering_check():
    rng = random.Random(47)
    applicable = 0
    for i in range(3000):
        m = rng.randint(1, 10)
        if i % 3 == 0:
            map_ = random_connected_map(rng, m)
        else:
            map_ = from_signed_word(random_signed_word(rng, m))
            if i % 3 == 2:
                map_ = dual(map_)
        try:
            want = reference_vertex_word(map_)
        except NotApplicableError:
            with pytest.raises(NotApplicableError):
                vertex_word(map_)
            continue
        assert vertex_word(map_) == want
        applicable += 1
    assert 1000 < applicable < 3000


def test_gon_word_matches_the_permuted_vertex_word():
    """Each kind's word equals the reference vertex word of the map whose
    v-gons are that kind's gons: the map itself, its dual or its phial.
    Partial role permutations give maps whose rectangles disagree on
    which partner plays which role."""
    rng = random.Random(16)
    applicable = {kind: 0 for kind in "vfz"}
    for i in range(1500):
        m = rng.randint(1, 12)
        if i % 3 == 0:
            map_ = random_connected_map(rng, m)
        else:
            map_ = from_signed_word(random_signed_word(rng, m))
        if i % 2:
            rects = [r for r in range(m) if rng.random() < 0.5]
            map_ = apply_permutation(map_, rects, rng.choice(("lsd", "dls", "sdl", "dsl", "lds")))
        for kind, relabel in (("v", lambda x: x), ("f", dual), ("z", phial)):
            try:
                want = reference_vertex_word(relabel(map_))
            except NotApplicableError:
                with pytest.raises(NotApplicableError):
                    gon_word(map_, kind)
                continue
            assert gon_word(map_, kind) == want
            applicable[kind] += 1
    assert all(200 < n < 1500 for n in applicable.values()), applicable


def test_gon_word_names_the_gon_count():
    with pytest.raises(NotApplicableError, match=r"^v-gon word needs a single v-gon covering "
                       r"every edge twice; map has 6 v-gons$"):
        vertex_word(k33_map())
    with pytest.raises(NotApplicableError, match=r"^face word needs a single face; map has 4$"):
        gon_word(k33_map(), "f")
    with pytest.raises(NotApplicableError, match=r"^zigzag word needs a single zigzag; map has 2$"):
        zigzag_word(projective_loop_map())


def test_zigzag_word_hypothesis():
    with pytest.raises(NotApplicableError):
        zigzag_word(projective_loop_map())
    assert zigzag_word(sphere_loop_map()) == word(1, 1)


def test_zigzag_word_round_trip_is_exact():
    w = k33_word()
    assert zigzag_word(zigzag_map_from_word(w)) == w


def test_interlacement_examples():
    assert interlacement(word(1, -1), 0).bits == 0
    w = word(1, 2, 1, 2)
    assert interlacement(w, 0).edges() == (1,)
    assert interlacement(w, 1).edges() == (0,)
    nested = word(1, 2, -2, -1)
    assert interlacement(nested, 0).bits == 0


def test_interlacement_counts_single_occurrences_only():
    w = word(1, 2, 3, -3, 2, 1)
    assert interlacement(w, 0).bits == 0
    assert interlacement(w, 2).edges() == ()


def test_kappa():
    w = word(1, 2, 1, -2)
    assert kappa(w, 0).edges() == (0,)
    assert kappa(w, 1).bits == 0
    with pytest.raises(ValueError):
        kappa(w, 2)


def test_c_operator_small():
    w = word(1, 2, 1, 2)
    op = c_operator(w)
    assert op.column(0).edges() == (0, 1)
    assert op.column(1).edges() == (0, 1)
    assert op.transpose() is op


def test_c_operator_symmetric_random():
    rng = random.Random(43)
    for _ in range(30):
        w = random_signed_word(rng, rng.randint(1, 7))
        op = c_operator(w)
        assert op.transpose() is op


def test_c_operator_matches_its_definition():
    """Every column against kappa + interlacement, computed edge by edge."""
    rng = random.Random(47)
    words = [random_signed_word(rng, m) for m in range(65)]
    for m in (1, 5, 40):
        ids = [e for e, _ in random_signed_word(rng, m).entries]
        for sign in (1, -1):  # all loops balanced, then all unbalanced
            words.append(SignedWord(m, tuple((e, 1 if i == ids.index(e) else sign)
                                             for i, e in enumerate(ids))))
    words.append(word(*range(1, 21), *range(1, 21)))
    words.append(word(*range(1, 21), *range(-20, 0)))
    for w in words:
        op = c_operator(w)
        assert op.cols == tuple((kappa(w, x) + interlacement(w, x)).bits for x in range(w.m))


def test_map_operators_on_sphere_loop():
    ops = map_operators(sphere_loop_map())
    assert ops.zigzag.cols == LinearOp.identity(1).cols
    assert ops.zigzag_complement.cols == LinearOp.zero(1).cols
    assert ops.face is None


def test_map_operators_on_projective_loop():
    ops = map_operators(projective_loop_map())
    assert ops.zigzag is None and ops.zigzag_complement is None
    assert ops.face is not None


def test_k33_operator_columns():
    ops = map_operators(k33_map())
    assert ops.zigzag.column(0).edges() == (0, 1, 5, 6)
    assert ops.zigzag.column(6).edges() == (0, 3, 7, 8)
    total = ops.zigzag + ops.zigzag_complement
    assert total.cols == LinearOp.identity(9).cols


def test_cozigzag_gives_complement_operator():
    rng = random.Random(47)
    maps = [k33_map()] + [
        zigzag_map_from_word(random_signed_word(rng, rng.randint(1, 6))) for _ in range(15)
    ]
    for map_ in maps:
        ops = map_operators(map_)
        assert c_operator(cozigzag_word(map_)).cols == ops.zigzag_complement.cols


def test_cozigzag_hypothesis():
    with pytest.raises(NotApplicableError):
        cozigzag_word(projective_loop_map())

"""Unit tests for signed words, their operators and word extraction."""

from __future__ import annotations

import random
import re

import pytest

from conftest import k33_map, k33_word, random_connected_map, random_signed_word, reference_gons
from mapcalc import (
    FlagMap,
    LinearOp,
    NotApplicableError,
    SignedWord,
    apply_permutation,
    c_operator,
    cozigzag_word,
    dual,
    enumerate_maps,
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
from mapcalc.gem import PARTNER, _as_int, _left_flags, gon_labels
from mapcalc.words import _link_cycles, _single_gon_word, _word_columns


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


def test_word_messages():
    """Each refusal names its fault; a value that is not an integer is
    named before any other fault, and bools pass as 0 and 1."""
    cases = (
        (1, ((0, 1), (0.0, 1)), "expected an integer, got 0.0"),
        (1, ((0, 1), (0, -1.0)), "expected an integer, got -1.0"),
        (1, ((0, 1), ("0", 1)), "expected an integer, got '0'"),
        (1, ((0, "1"), (0, 1)), "expected an integer, got '1'"),
        (1, ((5, 1), (0, 0.5)), "expected an integer, got 0.5"),
        (2, ((0, 1), (0, 1.5)), "expected an integer, got 1.5"),
        (1, ((0, 1), (1, 1)), "edge 1 out of range"),
        (1, ((0, 1), (-1, 1)), "edge -1 out of range"),
        (1, ((0, 1), (0, 2)), "bad sign 2 on edge 0"),
        (1, ((0, 1), (0, False)), "bad sign 0 on edge 0"),
        (1, ((0, 1), (0, 0)), "bad sign 0 on edge 0"),
        (2, ((0, 1), (0, 1), (0, -1), (1, 1)), "edge 0 occurs more than twice"),
        (1, ((0, -1), (0, 1)), "first occurrence of edge 0 must be positive"),
        (2, ((0, 1), (1, -1), (0, 1), (1, 1)), "first occurrence of edge 1 must be positive"),
        (1, ((0, 1),), "word must have 2 entries"),
        (1, ((0, 1), (0, 1), (0, 1)), "word must have 2 entries"),
        (0, ((0, 1),), "word must have 0 entries"),
        (2, ((0, 1), (1, 1), (0, 1)), "word must have 4 entries"),
        (-1, (), "edge count must be nonnegative, got -1"),
    )
    for m, entries, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SignedWord(m, entries)
    for entries in (((False, True), (0, 1)), ((0, True), (False, -1)), [[0, 1], [0, 1]]):
        w = SignedWord(1, entries)
        assert w.entries in (((0, 1), (0, 1)), ((0, 1), (0, -1)))
        assert all(type(e) is tuple and {type(x) for x in e} == {int} for e in w.entries)
    assert SignedWord(0, ()).entries == ()


def reference_word(m: int, entries) -> tuple:
    """The word check written plainly: every entry through _as_int first,
    then one pass that names the first fault.  Returns the entries and each
    edge's occurrence positions, or the error's type and text."""
    try:
        entries = tuple((_as_int(e), _as_int(s)) for e, s in entries)
    except ValueError as exc:
        return ValueError, str(exc)
    if len(entries) != 2 * m:
        return ValueError, f"word must have {2 * m} entries"
    positions: list[list[int]] = [[] for _ in range(m)]
    for i, (e, s) in enumerate(entries):
        if not 0 <= e < m:
            return ValueError, f"edge {e} out of range"
        if s not in (1, -1):
            return ValueError, f"bad sign {s} on edge {e}"
        if len(positions[e]) == 2:
            return ValueError, f"edge {e} occurs more than twice"
        if not positions[e] and s != 1:
            return ValueError, f"first occurrence of edge {e} must be positive"
        positions[e].append(i)
    return entries, [tuple(p) for p in positions]


def mutated_entries(rng: random.Random, w: SignedWord):
    """The word's entries with one random fault or respelling."""
    entries = list(w.entries)
    kind = rng.randrange(9)
    i = rng.randrange(len(entries)) if entries else 0
    if kind == 0 and entries:
        entries[i] = (rng.randint(-1, w.m), entries[i][1])
    elif kind == 1 and entries:
        entries[i] = (entries[i][0], rng.choice((1, -1, 0, 2, True, False, -True)))
    elif kind == 2 and entries:
        j = rng.randrange(len(entries))
        entries[i], entries[j] = entries[j], entries[i]
    elif kind == 3 and entries:
        del entries[i]
    elif kind == 4 and entries:
        entries.insert(i, entries[i])
    elif kind == 5 and entries:
        entries[i] = list(entries[i])
    elif kind == 6 and entries:
        entries[i] = (float(entries[i][0]), entries[i][1])
    elif kind == 7:
        return entries
    return tuple(entries)


def test_word_check_matches_the_plain_check_on_mutated_words():
    """Valid and faulty words, as tuples of exact-int pairs and in other
    spellings: the word is built, or refused with the message, exactly as
    the plain check decides."""
    rng = random.Random(2323)
    built = refused = 0
    for _ in range(3000):
        w = random_signed_word(rng, rng.randint(0, 12))
        entries = mutated_entries(rng, w)
        want = reference_word(w.m, entries)
        try:
            got = SignedWord(w.m, entries)
        except ValueError as exc:
            assert (ValueError, str(exc)) == want
            refused += 1
        else:
            assert (got.entries, [got.occurrences(x) for x in range(w.m)]) == want
            assert all(type(e) is tuple and {type(x) for x in e} <= {int} for e in got.entries)
            built += 1
    assert built >= 600 and refused >= 1200


def test_occurrences_and_direction():
    w = word(1, 2, -1, 2)
    assert w.occurrences(0) == (0, 2)
    assert w.occurrences(1) == (1, 3)
    assert not w.same_direction(0)
    assert w.same_direction(1)
    for x in (-1, 2):
        with pytest.raises(ValueError):
            w.occurrences(x)


@pytest.mark.parametrize("read", [SignedWord.occurrences, kappa, interlacement])
def test_edge_arguments_name_a_value_that_is_not_an_integer(read):
    """An edge id of 0.5 is refused with the ValueError of the word's own
    constructor, not a TypeError from indexing the occurrence lists; True
    is edge 1."""
    w = word(1, 2, -1, 2)
    with pytest.raises(ValueError, match=r"^expected an integer, got 0\.5$"):
        read(w, 0.5)
    assert read(w, True) == read(w, 1)


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


RELABEL = {"v": lambda map_: map_, "f": dual, "z": phial}


def trace_order(map_, kind):
    """The gon_labels order of the map's single gon of `kind`, or None."""
    count, _, order = gon_labels(map_.alpha, PARTNER[kind])
    return order if count == 1 else None


def check_trace_word(map_, kind) -> None:
    """The one-pass word of the map's single gon of `kind` equals the word
    the checking constructor builds from the reference entries, in its
    entries and in both occurrence lists."""
    got = _single_gon_word(map_.m, trace_order(map_, kind), kind)
    want = reference_vertex_word(RELABEL[kind](map_))
    assert type(got.entries) is tuple and all(type(pair) is tuple for pair in got.entries)
    assert (got.entries, got._first, got._second) == (want.entries, want._first, want._second)
    assert got == SignedWord(map_.m, got.entries) == want


def test_trace_word_matches_the_checking_constructor():
    """On every map with m <= 3 and on seeded maps up to m = 350 with one
    gon of each kind: one-vertex maps, their duals and their phials."""
    checked = {kind: 0 for kind in "vfz"}
    for m in (1, 2, 3):
        for map_ in enumerate_maps(m):
            for kind in "vfz":
                if trace_order(map_, kind) is not None:
                    check_trace_word(map_, kind)
                    checked[kind] += 1
    assert checked == {"v": 2 + 48 + 3840, "f": 2 + 48 + 3840, "z": 2 + 48 + 3840}
    rng = random.Random(29)
    for m in (4, 7, 31, 63, 64, 65, 128, 250, 301, 350):
        one_vertex = from_signed_word(random_signed_word(rng, m))
        for kind, map_ in (("v", one_vertex), ("f", dual(one_vertex)), ("z", phial(one_vertex))):
            check_trace_word(map_, kind)


def test_sign_of_two_entered_flags_is_the_left_flag_rule():
    """The sign of a second crossing, read from the two flags the walk
    enters rectangle e by, is the _left_flags rule loop_balances reads:
    positive when flags 4e and 4e + b are entered the same way.  On the
    16 offset pairs of each kind, the 8 that enter both kind-pairs are
    positive exactly when they differ by b.  On every single-gon word of
    each kind of the maps with m <= 3, and of 300 seeded one-vertex maps
    up to m = 60, their duals and phials, with flags relabelled."""
    for kind, p in PARTNER.items():
        b = 1 if kind == "z" else 2
        for o0 in range(4):
            for o1 in set(range(4)) - {o0, o0 ^ p}:
                left = {o0 ^ p, o1 ^ p}
                assert ((0 in left) == (b in left)) == (o0 ^ o1 == b)
    maps = [map_ for m in (1, 2, 3) for map_ in enumerate_maps(m)]
    rng = random.Random(33)
    for _ in range(300):
        one_vertex = from_signed_word(random_signed_word(rng, rng.randint(1, 60)))
        maps += [relabeled_flags(f(one_vertex), rng) for f in (lambda x: x, dual, phial)]
    checked = {kind: 0 for kind in "vfz"}
    for map_ in maps:
        for kind in "vfz":
            order = trace_order(map_, kind)
            if order is None:
                continue
            b = 1 if kind == "z" else 2
            left = _left_flags(order)
            w = _single_gon_word(map_.m, order, kind)
            assert [w.entries[i][1] for i in w._second] == [
                1 if left[4 * e] == left[4 * e + b] else -1 for e in range(map_.m)]
            checked[kind] += 1
    assert all(n >= 3890 + 300 for n in checked.values()), checked


@pytest.mark.parametrize("kind", ["v", "f", "z"])
def test_trace_word_refuses_an_order_that_crosses_an_edge_other_than_twice(kind):
    """A corrupted order stops the one pass with AssertionError: a crossing
    of edge 0 copied over one of edge 1, so 0 is crossed three times and 1
    once, and an order with one crossing of edge 1 dropped."""
    rng = random.Random(31)
    map_ = RELABEL[kind](from_signed_word(random_signed_word(rng, 40)))
    order = trace_order(map_, kind)
    i, j = (next(k for k in range(0, len(order), 2) if order[k] >> 2 == e) for e in (0, 1))
    thrice = order[:j] + order[i:i + 2] + order[j + 2:]
    with pytest.raises(AssertionError, match="^the gon crosses edge 0 more than twice$"):
        _single_gon_word(map_.m, thrice, kind)
    once = order[:j] + order[j + 2:]
    with pytest.raises(AssertionError, match="^the gon crosses 79 rectangles, not 80$"):
        _single_gon_word(map_.m, once, kind)


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


def signed(ids: list[int], signs) -> SignedWord:
    """The word of the edge sequence ids, each second occurrence taking the
    next sign from signs."""
    seen: set[int] = set()
    entries = []
    for e in ids:
        entries.append((e, next(signs) if e in seen else 1))
        seen.add(e)
    return SignedWord(len(ids) // 2, tuple(entries))


def test_word_columns_compose_by_prefix_images():
    """_word_columns(w, X.cols) is X o c_operator(w), and c_operator(w) is
    still kappa + interlacement, for every sign pattern of the loops up to
    m = 6 and random, all-balanced and all-unbalanced ones up to m = 40
    and at m = 250..260; X is the identity, zero, a random operator and
    another word's operator."""
    rng = random.Random(59)
    for m in [*range(1, 41), *range(250, 261)]:
        ids = [e for e, _ in random_signed_word(rng, m).entries]
        if m <= 6:
            patterns = [[(p >> i) & 1 or -1 for i in range(m)] for p in range(1 << m)]
        else:
            patterns = [[1] * m, [-1] * m, [rng.choice((1, -1)) for _ in range(m)]]
        outers = [LinearOp.identity(m), LinearOp.zero(m),
                  LinearOp(m, tuple(rng.getrandbits(m) for _ in range(m))),
                  c_operator(random_signed_word(rng, m))]
        for pattern in patterns:
            w = signed(ids, iter(pattern))
            op = c_operator(w)
            if m <= 40 or pattern is patterns[-1]:
                assert op.cols == tuple((kappa(w, x) + interlacement(w, x)).bits
                                        for x in range(m))
            for outer in outers:
                assert _word_columns(w, outer.cols) == outer.compose(op).cols


def normal_form_words(m: int):
    """Every signed word with m edges in normal form: edges numbered in the
    order of their first occurrences, each second occurrence signed either
    way; (2m - 1)!! edge sequences times 2^m sign patterns."""
    def sequences(prefix: list[int], open_edges: list[int], new: int):
        if len(prefix) == 2 * m:
            yield prefix
            return
        if new < m:
            yield from sequences(prefix + [new], open_edges + [new], new + 1)
        for e in open_edges:
            yield from sequences(prefix + [e], [x for x in open_edges if x != e], new)

    for ids in sequences([], [], 0):
        for p in range(1 << m):
            yield signed(ids, iter([(p >> i) & 1 or -1 for i in range(m)]))


def partition(keys) -> set[frozenset[int]]:
    """The indices of keys, grouped by equal key."""
    groups: dict[object, set[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, set()).add(i)
    return {frozenset(group) for group in groups.values()}


def link_cycles(w: SignedWord, complement: bool) -> set[frozenset[int]]:
    """The cycles of the links {p2, p1'} and {p1'', p2 + 1} as a partition
    of the 2m positions, found by union-find straight from their
    definition."""
    n = 2 * w.m
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for e in range(w.m):
        p1, p2 = w.occurrences(e)
        near, far = (p1, p1 + 1) if w.same_direction(e) != complement else (p1 + 1, p1)
        for x, y in ((p2, near), (far, (p2 + 1) % n)):
            parent[find(x)] = find(y)
    return partition(find(x) for x in range(n))


def full_scan_link_cycles(w: SignedWord, complement: bool) -> int:
    """_link_cycles as it was before the walk jumped: the same link table,
    walked from every position in a Python scan."""
    n = 2 * w.m
    ends = [0] * (2 * n)
    for e in range(w.m):
        p1, p2 = w.occurrences(e)
        if w.same_direction(e) != complement:
            near, far = 2 * p1, 2 * p1 + 3
        else:
            near, far = 2 * p1 + 3, 2 * p1
        a, b = 2 * p2, 2 * ((p2 + 1) % n) + 1
        ends[a], ends[near] = near, a
        ends[far], ends[b] = b, far
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        x = ends[2 * start]
        while x != 2 * start + 1:
            seen[x >> 1] = True
            x = ends[x ^ 1]
        cycles += 1
    return cycles


def check_link_cycles(w: SignedWord) -> None:
    """Both walks against the full scan, the union-find count and kernel()
    of c and of I + c: cycles = dim + 1."""
    op = c_operator(w)
    for complement, target in ((False, op), (True, LinearOp.identity(w.m) + op)):
        cycles = _link_cycles(w, complement)
        assert cycles == full_scan_link_cycles(w, complement)
        assert cycles == len(link_cycles(w, complement)) == target.kernel().dim + 1


def test_kernel_certificate_on_every_small_word():
    """On the map of every normal-form word with m <= 4 (2 + 12 + 120 +
    1680 words), zigzag_kernels equals kernel() of c_P, of c_P~ and of
    their product, and c_P is symmetric, which the images read; both link
    walks of the word count dim + 1."""
    counts = []
    for m in range(1, 5):
        words = list(normal_form_words(m))
        counts.append(len(words))
        for w in words:
            check_link_cycles(w)
            analysis = map_operators(zigzag_map_from_word(w))
            zig, comp = analysis.zigzag, analysis.zigzag_complement
            assert zig.transpose() is zig
            assert analysis.zigzag_kernels == (zig.kernel(), comp.kernel(),
                                               comp.compose(zig).kernel())
    assert counts == [2, 12, 120, 1680]


def test_link_cycles_on_random_and_large_words():
    """Seeded random words up to m = 120, all-balanced and all-unbalanced
    ones, and two words past m = 250; the empty word has no cycle."""
    assert _link_cycles(SignedWord(0, ()), False) == _link_cycles(SignedWord(0, ()), True) == 0
    rng = random.Random(67)
    cases = [random_signed_word(rng, m) for m in range(1, 121) for _ in range(2)]
    for m in (5, 40):
        ids = [e for e, _ in random_signed_word(rng, m).entries]
        cases += [signed(ids, iter([sign] * m)) for sign in (1, -1)]
    cases.append(word(*range(1, 21), *range(1, 21)))
    cases.append(word(*range(1, 21), *range(-20, 0)))
    cases += [random_signed_word(rng, 256), random_signed_word(rng, 301)]
    for w in cases:
        check_link_cycles(w)


def relabeled_flags(map_, rng: random.Random):
    """map_ with its rectangles shuffled and the flags of each rectangle
    XORed by a random offset, which keeps every partner pair."""
    perm = list(range(map_.m))
    rng.shuffle(perm)
    phi = [0] * map_.flag_count
    for r in range(map_.m):
        k = rng.randrange(4)
        for o in range(4):
            phi[4 * r + o] = 4 * perm[r] + (o ^ k)
    alpha = [0] * map_.flag_count
    for x, y in enumerate(map_.alpha):
        alpha[phi[x]] = phi[y]
    return FlagMap(map_.m, tuple(alpha))


def test_link_cycles_are_the_gons():
    """In the word of a single zigzag's trace, the link cycles of the c_P
    walk group position i by the vertex of flag order[2i], and those of
    the c_P~ walk by its face.  In the word of a single face's trace, the
    c_D walk groups it by the zigzag of that flag, and the I + c_D walk by
    its vertex.  On every map with m <= 3 that has one gon of the word's
    kind, on 800 seeded single-zigzag maps with m <= 60, half of them
    duals, and on 400 seeded one-face maps with m <= 40, duals of
    one-vertex maps; every seeded map has its flags relabeled."""
    census = [map_ for m in range(1, 4) for map_ in enumerate_maps(m)]
    single = {kind: [map_ for map_ in census if gon_labels(map_.alpha, PARTNER[kind])[0] == 1]
              for kind in "zf"}
    assert len(single["z"]) == len(single["f"]) == 3890
    rng = random.Random(71)
    for i in range(800):
        map_ = zigzag_map_from_word(random_signed_word(rng, rng.randint(1, 60)))
        single["z"].append(relabeled_flags(dual(map_) if i % 2 else map_, rng))
    for _ in range(400):
        one_vertex = from_signed_word(random_signed_word(rng, rng.randint(1, 40)))
        single["f"].append(relabeled_flags(dual(one_vertex), rng))
    for word_kind, walks in (("z", ((False, "v"), (True, "f"))), ("f", ((False, "z"), (True, "v")))):
        for map_ in single[word_kind]:
            _, _, order = gon_labels(map_.alpha, PARTNER[word_kind])
            w = _single_gon_word(map_.m, order, word_kind)
            for complement, kind in walks:
                gon_of = gon_labels(map_.alpha, PARTNER[kind])[1]
                assert link_cycles(w, complement) == partition(gon_of[x] for x in order[::2])


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

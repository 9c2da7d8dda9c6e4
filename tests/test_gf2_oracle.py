"""Differential tests of the GF(2) kernels against the original loop versions.

The reference functions below are the first implementations of `_rref`,
`contains`, `perp`, `intersect`, `kernel` and `transpose`: one `_low_bit`
call per (row, basis) pair, intersection as the complement of the sum of
complements, and bit-by-bit transposition.  They are slow but plainly
correct, and the pivot-indexed kernels in `mapcalc.gf2` must agree with
them on every input.  Every output is also checked for the canonical RREF
invariants that make subspace equality plain dataclass equality.
`intersect` and `kernel` share one read of a 2m-bit elimination
(Zassenhaus), checked here against two unrelated references: the
complement of the sum of complements, and a kernel that tracks each
column's combination.  `LinearOp.image` and `compose` are plain
references themselves (the RREF of the columns, one column sum per inner
column), and serve here as the oracle for the Bezout split of a product's
kernel and for the images read as perps of kernels.
"""

from __future__ import annotations

import random

from conftest import fundamental_cycles, random_signed_word
from mapcalc import Gf2Subspace, Gf2Vec, LinearOp, space_bundle, zigzag_map_from_word
from mapcalc.gf2 import _rref
from mapcalc.words import c_operator

SIZES = range(65)


def ref_low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def ref_rref(rows) -> tuple[int, ...]:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if (row >> ref_low_bit(b)) & 1:
                row ^= b
        if row:
            for i, b in enumerate(basis):
                if (b >> ref_low_bit(row)) & 1:
                    basis[i] = b ^ row
            basis.append(row)
    basis.sort(key=ref_low_bit)
    return tuple(basis)


def ref_contains(rows: tuple[int, ...], x: int) -> bool:
    for row in rows:
        if (x >> ref_low_bit(row)) & 1:
            x ^= row
    return x == 0


def ref_perp(m: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    pivots = [ref_low_bit(r) for r in rows]
    pivot_set = set(pivots)
    gens = []
    for c in range(m):
        if c in pivot_set:
            continue
        x = 1 << c
        for r, p in zip(rows, pivots):
            if (r >> c) & 1:
                x |= 1 << p
        gens.append(x)
    return ref_rref(gens)


def ref_intersect(m: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return ref_perp(m, ref_rref(ref_perp(m, a) + ref_perp(m, b)))


def ref_kernel(m: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    pivots: dict[int, tuple[int, int]] = {}
    null_rows = []
    for j in range(m):
        col, combo = cols[j], 1 << j
        while col:
            p = ref_low_bit(col)
            if p not in pivots:
                pivots[p] = (col, combo)
                break
            pcol, pcombo = pivots[p]
            col ^= pcol
            combo ^= pcombo
        else:
            null_rows.append(combo)
    return ref_rref(null_rows)


def ref_apply(m: int, cols: tuple[int, ...], x: int) -> int:
    out = 0
    for i in range(m):
        if (x >> i) & 1:
            out ^= cols[i]
    return out


def ref_transpose(m: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * m
    for j, c in enumerate(cols):
        for i in range(m):
            if (c >> i) & 1:
                out[i] |= 1 << j
    return tuple(out)


def assert_canonical(m: int, rows: tuple[int, ...]) -> None:
    """Nonzero rows inside the universe, strictly increasing pivots, and
    each pivot column clear in every other row."""
    assert all(0 < r and not r >> m for r in rows)
    pivots = [r & -r for r in rows]
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, p in enumerate(pivots):
        assert not any(r & p for j, r in enumerate(rows) if j != i)


def random_rows(rng: random.Random, m: int) -> list[int]:
    """Rows from a few generators, so the set is often rank-deficient, with
    duplicates, zero rows and sparse rows mixed in."""
    gens = [rng.getrandbits(m) for _ in range(rng.randint(0, m))]
    rows = [rng.getrandbits(m) if not gens or rng.random() < 0.3 else combo(rng, gens)
            for _ in range(rng.randint(0, m + 2))]
    if rows:
        rows += rng.choices(rows, k=rng.randint(0, 3))
    rows += [0] * rng.randint(0, 2)
    if m:
        rows += [1 << rng.randrange(m) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return rows


def combo(rng: random.Random, vectors: list[int]) -> int:
    x = 0
    for v in vectors:
        if rng.random() < 0.5:
            x ^= v
    return x


def independent(rng: random.Random, m: int) -> list[int]:
    """A random independent set: RREF rows moved by a random invertible map,
    so that they do not share the RREF's pivot structure."""
    rows = list(ref_rref(rng.getrandbits(m) for _ in range(m)))
    basis = [1 << i for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            basis[i] ^= basis[j]
    return [ref_apply(m, tuple(basis), r) for r in rows]


def subspace_pairs(rng: random.Random, m: int):
    """(a, b) pairs: unrelated, a inside b, trivial intersection, equal."""
    yield Gf2Subspace.span(m, random_rows(rng, m)), Gf2Subspace.span(m, random_rows(rng, m))
    rows = independent(rng, m)
    inner = Gf2Subspace.span(m, [combo(rng, rows) for _ in range(len(rows))])
    outer = Gf2Subspace.span(m, rows)
    yield inner, outer
    yield outer, inner
    k = rng.randint(0, len(rows))
    yield Gf2Subspace.span(m, rows[:k]), Gf2Subspace.span(m, rows[k:])
    yield outer, outer


def test_rref_and_span_match_reference():
    for m in SIZES:
        rng = random.Random(1000 + m)
        for _ in range(4):
            rows = random_rows(rng, m)
            got = _rref(rows)
            assert got == ref_rref(rows)
            assert_canonical(m, got)
            assert Gf2Subspace.span(m, rows).rows == got
            assert Gf2Subspace.span(m, rows[::-1]).rows == got


def test_contains_and_perp_match_reference():
    for m in SIZES:
        rng = random.Random(2000 + m)
        for _ in range(4):
            s = Gf2Subspace.span(m, random_rows(rng, m))
            p = s.perp()
            assert p.rows == ref_perp(m, s.rows)
            assert_canonical(m, p.rows)
            for x in [combo(rng, list(s.rows)) for _ in range(3)] + [rng.getrandbits(m) for _ in range(3)]:
                assert s.contains(x) == ref_contains(s.rows, x)


def perp_edge_cases(rng: random.Random, m: int):
    """The zero and full spaces, and random spaces of dimension 1 and m - 1."""
    yield Gf2Subspace.zero(m)
    yield Gf2Subspace.full(m)
    if m:
        rows = independent(rng, m)
        yield Gf2Subspace.span(m, rows[:1])
        yield Gf2Subspace.span(m, rows[1:])
        yield Gf2Subspace.span(m, [1 << rng.randrange(m)])
        yield Gf2Subspace.span(m, [(1 << m) - 1])


def test_perp_edge_cases_match_reference():
    for m in SIZES:
        rng = random.Random(2500 + m)
        for s in perp_edge_cases(rng, m):
            p = s.perp()
            assert p.rows == ref_perp(m, s.rows)
            assert_canonical(m, p.rows)
            assert s.dim + p.dim == m
    assert Gf2Subspace.zero(0).perp() == Gf2Subspace.full(0) == Gf2Subspace(0, ())
    for m in (1, 5, 64):
        assert Gf2Subspace.zero(m).perp() == Gf2Subspace.full(m)
        assert Gf2Subspace.full(m).perp() == Gf2Subspace.zero(m)


def wide_perp_cases(rng: random.Random, m: int):
    """Spaces of m bits, past one 64-bit word: dense, sparse and
    rank-deficient rows, and rows whose top pivots are bit 0 and bit m - 1."""
    yield Gf2Subspace.span(m, [rng.getrandbits(m) for _ in range(rng.randint(1, 12))])
    yield Gf2Subspace.span(m, [rng.getrandbits(m) for _ in range(m - rng.randint(1, 12))])
    yield Gf2Subspace.span(m, [1 << rng.randrange(m) | 1 << rng.randrange(m) for _ in range(m // 3)])
    yield Gf2Subspace.span(m, random_rows(rng, m))
    gens = [rng.getrandbits(m) for _ in range(5)]
    yield Gf2Subspace.span(m, [combo(rng, gens) for _ in range(40)])
    yield Gf2Subspace.span(m, [1, 1 << (m - 1) | rng.getrandbits(m - 1), rng.getrandbits(m - 1)])
    yield Gf2Subspace.span(m, [1 << (m - 1) | 1, 1 << (m - 1) | 1 << (m // 2)])
    yield Gf2Subspace.span(m, [(1 << m) - 1])


def test_perp_past_64_bits_matches_reference():
    """perp at the sizes `verify` meets, m = 250..350, against the loop
    reference, so that the set-bit scan is checked on rows many words long."""
    for m in (250, 256, 301, 350):
        rng = random.Random(2600 + m)
        for s in wide_perp_cases(rng, m):
            p = s.perp()
            assert p.rows == ref_perp(m, s.rows)
            assert_canonical(m, p.rows)
            assert s.dim + p.dim == m


def test_perp_round_trips():
    for m in SIZES:
        rng = random.Random(2700 + m)
        spaces = list(perp_edge_cases(rng, m))
        spaces += [Gf2Subspace.span(m, random_rows(rng, m)) for _ in range(4)]
        for s in spaces:
            assert s.perp().perp() == s


def test_theorem3b_target_is_the_meet_of_the_cycle_spaces():
    """(Bv + Bf)^perp, the target of 3b, against Zassenhaus' meet of the
    vertex and face cycle spaces, each spanned from its fundamental cycles
    so that no perp is on the oracle side."""
    rng = random.Random(2900)
    for i in range(240):
        map_ = zigzag_map_from_word(random_signed_word(rng, 1 + i % 12))
        bundle = space_bundle(map_)
        cv, cf = (Gf2Subspace.span(map_.m, fundamental_cycles(g))
                  for g in (bundle.vertex_graph, bundle.face_graph))
        target = bundle.vertex_face_cycles
        assert target == cv.intersect(cf)
        assert target.rows == ref_intersect(map_.m, cv.rows, cf.rows)


def test_intersect_matches_reference():
    for m in SIZES:
        rng = random.Random(3000 + m)
        for a, b in subspace_pairs(rng, m):
            got = a.intersect(b)
            assert got.rows == ref_intersect(m, a.rows, b.rows)
            assert_canonical(m, got.rows)
            assert got == b.intersect(a)
            assert all(a.contains(r) and b.contains(r) for r in got.rows)


def test_intersect_special_cases():
    for m in SIZES:
        rng = random.Random(4000 + m)
        rows = independent(rng, m)
        outer = Gf2Subspace.span(m, rows)
        inner = Gf2Subspace.span(m, [combo(rng, rows) for _ in range(len(rows) // 2)])
        assert inner.intersect(outer) == inner
        k = rng.randint(0, len(rows))
        assert Gf2Subspace.span(m, rows[:k]).intersect(Gf2Subspace.span(m, rows[k:])).dim == 0
        assert outer.intersect(Gf2Subspace.zero(m)) == Gf2Subspace.zero(m)
        assert outer.intersect(Gf2Subspace.full(m)) == outer


def test_operator_kernels_match_reference():
    for m in SIZES:
        rng = random.Random(5000 + m)
        for _ in range(3):
            cols = random_rows(rng, m)
            cols = tuple((cols + [0] * m)[:m])
            op = LinearOp(m, cols)
            ker = op.kernel()
            assert ker.rows == ref_kernel(m, cols)
            assert_canonical(m, ker.rows)
            assert all(op.apply(v).bits == 0 for v in ker.basis())
            assert op.image().rows == ref_rref(cols)
            assert op.transpose().cols == ref_transpose(m, cols)
            other = LinearOp(m, tuple(rng.getrandbits(m) for _ in range(m)))
            assert op.compose(other).cols == tuple(ref_apply(m, cols, c) for c in other.cols)
            x = rng.getrandbits(m)
            assert op.apply(Gf2Vec(m, x)).bits == ref_apply(m, cols, x)


def symmetric(m: int, cols) -> LinearOp:
    """A + A^T plus a diagonal read off A's own diagonal bits shifted by
    one, so the diagonal is neither all ones nor all zeros."""
    cols = list(cols)
    t = ref_transpose(m, tuple(cols))
    diag = [(cols[(j + 1) % m] >> j) & 1 for j in range(m)]
    return LinearOp(m, tuple(a ^ b ^ (d << j) for j, (a, b, d) in enumerate(zip(cols, t, diag))))


def operator_cases(rng: random.Random, m: int):
    """Zero, identity, rank-deficient (columns from a few generators, with
    repeats and zero columns) and uniformly random operators, then two
    symmetric ones: a random one, shaped like a word operator
    (interlacement plus a diagonal), and a low-rank sum of outer products."""
    yield LinearOp.zero(m)
    yield LinearOp.identity(m)
    yield LinearOp(m, tuple((random_rows(rng, m) + [0] * m)[:m]))
    gens = [rng.getrandbits(m) for _ in range(rng.randint(0, max(m // 3, 1)))]
    yield LinearOp(m, tuple(combo(rng, gens) for _ in range(m)))
    yield LinearOp(m, tuple(rng.getrandbits(m) for _ in range(m)))
    yield symmetric(m, (rng.getrandbits(m) for _ in range(m)))
    outer = [0] * m
    for g in gens:
        for j in range(m):
            if (g >> j) & 1:
                outer[j] ^= g
    yield LinearOp(m, tuple(outer))


def special_cases(m: int):
    """Full (the identity's columns shuffled), dense, duplicated, low-rank
    and nearly zero column sets."""
    rng = random.Random(8000 + m)
    full = [1 << i for i in range(m)]
    rng.shuffle(full)
    dense = independent(rng, m)
    low_rank = [combo(rng, dense[:3]) for _ in range(2 * m)]
    for cols in (full, dense, dense + dense, low_rank, [0] * m + dense[:1]):
        yield LinearOp(m, tuple((cols + [0] * m)[:m]))


def test_shared_image_kernel_elimination_matches_reference():
    """image() is the RREF of the columns and kernel() is read off one
    elimination of the columns augmented by the identity.  Each must equal
    the separate reference computation, and rank + nullity must be m, on
    every operator case up to m = 130, and on special column sets at
    widths 5, 6, 7, 64 and 130."""
    for m in range(131):
        rng = random.Random(6000 + m)
        cases = list(operator_cases(rng, m))
        if m in (5, 6, 7, 64, 130):
            cases += special_cases(m)
        for op in cases:
            im, ker = op.image(), op.kernel()
            assert im.rows == ref_rref(op.cols)
            assert ker.rows == ref_kernel(m, op.cols)
            assert_canonical(m, im.rows)
            assert_canonical(m, ker.rows)
            assert im.dim + ker.dim == m
            assert op.image() is im and op.kernel() is ker


def test_block_transpose_matches_reference():
    """Every m up to 130, so each power of two and its neighbours, and
    255..257, past a 256-bit block; transpose() is the operator itself
    exactly when it is symmetric."""
    for m in [*range(131), 255, 256, 257]:
        rng = random.Random(8500 + m)
        for op in operator_cases(rng, m):
            want = ref_transpose(m, op.cols)
            t = op.transpose()
            assert t.cols == want
            assert (t is op) == (want == op.cols)
            assert t.transpose().cols == op.cols


def test_product_spaces_match_compose():
    """The kernel of (I + a) o a as ker a + ker(I + a) (the Bezout split),
    and its image as the perp of the same sum for the transpose, against
    the image and kernel of the composed product and the loop references,
    on random operators, most of them not symmetric, up to m = 130."""
    for m in [*SIZES, 97, 127, 128, 129, 130]:
        rng = random.Random(8900 + m)
        cases = list(operator_cases(rng, m))
        cases.append(LinearOp(m, tuple(rng.getrandbits(m) for _ in range(m))))
        for a in cases:
            ba = (LinearOp.identity(m) + a).compose(a)
            kernel = bezout_kernel(a)
            image = bezout_kernel(a.transpose()).perp()
            assert (image, kernel) == (ba.image(), ba.kernel())
            assert image.rows == ref_rref(ba.cols)
            assert kernel.rows == ref_kernel(m, ba.cols)


def bezout_kernel(a: LinearOp) -> Gf2Subspace:
    """ker a + ker(I + a), which is ker (I + a) o a: as I = a + (I + a),
    each x in that kernel is a x + (I + a) x, the first in ker(I + a) and
    the second in ker a."""
    return a.kernel().sum((LinearOp.identity(a.m) + a).kernel())


def split_cases(rng: random.Random, m: int):
    """Zero, identity, non-symmetric, symmetric, low-rank, I + low-rank (so
    I + A is singular), triangular with a random 0/1 diagonal (so A and
    I + A are often both singular), and a word operator."""
    yield LinearOp.zero(m)
    yield LinearOp.identity(m)
    yield LinearOp(m, tuple(rng.getrandbits(m) for _ in range(m)))
    yield symmetric(m, (rng.getrandbits(m) for _ in range(m)))
    gens = [rng.getrandbits(m) for _ in range(rng.randint(0, max(m // 4, 1)))]
    low = LinearOp(m, tuple(combo(rng, gens) for _ in range(m)))
    yield low
    yield LinearOp.identity(m) + low
    yield LinearOp(m, tuple(rng.getrandbits(1) << j | rng.getrandbits(m) >> (j + 1) << (j + 1)
                            for j in range(m)))
    yield c_operator(random_signed_word(rng, m))


def test_kernel_split_matches_reference():
    """ker A, ker(I + A) and their sum ker A(I + A) against kernel() of
    each operator and the loop reference, with the dimensions adding up,
    and Im A(I + A) against Im A meet Im(I + A), on square matrices of
    every kind in split_cases, at sizes on both sides of 64-, 128- and
    256-bit words."""
    for m in [*range(1, 21), 63, 64, 65, 127, 128, 129, 130, 255, 256, 257]:
        rng = random.Random(9100 + m)
        for a in split_cases(rng, m):
            comp = LinearOp.identity(m) + a
            product = comp.compose(a)
            got = (a.kernel(), comp.kernel(), bezout_kernel(a))
            for space, op in zip(got, (a, comp, product)):
                assert space == op.kernel()
                assert space.rows == ref_kernel(m, op.cols)
                assert_canonical(m, space.rows)
            assert got[0].dim + got[1].dim == got[2].dim
            assert product.image() == a.image().intersect(comp.image())
            assert product.image().rows == ref_rref(product.cols)


def test_large_operators_match_reference():
    """image, kernel and compose up to m = 130, on sizes on both sides of
    64- and 128-bit words, against the loop references."""
    for m in (63, 64, 65, 97, 130):
        rng = random.Random(9000 + m)
        for op in operator_cases(rng, m):
            im, ker = op.image(), op.kernel()
            assert im.rows == ref_rref(op.cols)
            assert ker.rows == ref_kernel(m, op.cols)
            assert_canonical(m, im.rows)
            assert_canonical(m, ker.rows)
            inner = LinearOp(m, tuple(rng.getrandbits(m) for _ in range(m)))
            for a, b in ((op, inner), (inner, op)):
                assert a.compose(b).cols == tuple(ref_apply(m, a.cols, c) for c in b.cols)

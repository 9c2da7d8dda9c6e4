"""Unit tests for GF(2) vectors, subspaces, and linear operators."""

from __future__ import annotations

import random
import re
import weakref
from collections import Counter

import pytest

from conftest import members, random_subspace
from mapcalc import Gf2Subspace, Gf2Vec, LinearOp, gf2


def test_vec_basics():
    v = Gf2Vec.from_edges(5, [0, 3])
    assert v.edges() == (0, 3)
    assert [v.bits >> e & 1 for e in range(5)] == [1, 0, 0, 1, 0]
    assert v.bits == 0b1001
    assert Gf2Vec(5, 0).edges() == ()


def test_vec_add():
    a = Gf2Vec.from_edges(4, [0, 1])
    b = Gf2Vec.from_edges(4, [1, 2])
    assert (a + b).edges() == (0, 2)
    assert (a + a).bits == 0


def test_vec_universe_mismatch():
    with pytest.raises(ValueError):
        Gf2Vec(3, 0) + Gf2Vec(4, 0)
    with pytest.raises(ValueError):
        Gf2Vec(2, 0b100)


def test_span_reduces_to_rref():
    s = Gf2Subspace.span(3, [0b011, 0b110, 0b101])
    assert s.dim == 2
    assert s.contains(0b101)
    assert not s.contains(0b001)
    assert members(s) == {0, 0b011, 0b110, 0b101}


def test_span_rejects_ints_outside_the_universe():
    for bad in (0b1000, -1, -0b10):
        with pytest.raises(ValueError):
            Gf2Subspace.span(3, [0b001, bad])
    assert Gf2Subspace.span(0, [0]) == Gf2Subspace.zero(0)


def test_zero_and_full():
    z = Gf2Subspace.zero(4)
    f = Gf2Subspace.full(4)
    assert z.dim == 0 and f.dim == 4
    assert f.contains(0b1011)
    assert members(z) == {0}
    assert members(f) == set(range(16))


def test_sum_and_intersect_against_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 6)
        a, b = random_subspace(rng, m), random_subspace(rng, m)
        should_sum = set()
        for x in members(a):
            should_sum |= {x ^ y for y in members(b)}
        assert members(a.sum(b)) == should_sum
        assert members(a.intersect(b)) == members(a) & members(b)


def test_perp_is_orthogonal_complement():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 6)
        s = random_subspace(rng, m)
        p = s.perp()
        assert s.dim + p.dim == m
        every = {x for x in range(1 << m) if all(bin(x & r).count("1") % 2 == 0 for r in s.rows)}
        assert members(p) == every


def test_operator_apply_and_compose():
    op = LinearOp.from_columns(3, [0b011, 0b110, 0b101])
    v = Gf2Vec.from_edges(3, [0, 2])
    assert op.apply(v).bits == 0b011 ^ 0b101
    two = op.compose(op)
    for x in range(3):
        assert two.column(x).bits == op.apply(op.column(x)).bits


def test_operator_identity_add_transpose():
    ident = LinearOp.identity(3)
    op = LinearOp.from_columns(3, [0b010, 0b001, 0b100])
    assert ident.compose(op).cols == op.cols
    assert (op + op).cols == LinearOp.zero(3).cols
    t = op.transpose()
    for i in range(3):
        for j in range(3):
            assert ((op.cols[j] >> i) & 1) == ((t.cols[i] >> j) & 1)


def test_operator_symmetry():
    """A symmetric operator is its own transpose, the same object."""
    op = LinearOp.from_columns(2, [0b10, 0b01])
    assert op.transpose() is op
    op = LinearOp.from_columns(2, [0b10, 0b00])
    assert op.transpose() is not op and op.transpose().cols == (0b00, 0b01)


def test_image_and_kernel():
    op = LinearOp.from_columns(3, [0b011, 0b011, 0b100])
    im, ker = op.image(), op.kernel()
    assert im.dim == 2 and ker.dim == 1
    assert ker.contains(0b011)
    for x in members(ker):
        assert op.apply(Gf2Vec(3, x)).bits == 0


def test_rank_nullity_random():
    """image() and kernel() come from independent eliminations, so rank +
    nullity = m checks one against the other.  Besides small random
    operators, non-symmetric ones at small sizes and at the sizes around
    the ends of 64- and 128-bit words."""
    rng = random.Random(13)
    ops = []
    for _ in range(100):
        m = rng.randint(1, 8)
        ops.append(LinearOp.from_columns(m, [rng.getrandbits(m) for _ in range(m)]))
    for m in (6, 7, 8, 13, 14, 15, 63, 64, 65, 127, 128, 129, 130):
        for rank in (m, m // 2, 1):
            gens = [rng.getrandbits(m) for _ in range(rank)]
            cols = [gens[j] if j < rank else rng.choice(gens) for j in range(m)]
            cols[0] |= 1 << (m - 1)  # column 0 holds row m - 1; column m - 1 need not hold row 0
            cols[-1] &= ~1
            op = LinearOp.from_columns(m, cols)
            assert op.transpose() is not op
            ops.append(op)
    for op in ops:
        assert op.image().dim + op.kernel().dim == op.m


def test_operator_universe_mismatch():
    with pytest.raises(ValueError):
        LinearOp.identity(3).apply(Gf2Vec(4, 0))
    with pytest.raises(ValueError):
        LinearOp.identity(3).compose(LinearOp.identity(4))
    with pytest.raises(ValueError):
        Gf2Subspace.span(3, [0]).sum(Gf2Subspace.span(4, [0]))


def count_eliminations(monkeypatch) -> Counter:
    """Count the calls of gf2's two elimination loops by name: the low-bit
    echelon form (which `_rref` runs too) and the top-bit RREF."""
    calls: Counter = Counter()
    for name in ("_echelon", "_top_rref"):
        def counted(*args, _name=name, _fn=getattr(gf2, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(gf2, name, counted)
    return calls


@pytest.mark.parametrize("m", [0, 3, 63, 64, 100])
def test_image_and_kernel_take_one_elimination(monkeypatch, m):
    """The image is the RREF of the columns, one echelon form.  The kernel
    is two: one of the augmented columns, and the RREF of the few rows
    with a zero low half.  Neither reads the other or the transpose, so a
    symmetric operator costs the same as any other.  Each is kept on the
    operator: asking again runs nothing."""
    rng = random.Random(m)
    cols = [rng.getrandbits(m) for _ in range(m)]
    sym = [c ^ t for c, t in zip(cols, LinearOp(m, tuple(cols)).transpose().cols)]
    ops = [LinearOp(m, tuple(sym))]
    if m > 1:
        cols[0] |= 1 << (m - 1)  # column 0 holds row m - 1; column m - 1 need not hold row 0
        cols[-1] &= ~1
        ops.append(LinearOp(m, tuple(cols)))
    calls = count_eliminations(monkeypatch)
    for op in ops:
        for ask, want in ((op.image, {"_echelon": 1}), (op.kernel, {"_echelon": 2})):
            calls.clear()
            first = ask()
            assert calls == want
            calls.clear()
            assert ask() is first
            assert calls == {}


def test_operators_are_freed_without_the_collector():
    """Whatever an operator keeps (its kernel and image) holds no reference
    back to it, so it goes with its last reference, as before those were
    kept."""
    for cols in ((0b011, 0b011, 0b100), (0b011, 0b110, 0b101), (0b010, 0b001, 0b100)):
        op = LinearOp(3, cols)
        op.transpose(), op.image(), op.kernel()
        ref = weakref.ref(op)
        del op
        assert ref() is None


def test_column_rejects_indices_outside_the_universe():
    op = LinearOp.from_columns(3, [0b011, 0b110, 0b101])
    assert op.column(2).bits == 0b101
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            op.column(bad)
    with pytest.raises(ValueError):
        LinearOp.zero(0).column(0)


def test_column_names_an_index_that_is_not_an_integer():
    """0.5 is refused with a ValueError that names it, not a TypeError
    from indexing the columns; True is column 1."""
    op = LinearOp.from_columns(3, [0b011, 0b110, 0b101])
    for bad in (0.5, "1"):
        with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            op.column(bad)
    assert op.column(True) == op.column(1)


def test_contains_rejects_ints_outside_the_universe():
    s = Gf2Subspace.span(4, [0b0011, 0b1100])
    assert s.contains(0b1111) and not s.contains(0b0001)
    for bad in (-1, 0b11 | 1 << 10, 1 << 4, -0b100):
        with pytest.raises(ValueError):
            s.contains(bad)
    with pytest.raises(ValueError):
        s.contains(Gf2Vec(5, 0))
    assert Gf2Subspace.zero(0).contains(0)


def test_contains_names_a_value_that_is_not_an_integer():
    """1.5 is refused with a ValueError that names it, not a TypeError from
    its bit arithmetic; True is the vector {0}."""
    for bad in (1.5, "1"):
        with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            Gf2Subspace.zero(3).contains(bad)
    assert Gf2Subspace.full(3).contains(True)


@pytest.mark.parametrize("m", [0, 3, 63, 64, 100])
def test_perp_takes_one_elimination(monkeypatch, m):
    """The top-bit reduction of the rows is the only echelon form; the
    complement's rows are written, not eliminated."""
    rng = random.Random(m)
    calls = count_eliminations(monkeypatch)
    for s in (Gf2Subspace.zero(m), Gf2Subspace.full(m), random_subspace(rng, m)):
        calls.clear()
        s.perp()
        assert calls == {"_top_rref": 1}


@pytest.mark.parametrize("build, args, value", [
    pytest.param(Gf2Vec, (3, 1.5), "1.5", id="vec-bits"),
    pytest.param(Gf2Vec, (3.0, 1), "3.0", id="vec-m"),
    pytest.param(Gf2Vec, (3, "1"), "'1'", id="vec-str"),
    pytest.param(Gf2Vec.from_edges, (3, [0, 1.0]), "1.0", id="from_edges-edge"),
    pytest.param(Gf2Vec.from_edges, (3.5, []), "3.5", id="from_edges-m"),
    pytest.param(Gf2Subspace.span, (3, [1, 1.5]), "1.5", id="span-vector"),
    pytest.param(Gf2Subspace.span, (3, [None]), "None", id="span-none"),
    pytest.param(Gf2Subspace.span, (3.5, []), "3.5", id="span-m"),
    pytest.param(Gf2Subspace.zero, (2.5,), "2.5", id="subspace-zero-m"),
    pytest.param(Gf2Subspace.full, (2.5,), "2.5", id="full-m"),
    pytest.param(LinearOp, (3, (1.5, 0, 0)), "1.5", id="op-column"),
    pytest.param(LinearOp, (3, [0, 0, "4"]), "'4'", id="op-list-str"),
    pytest.param(LinearOp, (3.0, (0, 0, 0)), "3.0", id="op-m"),
    pytest.param(LinearOp.identity, (2.5,), "2.5", id="identity-m"),
    pytest.param(LinearOp.zero, (2.5,), "2.5", id="op-zero-m"),
])
def test_constructors_name_a_value_that_is_not_an_integer(build, args, value):
    """A universe size or value that is not an int is refused with a
    ValueError that names it, as MultiGraph, SignedWord and FlagMap do,
    not a bare TypeError from a shift or a comparison, nor taken as the
    size of a subspace.  Each case with a universe size that is not an int
    is tried again with m = -2, which is refused as negative."""
    with pytest.raises(ValueError, match=f"^expected an integer, got {re.escape(value)}$"):
        build(*args)
    if isinstance(args[0], float):
        with pytest.raises(ValueError, match="^universe size must be nonnegative$"):
            build(-2, *args[1:])


@pytest.mark.parametrize("build, good", [
    pytest.param(Gf2Vec.from_edges, 1, id="from_edges"),
    pytest.param(Gf2Subspace.span, 2, id="span"),
])
@pytest.mark.parametrize("before", [0, 2])
def test_constructors_pass_on_a_type_error_from_the_callers_iterable(build, good, before):
    """A TypeError raised by the caller's own generator, at its first item
    or after valid ones, reaches the caller unchanged, not as a ValueError
    naming an earlier value."""
    def items():
        for _ in range(before):
            yield good
        raise TypeError("from the generator")

    with pytest.raises(TypeError, match="^from the generator$"):
        build(3, items())


def test_operator_keeps_its_columns_as_a_tuple():
    """Columns given as a list are kept as a tuple, so the operator hashes
    and equals the one built from the tuple."""
    op = LinearOp(2, [1, 2])
    assert op.cols == (1, 2) and type(op.cols) is tuple
    assert op == LinearOp(2, (1, 2)) and hash(op) == hash(LinearOp(2, (1, 2)))

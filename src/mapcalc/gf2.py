"""GF(2) linear algebra over a fixed edge universe, using int bitsets.

A vector is a subset of the edge ids {0, ..., m-1}, stored as a Python int
with bit i set iff edge i is present; addition is symmetric difference.
Subspaces keep their basis in reduced row echelon form, so two equal
subspaces are structurally equal objects.  Operators are m x m matrices
stored column-wise (column x = image of the singleton {x}).

A row's pivot is its lowest set bit, kept as the power of two `row & -row`.
There is one kind of elimination.  `_echelon` indexes rows by pivot in a
dict, so reducing a row costs one lookup and one big-int XOR per pivot it
meets, and `_rref` back-substitutes its rows into the canonical basis;
membership tests use the same index.  `span`, `sum` and `image` are the
RREF of their rows.  `intersect` and `kernel` share one Zassenhaus read
(`_low_zero_part`): one elimination of rows of 2m bits, keeping the
members of their span whose low m bits are zero.  For an intersection the
rows are u | u << m for u in one space and w in the other; for the kernel
of A they are col_j | 1 << (m + j).  `perp` runs the mirror image of the
elimination on its own dim rows, keyed by highest bits (`_top_rref`), and
then writes the canonical basis of the complement directly, without
eliminating the complement's m - dim rows: one scan of each reduced row's
binary digits (`_set_bits`) finds the complement rows that row's pivot
goes into.

The theorem checks run no `kernel`, `image`, `compose` (one column sum per
inner column) or `transpose` (a loop over the columns' set bits): they walk
the kernels of the word operators off the zigzag word
(words._kernel_vectors), read every image as the perp of a kernel and build
operator products from words.  Those four methods are their test oracles.
Image and kernel come from separate eliminations, so rank + nullity = m is
a real cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

# The flag byte of each binary digit, for `_set_bits`.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Row echelon form, keyed by pivot: {row & -row: row}.

    Each incoming row is reduced by the stored row of its lowest bit until
    that bit is a new pivot or the row is zero.  The stored rows span the
    input and have distinct pivots, but may have set bits in other rows'
    pivot columns.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            b = pivots.get(low)
            if b is None:
                pivots[low] = row
                break
            row ^= b
    return pivots


def _rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduce bitset rows to reduced row echelon form (pivots increasing).

    `_echelon`, then `_back_substitute`.  The result is the unique
    canonical basis: nonzero rows, strictly increasing pivots, each pivot
    column clear in all other rows.
    """
    return _back_substitute(_echelon(rows))


def _back_substitute(pivots: dict[int, int], descending: bool = True) -> tuple[int, ...]:
    """Clear every pivot bit from the other rows of {pivot bit: row}, in
    place, and return the rows in increasing pivot order.

    Lowest-bit pivots are visited in descending order: the other pivot
    bits of a row all lie above its own pivot, and the rows of those pivots
    are already reduced, so XOR-ing them in clears exactly those bits.
    Highest-bit pivots (`_top_rref`) are the mirror image, visited with
    descending=False.
    """
    mask = sum(pivots)
    out = []
    for p in sorted(pivots, reverse=descending):
        row = pivots[p]
        rest = (row ^ p) & mask
        while rest:
            q = rest & -rest
            row ^= pivots[q]
            rest ^= q
        pivots[p] = row
        out.append(row)
    if descending:
        out.reverse()
    return tuple(out)


def _top_rref(rows: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form on the highest bits: {top pivot bit: row}.

    `_echelon` mirrored: each row is reduced by the stored row of its
    highest bit.  `_back_substitute` then clears each pivot bit from the
    other rows, visiting the pivots in increasing order.  Afterwards every
    row's other bits lie below its pivot and outside all pivot columns.
    """
    tops: dict[int, int] = {}
    for row in rows:
        while row:
            top = 1 << (row.bit_length() - 1)
            b = tops.get(top)
            if b is None:
                tops[top] = row
                break
            row ^= b
    _back_substitute(tops, descending=False)
    return tops


def _low_zero_part(rows: Iterable[int], m: int) -> tuple[int, ...]:
    """The members of span(rows) whose low m bits are zero, shifted down by
    m, as a canonical basis (the read of Zassenhaus' algorithm).

    A combination of echelon rows has the lowest of their pivots as its
    lowest bit, so those members are exactly the span of the echelon rows
    whose pivot is at bit m or above.
    """
    return _rref(r >> m for p, r in _echelon(rows).items() if p >> m)


def _set_bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x >= 0, in increasing order.

    The binary digits of x, lowest first, become one flag byte per bit,
    and itertools.compress picks the indices of the nonzero ones: the scan
    runs in C and does no big-int arithmetic.
    """
    flags = format(x, "b")[::-1].encode().translate(_DIGIT_FLAGS)
    return compress(range(len(flags)), flags)


def _not_an_integer(value: object) -> ValueError:
    """The error for a value that is not an int, such as one that made an
    int comparison or shift raise TypeError."""
    return ValueError(f"expected an integer, got {value!r}")


def _check_universe(m: object) -> None:
    """Refuse a universe size that is not a nonnegative int."""
    if not isinstance(m, int):
        raise _not_an_integer(m)
    if m < 0:
        raise ValueError("universe size must be nonnegative")


def _apply_bits(cols: tuple[int, ...], x: int) -> int:
    """XOR of the columns selected by the set bits of x."""
    bits = 0
    for i in _set_bits(x):
        bits ^= cols[i]
    return bits


@dataclass(frozen=True)
class Gf2Vec:
    """An edge subset of {0..m-1} viewed as a GF(2) vector."""

    m: int
    bits: int = 0

    def __post_init__(self) -> None:
        _check_universe(self.m)
        try:
            if self.bits < 0 or self.bits >> self.m:
                raise ValueError("vector has bits outside the universe")
        except TypeError:
            raise _not_an_integer(self.bits) from None

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[int]) -> Gf2Vec:
        _check_universe(m)
        bits = 0
        for e in edges:
            try:
                if not 0 <= e < m:
                    raise ValueError(f"edge {e} out of range for universe {m}")
                bits |= 1 << e
            except TypeError:
                raise _not_an_integer(e) from None
        return cls(m, bits)

    def edges(self) -> tuple[int, ...]:
        return tuple(_set_bits(self.bits))

    def __contains__(self, edge: int) -> bool:
        return 0 <= edge < self.m and bool((self.bits >> edge) & 1)

    def __add__(self, other: Gf2Vec) -> Gf2Vec:
        """Symmetric difference."""
        if self.m != other.m:
            raise ValueError("universe mismatch")
        return Gf2Vec(self.m, self.bits ^ other.bits)

    def __repr__(self) -> str:
        return f"Gf2Vec({self.m}, {{{', '.join(map(str, self.edges()))}}})"


@dataclass(frozen=True)
class Gf2Subspace:
    """A subspace of GF(2)^m with a reduced-row-echelon basis.

    The canonical basis makes equality of subspaces plain dataclass
    equality.  Rows are nonzero, ordered by strictly increasing pivot,
    and every pivot column is zero in all other rows.  The constructor
    Gf2Subspace(m, rows) takes rows already in that form and does not
    check them: `contains` and `==` are wrong on any others.  `span` is
    the constructor for arbitrary vectors.
    """

    m: int
    rows: tuple[int, ...]

    @classmethod
    def span(cls, m: int, vectors: Iterable[Gf2Vec | int]) -> Gf2Subspace:
        _check_universe(m)
        bits = []
        for v in vectors:
            if isinstance(v, Gf2Vec):
                if v.m != m:
                    raise ValueError("universe mismatch")
                bits.append(v.bits)
            else:
                try:
                    if v < 0 or v >> m:
                        raise ValueError("vector has bits outside the universe")
                except TypeError:
                    raise _not_an_integer(v) from None
                bits.append(v)
        return cls(m, _rref(bits))

    @classmethod
    def zero(cls, m: int) -> Gf2Subspace:
        _check_universe(m)
        return cls(m, ())

    @classmethod
    def full(cls, m: int) -> Gf2Subspace:
        _check_universe(m)
        return cls(m, tuple(1 << i for i in range(m)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _pivot_index(self) -> tuple[int, dict[int, int]]:
        """(OR of the pivot bits, {pivot bit: row})."""
        index = {r & -r: r for r in self.rows}
        return sum(index), index

    def contains(self, v: Gf2Vec | int) -> bool:
        if isinstance(v, Gf2Vec):
            if v.m != self.m:
                raise ValueError("universe mismatch")
            x = v.bits
        else:
            x = v
        # Pivot columns are clear in all other rows, so x is a member iff
        # it equals the sum of the rows whose pivot bits it has.
        mask, index = self._pivot_index
        sel = x & mask
        y = 0
        while sel:
            p = sel & -sel
            y ^= index[p]
            sel ^= p
        if x == y:
            return True
        # Only a non-member can lie outside the universe, so members pay no
        # check; a negative int shifts to -1, so one test covers both sides.
        if x >> self.m:
            raise ValueError("vector has bits outside the universe")
        return False

    def basis(self) -> tuple[Gf2Vec, ...]:
        return tuple(Gf2Vec(self.m, r) for r in self.rows)

    def sum(self, other: Gf2Subspace) -> Gf2Subspace:
        if self.m != other.m:
            raise ValueError("universe mismatch")
        return Gf2Subspace(self.m, _rref(self.rows + other.rows))

    def perp(self) -> Gf2Subspace:
        """Orthogonal complement, written straight in canonical form.

        The rows are first reduced on their highest bits (`_top_rref`),
        giving top pivots Q.  Each column c outside Q gives the complement
        row {c} plus the top pivot of every reduced row that contains c.
        Those pivots all lie above c, so c is the row's lowest bit and its
        only bit outside Q: in increasing c, the rows are already the
        canonical basis, and the complement itself is never eliminated.
        Each reduced row's set bits are read in one scan (`_set_bits`), and
        its pivot is ORed into the generator of each of those columns; the
        generators of the pivot columns are then dropped.
        """
        tops = _top_rref(self.rows)
        gens = [1 << c for c in range(self.m)]
        for p, r in tops.items():
            for c in _set_bits(r ^ p):
                gens[c] |= p
            gens[p.bit_length() - 1] = 0
        return Gf2Subspace(self.m, tuple(filter(None, gens)))

    def intersect(self, other: Gf2Subspace) -> Gf2Subspace:
        """Intersection by Zassenhaus' algorithm, in one elimination.

        The rows are u | u << m for u in self and w for w in other.  A
        combination is (u + w) | u << m, so its low m bits vanish exactly
        when u = w lies in both spaces, and its high half is then that
        common vector.
        """
        if self.m != other.m:
            raise ValueError("universe mismatch")
        m = self.m
        rows = [u | u << m for u in self.rows]
        rows += other.rows
        return Gf2Subspace(m, _low_zero_part(rows, m))

    def __repr__(self) -> str:
        shown = [format(r, f"0{self.m}b")[::-1] for r in self.rows]
        return f"Gf2Subspace({self.m}, dim={self.dim}, rows={shown})"


@dataclass(frozen=True)
class LinearOp:
    """An m x m matrix over GF(2), stored as columns (images of singletons)."""

    m: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_universe(self.m)
        if type(self.cols) is not tuple:
            object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.cols) != self.m:
            raise ValueError("operator must have one column per edge")
        try:
            for c in self.cols:
                if c < 0 or c >> self.m:
                    raise ValueError("column has bits outside the universe")
        except TypeError:
            raise _not_an_integer(c) from None

    @classmethod
    def from_columns(cls, m: int, cols: Iterable[Gf2Vec | int]) -> LinearOp:
        out = []
        for c in cols:
            if isinstance(c, Gf2Vec):
                if c.m != m:
                    raise ValueError("universe mismatch")
                out.append(c.bits)
            else:
                out.append(c)
        return cls(m, tuple(out))

    @classmethod
    def identity(cls, m: int) -> LinearOp:
        _check_universe(m)
        return cls(m, tuple(1 << i for i in range(m)))

    @classmethod
    def zero(cls, m: int) -> LinearOp:
        _check_universe(m)
        return cls(m, (0,) * m)

    def column(self, x: int) -> Gf2Vec:
        try:
            if not 0 <= x < self.m:
                raise ValueError(f"column {x} out of range for universe {self.m}")
            return Gf2Vec(self.m, self.cols[x])
        except TypeError:
            raise _not_an_integer(x) from None

    def apply(self, v: Gf2Vec) -> Gf2Vec:
        if v.m != self.m:
            raise ValueError("universe mismatch")
        return Gf2Vec(self.m, _apply_bits(self.cols, v.bits))

    def compose(self, inner: LinearOp) -> LinearOp:
        """self o inner (apply `inner` first), one column sum per inner column."""
        if inner.m != self.m:
            raise ValueError("universe mismatch")
        return LinearOp(self.m, tuple(_apply_bits(self.cols, c) for c in inner.cols))

    def __add__(self, other: LinearOp) -> LinearOp:
        if other.m != self.m:
            raise ValueError("universe mismatch")
        return LinearOp(self.m, tuple(a ^ b for a, b in zip(self.cols, other.cols)))

    def transpose(self) -> LinearOp:
        """The transposed matrix, row i read column by column, or self when
        it is symmetric."""
        rows = [0] * self.m
        for j, c in enumerate(self.cols):
            bit = 1 << j
            for i in _set_bits(c):
                rows[i] |= bit
        cols = tuple(rows)
        return self if cols == self.cols else LinearOp(self.m, cols)

    @cached_property
    def _kernel(self) -> Gf2Subspace:
        """The Zassenhaus read of the rows col_j | 1 << (m + j).  A
        combination of them is (A x) | x << m, so its low half is zero
        exactly when x is in the null space, and its high half is then x."""
        m = self.m
        return Gf2Subspace(m, _low_zero_part((c | 1 << (m + j) for j, c in enumerate(self.cols)), m))

    @cached_property
    def _image(self) -> Gf2Subspace:
        return Gf2Subspace(self.m, _rref(self.cols))

    def kernel(self) -> Gf2Subspace:
        """Null space: the Zassenhaus read of the augmented columns."""
        return self._kernel

    def image(self) -> Gf2Subspace:
        """Column space: the RREF of the columns."""
        return self._image

    def __repr__(self) -> str:
        return f"LinearOp({self.m}, rank={self.m - self.kernel().dim})"


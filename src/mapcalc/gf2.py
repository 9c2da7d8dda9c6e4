"""GF(2) linear algebra over a fixed edge universe, using int bitsets.

A vector is a subset of the edge ids {0, ..., m-1}, stored as a Python int
with bit i set iff edge i is present; addition is symmetric difference.
Subspaces keep their basis in reduced row echelon form, so two equal
subspaces are structurally equal objects.  Operators are m x m matrices
stored column-wise (column x = image of the singleton {x}).

A row's pivot is its lowest set bit, kept as the power of two `row & -row`.
Elimination indexes rows by pivot in a dict, so reducing a row costs one
lookup and one big-int XOR per pivot it meets; membership tests use the
same index.  Subspace `span`, `sum` and `intersect` use this pivot-dict
elimination: their rows are sparse, and a table lookup per row would cost
more than the few XORs it replaced.  Intersections come from one elimination on rows of
2m bits, keeping the members of the span whose low m bits are zero
(Zassenhaus).  `perp` runs the same elimination on its own dim rows, keyed
by highest bits, and then writes the canonical basis of the complement
directly, without eliminating the complement's m - dim rows: one scan of
each reduced row's binary digits (`_set_bits`) finds the complement rows
that row's pivot goes into.

The kernel of an operator A comes from one forward elimination of the
2m-bit rows col_j | 1 << (m + j): the rows whose low half ends at zero
give the kernel, canonicalized by an RREF of those few rows.  This forward
pass is the one tuned elimination.  It uses Four-Russians tables (M4RI:
Albrecht, Bard and Hart, ACM TOMS 37(1), 2010): the columns are taken in
blocks of _K = 7, and a table of the 2^7 combinations of a block's pivot
rows then replaces up to seven XORs by one lookup.  The theorem checks run
no forward pass: the kernels of the word operators are walked off the
zigzag word (words._kernel_vectors), and `kernel()` stays the general
method and their test oracle.

`image` (the RREF of the columns), `compose` (one column sum per inner
column) and `transpose` are plain reference code that the theorem checks
do not run: they read every image as the perp of a kernel and build
their operator products from words.  With image and kernel from
independent eliminations, rank + nullity = m is a real cross-check.
`transpose` is a plain loop over the columns' set bits; the tests use it
to check that word operators are symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

# Four-Russians block width of the forward pass, the only user of the
# tables.  On the 24 operators c_P + c_P o c_P of m = 250..350 that `verify`
# once eliminated, the pass was about 5 % faster at k = 7 than at 8 (median
# of 25 interleaved rounds; k = 6 ties with 7), see CHANGES.md.
_K = 7

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


def _combinations(rows: Iterable[int]) -> list[int]:
    """Table of all 2^len(rows) sums of rows: entry v is the XOR of the
    rows[i] with bit i of v set.  Built by doubling, one XOR per entry:
    the upper half of each step is the lower half plus the next row."""
    table = [0]
    for row in rows:
        table += [t ^ row for t in table]
    return table


def _forward_pass(rows: Iterable[int], width: int, k: int = _K) -> tuple[dict[int, int], list[int]]:
    """Forward Four-Russians elimination on columns 0..width-1.

    Returns ({pivot bit: row}, rest): the pivot rows and the nonzero rows
    left with no bit below width; together they span the input.  The
    columns are taken in blocks of k, low to high.  In each block, up to k
    pivots are found among the rows left over from earlier blocks, as in
    `_echelon` but on the block's bits only, and reduced against each other
    as in `_rref`.  A table of their combinations, keyed by the block's bits
    (a column without a pivot adds the zero row), then clears the block in
    every leftover row, with one lookup and one XOR per row.  Earlier
    blocks' pivot rows are never touched, so every pivot row is zero below
    its pivot but is otherwise not reduced.
    """
    echelon: dict[int, int] = {}
    rest = [r for r in rows if r]  # zero below the current block
    for lo in range(0, width, k):
        if not rest:
            break
        kb = min(k, width - lo)
        key = (1 << kb) - 1
        block = key << lo
        pivots: dict[int, int] = {}
        others = []
        for i, row in enumerate(rest):
            bits = row & block
            while bits:
                low = bits & -bits
                b = pivots.get(low)
                if b is None:
                    pivots[low] = row
                    break
                row ^= b
                bits = row & block
            else:
                if row:
                    others.append(row)
                continue
            if len(pivots) == kb:
                others += rest[i + 1:]
                break
        if not pivots:
            continue
        _back_substitute(pivots)
        echelon.update(pivots)
        table = _combinations([pivots.get(1 << c, 0) for c in range(lo, lo + kb)])
        rest = [y for r in others if (y := r ^ table[(r >> lo) & key])]
    return echelon, rest


def _set_bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x >= 0, in increasing order.

    The binary digits of x, lowest first, become one flag byte per bit,
    and itertools.compress picks the indices of the nonzero ones: the scan
    runs in C and does no big-int arithmetic.
    """
    flags = format(x, "b")[::-1].encode().translate(_DIGIT_FLAGS)
    return compress(range(len(flags)), flags)


def _not_an_integer(m: object, value: object) -> ValueError:
    """The error for a universe size m or a value, one of which made an
    int comparison or shift raise TypeError: it names m when m is not an
    int, else the value."""
    return ValueError(f"expected an integer, got {value if isinstance(m, int) else m!r}")


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
        try:
            if self.m < 0:
                raise ValueError("universe size must be nonnegative")
            if self.bits < 0 or self.bits >> self.m:
                raise ValueError("vector has bits outside the universe")
        except TypeError:
            raise _not_an_integer(self.m, self.bits) from None

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[int]) -> Gf2Vec:
        bits = 0
        for e in edges:
            try:
                if not 0 <= e < m:
                    raise ValueError(f"edge {e} out of range for universe {m}")
                bits |= 1 << e
            except TypeError:
                raise _not_an_integer(m, e) from None
        return cls(m, bits)

    def edges(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.m) if (self.bits >> i) & 1)

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
    and every pivot column is zero in all other rows.
    """

    m: int
    rows: tuple[int, ...]

    @classmethod
    def span(cls, m: int, vectors: Iterable[Gf2Vec | int]) -> Gf2Subspace:
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
                    raise _not_an_integer(m, v) from None
                bits.append(v)
        return cls(m, _rref(bits))

    @classmethod
    def zero(cls, m: int) -> Gf2Subspace:
        return cls(m, ())

    @classmethod
    def full(cls, m: int) -> Gf2Subspace:
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
        # A combination of echelon rows has the lowest of their pivots as
        # its lowest bit, so the members with a zero low half are exactly
        # the span of the echelon rows whose pivot is at bit m or above.
        return Gf2Subspace(m, _rref(r >> m for p, r in _echelon(rows).items() if p >> m))

    def __repr__(self) -> str:
        shown = [format(r, f"0{self.m}b")[::-1] for r in self.rows]
        return f"Gf2Subspace({self.m}, dim={self.dim}, rows={shown})"


@dataclass(frozen=True)
class LinearOp:
    """An m x m matrix over GF(2), stored as columns (images of singletons)."""

    m: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.cols) is not tuple:
            object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.cols) != self.m:
            raise ValueError("operator must have one column per edge")
        try:
            for c in self.cols:
                if c < 0 or c >> self.m:
                    raise ValueError("column has bits outside the universe")
        except TypeError:
            raise _not_an_integer(self.m, c) from None

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
        return cls(m, tuple(1 << i for i in range(m)))

    @classmethod
    def zero(cls, m: int) -> LinearOp:
        return cls(m, (0,) * m)

    def column(self, x: int) -> Gf2Vec:
        if not 0 <= x < self.m:
            raise ValueError(f"column {x} out of range for universe {self.m}")
        return Gf2Vec(self.m, self.cols[x])

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
        """The transposed matrix, or self when it is symmetric."""
        t = self._transpose
        return self if t is None else t

    @cached_property
    def _transpose(self) -> LinearOp | None:
        """Row i of the matrix, read column by column.  The result is kept
        on the operator, as None when it equals the operator: keeping self
        would make a reference cycle, and the operator would outlive its
        last reference until the garbage collector ran."""
        rows = [0] * self.m
        for j, c in enumerate(self.cols):
            bit = 1 << j
            for i in _set_bits(c):
                rows[i] |= bit
        cols = tuple(rows)
        return None if cols == self.cols else LinearOp(self.m, cols)

    @cached_property
    def _kernel(self) -> Gf2Subspace:
        """The forward pass on the rows col_j | 1 << (m + j).  A combination
        of those rows is (A x) | x << m, and the rows the pass leaves with a
        zero low half stay independent and number m - rank, so their high halves
        are a basis of the null space."""
        m = self.m
        _, rest = _forward_pass([c | 1 << (m + j) for j, c in enumerate(self.cols)], m)
        return Gf2Subspace(m, _rref(r >> m for r in rest))

    @cached_property
    def _image(self) -> Gf2Subspace:
        return Gf2Subspace(self.m, _rref(self.cols))

    def kernel(self) -> Gf2Subspace:
        """Null space: the canonical RREF of the forward pass's few kernel rows."""
        return self._kernel

    def image(self) -> Gf2Subspace:
        """Column space: the RREF of the columns."""
        return self._image

    def __repr__(self) -> str:
        return f"LinearOp({self.m}, rank={self.m - self.kernel().dim})"


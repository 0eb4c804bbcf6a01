"""Exact rational linear algebra kernel.

Vectors are tuples of ``fractions.Fraction`` and matrices are tuples of row
vectors. Subspaces are stored in reduced row-echelon form, which makes the
representation canonical: two subspaces are equal exactly when their basis
tuples are identical. There is no floating point anywhere in this module and
no tolerance in any comparison.

Spans are accumulated in :class:`Echelon` from integer vectors, in
fraction-free Gauss-Jordan form: integer rows over one shared denominator,
which divided by it are the canonical reduced row-echelon basis. The
``Fraction`` basis is built only when it is read.

:class:`EchelonModP` keeps the span of integer vectors reduced mod a prime
p, each row packed into one int of fixed-width slots, so that a row update
is one multiply-add. Its rank is never above the rank over Q. So a vector
outside its span is proven outside the Q-span of the vectors that grew it,
and a full span proves the Q-span full. A vector inside it mod p is only a
claim. With ``coordinates`` the class also gives that vector's coordinates
mod p, from which :mod:`closure` certifies the claim exactly.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from functools import cache
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DimensionMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Digits allowed in the numerator and in the denominator of a rational
# string, well below the interpreter's 4300-digit int/str conversion limit.
MAX_DIGITS = 1000
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


def ratio(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a string like ``"-3/4"``, or a Fraction to a Fraction.

    Strings must match ``-?[0-9]+(/[0-9]+)?`` with at most :data:`MAX_DIGITS`
    digits in each part; anything else is a ``ValueError``, and a zero
    denominator a ``ZeroDivisionError``. Floats and bools are a
    ``TypeError``: every quantity in this package is an exact rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value)
        if m is None:
            raise ValueError(f"not a rational like -3 or 3/4: {value[:40]!r}")
        num, den = m.groups()
        if len(num) > MAX_DIGITS or den is not None and len(den) > MAX_DIGITS:
            raise ValueError(f"rational with more than {MAX_DIGITS} digits in a part")
        d = 1 if den is None else int(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        # Built from the matched digits, so the string is parsed once.
        n = int(num)
        return Fraction(-n if value[0] == "-" else n, d)
    raise TypeError(f"expected an exact rational, got {value!r}")


def vector(entries: Iterable) -> Vec:
    return tuple(ratio(e) for e in entries)


def zero_vector(n: int) -> Vec:
    return (_ZERO,) * n


def integral(v) -> tuple[list[int], int]:
    """``(den * v, den)`` for ``den`` the least common denominator of the
    entries of ``v``, ints or Fractions: the one place where denominators
    are cleared before a vector enters an integer kernel."""
    den = lcm(*(c.denominator for c in v))
    return ([c.numerator * (den // c.denominator) for c in v] if den > 1
            else [c.numerator for c in v]), den


def primitive(v) -> tuple[int, ...]:
    """The primitive integer vector on the line of ``v``.

    Entries may be ints or Fractions. Denominators are cleared and the
    content is divided out, keeping the sign; the zero vector stays zero.
    """
    w, _ = integral(v)
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def refuse_assignment(self, name, *_):
    """``__setattr__`` and ``__delattr__`` of the immutable classes."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")


def _rref_rows(ambient: int, den: int, basis) -> Mat:
    """The dense rows of a reduced row-echelon basis, given for each row as
    its pivot q and (column, integer) pairs: 1 at q, integer / ``den`` at
    each column, 0 elsewhere."""
    out = []
    for q, terms in basis:
        dense = [_ZERO] * ambient
        dense[q] = _ONE
        for k, x in terms:
            if x:
                dense[k] = Fraction(x, den)
        out.append(tuple(dense))
    return tuple(out)


def _check_length(v, ambient: int):
    if len(v) != ambient:
        raise DimensionMismatchError(
            f"vector length {len(v)} does not match ambient {ambient}")


class Echelon:
    """Mutable reduced row-echelon accumulator of a Q-span, kept over the
    integers in fraction-free Gauss-Jordan form.

    The rows share one positive integer denominator ``den``: row ``i`` is
    ``den`` in its pivot column ``piv_cols[i]`` and 0 in the other pivot
    columns and left of its pivot, so rows / ``den`` is the canonical
    reduced row-echelon basis. Only the non-pivot columns ``free`` are
    stored: ``rows[i][j]`` is row ``i`` in column ``free[j]``.

    ``add`` takes an integer vector ``w``, as :func:`integral` makes one,
    and forms its residual ``den*w - sum(w[pc]*row)`` in one pass, with no
    gcd; it is zero exactly when ``w`` is in the span. Its first nonzero
    entry ``a``, made positive, lies in the new pivot column ``q``.

    While ``sylvester`` holds, ``den`` is the absolute determinant of the
    primitive vectors that grew the span on the pivot columns, ``a`` is the
    next one, and each row becomes ``(a*row - row[q]*residual) // den``,
    exact by Sylvester's identity (Bareiss, Math. Comp. 1968), with no gcd
    over the rows. When the span has a much simpler basis than the vectors
    that grew it, that determinant outgrows the least common denominator of
    the basis: once ``den`` and the rows share a factor above sqrt(``den``),
    so that ``den`` is over twice as long as it needs to be, it is divided
    out (a smaller factor costs less to carry than a gcd over every row on
    every growth), and as ``den`` is then no longer the determinant,
    ``sylvester`` turns False for good. Each later growth forms
    ``a*row - row[q]*residual`` and the new row ``den*residual`` over
    ``den*a`` and divides out their gcd, so ``den`` stays the least common
    denominator of the basis.
    """

    __slots__ = ("ambient", "den", "piv_cols", "free", "rows", "sylvester")

    def __init__(self, ambient: int):
        if ambient < 0:
            raise DimensionMismatchError("ambient dimension must be >= 0")
        self.ambient = ambient
        self.den = 1
        self.piv_cols: list[int] = []
        self.free: list[int] = list(range(ambient))
        self.rows: list[list[int]] = []
        self.sylvester = True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def _residual(self, w: Sequence[int]) -> list[int]:
        """The residual of the integer vector ``w`` against the rows, in the
        ``free`` columns."""
        _check_length(w, self.ambient)
        den, free = self.den, self.free
        res = [den * w[k] for k in free] if den > 1 else [w[k] for k in free]
        for pc, row in zip(self.piv_cols, self.rows):
            c = w[pc]
            if c:
                res = [x - c * y for x, y in zip(res, row)]
        return res

    def add(self, w: Sequence[int]) -> bool:
        """Insert the integer vector ``w`` into the span. Returns True when
        the dimension grew."""
        res = self._residual(w)
        j = next((j for j, x in enumerate(res) if x), None)
        if j is None:
            return False
        # In Sylvester form the span grows by the primitive vector on the
        # line of w, whose residual is that of w over its content.
        c = gcd(*w) if self.sylvester else 1
        if res[j] < 0:
            c = -c
        if c != 1:
            res = [x // c for x in res]
        a, den = res[j], self.den
        if self.sylvester:
            rows = [[(a * x - row[j] * y) // den for x, y in zip(row, res)]
                    for row in self.rows]
            rows.append(res)
            den = a
            g = gcd(den, *res)
            if g * g > den:
                g = gcd(g, *chain.from_iterable(rows))
            if g * g <= den:
                g = 1
        else:
            rows = [[a * x - row[j] * y for x, y in zip(row, res)]
                    for row in self.rows]
            rows.append([den * y for y in res])
            den *= a
            g = gcd(den, *chain.from_iterable(rows))
        if g > 1:
            self.sylvester = False
            den //= g
            rows = [[x // g for x in row] for row in rows]
        q = self.free.pop(j)
        for row in rows:
            del row[j]
        at = bisect_left(self.piv_cols, q)
        self.piv_cols.insert(at, q)
        rows.insert(at, rows.pop())
        self.rows = rows
        self.den = den
        return True

    def basis_vectors(self) -> Mat:
        """The canonical reduced row-echelon basis: the rows over ``den``."""
        free = self.free
        return _rref_rows(self.ambient, self.den,
                          [(pc, zip(free, row)) for pc, row in zip(self.piv_cols, self.rows)])

    def to_subspace(self) -> "Subspace":
        if len(self.rows) == self.ambient:
            return Subspace.full(self.ambient)
        return Subspace._from_echelon(self.ambient, self.basis_vectors(),
                                      tuple(self.piv_cols))


# Maps the bytes 0 and 1 to the digits "0" and "1".
_BINARY = bytes.maketrans(b"\x00\x01", b"01")


@cache
def _fold_masks(p: int, nb: int, width: int, /) -> tuple[int, int, int, int]:
    """The masks ``lo``, ``hi``, ``deltas`` and ``tops`` of
    :class:`EchelonModP` on ``width`` slots, shared by echelons of a shape."""
    e = p.bit_length()
    ones = int.from_bytes((b"\x01" + bytes(nb - 1)) * width, "little")
    return (((1 << e) - 1) * ones, ((1 << 8 * nb - e) - 1) * ones,
            ((1 << e) - p) * ones, ones << e)


class EchelonModP:
    """Row-echelon span of integer vectors mod a prime ``p``, on packed
    rows.

    A row is one int of fixed-width slots, slot k < ``ambient`` holding
    entry k as a residue in [0, p). Rows never change once added: each is 1
    in its pivot column and 0 left of it. ``rows[q]`` is the row of pivot
    q, bit k of ``pivot_bits`` is set when column k is a pivot, and bit k
    of ``right[q]`` when that row is nonzero in column k > q.

    The residual of v is formed without reducing a slot. Pivot columns are
    visited left to right, since a row changes no slot left of its pivot,
    and only those where a slot of w may be nonzero: where v is, as
    :meth:`_nonzero` reads off its packed slots, or an applied row is. Each
    row update ``w += (p - c) * row`` is one multiply-add. A slot gains
    less than p^2 a row, at most once per pivot, so it stays below
    (ambient + 1) * p^2 < 2^(T + e), where e = bits(p) and
    T = bits(ambient + 1) + e. A slot is S = T + e bits, rounded up to
    whole bytes, so no slot carries into the next. Then w is
    0 mod p in every slot exactly when p divides w and every slot of
    w // p is below 2^T: such a quotient times p carries into no slot
    either.

    A growth is reduced in every slot at once by pseudo-Mersenne folding
    (Crandall and Pomerance 2005, 9.2.13) on all slots of one int (SIMD
    within a register, Fisher and Dietz 1998): with delta = 2^e - p, each
    slot x = h * 2^e + l becomes l + delta * h = x - h * p until every h
    is 0, and then p is subtracted from the slots x >= p, which bit e of
    x + delta marks. No slot carries, as delta <= 2^(e - 1) gives
    l + delta * h < 2^e + 2^(S - 1) <= 2^S. Under p = 2^30 - 35
    (delta = 35) a slot below (ambient + 1) * p^2 takes at most 3 rounds
    while 35^2 * (ambient + 1) + 35 < 2^30, so for every ambient below
    2^19. The row is then multiplied by the inverse of its first nonzero
    entry, its slots staying below p^2, and folded again; bit e of
    x + 2^e - 1 marks the nonzero slots x for ``right`` and ``spread``.
    The width is read from ``p``, so any prime works.

    A :meth:`combine` of n columns would reach n * (p - 1)^2 in a slot,
    past 2^S when n, a source's dimension, is far above the ambient. So it
    folds after every ambient + 1 columns, and its slots stay below
    p + (ambient + 1) * (p - 1)^2 < 2^S however many columns there are.

    With ``coordinates``, slot ``ambient + j`` of a row holds its coordinate
    on the j-th vector that grew the span, so that the row is congruent to
    the sum of its coordinates times those vectors, and bit j of
    ``spread[q]`` is set when the j-th one of row q is nonzero.
    :meth:`insert` and :meth:`solve` read the coordinates of a vector off
    its residual.

    The rank mod p is never above the rank over Q, so a vector outside the
    span mod p is outside the Q-span of the vectors that grew it. A vector
    inside it mod p may still be outside over Q.
    """

    __slots__ = ("ambient", "p", "nbytes", "entries", "excess", "e", "delta", "lo",
                 "hi", "deltas", "tops", "coordinates", "pivots", "pivot_bits",
                 "rows", "right", "spread")

    def __init__(self, ambient: int, p: int, coordinates: bool = False):
        self.ambient = ambient
        self.p = p
        self.e = e = p.bit_length()
        t = (ambient + 1).bit_length() + e
        self.nbytes = nb = -(-(t + e) // 8)
        self.entries = (1 << 8 * nb * ambient) - 1
        slot = ((1 << 8 * nb) - (1 << t)).to_bytes(nb, "little")
        self.excess = int.from_bytes(slot * ambient, "little")
        self.delta = (1 << e) - p
        # A row has a slot per entry and, with coordinates, one per pivot.
        self.lo, self.hi, self.deltas, self.tops = _fold_masks(
            p, nb, 2 * ambient if coordinates else ambient)
        self.coordinates = coordinates
        self.pivots: list[int] = []  # in insertion order
        self.pivot_bits = 0
        self.rows: dict[int, int] = {}
        self.right: dict[int, int] = {}
        self.spread: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_full(self) -> bool:
        return len(self.pivots) == self.ambient

    def pack(self, v: Sequence[int]) -> int:
        """The integer vector ``v`` mod p, packed in the slots of a row."""
        _check_length(v, self.ambient)
        p, nb, zero = self.p, self.nbytes, bytes(self.nbytes)
        return int.from_bytes(b"".join([(x % p).to_bytes(nb, "little") if x else zero
                                        for x in v]), "little")

    def combine(self, xs: Sequence[int], columns: Sequence[int]) -> int:
        """sum x_j * columns[j] mod p, packed, for residues ``xs`` and packed
        ``columns``, folded every ambient + 1 columns so that no slot carries."""
        step, w = self.ambient + 1, 0
        for i in range(0, len(columns), step):
            w = self._fold(w + sum(map(mul, xs[i:i + step], columns[i:i + step])))
        return w

    def _reduce(self, w: int) -> tuple[int, bool, int]:
        """The residual of the packed ``w``, whether it is 0 mod p in every
        entry slot, and the bits of its coordinate slots that may be
        nonzero. With ``coordinates`` the residual is marked 1 in the
        coordinate slot of the next row. The pivots visited first are those
        where a slot of ``w``, each in [0, p), is nonzero."""
        todo = self._nonzero(w, self.ambient) & self.pivot_bits if w else 0
        p, nb = self.p, self.nbytes
        slot, rows, right, spread = 8 * nb, self.rows, self.right, self.spread
        mask, pivot_bits, coords = (1 << slot) - 1, self.pivot_bits, 0
        while todo:
            q = (todo & -todo).bit_length() - 1
            todo ^= 1 << q
            c = (w >> slot * q & mask) % p
            if c:
                w += (p - c) * rows[q]
                todo |= right[q] & pivot_bits
                coords |= spread[q]
        if self.coordinates:
            w |= 1 << slot * (self.ambient + len(self.pivots))
        u, r = divmod(w & self.entries, p)
        return w, not r and not u & self.excess, coords

    def _fold(self, w: int) -> int:
        """``w`` with every slot, of at most S bits, reduced into [0, p)."""
        e, lo, hi, delta = self.e, self.lo, self.hi, self.delta
        h = w >> e & hi
        while h:
            w = (w & lo) + delta * h
            h = w >> e & hi
        return w - self.p * ((w + self.deltas & self.tops) >> e)

    def _grow(self, w: int) -> None:
        """Append the residual ``w``, nonzero mod p, as a row."""
        n, nb, p = self.ambient, self.nbytes, self.p
        w = self._fold(w)
        nonzero = self._nonzero(w, n + len(self.pivots) + 1 if self.coordinates else n)
        q = (nonzero & -nonzero).bit_length() - 1
        self.pivots.append(q)
        self.pivot_bits |= 1 << q
        self.rows[q] = self._fold(w * pow(w >> 8 * nb * q & (1 << 8 * nb) - 1, -1, p))
        self.right[q] = nonzero & ((1 << n) - 1) & ~(1 << q)
        self.spread[q] = nonzero >> n

    def _nonzero(self, w: int, width: int) -> int:
        """Bit k set when slot k < ``width`` of ``w``, each in [0, 2^e), is
        nonzero: byte 0 of slot k of the marks is 1 then, and reversed,
        these bytes are the binary digits of the bits."""
        nb = self.nbytes
        marks = ((w + self.lo & self.tops) >> self.e).to_bytes(nb * width, "little")
        return int(marks[::nb].translate(_BINARY)[::-1], 2)

    def _solution(self, w: int, coords: int) -> list[int]:
        """The coordinates on a residual ``w`` that is 0 mod p, read from
        the slots of the bits of ``coords``."""
        n, p, nb = self.ambient, self.p, self.nbytes
        b = w.to_bytes(nb * (n + len(self.pivots) + 1), "little")
        out = [0] * len(self.pivots)
        while coords:
            j = (coords & -coords).bit_length() - 1
            coords ^= 1 << j
            i = nb * (n + j)
            out[j] = -int.from_bytes(b[i:i + nb], "little") % p
        return out

    def add(self, v: Sequence[int]) -> bool:
        """Insert the integer vector ``v``. Returns True when the dimension
        grew."""
        w, zero, _ = self._reduce(self.pack(v))
        if not zero:
            self._grow(w)
        return not zero

    def add_packed(self, w: int) -> bool:
        """:meth:`add` for ``w`` packed with every slot in [0, p), as
        :meth:`pack` and :meth:`combine` give it."""
        w, zero, _ = self._reduce(w)
        if not zero:
            self._grow(w)
        return not zero

    def insert(self, v: Sequence[int]) -> Optional[list[int]]:
        """Insert ``v`` as :meth:`add` does. Returns None when the dimension
        grew, and otherwise the coordinates of ``v`` as :meth:`solve` gives
        them."""
        w, zero, coords = self._reduce(self.pack(v))
        if zero:
            return self._solution(w, coords)
        self._grow(w)
        return None

    def solve(self, v: Sequence[int]) -> Optional[list[int]]:
        """The coordinates x of ``v`` mod p on the vectors that grew the
        span, in insertion order: v = sum x_j s_j (mod p), each x_j in
        [0, p). None when ``v`` is outside the span mod p. Needs
        ``coordinates``."""
        w, zero, coords = self._reduce(self.pack(v))
        return self._solution(w, coords) if zero else None

    def residues(self, w: int) -> Sequence[int]:
        """The entry slots of ``w``, in [0, p), as unsigned ints four bytes
        each, where an int object takes 28 or more: p < 2^32. A memoryview
        cast needs no module, where ``array`` loads one in each process."""
        nb, n = self.nbytes, self.ambient
        b, out = w.to_bytes(nb * n, "little"), bytearray(4 * n)
        for i in range(min(nb, 4)):  # a residue fills at most 4 low bytes
            out[i if sys.byteorder == "little" else 3 - i::4] = b[i::nb]
        return memoryview(out).cast("I")

    def unpacked_rows(self) -> list[tuple[int, list[int]]]:
        """The (pivot, entries) pairs of the rows in insertion order,
        entries as residues."""
        nb, n, p = self.nbytes, self.ambient, self.p
        out = []
        for q in self.pivots:
            b = self.rows[q].to_bytes(nb * (n + len(self.pivots)), "little")
            out.append((q, [int.from_bytes(b[i:i + nb], "little") % p
                            for i in range(0, nb * n, nb)]))
        return out

    def _reduced_rows(self) -> Iterator[tuple[int, list[tuple[int, int]]]]:
        """The rows of the reduced row-echelon basis, in decreasing pivot
        order, each as its pivot q and the (column, residue) pairs of its
        other nonzero entries, made lazily by back-substitution: row q takes
        (p - c) times the reduced row of each other pivot k where its slot
        is c, the bits of ``right[q] & pivot_bits``, and is folded; a row
        with none is already reduced, nonzero at the bits of ``right[q]``. A
        reduced row is 0 in every other pivot column, so no update changes
        another pivot slot, and a slot gains less than p^2 an update, as in
        :meth:`_reduce`. Without ``coordinates``."""
        n, nb, p, rows = self.ambient, self.nbytes, self.p, self.rows
        mask, reduced = (1 << 8 * nb) - 1, {}
        for q in sorted(self.pivots, reverse=True):
            w, bits = rows[q], self.right[q]
            todo = bits & self.pivot_bits
            if todo:  # back-substitute, then read the nonzero slots afresh
                while todo:
                    k = (todo & -todo).bit_length() - 1
                    todo ^= 1 << k
                    w += (p - (rows[q] >> 8 * nb * k & mask)) * reduced[k]
                w = self._fold(w)
                bits = self._nonzero(w, n) ^ 1 << q
            reduced[q], entries = w, []
            b = w.to_bytes(nb * n, "little") if bits else b""
            while bits:
                k = (bits & -bits).bit_length() - 1
                bits ^= 1 << k
                entries.append((k, int.from_bytes(b[nb * k:nb * k + nb], "little")))
            yield q, entries


@cache
def _identity(n: int, /) -> Mat:
    """The n x n identity, shared by every full span of ambient n."""
    return tuple(tuple(_ONE if k == i else _ZERO for k in range(n)) for i in range(n))


class Subspace:
    """Immutable Q-subspace with a canonical reduced row-echelon basis.
    Instances refuse assignment: a span handed to several readers must not
    change under them."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, rows: Iterable[Iterable] = ()):
        ech = Echelon(ambient_dim)
        for r in rows:
            ech.add(integral(vector(r))[0])
        self._put(ambient_dim, ech.basis_vectors(), tuple(ech.piv_cols))

    def _put(self, ambient: int, basis: Mat, pivots: tuple) -> None:
        put = object.__setattr__
        put(self, "ambient_dim", ambient)
        put(self, "basis", basis)
        put(self, "pivots", pivots)

    __setattr__ = __delattr__ = refuse_assignment

    @classmethod
    def _from_echelon(cls, ambient: int, basis: Mat, pivots: tuple) -> "Subspace":
        out = object.__new__(cls)
        out._put(ambient, basis, pivots)
        return out

    @classmethod
    def _from_rref(cls, ambient: int, den: int, basis: list) -> "Subspace":
        """The span of a reduced row-echelon basis known by other means, in
        the layout of :func:`_rref_rows`, by increasing pivot."""
        return cls._from_echelon(ambient, _rref_rows(ambient, den, basis),
                                 tuple(q for q, _ in basis))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        """The whole space, whose canonical basis is the identity."""
        return cls._from_echelon(ambient, _identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def contains(self, v) -> bool:
        _check_length(v, self.ambient_dim)
        w = list(v)
        for pc, row in zip(self.pivots, self.basis):
            c = w[pc]
            if c:
                for k in range(pc, self.ambient_dim):
                    rk = row[k]
                    if rk:
                        w[k] -= c * rk
        return not any(w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def echelonize(rows: Sequence[Sequence], ambient_dim: Optional[int] = None) -> Subspace:
    """Canonical reduced-row-echelon span of ``rows``.

    ``ambient_dim`` is required when ``rows`` is empty; otherwise it is taken
    from the rows (which must all share one length).
    """
    if ambient_dim is None:
        if not rows:
            raise DimensionMismatchError(
                "ambient_dim is required for an empty row list"
            )
        ambient_dim = len(rows[0])
    return Subspace(ambient_dim, rows)


def solve_linear(a: Mat, b: Vec) -> Optional[Vec]:
    """One exact solution of ``a @ x = b``, or None when inconsistent.

    Underdetermined systems return the reduced-echelon particular solution,
    i.e. all free variables are set to 0, which makes the answer
    deterministic.
    """
    m = len(a)
    if len(b) != m:
        raise DimensionMismatchError(
            f"matrix has {m} rows but right-hand side has {len(b)} entries"
        )
    n = len(a[0]) if m else 0
    ech = Echelon(n + 1)
    for row, rhs in zip(a, b):
        if len(row) != n:
            raise DimensionMismatchError("matrix rows have unequal lengths")
        ech.add(integral((*row, rhs))[0])
    # A pivot in the augmented column certifies inconsistency.
    if n in ech.piv_cols:
        return None
    x = [_ZERO] * n
    for pc, row in zip(ech.piv_cols, ech.basis_vectors()):
        x[pc] = row[n]
    return tuple(x)

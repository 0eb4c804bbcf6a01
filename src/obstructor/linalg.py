"""Exact rational linear algebra kernel.

Vectors are tuples of ``fractions.Fraction`` and matrices are tuples of row
vectors. Subspaces are stored in reduced row-echelon form, which makes the
representation canonical: two subspaces are equal exactly when their basis
tuples are identical. There is no floating point anywhere in this module and
no tolerance in any comparison.

Spans are accumulated in :class:`Echelon` over the integers, in
fraction-free Gauss-Jordan form: integer rows over one shared denominator,
which divided by it are the canonical reduced row-echelon basis. The
``Fraction`` basis is built only when it is read. :class:`EchelonModP`
keeps the span of integer vectors reduced mod a prime; its rank is never
above the rank over Q, so it can only certify that a span is full.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

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
        if any(part is not None and len(part) > MAX_DIGITS for part in m.groups()):
            raise ValueError(f"rational with more than {MAX_DIGITS} digits in a part")
        if m.group(2) is not None and not m.group(2).lstrip("0"):
            raise ZeroDivisionError("zero denominator")
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def vector(entries: Iterable) -> Vec:
    return tuple(ratio(e) for e in entries)


def zero_vector(n: int) -> Vec:
    return (_ZERO,) * n


def matrix(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("matrix rows have unequal lengths")
    return out


def primitive(v) -> tuple[int, ...]:
    """The primitive integer vector on the line of ``v``.

    Entries may be ints or Fractions. Denominators are cleared and the
    content is divided out, keeping the sign; the zero vector stays zero.
    """
    den = lcm(*(c.denominator for c in v))
    w = [c.numerator * (den // c.denominator) for c in v]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


class Echelon:
    """Mutable reduced row-echelon accumulator of a Q-span, kept over the
    integers in fraction-free Gauss-Jordan form.

    The rows share one positive integer denominator ``den``: row ``i`` is
    ``den`` in its pivot column ``piv_cols[i]`` and 0 in the other pivot
    columns and left of its pivot, so rows / ``den`` is the canonical
    reduced row-echelon basis. Only the non-pivot columns ``free`` are
    stored: ``rows[i][j]`` is row ``i`` in column ``free[j]``.

    ``add`` forms the residual ``den*w - sum(w[pc]*row)`` of the integer
    vector ``w`` on the input's line in one pass, with no gcd; it is zero
    exactly when ``w`` is in the span. Its first nonzero entry ``a``, made
    positive, lies in the new pivot column ``q``.

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

    def _residual(self, v) -> tuple[list[int], list[int]]:
        """The integer form ``w`` of ``v`` (denominators cleared) and its
        residual against the rows, in the ``free`` columns."""
        if len(v) != self.ambient:
            raise DimensionMismatchError(
                f"vector length {len(v)} does not match ambient {self.ambient}"
            )
        scale = lcm(*(c.denominator for c in v))
        w = ([c.numerator * (scale // c.denominator) for c in v] if scale > 1
             else [c.numerator for c in v])
        den, free = self.den, self.free
        res = [den * w[k] for k in free] if den > 1 else [w[k] for k in free]
        for pc, row in zip(self.piv_cols, self.rows):
            c = w[pc]
            if c:
                res = [x - c * y for x, y in zip(res, row)]
        return w, res

    def add(self, v) -> bool:
        """Insert ``v`` (ints or Fractions) into the span. Returns True when
        the dimension grew."""
        w, res = self._residual(v)
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
        n, den = self.ambient, self.den
        out = []
        for pc, row in zip(self.piv_cols, self.rows):
            dense = [_ZERO] * n
            dense[pc] = _ONE
            for k, x in zip(self.free, row):
                if x:
                    dense[k] = Fraction(x, den)
            out.append(tuple(dense))
        return tuple(out)

    def to_subspace(self) -> "Subspace":
        return Subspace._from_echelon(self.ambient, self.basis_vectors(),
                                      tuple(self.piv_cols))


class EchelonModP:
    """Row-echelon accumulator of the span of integer vectors reduced mod a
    prime ``p``, used only to certify that a span is full.

    ``rows`` holds (pivot, row) pairs in insertion order: each row is
    reduced mod p, is 1 in its pivot column, and 0 left of it and in the
    pivot columns of the rows before it. ``add`` reduces each row's
    coefficient mod p once while forming the residual, and every entry
    once at the end.
    """

    __slots__ = ("ambient", "p", "rows")

    def __init__(self, ambient: int, p: int):
        self.ambient = ambient
        self.p = p
        self.rows: list[tuple[int, list[int]]] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def add(self, v: Sequence[int]) -> bool:
        """Insert the integer vector ``v``. Returns True when the dimension
        grew."""
        if len(v) != self.ambient:
            raise DimensionMismatchError(
                f"vector length {len(v)} does not match ambient {self.ambient}"
            )
        p = self.p
        w = v
        for q, row in self.rows:
            c = w[q] % p
            if c:
                w = [x - c * y for x, y in zip(w, row)]
        w = [x % p for x in w]
        q = next((q for q, x in enumerate(w) if x), None)
        if q is None:
            return False
        inv = pow(w[q], -1, p)
        self.rows.append((q, [x * inv % p for x in w]))
        return True


class Subspace:
    """Immutable Q-subspace with a canonical reduced row-echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, rows: Iterable[Iterable] = ()):
        ech = Echelon(ambient_dim)
        for r in rows:
            ech.add(vector(r))
        self.ambient_dim = ambient_dim
        self.basis = ech.basis_vectors()
        self.pivots = tuple(ech.piv_cols)

    @classmethod
    def _from_echelon(cls, ambient: int, basis: Mat, pivots: tuple) -> "Subspace":
        out = object.__new__(cls)
        out.ambient_dim = ambient
        out.basis = basis
        out.pivots = pivots
        return out

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        """The whole space, whose canonical basis is the identity."""
        basis = tuple(tuple(_ONE if k == i else _ZERO for k in range(ambient))
                      for i in range(ambient))
        return cls._from_echelon(ambient, basis, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(v)} does not match ambient {self.ambient_dim}"
            )
        w = list(v)
        for pc, row in zip(self.pivots, self.basis):
            c = w[pc]
            if c:
                for k in range(pc, self.ambient_dim):
                    rk = row[k]
                    if rk:
                        w[k] -= c * rk
        return not any(w)

    def __add__(self, other: "Subspace") -> "Subspace":
        return subspace_sum(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def echelonize(rows: Sequence[Iterable], ambient_dim: Optional[int] = None) -> Subspace:
    """Canonical reduced-row-echelon span of ``rows``.

    ``ambient_dim`` is required when ``rows`` is empty; otherwise it is taken
    from the rows (which must all share one length).
    """
    rows = [vector(r) for r in rows]
    if ambient_dim is None:
        if not rows:
            raise DimensionMismatchError(
                "ambient_dim is required for an empty row list"
            )
        ambient_dim = len(rows[0])
    return Subspace(ambient_dim, rows)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    return Subspace(s1.ambient_dim, s1.basis + s2.basis)


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    return s1.basis == s2.basis


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
        ech.add(tuple(row) + (rhs,))
    # A pivot in the augmented column certifies inconsistency.
    if n in ech.piv_cols:
        return None
    x = [_ZERO] * n
    for pc, row in zip(ech.piv_cols, ech.basis_vectors()):
        x[pc] = row[n]
    return tuple(x)

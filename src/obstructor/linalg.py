"""Exact rational linear algebra kernel.

Vectors are tuples of ``fractions.Fraction`` and matrices are tuples of row
vectors. Subspaces are stored in reduced row-echelon form, which makes the
representation canonical: two subspaces are equal exactly when their basis
tuples are identical. There is no floating point anywhere in this module and
no tolerance in any comparison.

Spans are accumulated in :class:`Echelon` over the integers: a line of Q^n
is spanned by one primitive integer vector, so rows are integer and
elimination is fraction-free. The canonical ``Fraction`` basis is built
only when it is read.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
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
    """Mutable row-echelon accumulator of a Q-span, kept over the integers.

    ``rows`` are primitive integer rows, each a tuple of its nonzero
    ``(column, value)`` pairs with a positive first value, the pivot; they
    are sorted by pivot column, which ``piv_cols`` lists. A new row's pivot
    column is not cleared from the other rows. ``add`` and ``contains``
    reduce fraction-free (Bareiss, Math. Comp. 1968): the residual is scaled
    by the pivot instead of divided by it, and its content is divided out
    after every scaling, so entries stay as small as the span allows.

    The canonical reduced row-echelon basis over Q (``basis_vectors``,
    ``to_subspace``) is built lazily by back-substitution and cached until
    the span grows; a full-rank span returns the identity directly.
    """

    __slots__ = ("ambient", "rows", "piv_cols", "_rref")

    def __init__(self, ambient: int):
        if ambient < 0:
            raise DimensionMismatchError("ambient dimension must be >= 0")
        self.ambient = ambient
        self.rows: list[tuple[tuple[int, int], ...]] = []
        self.piv_cols: list[int] = []
        self._rref: Optional[Mat] = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def _residual(self, v) -> list[int]:
        """Reduce the integer form of ``v`` against the rows; return it dense."""
        if len(v) != self.ambient:
            raise DimensionMismatchError(
                f"vector length {len(v)} does not match ambient {self.ambient}"
            )
        w = list(primitive(v))
        for pc, row in zip(self.piv_cols, self.rows):
            c = w[pc]
            if c:
                w = _eliminate(w, c, row)
        return w

    def contains(self, v) -> bool:
        return not any(self._residual(v))

    def add(self, v) -> bool:
        """Insert ``v`` (ints or Fractions) into the span. Returns True when
        the dimension grew."""
        w = self._residual(v)
        row = tuple((k, x) for k, x in enumerate(w) if x)
        if not row:
            return False
        g = gcd(*w)
        if row[0][1] < 0:
            g = -g
        if g != 1:
            row = tuple((k, x // g) for k, x in row)
        at = bisect_left(self.piv_cols, row[0][0])
        self.piv_cols.insert(at, row[0][0])
        self.rows.insert(at, row)
        self._rref = None
        return True

    def basis_vectors(self) -> Mat:
        """The canonical reduced row-echelon basis, as Fraction rows."""
        if self._rref is None:
            self._rref = self._back_substitute()
        return self._rref

    def _back_substitute(self) -> Mat:
        n = self.ambient
        if len(self.rows) == n:
            return tuple(tuple(_ONE if k == i else _ZERO for k in range(n))
                         for i in range(n))
        # Reduce from the last row up: a reduced row is zero in every other
        # pivot column, so clearing one column touches no other pivot.
        reduced: list[tuple] = []
        for pc, row in zip(reversed(self.piv_cols), reversed(self.rows)):
            w = [0] * n
            for k, x in row:
                w[k] = x
            for lower in reduced:
                c = w[lower[0][0]]
                if c:
                    w = _eliminate(w, c, lower)
            reduced.append(tuple((k, x) for k, x in enumerate(w) if x))
        out = []
        for row in reversed(reduced):
            p = row[0][1]
            dense = [_ZERO] * n
            for k, x in row:
                dense[k] = Fraction(x, p)
            out.append(tuple(dense))
        return tuple(out)

    def to_subspace(self) -> "Subspace":
        return Subspace._from_echelon(self.ambient, self.basis_vectors(),
                                      tuple(self.piv_cols))


def _eliminate(w: list[int], c: int, row: tuple) -> list[int]:
    """Clear the entry ``c`` of ``w`` in the pivot column of ``row``
    fraction-free: ``p*w - c*row`` with ``p`` the pivot, both divided by
    gcd(p, c) first, then the content of the result divided out. The pivot
    is positive, so the result is a positive multiple of w - (c/p)*row."""
    p = row[0][1]
    if p != 1:
        g = gcd(p, c)
        p //= g
        c //= g
        if p != 1:
            w = [p * x for x in w]
    for k, x in row:
        w[k] -= c * x
    if p != 1:
        g = gcd(*w)
        if g > 1:
            w = [x // g for x in w]
    return w


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
    for r in rows:
        if len(r) != ambient_dim:
            raise DimensionMismatchError(
                f"row length {len(r)} does not match ambient {ambient_dim}"
            )
    return Subspace(ambient_dim, rows)


def contains(s: Subspace, v) -> bool:
    """Exact membership of ``v`` in ``s`` (function form of Subspace.contains)."""
    return s.contains(vector(v))


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

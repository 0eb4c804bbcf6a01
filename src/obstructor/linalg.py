"""Exact rational linear algebra kernel.

Vectors are tuples of ``fractions.Fraction`` and matrices are tuples of row
vectors. Subspaces are stored in reduced row-echelon form, which makes the
representation canonical: two subspaces are equal exactly when their basis
tuples are identical. There is no floating point anywhere in this module and
no tolerance in any comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatchError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def ratio(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a string like ``"-3/4"``, or a Fraction to a Fraction.

    Floats are rejected on purpose; every quantity in this package is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
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


class Echelon:
    """Mutable reduced-row-echelon accumulator over Q.

    Rows are sparse dicts (column -> nonzero coefficient) kept fully reduced:
    each row's pivot is 1, pivot columns are cleared in all other rows, and
    pivot columns strictly increase down the row list. The span-level result
    is canonical regardless of insertion order.
    """

    __slots__ = ("ambient", "rows", "piv_cols")

    def __init__(self, ambient: int):
        if ambient < 0:
            raise DimensionMismatchError("ambient dimension must be >= 0")
        self.ambient = ambient
        self.rows: list[dict[int, Fraction]] = []
        self.piv_cols: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def _residual(self, v) -> dict[int, Fraction]:
        """Reduce ``v`` against the current rows; return the sparse remainder."""
        if len(v) != self.ambient:
            raise DimensionMismatchError(
                f"vector length {len(v)} does not match ambient {self.ambient}"
            )
        w = {i: c for i, c in enumerate(v) if c}
        for pc, row in zip(self.piv_cols, self.rows):
            c = w.get(pc)
            if c:
                for k, rk in row.items():
                    nk = w.get(k, _ZERO) - c * rk
                    if nk:
                        w[k] = nk
                    else:
                        w.pop(k, None)
        return w

    def contains(self, v) -> bool:
        return not self._residual(v)

    def add(self, v) -> bool:
        """Insert ``v`` into the span. Returns True when the dimension grew."""
        w = self._residual(v)
        if not w:
            return False
        piv = min(w)
        inv = _ONE / w[piv]
        new_row = {k: c * inv for k, c in w.items()}
        # Clear the new pivot column from the existing rows.
        for row in self.rows:
            c = row.get(piv)
            if c:
                for k, nk in new_row.items():
                    rk = row.get(k, _ZERO) - c * nk
                    if rk:
                        row[k] = rk
                    else:
                        row.pop(k, None)
        at = bisect_left(self.piv_cols, piv)
        self.piv_cols.insert(at, piv)
        self.rows.insert(at, new_row)
        return True

    def basis_vectors(self) -> Mat:
        return tuple(
            tuple(row.get(k, _ZERO) for k in range(self.ambient))
            for row in self.rows
        )

    def to_subspace(self) -> "Subspace":
        return Subspace._from_echelon(self.ambient, self.basis_vectors(),
                                      tuple(self.piv_cols))


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
    for pc, row in zip(ech.piv_cols, ech.rows):
        x[pc] = row.get(n, _ZERO)
    return tuple(x)

"""Finite-dimensional associative Q-algebras given by structure constants.

Every construction validates everything it claims: associativity on all
basis triples, the unit law, and the involution axioms. An algebra stores its
structure constants once, as a sparse integer ``rule`` with the ``scale`` by
which its constants exceed the true ones, and its involution once, as sparse
rows. Validation walks that table instead of all dense triples, in exact
integer arithmetic. ``matrix_algebra(quaternion_for_prime(2), g)`` builds and
validates in about 0.05 s at g = 6, 0.13 s at g = 8 (dimension 256), 0.7 s at
g = 12 and 2-2.7 s at g = 16 (dimension 1024, the cap :data:`MAX_DIM`; peak
RSS 30 MB), on one core of a 2-vCPU x86-64 machine under CPython 3.11.

Also provides the quaternion-algebra constructors with local ramification
checks (Hilbert symbols), matrix algebras over an involutive base, the
2g-by-2g rational model with its block involution, and rectangular matrices
over a quaternion algebra (``DMatrix``) with the dagger-transpose.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import Optional, Sequence, Union

from .arith import factorint, is_prime, legendre, unit_part_mod, valuation
from .errors import (
    AlgebraValidationError,
    AssociativityError,
    DimensionMismatchError,
    InvolutionError,
    UnitError,
)
from .linalg import Vec, integral, ratio, refuse_assignment, vector, zero_vector

_ZERO = Fraction(0)
_ONE = Fraction(1)

Terms = tuple[tuple[int, Fraction], ...]
# A bilinear product rule indexed by the left factor: rule[i] lists the
# (j, k, c) such that basis i times basis j contributes c times basis k. The
# constants c are ints, a fixed positive multiple (the algebra's scale) of the
# true ones.
Rule = tuple[tuple[tuple[int, int, int], ...], ...]

INF = "inf"
Place = Union[int, str]

# The largest algebra dimension, and the largest hom space base.dim * g_a * g_b
# of a graph (see the README for the measured cost at the cap).
MAX_DIM = 1024


def sparse(v: Vec) -> Terms:
    return tuple((k, c) for k, c in enumerate(v) if c)


def linear_image(rows: tuple[Terms, ...], x: Vec) -> Vec:
    """Image of ``x`` under the linear map whose sparse row ``j`` lists the
    ``(k, c)`` of the image of ``b_j``, such as an algebra's involution."""
    out = [_ZERO] * len(rows)
    for j, xj in enumerate(x):
        if xj:
            for k, c in rows[j]:
                out[k] += xj * c
    return tuple(out)


def _coeffs(v, dim: int) -> Vec:
    out = vector(v)
    if len(out) != dim:
        raise DimensionMismatchError(
            f"coefficient vector of length {len(out)} in a dim-{dim} algebra")
    return out


def rule_product(rule: Rule, u: Sequence[int], v: Sequence[int],
                 out_len: int) -> tuple[int, ...]:
    """The product of integer coefficient vectors ``u`` and ``v`` under ``rule``.

    This is the one bilinear kernel: algebra multiplication, the composition
    of hom-space coefficient vectors and the fixed-point engine all run
    through it. The result is the true product times the rule's scale.
    """
    res = [0] * out_len
    for i, a in enumerate(u):
        if not a:
            continue
        for j, k, c in rule[i]:
            b = v[j]
            if b:
                res[k] += a * b * c
    return tuple(res)


def multiplication_matrix(rule: Rule, x: Sequence[int], width: int,
                          out_len: int) -> list[list[int]]:
    """The ``width`` columns of v -> rule_product(rule, x, v, out_len), read
    off the rule in one pass with no product: column j is x * b_j. The
    mod-p ``closure.spin`` packs it for each letter, and
    ``obstruction.corner_detect`` reads its trace from it."""
    cols = [[0] * out_len for _ in range(width)]
    for a, terms in zip(x, rule):
        if a:
            for j, k, c in terms:
                cols[j][k] += a * c
    return cols


def _rational_product(rule: Rule, scale: int, u: Vec, v: Vec, out_len: int) -> Vec:
    """The true product of rational vectors under an integer rule of the
    given scale, each factor scaled to integers once; every entry a Fraction."""
    iu, du = integral(u)
    iv, dv = integral(v)
    den = du * dv * scale
    return tuple(Fraction(c, den) if c else _ZERO
                 for c in rule_product(rule, iu, iv, out_len))


def _integral_rows(rows) -> tuple[tuple, int]:
    """Sparse rows whose entries end in a Fraction constant, the constants
    scaled by their common denominator, with it."""
    den = lcm(*(t[-1].denominator for row in rows for t in row))
    return tuple(tuple((*t[:-1], t[-1].numerator * (den // t[-1].denominator))
                       for t in row) for row in rows), den


class StructureAlgebra:
    """Associative Q-algebra with basis ``b_0 .. b_{n-1}`` and exact constants.

    The constructor takes the canonical forms: ``rule`` in the layout of
    :func:`rule_product`, whose int constants are the true ones times the
    positive int ``scale``, and, optionally, a dense unit and the involution
    as sparse rows (row ``j`` lists the ``(k, c)`` of the image of ``b_j``).
    It always checks associativity, the unit law and the involution axioms.
    :func:`make_algebra` parses the public layouts into these forms.

    Instances refuse assignment and compare by identity, so they can key
    caches; elements carry a reference to their algebra. The named
    constructors record what they built: ``quaternion_params``,
    ``matrix_base`` with ``matrix_size``, and ``is_split_model``.
    """

    __slots__ = (
        "dim", "basis_labels", "unit", "rule", "scale", "inv_terms",
        "quaternion_params", "matrix_base", "matrix_size", "is_split_model",
    )

    def __init__(self, dim: int, rule: Rule, scale: int, unit: Optional[Vec],
                 inv_terms: Optional[tuple[Terms, ...]], basis_labels, *,
                 quaternion_params, matrix_base, matrix_size, is_split_model):
        if basis_labels is None:
            basis_labels = tuple(f"b{t}" for t in range(dim))
        basis_labels = tuple(basis_labels)
        if len(basis_labels) != dim:
            raise DimensionMismatchError("label count does not match dimension")
        put = object.__setattr__
        put(self, "dim", dim)
        put(self, "basis_labels", basis_labels)
        put(self, "rule", rule)
        put(self, "scale", scale)
        put(self, "unit", unit)
        put(self, "inv_terms", inv_terms)
        put(self, "quaternion_params", quaternion_params)
        put(self, "matrix_base", matrix_base)
        put(self, "matrix_size", matrix_size)
        put(self, "is_split_model", is_split_model)
        self._check_associativity()
        if unit is not None:
            self._check_unit()
        if inv_terms is not None:
            self._check_involution()

    __setattr__ = __delattr__ = refuse_assignment

    @property
    def involution(self) -> Optional[tuple[Vec, ...]]:
        """Dense view of the involution: row ``j`` holds the coordinates of
        the image of ``b_j``; None without an involution."""
        if self.inv_terms is None:
            return None
        return tuple(tuple(dict(terms).get(k, _ZERO) for k in range(self.dim))
                     for terms in self.inv_terms)

    # -- raw coefficient arithmetic -------------------------------------------

    def mul_coeffs(self, x: Vec, y: Vec) -> Vec:
        return _rational_product(self.rule, self.scale, x, y, self.dim)

    def involution_coeffs(self, x: Vec) -> Vec:
        if self.inv_terms is None:
            raise AlgebraValidationError("algebra has no involution")
        return linear_image(self.inv_terms, x)

    # -- validation ------------------------------------------------------------

    def _check_associativity(self):
        # With the rule's constants D = scale times the true ones, the entry
        # (j, k, q) of row i is D^2 times the coefficient of b_q in
        # (b_i b_j) b_k - b_i (b_j b_k). Only nonzero product paths touch it;
        # every other entry is 0 = 0. ``made[m]`` lists the pairs whose
        # product has a b_m term, so b_i (b_j b_k) is reached through the
        # products b_i b_m in rule i, one left factor at a time.
        rule = self.rule
        n = self.dim
        made: list[list] = [[] for _ in range(n)]
        for j, bucket in enumerate(rule):
            for k, m, c in bucket:
                made[m].append((j * n + k, c))
        for i, bucket in enumerate(rule):
            residue: dict[int, int] = {}
            for j, m, c in bucket:
                for k, q, d in rule[m]:
                    key = (j * n + k) * n + q
                    residue[key] = residue.get(key, 0) + c * d
            for m, q, d in bucket:
                for jk, c in made[m]:
                    key = jk * n + q
                    residue[key] = residue.get(key, 0) - c * d
            bad = [key for key, v in residue.items() if v]
            if bad:
                key = min(bad)
                jk, q = divmod(key, n)
                j, k = divmod(jk, n)
                labels = self.basis_labels
                raise AssociativityError(
                    (labels[i], labels[j], labels[k]),
                    f"(xy)z - x(yz) has coefficient "
                    f"{Fraction(residue[key], self.scale ** 2)} at {labels[q]}")

    def _check_unit(self):
        # u' = U u is integral, so u' b_j and b_j u' under the rule
        # are U D times u b_j and b_j u; both must be U D b_j. Entry (j, q)
        # of each table holds the coefficient of b_q, less U D when q = j.
        (u,), den = _integral_rows((sparse(self.unit),))
        want = den * self.scale
        n = self.dim
        rule = self.rule
        at = dict(u)
        left = {j * n + j: -want for j in range(n)}
        right = dict(left)
        for t, a in u:
            for j, q, c in rule[t]:
                key = j * n + q
                left[key] = left.get(key, 0) + a * c
        for j, bucket in enumerate(rule):
            for m, q, c in bucket:
                a = at.get(m)
                if a:
                    key = j * n + q
                    right[key] = right.get(key, 0) + a * c
        bad = [key // n for table in (left, right) for key, v in table.items() if v]
        if bad:
            raise UnitError(self.basis_labels[min(bad)])

    def _check_involution(self):
        # sigma' = E sigma is integral. The checks are sigma' sigma' = E^2 id
        # and E sigma'(b_i b_j) = sigma'(b_j) sigma'(b_i), both sides D E^2
        # times the true ones under the rule, one left factor i at a time.
        inv, den = _integral_rows(self.inv_terms)
        labels = self.basis_labels
        n = self.dim
        square = den * den
        for j in range(n):
            acc: dict[int, int] = {}
            for m, c in inv[j]:
                for k, d in inv[m]:
                    acc[k] = acc.get(k, 0) + c * d
            if {k: c for k, c in acc.items() if c} != {j: square}:
                raise InvolutionError(labels[j], "sigma(sigma(x)) != x")
        rule = self.rule
        by_right: list[list] = [[] for _ in range(n)]
        for m, bucket in enumerate(rule):
            for r, q, c in bucket:
                by_right[r].append((m, q, c))
        # images[m] lists the (j, a) with a b_m in sigma'(b_j).
        images: list[list] = [[] for _ in range(n)]
        for j, row in enumerate(inv):
            for m, a in row:
                images[m].append((j, a))
        for i, bucket in enumerate(rule):
            # Entry (j, q): E sigma'(b_i b_j) - sigma'(b_j) sigma'(b_i) at b_q.
            diff: dict[int, int] = {}
            for j, m, c in bucket:
                for q, s in inv[m]:
                    key = j * n + q
                    diff[key] = diff.get(key, 0) + den * c * s
            for r, b in inv[i]:
                for m, q, c in by_right[r]:
                    for j, a in images[m]:
                        key = j * n + q
                        diff[key] = diff.get(key, 0) - a * b * c
            bad = [key // n for key, v in diff.items() if v]
            if bad:
                raise InvolutionError((labels[i], labels[min(bad)]),
                                      "sigma(xy) != sigma(y)sigma(x)")

    # -- element factory --------------------------------------------------------

    def basis_vector(self, t: int) -> Vec:
        return tuple(_ONE if k == t else _ZERO for k in range(self.dim))

    def element(self, coeffs) -> "AlgElement":
        return AlgElement(self, _coeffs(coeffs, self.dim))

    def basis_element(self, t: int) -> "AlgElement":
        return AlgElement(self, self.basis_vector(t))

    def zero(self) -> "AlgElement":
        return AlgElement(self, zero_vector(self.dim))

    def one(self) -> "AlgElement":
        if self.unit is None:
            raise AlgebraValidationError("algebra has no unit")
        return AlgElement(self, self.unit)

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim})"


class AlgElement:
    """Element of a :class:`StructureAlgebra` as a coefficient vector.

    Immutable; equal to another element of the same algebra (by identity)
    with the same coefficients, and hashed to match.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: StructureAlgebra, coeffs: Vec):
        if len(coeffs) != algebra.dim:
            raise DimensionMismatchError(
                f"{len(coeffs)} coefficients in a dim-{algebra.dim} algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    __setattr__ = __delattr__ = refuse_assignment

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def _require_same(self, other: "AlgElement"):
        if self.algebra is not other.algebra:
            raise AlgebraValidationError("elements belong to different algebras")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._require_same(other)
        return AlgElement(self.algebra,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._require_same(other)
        return AlgElement(self.algebra,
                          tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._require_same(other)
            return AlgElement(self.algebra,
                              self.algebra.mul_coeffs(self.coeffs, other.coeffs))
        c = ratio(other)
        return AlgElement(self.algebra, tuple(c * a for a in self.coeffs))

    def __pow__(self, n: int) -> "AlgElement":
        if n < 1:
            raise ValueError("only positive powers are defined (no unit is assumed)")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def dagger(self) -> "AlgElement":
        return AlgElement(self.algebra,
                          self.algebra.involution_coeffs(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self):
        labels = self.algebra.basis_labels
        parts = [f"{c}*{labels[t]}" for t, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def make_algebra(dim, struct_consts, unit=None, involution=None,
                 basis_labels=None) -> StructureAlgebra:
    """Parse an algebra given in a public layout and build it, with every check.

    ``struct_consts`` is dense (``consts[i][j]`` is the coefficient vector of
    ``b_i * b_j``) or sparse (``{(i, j): ((k, c), ...)}``). The unit and each
    involution row are dense coefficient vectors; involution row ``j`` holds
    the coordinates of the image of ``b_j``. The constants are scaled once,
    by their least common denominator, to the integer rule.
    """
    if dim < 1:
        raise AlgebraValidationError("dimension must be positive")
    rule: list[list] = [[] for _ in range(dim)]
    if isinstance(struct_consts, dict):
        for (i, j), terms in struct_consts.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatchError(f"structure index {(i, j)} out of range")
            acc: dict[int, Fraction] = {}
            for k, c in terms:
                if not 0 <= k < dim:
                    raise DimensionMismatchError(
                        f"structure constant of {(i, j)} at index {k} out of range")
                acc[k] = acc.get(k, _ZERO) + ratio(c)
            rule[i].extend((j, k, acc[k]) for k in sorted(acc) if acc[k])
    else:
        rows = list(struct_consts)
        if len(rows) != dim:
            raise DimensionMismatchError("structure constants must be dim x dim")
        for i, row in enumerate(rows):
            row = list(row)
            if len(row) != dim:
                raise DimensionMismatchError("structure constants must be dim x dim")
            for j, cv in enumerate(row):
                rule[i].extend((j, k, c) for k, c in sparse(_coeffs(cv, dim)))
    if unit is not None:
        unit = _coeffs(unit, dim)
    if involution is not None:
        involution = tuple(sparse(_coeffs(r, dim)) for r in involution)
        if len(involution) != dim:
            raise DimensionMismatchError("involution must have one row per basis element")
    rule, scale = _integral_rows(rule)
    return StructureAlgebra(dim, rule, scale, unit, involution, basis_labels,
                            quaternion_params=None, matrix_base=None,
                            matrix_size=None, is_split_model=False)


# ---------------------------------------------------------------------------
# Rational base field and quaternion algebras
# ---------------------------------------------------------------------------

@cache
def rationals() -> StructureAlgebra:
    """Q as a dim-1 algebra with the identity involution (built once)."""
    return make_algebra(1, {(0, 0): ((0, _ONE),)}, unit=(1,), involution=((1,),),
                        basis_labels=("1",))


def quaternion_algebra(a, b) -> StructureAlgebra:
    """The quaternion algebra (a, b / Q): i^2 = a, j^2 = b, ij = -ji = k.

    The involution is the main involution (conjugation) x -> Trd(x) - x.
    Built once per pair of rationals, however they are spelled.
    """
    a = ratio(a)
    b = ratio(b)
    if not a or not b:
        raise AlgebraValidationError("quaternion parameters must be nonzero")
    return _quaternion_algebra(a, b)


@cache
def _quaternion_algebra(a: Fraction, b: Fraction, /) -> StructureAlgebra:
    # Row t lists the (j, k, c) with b_t b_j = c b_k in the basis 1, i, j, k.
    rule, scale = _integral_rows((
        ((0, 0, _ONE), (1, 1, _ONE), (2, 2, _ONE), (3, 3, _ONE)),
        ((0, 1, _ONE), (1, 0, a), (2, 3, _ONE), (3, 2, a)),
        ((0, 2, _ONE), (1, 3, -_ONE), (2, 0, b), (3, 1, -b)),
        ((0, 3, _ONE), (1, 2, -a), (2, 1, b), (3, 0, -a * b)),
    ))
    inv = (((0, _ONE),), ((1, -_ONE),), ((2, -_ONE),), ((3, -_ONE),))
    return StructureAlgebra(4, rule, scale, (_ONE, _ZERO, _ZERO, _ZERO), inv,
                            ("1", "i", "j", "k"), quaternion_params=(a, b),
                            matrix_base=None, matrix_size=None, is_split_model=False)


def reduced_trace(x: AlgElement) -> Fraction:
    if x.algebra.quaternion_params is None:
        raise AlgebraValidationError("reduced trace needs a quaternion algebra")
    return 2 * x.coeffs[0]


def reduced_norm(x: AlgElement) -> Fraction:
    if x.algebra.quaternion_params is None:
        raise AlgebraValidationError("reduced norm needs a quaternion algebra")
    a, b = x.algebra.quaternion_params
    c0, c1, c2, c3 = x.coeffs
    return c0 * c0 - a * c1 * c1 - b * c2 * c2 + a * b * c3 * c3


def unit_multiple(v: Vec, unit: Vec) -> Optional[Fraction]:
    """The rational s with v = s * unit for a nonzero vector ``unit``, or None
    when v is no such multiple."""
    k = next(t for t, c in enumerate(unit) if c)
    s = v[k] / unit[k]
    return s if all(a == s * u for a, u in zip(v, unit)) else None


def invert_element(x: AlgElement) -> Optional[AlgElement]:
    """Two-sided inverse of a similitude, or None.

    ``x`` is a similitude when x * x^dagger = s * 1 for a nonzero rational s;
    then x^(-1) = x^dagger / s, and in a finite-dimensional algebra this
    right inverse is two-sided. Any unital base with involution works: on a
    quaternion algebra s is the reduced norm, over Q it is x^2. None when s
    is 0 or x * x^dagger is no rational multiple of the unit.
    """
    xd = x.dagger()
    s = unit_multiple((x * xd).coeffs, x.algebra.one().coeffs)
    if not s:
        return None
    return xd * (1 / s)


# ---------------------------------------------------------------------------
# Hilbert symbols and ramification
# ---------------------------------------------------------------------------


def hilbert_symbol(a, b, place: Place) -> int:
    """Local Hilbert symbol (a, b)_v over Q; ``place`` is a prime or "inf"."""
    a = ratio(a)
    b = ratio(b)
    if not a or not b:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"place must be a prime or '{INF}', got {place!r}")
    alpha = valuation(a, p)
    beta = valuation(b, p)
    if p == 2:
        u = unit_part_mod(a, 2, 8)
        v = unit_part_mod(b, 2, 8)
        eps_u = (u - 1) // 2 % 2
        eps_v = (v - 1) // 2 % 2
        omega_u = (u * u - 1) // 8 % 2
        omega_v = (v * v - 1) // 8 % 2
        exp = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exp % 2 else 1
    sign = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        sign = -sign
    u = a / Fraction(p) ** alpha
    v = b / Fraction(p) ** beta
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def relevant_places(a, b) -> list:
    """Infinity plus every prime dividing 2ab; symbols are +1 elsewhere."""
    a = ratio(a)
    b = ratio(b)
    primes = {2}
    for q in (a, b):
        primes.update(factorint(q.numerator))
        primes.update(factorint(q.denominator))
    return sorted(primes) + [INF]


def ramified_places(a, b) -> list:
    """Places where (a, b / Q) is a division algebra, finite primes first."""
    return [v for v in relevant_places(a, b) if hilbert_symbol(a, b, v) == -1]


def quaternion_for_prime(p: int) -> StructureAlgebra:
    """The quaternion algebra over Q ramified exactly at {p, infinity}.

    Standard parameters: p = 2 -> (-1, -1); p = 3 mod 4 -> (-1, -p);
    p = 5 mod 8 -> (-2, -p); p = 1 mod 8 -> (-q, -p) with q the smallest
    prime with q = 3 mod 4 that is a non-residue mod p. The result is
    re-verified by Hilbert symbols before being returned.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"{p!r} is not prime")
    if p == 2:
        a, b = Fraction(-1), Fraction(-1)
    elif p % 4 == 3:
        a, b = Fraction(-1), Fraction(-p)
    elif p % 8 == 5:
        a, b = Fraction(-2), Fraction(-p)
    else:
        q = 3
        while not (q % 4 == 3 and is_prime(q) and legendre(Fraction(q), p) == -1):
            q += 2
        a, b = Fraction(-q), Fraction(-p)
    ram = ramified_places(a, b)
    if ram != [p, INF]:
        raise AlgebraValidationError(
            f"parameters ({a},{b}) ramify at {ram}, expected [{p}, {INF}]")
    return quaternion_algebra(a, b)


def is_definite_rational_quaternion(alg: StructureAlgebra) -> bool:
    """True when ``alg`` is a quaternion algebra ramified at infinity and a
    single finite prime, i.e. the endomorphism type of a supersingular
    elliptic curve."""
    if alg.quaternion_params is None:
        return False
    a, b = alg.quaternion_params
    ram = ramified_places(a, b)
    return INF in ram and len(ram) == 2


# ---------------------------------------------------------------------------
# Matrix algebras over an involutive base
# ---------------------------------------------------------------------------

def matrix_index(base_dim: int, n: int, r: int, c: int, t: int = 0) -> int:
    """Flat coefficient index of basis element e_(r,c) x b_t (0-based r, c)."""
    return (r * n + c) * base_dim + t


@cache
def matrix_rule(base: StructureAlgebra, ga: int, gc: int, gb: int, /) -> Rule:
    """Product rule of (ga x gc) by (gc x gb) matrices over ``base`` in the
    row-major flattening with base coefficients innermost, built once per
    shape. It repeats the constants of ``base.rule``, so it has the base's
    scale. ``matrix_rule(base, g, g, g)`` is the table of M_g(base)."""
    d = base.dim
    return tuple(
        tuple(((s * gb + q) * d + t2, (p * gb + q) * d + k, c)
              for q in range(gb) for t2, k, c in base.rule[t1])
        for p in range(ga) for s in range(gc) for t1 in range(d))


def _matrix_labels(base: StructureAlgebra, g: int) -> list[str]:
    """Basis labels of M_g(base); first refuses a dimension above :data:`MAX_DIM`."""
    d = base.dim
    if g * g * d > MAX_DIM:
        raise AlgebraValidationError(
            f"M_{g} over a dim-{d} base has dimension {g * g * d}, above the cap {MAX_DIM}")
    plain = d == 1 and base.basis_labels[0] == "1"
    return [f"e[{r + 1},{c + 1}]" + ("" if plain else f"*{t}")
            for r in range(g) for c in range(g) for t in base.basis_labels]


@cache
def matrix_algebra(base: StructureAlgebra, g: int, /) -> StructureAlgebra:
    """M_g(base) with the involution (m_rc) -> (dagger of m_cr).

    Basis order is matrix position major, base coefficient minor, so
    coefficient vectors agree with the row-major :class:`DMatrix` flattening.
    The dimension g^2 * base.dim may not exceed :data:`MAX_DIM`. Built once
    per (base, g).
    """
    if g < 1:
        raise AlgebraValidationError("matrix size must be positive")
    if base.unit is None or base.inv_terms is None:
        raise AlgebraValidationError("matrix_algebra needs a unital base with involution")
    labels = _matrix_labels(base, g)
    d = base.dim
    inv = tuple(tuple((matrix_index(d, g, c, r, k), cf) for k, cf in terms)
                for r in range(g) for c in range(g) for terms in base.inv_terms)
    return StructureAlgebra(g * g * d, matrix_rule(base, g, g, g), base.scale,
                            DMatrix.identity(base, g).coeffs, inv, labels,
                            quaternion_params=None, matrix_base=base, matrix_size=g,
                            is_split_model=False)


@cache
def split_model(g: int, /) -> StructureAlgebra:
    """M_2g(Q) with the block involution sending the 2x2 block (a b; c d) at
    block position (I, J) to (d -b; -c a) at (J, I).

    The structure constants are rational, so the model is built on the rule
    of M_2g(Q) and its identity, without building M_2g(Q) itself; like every
    construction it runs all three checks. Built once per g.
    """
    if g < 1:
        raise AlgebraValidationError("split model needs g >= 1")
    n = 2 * g
    q = rationals()
    labels = _matrix_labels(q, n)
    inv = []
    for r in range(n):
        for c in range(n):
            bi, al = divmod(r, 2)
            bj, be = divmod(c, 2)
            target = matrix_index(1, n, 2 * bj + (1 - be), 2 * bi + (1 - al))
            inv.append(((target, -_ONE if (al + be) % 2 else _ONE),))
    return StructureAlgebra(n * n, matrix_rule(q, n, n, n), q.scale,
                            DMatrix.identity(q, n).coeffs, tuple(inv), labels,
                            quaternion_params=None, matrix_base=q, matrix_size=n,
                            is_split_model=True)


def matrix_unit(alg: StructureAlgebra, r: int, c: int,
                entry: Optional[AlgElement] = None) -> AlgElement:
    """e_(r,c) in a matrix-structured algebra (1-based indices), with an
    optional base-algebra entry in place of the base unit."""
    base = alg.matrix_base
    n = alg.matrix_size
    if base is None:
        raise AlgebraValidationError("algebra has no matrix structure")
    if not (1 <= r <= n and 1 <= c <= n):
        raise DimensionMismatchError(f"matrix position ({r},{c}) outside size {n}")
    coeffs = [_ZERO] * alg.dim
    val = base.unit if entry is None else entry.coeffs
    for t, cf in enumerate(val):
        if cf:
            coeffs[matrix_index(base.dim, n, r - 1, c - 1, t)] = cf
    return AlgElement(alg, tuple(coeffs))


# ---------------------------------------------------------------------------
# Rectangular matrices over a quaternion (or any involutive) base
# ---------------------------------------------------------------------------


class DMatrix:
    """Rectangular matrix over an involutive base algebra.

    Models a homomorphism space element: a shape (m, n) matrix sends the
    n-factor object to the m-factor one. ``coeffs`` is the row-major
    flattening with the base coefficients innermost, the layout of
    :func:`matrix_rule`, so composition is one :func:`rule_product` call.
    Immutable and compared by value like :class:`AlgElement`.
    """

    __slots__ = ("base", "rows", "cols", "coeffs")

    def __init__(self, base: StructureAlgebra, rows: int, cols: int, coeffs: Vec):
        if rows < 1 or cols < 1:
            raise DimensionMismatchError("DMatrix needs at least one row and column")
        d = base.dim
        if len(coeffs) != rows * cols * d:
            raise DimensionMismatchError(
                f"flat length {len(coeffs)} does not match "
                f"({rows},{cols}) over dim-{d} base")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "coeffs", coeffs)

    __setattr__ = __delattr__ = refuse_assignment

    def __eq__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        return (self.base is other.base and self.rows == other.rows
                and self.cols == other.cols and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.base, self.rows, self.cols, self.coeffs))

    def __repr__(self):
        return f"DMatrix(rows={self.rows}, cols={self.cols}, base_dim={self.base.dim})"

    def _entry(self, r: int, c: int) -> Vec:
        d = self.base.dim
        at = (r * self.cols + c) * d
        return self.coeffs[at:at + d]

    @property
    def entries(self) -> tuple[tuple[AlgElement, ...], ...]:
        """Read-only view: one :class:`AlgElement` per entry."""
        return tuple(
            tuple(AlgElement(self.base, self._entry(r, c)) for c in range(self.cols))
            for r in range(self.rows))

    @classmethod
    def from_entries(cls, base: StructureAlgebra, rows) -> "DMatrix":
        rows = [list(row) for row in rows]
        if not rows or not rows[0]:
            raise DimensionMismatchError("DMatrix needs at least one row and column")
        out: list = []
        for row in rows:
            if len(row) != len(rows[0]):
                raise DimensionMismatchError("DMatrix rows have unequal lengths")
            for e in row:
                if not isinstance(e, AlgElement):
                    e = base.element(e)
                elif e.algebra is not base:
                    raise AlgebraValidationError("DMatrix entry outside the base algebra")
                out.extend(e.coeffs)
        return cls(base, len(rows), len(rows[0]), tuple(out))

    @classmethod
    def from_flat(cls, base: StructureAlgebra, rows: int, cols: int, v) -> "DMatrix":
        return cls(base, rows, cols, vector(v))

    @classmethod
    def zero(cls, base: StructureAlgebra, rows: int, cols: int) -> "DMatrix":
        return cls(base, rows, cols, zero_vector(rows * cols * base.dim))

    @classmethod
    def identity(cls, base: StructureAlgebra, n: int) -> "DMatrix":
        one, zero = base.one().coeffs, zero_vector(base.dim)
        return cls(base, n, n, tuple(
            x for r in range(n) for c in range(n) for x in (one if r == c else zero)))

    @classmethod
    def scalar(cls, base: StructureAlgebra, n: int, c) -> "DMatrix":
        return cls.identity(base, n) * ratio(c)

    def __mul__(self, other) -> "DMatrix":
        c = ratio(other)
        return DMatrix(self.base, self.rows, self.cols,
                       tuple(a * c for a in self.coeffs))

    def __matmul__(self, other: "DMatrix") -> "DMatrix":
        if self.base is not other.base:
            raise AlgebraValidationError("DMatrix operands over different bases")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot compose ({self.rows},{self.cols}) with "
                f"({other.rows},{other.cols})")
        base = self.base
        rule = matrix_rule(base, self.rows, self.cols, other.cols)
        return DMatrix(base, self.rows, other.cols, _rational_product(
            rule, base.scale, self.coeffs, other.coeffs,
            self.rows * other.cols * base.dim))

    def dagger_transpose(self) -> "DMatrix":
        inv = self.base.involution_coeffs
        return DMatrix(self.base, self.cols, self.rows, tuple(
            x for c in range(self.cols) for r in range(self.rows)
            for x in inv(self._entry(r, c))))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def element_to_dmatrix(x: AlgElement) -> DMatrix:
    """Reshape an element of a matrix-structured algebra into a DMatrix.

    The coefficient orders agree, so this is a pure reindexing.
    """
    alg = x.algebra
    if alg.matrix_base is None:
        raise AlgebraValidationError("element's algebra has no matrix structure")
    return DMatrix(alg.matrix_base, alg.matrix_size, alg.matrix_size, x.coeffs)


def dmatrix_to_element(alg: StructureAlgebra, m: DMatrix) -> AlgElement:
    if alg.matrix_base is not m.base or alg.matrix_size != m.rows or m.rows != m.cols:
        raise AlgebraValidationError("matrix does not match the algebra's structure")
    return AlgElement(alg, m.coeffs)

"""Multihomogeneous polynomials on a product of r projective lines.

A polynomial of multidegree (d_1, .., d_r) is a rational combination of
monomials prod_i x_i^(a_i) y_i^(b_i) with a_i + b_i = d_i for every factor.
Supports exact substitution of coordinate powers (the cover [x:y] ->
[x^e:y^e]), factorization verification, and the double-fiber containment
check: whether fixing projective points in two factors kills the polynomial
identically.

Coefficients are rational only; the checks here are characteristic-free
polynomial identities, so Q suffices to reproduce them exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    InhomogeneousTermError,
    PolynomialError,
    PolynomialSyntaxError,
)
from .linalg import ratio
# The largest number of factors r is the vertex cap of a graph, since r
# counts the curves in the product.
from .obstruction import MAX_VERTICES as MAX_FACTORS

_ZERO = Fraction(0)

# The bit budget of contains_double_fiber (see there).
FIBER_BITS = 1 << 21

# Exponents: one (a_i, b_i) pair per factor; a counts x_i, b counts y_i.
Expo = tuple[tuple[int, int], ...]


class MultiHomogPoly:
    """Immutable multihomogeneous polynomial with canonical term order."""

    __slots__ = ("r", "degrees", "terms")

    def __init__(self, r: int, terms: dict):
        _check_factors(r)
        clean = {}
        for expo, coeff in terms.items():
            coeff = ratio(coeff)
            if not coeff:
                continue
            expo = tuple((int(a), int(b)) for a, b in expo)
            if len(expo) != r or any(a < 0 or b < 0 for a, b in expo):
                raise PolynomialError(f"bad exponent tuple {expo}")
            clean[expo] = clean.get(expo, _ZERO) + coeff
        clean = {e: c for e, c in clean.items() if c}
        degs = tuple(map(sum, next(iter(clean), ((0, 0),) * r)))
        for expo in clean:
            d = tuple(map(sum, expo))
            if d != degs:
                raise InhomogeneousTermError(_monomial_str(expo), f"degrees {d} vs {degs}")
        self.degrees = degs
        self.r = r
        # Canonical term order: lexicographic on exponent tuples, descending,
        # so pure-x monomials print before pure-y ones.
        self.terms = dict(sorted(clean.items(), reverse=True))

    # -- ring structure --

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiHomogPoly):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, tuple(self.terms.items())))

    def __add__(self, other: "MultiHomogPoly") -> "MultiHomogPoly":
        self._same_arena(other)
        if not self.is_zero() and not other.is_zero() and self.degrees != other.degrees:
            raise InhomogeneousTermError(
                "sum", f"degrees {self.degrees} vs {other.degrees}")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return MultiHomogPoly(self.r, out)

    def __mul__(self, other: "MultiHomogPoly") -> "MultiHomogPoly":
        self._same_arena(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple((a1 + a2, b1 + b2)
                          for (a1, b1), (a2, b2) in zip(e1, e2))
                out[e] = out.get(e, _ZERO) + c1 * c2
        return MultiHomogPoly(self.r, out)

    def _same_arena(self, other: "MultiHomogPoly"):
        if self.r != other.r:
            raise DimensionMismatchError(
                f"polynomials over {self.r} vs {other.r} factors")

    @classmethod
    def zero(cls, r: int) -> "MultiHomogPoly":
        return cls(r, {})

    @classmethod
    def constant(cls, r: int, c) -> "MultiHomogPoly":
        return cls(r, {tuple((0, 0) for _ in range(r)): ratio(c)})

    def __repr__(self):
        return f"MultiHomogPoly({self.to_string()!r})"

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for expo, coeff in self.terms.items():
            mono, size = _monomial_str(expo), abs(coeff)
            piece = f"{size}*{mono}" if mono and size != 1 else mono or str(size)
            out += f" {'-' if coeff < 0 else '+'} {piece}"
        return out[3:] if out[1] == "+" else "-" + out[3:]


def _check_factors(r: int):
    if r < 1:
        raise PolynomialError("need at least one projective-line factor")
    if r > MAX_FACTORS:
        raise PolynomialError(f"{r} factors exceed the cap {MAX_FACTORS}")


def _monomial_str(expo: Expo) -> str:
    bits = []
    for idx, (a, b) in enumerate(expo, start=1):
        if a:
            bits.append(f"x{idx}" + (f"^{a}" if a > 1 else ""))
        if b:
            bits.append(f"y{idx}" + (f"^{b}" if b > 1 else ""))
    return "*".join(bits)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<var>[xy][0-9]+)"
                    r"|(?P<op>[-+*^()])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` triples; stray characters and parentheses
    are refused here, before any parsing."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        val, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise PolynomialSyntaxError(f"unexpected character {val!r}", pos)
        if val in ("(", ")"):
            raise PolynomialSyntaxError("parentheses are not supported", pos)
        tokens.append((kind, val, pos))
    return tokens


def _number(val: str, pos: int) -> Fraction:
    """A number token, under the digit cap of :func:`linalg.ratio`."""
    try:
        return ratio(val)
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialSyntaxError(str(exc), pos) from None


def parse_poly(text: str, r: int) -> MultiHomogPoly:
    """Parse a sum of monomials in x1..xr, y1..yr with rational coefficients.

    Grammar: signed terms joined by + and -; each term is a '*'-separated
    product of rationals and variables with optional integer '^' powers.
    Syntax errors carry the offending position; an inhomogeneous monomial is
    rejected with its text.
    """
    _check_factors(r)
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)
    kind, val, pos = tokens[0]
    idx = int(kind == "op" and val in "+-")
    if idx == len(tokens):
        raise PolynomialSyntaxError("dangling sign", pos)
    # Each term keeps the span of text between its signs, to quote in errors.
    coeff, expo, start = (Fraction(-1 if val == "-" else 1),
                          [[0, 0] for _ in range(r)], pos + 1 if idx else 0)
    terms: list[tuple] = []  # (coeff, exponents, start, end)
    expect_factor = True
    while idx < len(tokens):
        kind, val, pos = tokens[idx]
        idx += 1
        if not expect_factor:
            if kind != "op":
                raise PolynomialSyntaxError(f"expected an operator, got {val!r}", pos)
            if val == "^":
                raise PolynomialSyntaxError("'^' only follows a variable", pos)
            if val in "+-":
                terms.append((coeff, expo, start, pos))
                coeff, expo, start = (Fraction(-1 if val == "-" else 1),
                                      [[0, 0] for _ in range(r)], pos + 1)
        elif kind == "num":
            coeff *= _number(val, pos)
        elif kind == "var":
            letter, num = val[0], int(_number(val[1:], pos))
            if not (1 <= num <= r):
                raise PolynomialSyntaxError(f"variable {val} outside 1..{r}", pos)
            power = 1
            if tokens[idx:idx + 1] and tokens[idx][1] == "^":
                _, exp, exp_pos = (tokens[idx + 1:idx + 2] or [("", "", 0)])[0]
                power = int(_number(exp, exp_pos)) if exp.isdigit() else 0
                if not power:
                    raise PolynomialSyntaxError(
                        "exponent must be a positive integer", tokens[idx][2])
                idx += 2
            expo[num - 1][0 if letter == "x" else 1] += power
        else:
            raise PolynomialSyntaxError(f"expected a factor, got {val!r}", pos)
        expect_factor = not expect_factor  # factors and operators alternate
    if expect_factor:
        raise PolynomialSyntaxError("dangling operator", tokens[-1][2])
    terms.append((coeff, expo, start, len(text)))

    # Multihomogeneity is judged on the parsed monomials, before any
    # cancellation, so "x1 - x1 + y1" is still rejected.
    terms = [t for t in terms if t[0]]
    degs = tuple(map(sum, terms[0][1])) if terms else None
    acc: dict = {}
    for coeff, expo, start, end in terms:
        d = tuple(map(sum, expo))
        if d != degs:
            raise InhomogeneousTermError(text[start:end].strip(), f"degrees {d} vs {degs}")
        expo = tuple(map(tuple, expo))
        acc[expo] = acc.get(expo, _ZERO) + coeff
    return MultiHomogPoly(r, acc)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def substitute_powers(f: MultiHomogPoly, exps: Sequence[int]) -> MultiHomogPoly:
    """Replace x_i by x_i^e_i and y_i by y_i^e_i; multidegree scales with e."""
    exps = [int(e) for e in exps]
    if len(exps) != f.r:
        raise DimensionMismatchError(
            f"{len(exps)} exponents for {f.r} factors")
    if any(e < 1 for e in exps):
        raise PolynomialError("cover exponents must be positive")
    out = {}
    for expo, coeff in f.terms.items():
        new = tuple((a * e, b * e) for (a, b), e in zip(expo, exps))
        out[new] = coeff
    return MultiHomogPoly(f.r, out)


def verify_factorization(f: MultiHomogPoly,
                         factors: Iterable[MultiHomogPoly]) -> bool:
    """Exact check that the product of ``factors`` equals ``f``."""
    factors = list(factors)
    if not factors:
        raise PolynomialError("need at least one factor")
    total = [0] * f.r
    for fac in factors:
        fac._same_arena(f)
        for i, d in enumerate(fac.degrees):
            total[i] += d
    if not f.is_zero() and tuple(total) != f.degrees:
        raise InhomogeneousTermError(
            "factors", f"degrees sum to {tuple(total)}, target {f.degrees}")
    prod = factors[0]
    for fac in factors[1:]:
        prod = prod * fac
    return prod == f


def _check_point(pt) -> tuple[int, int]:
    """The point as coprime integer coordinates, the same projective point."""
    s, t = (ratio(c) for c in pt)
    if not s and not t:
        raise PolynomialError("(0:0) is not a projective point")
    s, t = s.numerator * t.denominator, t.numerator * s.denominator
    g = gcd(s, t)
    return s // g, t // g


def contains_double_fiber(f: MultiHomogPoly, i: int, pt_i, j: int, pt_j) -> bool:
    """True when f vanishes identically on the fiber over the given points of
    factors i and j (1-based), i.e. substituting both points leaves the zero
    polynomial in the remaining variables.

    Each point is scaled to coprime integers [s:t]; vanishing is unchanged,
    as f is homogeneous in each factor. A factor of degree d then adds
    d * bit_length(max(|s|, |t|) - 1) bits to a monomial's value, none at
    coordinates in {0, 1, -1}. By homogeneity every term costs the same
    bits, so the evaluation costs bits * (number of terms), and points at
    which that exceeds FIBER_BITS = 2^21 are refused before any power is
    formed: one term of 2^21 bits evaluates in about 0.08 s and two of 2^20
    in 0.03-0.05 s (CPython 3.11, 2-vCPU guest), and each quadrupling of the
    budget costs about 8x.
    """
    if i == j:
        raise PolynomialError("double fiber needs two distinct factors")
    for v in (i, j):
        if not (1 <= v <= f.r):
            raise DimensionMismatchError(f"factor {v} outside 1..{f.r}")
    si, ti = _check_point(pt_i)
    sj, tj = _check_point(pt_j)
    bits = len(f.terms) * (
        f.degrees[i - 1] * (max(abs(si), abs(ti)) - 1).bit_length()
        + f.degrees[j - 1] * (max(abs(sj), abs(tj)) - 1).bit_length())
    if bits > FIBER_BITS:
        raise PolynomialError(
            f"evaluating at these points needs about {bits} bits, over the "
            f"budget of {FIBER_BITS}")
    residue: dict = {}
    for expo, coeff in f.terms.items():
        ai, bi = expo[i - 1]
        aj, bj = expo[j - 1]
        c = coeff * (si ** ai * ti ** bi * sj ** aj * tj ** bj)
        if not c:
            continue
        reduced = tuple((0, 0) if t in (i - 1, j - 1) else pair
                        for t, pair in enumerate(expo))
        residue[reduced] = residue.get(reduced, _ZERO) + c
    return not any(residue.values())

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
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    InhomogeneousTermError,
    PolynomialError,
    PolynomialSyntaxError,
)
from .linalg import ratio

_ZERO = Fraction(0)

# Exponents: one (a_i, b_i) pair per factor; a counts x_i, b counts y_i.
Expo = tuple[tuple[int, int], ...]


class MultiHomogPoly:
    """Immutable multihomogeneous polynomial with canonical term order."""

    __slots__ = ("r", "degrees", "terms")

    def __init__(self, r: int, terms: dict):
        if r < 1:
            raise PolynomialError("need at least one projective-line factor")
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
        if clean:
            degs = None
            for expo in clean:
                d = tuple(a + b for a, b in expo)
                if degs is None:
                    degs = d
                elif d != degs:
                    raise InhomogeneousTermError(
                        _monomial_str(expo), f"degrees {d} vs {degs}")
            self.degrees = degs
        else:
            self.degrees = (0,) * r
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

    def __neg__(self) -> "MultiHomogPoly":
        return MultiHomogPoly(self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiHomogPoly") -> "MultiHomogPoly":
        return self + (-other)

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
        parts = []
        for expo, coeff in self.terms.items():
            mono = _monomial_str(expo)
            if coeff == 1 and mono:
                piece = mono
            elif coeff == -1 and mono:
                piece = f"-{mono}"
            elif mono:
                piece = f"{coeff}*{mono}"
            else:
                piece = str(coeff)
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


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


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise PolynomialSyntaxError(
                f"unexpected character {m.group('bad')!r}", m.start("bad"))
        if m.group("num"):
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("var"):
            out.append(("var", m.group("var"), m.start("var")))
        else:
            op = m.group("op")
            if op in "()":
                raise PolynomialSyntaxError("parentheses are not supported", m.start("op"))
            out.append(("op", op, m.start("op")))
        pos = m.end()
    return out


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
    if r < 1:
        raise PolynomialError("need at least one projective-line factor")
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty polynomial", 0)

    terms: list[tuple] = []  # (coeff, exponent tuple, raw text, position)
    idx = 0

    def take_term(sign: Fraction):
        nonlocal idx
        coeff = sign
        expo = [[0, 0] for _ in range(r)]
        start_pos = tokens[idx][2]
        expect_factor = True
        while True:
            if idx >= len(tokens):
                if expect_factor:
                    raise PolynomialSyntaxError("dangling operator",
                                                tokens[-1][2])
                break
            kind, val, pos = tokens[idx]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if expect_factor:
                if kind == "num":
                    coeff *= _number(val, pos)
                    idx += 1
                elif kind == "var":
                    letter, num = val[0], int(_number(val[1:], pos))
                    if not (1 <= num <= r):
                        raise PolynomialSyntaxError(
                            f"variable {val} outside 1..{r}", pos)
                    power = 1
                    idx += 1
                    if idx < len(tokens) and tokens[idx][:2] == ("op", "^"):
                        nxt = tokens[idx + 1] if idx + 1 < len(tokens) else None
                        power = 0
                        if nxt and nxt[0] == "num" and "/" not in nxt[1]:
                            power = int(_number(nxt[1], nxt[2]))
                        if not power:
                            raise PolynomialSyntaxError(
                                "exponent must be a positive integer",
                                tokens[idx][2])
                        idx += 2
                    expo[num - 1][0 if letter == "x" else 1] += power
                else:
                    raise PolynomialSyntaxError(f"expected a factor, got {val!r}", pos)
                expect_factor = False
            else:
                if kind == "op" and val == "*":
                    idx += 1
                    expect_factor = True
                elif kind == "op" and val == "^":
                    raise PolynomialSyntaxError("'^' only follows a variable", pos)
                else:
                    raise PolynomialSyntaxError(
                        f"expected an operator, got {val!r}", pos)
        end = tokens[idx - 1][2] if idx > 0 else start_pos
        raw = text[start_pos:end + len(str(tokens[idx - 1][1]))].strip()
        terms.append((coeff, tuple((a, b) for a, b in expo), raw, start_pos))

    sign = Fraction(1)
    kind, val, pos = tokens[0]
    if kind == "op" and val in "+-":
        sign = Fraction(-1) if val == "-" else Fraction(1)
        idx = 1
        if idx >= len(tokens):
            raise PolynomialSyntaxError("dangling sign", pos)
    take_term(sign)
    while idx < len(tokens):
        kind, val, pos = tokens[idx]
        if kind != "op" or val not in "+-":
            raise PolynomialSyntaxError(f"expected + or -, got {val!r}", pos)
        idx += 1
        if idx >= len(tokens):
            raise PolynomialSyntaxError("dangling operator", pos)
        take_term(Fraction(-1) if val == "-" else Fraction(1))

    # Multihomogeneity is judged on the parsed monomials, before any
    # cancellation, so "x1 - x1 + y1" is still rejected.
    degs = None
    for coeff, expo, raw, pos in terms:
        if not coeff:
            continue
        d = tuple(a + b for a, b in expo)
        if degs is None:
            degs = d
        elif d != degs:
            raise InhomogeneousTermError(raw, f"degrees {d} vs {degs}")
    acc: dict = {}
    for coeff, expo, _, _ in terms:
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


def _check_point(pt) -> tuple[Fraction, Fraction]:
    s, t = (ratio(c) for c in pt)
    if not s and not t:
        raise PolynomialError("(0:0) is not a projective point")
    return s, t


def contains_double_fiber(f: MultiHomogPoly, i: int, pt_i, j: int, pt_j) -> bool:
    """True when f vanishes identically on the fiber over the given points of
    factors i and j (1-based), i.e. substituting both points leaves the zero
    polynomial in the remaining variables."""
    if i == j:
        raise PolynomialError("double fiber needs two distinct factors")
    for v in (i, j):
        if not (1 <= v <= f.r):
            raise DimensionMismatchError(f"factor {v} outside 1..{f.r}")
    si, ti = _check_point(pt_i)
    sj, tj = _check_point(pt_j)
    residue: dict = {}
    for expo, coeff in f.terms.items():
        ai, bi = expo[i - 1]
        aj, bj = expo[j - 1]
        c = coeff * si ** ai * ti ** bi * sj ** aj * tj ** bj
        if not c:
            continue
        reduced = tuple((0, 0) if t in (i - 1, j - 1) else pair
                        for t, pair in enumerate(expo))
        residue[reduced] = residue.get(reduced, _ZERO) + c
    return not any(residue.values())

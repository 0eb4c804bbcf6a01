"""Exact checks of one instance's outcome.

Every instance must exit 0 with no traceback on stderr, and its stdout must
match the expectations the generator attached to it. Equality is exact: the
program's answers are canonical reduced-row-echelon bases of rational
strings, so a correct answer has exactly one spelling.

:func:`check` reads only the outcome. :func:`recompute` re-derives the
answers that are not a fixed string, with code of its own, and is called once
per distinct stdout after the timed passes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# The generator check computes ranks modulo this prime.
_P = (1 << 61) - 1


def _identity(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _unit_rows(n: int, support: list[int]) -> list[list[str]]:
    return [["1" if j == i else "0" for j in range(n)] for i in support]


def check_exit(returncode: int, stderr: bytes) -> list[str]:
    """Problems with how a child ended: a non-zero exit code or a traceback."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def check(expect: dict, returncode: int, stdout: bytes, stderr: bytes,
          stdout_sha256: str | None = None) -> list[str]:
    """Return the problems found; an empty list means the instance passed.

    ``stdout_sha256``, when given, is the recorded digest the stdout must
    match byte for byte.
    """
    problems = check_exit(returncode, stderr)
    if stdout_sha256 is not None and hashlib.sha256(stdout).hexdigest() != stdout_sha256:
        problems.append("stdout digest differs from the recorded one")
    try:
        out = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if not isinstance(out, dict):
        return problems + ["stdout is not a JSON object"]

    def want(key, value):
        if out.get(key) != value:
            problems.append(f"{key}: expected {value!r}, got {out.get(key)!r}")

    kind = expect["kind"]
    if kind == "full":
        n = expect["e_dim"]
        want("e_dim", n)
        want("is_full", True)
        want("is_corner", True)
        want("factor_dim", n)
        want("verdict", "OBSTRUCTED")
        want("basis", _identity(n))
    elif kind == "corner":
        want("e_dim", expect["e_dim"])
        want("is_corner", True)
        want("is_full", False)
        want("factor_dim", expect["factor_dim"])
        want("idempotent", expect["idempotent"])
        want("verdict", "OBSTRUCTED")
        want("basis", _unit_rows(len(expect["idempotent"]), expect["support"]))
    elif kind == "oracle":
        want("e_dim", expect["e_dim"])
        want("basis", expect["basis"])
        want("is_corner", False)
        want("verdict", "INCONCLUSIVE")
    elif kind == "verify":
        want("status", "PASS")
        for section in ("generation", "construction"):
            if not (out.get(section) or {}).get("ok"):
                problems.append(f"{section}.ok is not true")
    elif kind == "generator":
        want("found", True)
        want("g", expect["g"])
    else:
        raise ValueError(f"unknown expectation kind {kind!r}")
    return problems


def recompute(expect: dict, stdout: bytes) -> list[str]:
    """Problems found by re-deriving the answer independently of the
    program's fixed points; empty when the answer holds.

    For ``find-generator`` the returned x must generate the algebra with its
    adjoint: the words in {x, x†} must span all of M_g(B_p). The words are
    enumerated level by level with the algebra's own product, and their rank
    is taken modulo a large prime by the elimination below. Rank can only
    fall under reduction, so full rank modulo the prime proves full rank over
    Q.
    """
    if expect["kind"] != "generator":
        return []
    out = json.loads(stdout)
    if "element" not in out:
        return ["no element in the output"]
    from obstructor.algebra import matrix_algebra, quaternion_for_prime
    from obstructor.serialize import coeffs_from_json

    alg = matrix_algebra(quaternion_for_prime(out["p"]), out["g"])
    x = alg.element(coeffs_from_json(out["element"]))
    n = alg.dim
    try:
        gens = [_reduce(x.coeffs), _reduce(x.dagger().coeffs)]
    except ValueError:
        return [f"element has a denominator divisible by {_P}"]
    basis = [alg.basis_vector(t) for t in range(n)]
    table = [[[(k, _reduce_one(c)) for k, c in enumerate(alg.mul_coeffs(bi, bj)) if c]
              for bj in basis] for bi in basis]

    def mul(a, b):
        acc = [0] * n
        for i, ai in enumerate(a):
            if ai:
                row = table[i]
                for j, bj in enumerate(b):
                    if bj:
                        f = ai * bj
                        for k, c in row[j]:
                            acc[k] += f * c
        return [c % _P for c in acc]

    total, level = _RankModP(n), _RankModP(n)
    for v in gens:
        total.add(v)
        level.add(v)
    while total.rank < n:
        prev, level, grew = level.rows(), _RankModP(n), False
        for g in gens:
            for w in prev:
                v = mul(g, w)
                level.add(v)
                grew |= total.add(v)
        if not grew:
            return [f"{{x, x†}} spans {total.rank} of {n} dimensions modulo {_P}"]
    return []


def _reduce_one(c: Fraction) -> int:
    return c.numerator * pow(c.denominator, -1, _P) % _P


def _reduce(v) -> list[int]:
    return [_reduce_one(c) for c in v]


class _RankModP:
    """Row echelon form over GF(_P), enough to count rank."""

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[list[int]]:
        return list(self._rows.values())

    def add(self, v: list[int]) -> bool:
        """Insert v; True when it was independent of the rows so far."""
        v = list(v)
        for piv in sorted(self._rows):
            c = v[piv]
            if c:
                row = self._rows[piv]
                for k in range(piv, self.n):
                    if row[k]:
                        v[k] = (v[k] - c * row[k]) % _P
        for piv in range(self.n):
            if v[piv]:
                inv = pow(v[piv], -1, _P)
                self._rows[piv] = [c * inv % _P for c in v]
                return True
        return False

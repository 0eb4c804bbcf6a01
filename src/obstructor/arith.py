"""Integer arithmetic helpers: primality, factoring, residue symbols.

Miller-Rabin to the prime bases 2..41 is exact for every input below
:data:`MR_EXACT_BELOW`, about 3.3 * 10^24 (Sorenson & Webster 2015), far
beyond anything this package handles; Pollard rho covers composite
splitting for the occasional large user-supplied rational, within a fixed
step budget.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FactoringError

# Pollard rho steps one factorint call may spend. Prime factors up to about
# 10^7 split well inside it (about 1.25 * sqrt(p) steps each), and a 49-digit
# semiprime gives up in a twentieth of a second instead of running for hours.
RHO_STEPS = 1 << 14

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all of _MR_BASES (Sorenson & Webster
# 2015): below it is_prime is exact. 318665857834031151167461, the least
# one to the bases 2..37, is below it.
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases ``_MR_BASES``, exact for ``n`` below
    :data:`MR_EXACT_BELOW`. Above it a False is still a proof, but a pass is
    not: that raises :class:`FactoringError` instead of returning True."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BELOW:
        raise FactoringError(f"cannot prove a {len(str(n))}-digit integer prime: "
                             f"Miller-Rabin is exact only below {MR_EXACT_BELOW}")
    return True


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the odd composite ``n`` and the steps of
    ``budget`` left after finding it."""
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            if not budget:
                raise FactoringError(f"no factor of a {len(str(n))}-digit integer "
                                     f"within {RHO_STEPS} Pollard rho steps")
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d, budget
    # Astronomically unlikely: every c in 1..49 cycled without a proper divisor.
    raise FactoringError(f"failed to split a {len(str(n))}-digit integer")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of ``|n|`` as ``{prime: exponent}``; 0 and units -> {}.

    Raises :class:`FactoringError` when the splits need more than
    ``RHO_STEPS`` Pollard rho steps in all, or when :func:`is_prime` cannot
    prove a cofactor prime.
    """
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget = RHO_STEPS
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, budget = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def valuation(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if not q:
        raise ZeroDivisionError("valuation of zero is undefined")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_part_mod(q: Fraction, p: int, modulus: int) -> int:
    """The p-unit part of ``q`` reduced mod ``modulus`` (a power of p times nothing else).

    Requires ``modulus`` coprime to the reduced numerator and denominator,
    which holds after dividing out p^v.
    """
    v = valuation(q, p)
    u = q / Fraction(p) ** v
    num = u.numerator % modulus
    den = u.denominator % modulus
    return num * pow(den, -1, modulus) % modulus


def legendre(q: Fraction, p: int) -> int:
    """Legendre symbol of a p-adic unit rational modulo an odd prime."""
    a = unit_part_mod(q, p, p) if valuation(q, p) == 0 else None
    if a is None:
        raise ValueError(f"{q} is not a unit at {p}")
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1

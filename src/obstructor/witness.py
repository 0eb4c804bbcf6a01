"""Dagger-dual generator witnesses and the named graph constructions.

The split model M_2g(Q) carries an explicit witness: the superdiagonal shift
x. Together with its involution image it generates the whole algebra, and a
short chain of exact matrix identities drives the generation argument. Two
entries of the documented chain disagree with exact computation by one sign;
``verify_identity_chain`` reports both values instead of picking one, and
verifies generation independently through the closure engine.

Over M_g(D) there is no canonical rational witness, but the good set is
Zariski open, so seeded random integer matrices find one almost immediately;
``random_rosati_generator`` does exactly that and the graph builders consume
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    AlgElement,
    DMatrix,
    StructureAlgebra,
    element_to_dmatrix,
    matrix_algebra,
    matrix_unit,
    quaternion_for_prime,
    split_model,
)
from .closure import SubrngResult, generates_fully, subrng_closure
from .errors import AlgebraValidationError
from .obstruction import ObstructionGraph

__all__ = [
    "ChainIdentity", "ChainReport", "DOCUMENTED_DISCREPANCIES", "GeneratorSearch",
    "shift_witness", "verify_identity_chain", "random_rosati_generator",
    "build_r3_graph", "build_r4_graph",
]


def shift_witness(g: int) -> AlgElement:
    """The superdiagonal shift x = sum of e_(t,t+1) in the split model M_2g(Q).

    Rejected for g < 2: in the quaternion case an element and its involution
    image always commute, so no witness exists there.
    """
    if g < 2:
        raise AlgebraValidationError("the witness needs g >= 2")
    model = split_model(g)
    x = model.zero()
    for t in range(1, 2 * g):
        x = x + matrix_unit(model, t, t + 1)
    return x


def _unit_sum(model: StructureAlgebra, positions, sign=1) -> AlgElement:
    out = model.zero()
    for r, c in positions:
        out = out + matrix_unit(model, r, c) * sign
    return out


@dataclass(frozen=True)
class ChainIdentity:
    name: str
    holds: bool
    computed: str
    stated: str
    note: str = ""


@dataclass(frozen=True)
class ChainReport:
    g: int
    identities: tuple[ChainIdentity, ...]
    generation: SubrngResult  # closure of {x, dagger(x)} in the split model

    @property
    def generation_dim(self) -> int:
        return self.generation.span.dim

    @property
    def generation_ok(self) -> bool:
        return self.generation.span.is_full()

    @property
    def discrepancies(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.identities if not i.holds)


# Identities whose documented right-hand side is known to disagree with exact
# computation by one sign (bab, and the rotation identity that depends on it);
# reported, never hidden, fatal only under ``verify --strict``.
DOCUMENTED_DISCREPANCIES = frozenset({"bab", "x_minus_bab_is_rotation"})


def verify_identity_chain(g: int) -> ChainReport:
    """Exact checks of the documented identity chain for the split-model
    witness, plus an independent generation check.

    Each identity is compared against its documented right-hand side; on
    mismatch the computed value is reported alongside. The entries of
    :data:`DOCUMENTED_DISCREPANCIES` are expected to fail the literal
    comparison; the final generation claim never depends on them.
    """
    if g < 2:
        raise AlgebraValidationError("the chain needs g >= 2")
    model = split_model(g)
    n = 2 * g
    x = shift_witness(g)
    xd = x.dagger()
    a = x ** (n - 1)
    b = xd ** (n - 3) if n - 3 >= 1 else None

    identities = []

    stated = matrix_unit(model, 1, n)
    identities.append(ChainIdentity(
        name="x_pow_2g_minus_1", holds=(a == stated),
        computed=repr(a), stated=repr(stated)))

    nilp = x ** n
    identities.append(ChainIdentity(
        name="x_pow_2g_is_zero", holds=nilp.is_zero(),
        computed=repr(nilp), stated="0"))

    x_low = x ** (n - 3)
    stated = _unit_sum(model, [(1, n - 2), (2, n - 1), (3, n)])
    identities.append(ChainIdentity(
        name="x_pow_2g_minus_3", holds=(x_low == stated),
        computed=repr(x_low), stated=repr(stated)))

    stated = _unit_sum(model, [(n - 3, 2), (n, 1), (n - 1, 4)], sign=-1)
    identities.append(ChainIdentity(
        name="dagger_pow_2g_minus_3", holds=(b == stated),
        computed=repr(b), stated=repr(stated)))

    ab = a * b
    stated = -matrix_unit(model, 1, 1)
    identities.append(ChainIdentity(
        name="ab", holds=(ab == stated), computed=repr(ab), stated=repr(stated)))

    bab = b * ab
    stated = -matrix_unit(model, n, 1)
    identities.append(ChainIdentity(
        name="bab", holds=(bab == stated), computed=repr(bab), stated=repr(stated),
        note="documented value; exact computation gives the opposite sign"))

    rho = _unit_sum(model, [(t - 1, t) for t in range(2, n + 1)]) \
        + matrix_unit(model, n, 1)
    diff = x - bab
    identities.append(ChainIdentity(
        name="x_minus_bab_is_rotation", holds=(diff == rho),
        computed=repr(diff), stated=repr(rho),
        note="depends on the sign of bab; see the bab entry"))

    alt = x + bab
    identities.append(ChainIdentity(
        name="x_plus_bab_is_rotation", holds=(alt == rho),
        computed=repr(alt), stated=repr(rho),
        note="rotation identity with the computed sign of bab"))

    return ChainReport(g=g, identities=tuple(identities),
                       generation=subrng_closure(model, [x, xd]))


@dataclass(frozen=True)
class GeneratorSearch:
    element: Optional[AlgElement]
    tries: int
    seed: int

    @property
    def found(self) -> bool:
        return self.element is not None


def _random_element(alg: StructureAlgebra, rng: random.Random,
                    coeff_bound: int) -> AlgElement:
    return alg.element(tuple(rng.randint(-coeff_bound, coeff_bound)
                             for _ in range(alg.dim)))


def random_rosati_generator(alg: StructureAlgebra, seed: int = 0,
                            max_tries: int = 200,
                            coeff_bound: int = 10) -> GeneratorSearch:
    """Seeded search for x such that {x, dagger(x)} generates ``alg``.

    Samples integer coefficient vectors uniformly in [-coeff_bound,
    coeff_bound]; the returned witness is the first success in try order,
    which makes the result a pure function of the seed.
    """
    if alg.inv_terms is None:
        raise AlgebraValidationError("generator search needs an involution")
    rng = random.Random(seed)
    for attempt in range(1, max_tries + 1):
        x = _random_element(alg, rng, coeff_bound)
        if generates_fully(alg, [x, x.dagger()]):
            return GeneratorSearch(element=x, tries=attempt, seed=seed)
    return GeneratorSearch(element=None, tries=max_tries, seed=seed)


def random_two_generators(alg: StructureAlgebra, seed: int = 0,
                          max_tries: int = 200,
                          coeff_bound: int = 10) -> tuple:
    """Seeded search for a pair (x, y) with {1, x, y} generating ``alg``."""
    if alg.unit is None:
        raise AlgebraValidationError("two-generator search needs a unit")
    rng = random.Random(seed)
    one = alg.one()
    for attempt in range(1, max_tries + 1):
        x = _random_element(alg, rng, coeff_bound)
        y = _random_element(alg, rng, coeff_bound)
        if generates_fully(alg, [one, x, y]):
            return GeneratorSearch(element=x, tries=attempt, seed=seed), y
    return GeneratorSearch(element=None, tries=max_tries, seed=seed), None


def build_r3_graph(g: int, p: int, seed: int = 0) -> ObstructionGraph:
    """Three equal vertices of size g over the prime-p quaternion base: the
    (1,2) component is a dagger-dual generator, the two components into
    vertex 3 are identities. The loop span at vertex 1 is then everything.
    """
    if g < 2:
        raise AlgebraValidationError("this construction needs g >= 2")
    base = quaternion_for_prime(p)
    end_alg = matrix_algebra(base, g)
    search = random_rosati_generator(end_alg, seed=seed)
    if not search.found:
        raise AlgebraValidationError(
            f"no generator found in {search.tries} tries (seed {search.seed})")
    x = element_to_dmatrix(search.element)
    ident = DMatrix.identity(base, g)
    edges = {(1, 2): x, (1, 3): ident, (2, 3): ident}
    return ObstructionGraph(base, (g, g, g), edges)


def build_r4_graph(g: int, p: int, seed: int = 0) -> ObstructionGraph:
    """Four equal vertices: components (2,4) and (3,4) carry a two-generator
    pair, all other components are identities. The three short loops at
    vertex 1 produce 1, x, and y, which generate with the unit included.
    g = 1 is allowed: the quaternion algebra itself is two-generated.
    """
    if g < 1:
        raise AlgebraValidationError("vertex size must be positive")
    base = quaternion_for_prime(p)
    end_alg = matrix_algebra(base, g)
    search, y = random_two_generators(end_alg, seed=seed)
    if not search.found:
        raise AlgebraValidationError(
            f"no generating pair found in {search.tries} tries (seed {search.seed})")
    x_dm = element_to_dmatrix(search.element)
    y_dm = element_to_dmatrix(y)
    ident = DMatrix.identity(base, g)
    edges = {
        (1, 2): ident, (1, 3): ident, (1, 4): ident, (2, 3): ident,
        (2, 4): x_dm, (3, 4): y_dm,
    }
    return ObstructionGraph(base, (g, g, g, g), edges)

"""Dagger-dual generator witnesses and the named graph constructions.

The split model M_2g(Q) carries an explicit witness: the superdiagonal shift
x. Together with its involution image it generates the whole algebra, and a
short chain of exact matrix identities drives the generation argument. Two
entries of the documented chain disagree with exact computation by one sign;
``verify_identity_chain`` reports both values instead of picking one, and
verifies generation independently through the closure engine.

Over M_g(D) there is no canonical rational witness, but the good set is
Zariski open, so seeded random integer matrices find one almost immediately.
``random_elements`` is the one seeded stream of such matrices; both searches,
``random_rosati_generator`` and ``random_two_generators``, run one loop over
it, and the graph builders consume what they find.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Optional

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


def shift_witness(g: int) -> AlgElement:
    """The superdiagonal shift x = sum of e_(t,t+1) in the split model M_2g(Q).

    Rejected for g < 2: in the quaternion case an element and its involution
    image always commute, so no witness exists there.
    """
    if g < 2:
        raise AlgebraValidationError("the witness needs g >= 2")
    return _unit_sum(split_model(g), [(t, t + 1) for t in range(1, 2 * g)])


def _unit_sum(model: StructureAlgebra, positions, sign=1) -> AlgElement:
    out = model.zero()
    for r, c in positions:
        out = out + matrix_unit(model, r, c) * sign
    return out


class ChainIdentity(NamedTuple):
    name: str
    holds: bool
    computed: str
    stated: str
    note: str = ""


class ChainReport(NamedTuple):
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
    b = xd ** (n - 3)
    ab = a * b
    bab = b * ab
    rho = _unit_sum(model, [(t - 1, t) for t in range(2, n + 1)] + [(n, 1)])
    rows = (
        ("x_pow_2g_minus_1", a, matrix_unit(model, 1, n), ""),
        ("x_pow_2g_is_zero", x ** n, model.zero(), ""),
        ("x_pow_2g_minus_3", x ** (n - 3),
         _unit_sum(model, [(1, n - 2), (2, n - 1), (3, n)]), ""),
        ("dagger_pow_2g_minus_3", b,
         _unit_sum(model, [(n - 3, 2), (n, 1), (n - 1, 4)], sign=-1), ""),
        ("ab", ab, -matrix_unit(model, 1, 1), ""),
        ("bab", bab, -matrix_unit(model, n, 1),
         "documented value; exact computation gives the opposite sign"),
        ("x_minus_bab_is_rotation", x - bab, rho,
         "depends on the sign of bab; see the bab entry"),
        ("x_plus_bab_is_rotation", x + bab, rho,
         "rotation identity with the computed sign of bab"),
    )
    identities = tuple(
        ChainIdentity(name=name, holds=computed == stated, computed=repr(computed),
                      stated=repr(stated), note=note)
        for name, computed, stated, note in rows)
    return ChainReport(g=g, identities=identities,
                       generation=subrng_closure(model, [x, xd]))


# The most tries the CLI lets a seeded loop make (`find-generator --tries`,
# `verify --trials`). At g = 1 every try fails, and MAX_TRIES of them take
# about 3 s and 5 s on one core of a 2-vCPU x86-64 machine.
MAX_TRIES = 10_000


class GeneratorSearch(NamedTuple):
    element: Optional[AlgElement]
    tries: int
    seed: int

    @property
    def found(self) -> bool:
        return self.element is not None


def random_elements(alg: StructureAlgebra, seed: int,
                    coeff_bound: int) -> Iterator[AlgElement]:
    """The seeded stream behind every random witness: elements of ``alg``
    whose integer coefficients are drawn one by one, uniformly in
    [-coeff_bound, coeff_bound], from ``random.Random(seed)``."""
    rng = random.Random(seed)
    while True:
        yield alg.element(tuple(rng.randint(-coeff_bound, coeff_bound)
                                for _ in range(alg.dim)))


def _search(alg: StructureAlgebra, seed: int, max_tries: int, coeff_bound: int,
            draws: int, gens) -> tuple:
    """Draw ``draws`` elements of :func:`random_elements` per try until
    ``gens(*xs)`` generates ``alg``; return them with the try that found
    them, or ``draws`` Nones with ``max_tries``."""
    stream = random_elements(alg, seed, coeff_bound)
    for attempt in range(1, max_tries + 1):
        xs = [next(stream) for _ in range(draws)]
        if generates_fully(alg, gens(*xs)):
            return xs, attempt
    return [None] * draws, max_tries


def random_rosati_generator(alg: StructureAlgebra, seed: int = 0,
                            max_tries: int = 200,
                            coeff_bound: int = 10) -> GeneratorSearch:
    """Seeded search for x such that {x, dagger(x)} generates ``alg``.

    Tries the elements of :func:`random_elements` in order; the returned
    witness is the first success, which makes the result a pure function of
    the seed.
    """
    if alg.inv_terms is None:
        raise AlgebraValidationError("generator search needs an involution")
    (x,), tries = _search(alg, seed, max_tries, coeff_bound, 1,
                          lambda x: [x, x.dagger()])
    return GeneratorSearch(element=x, tries=tries, seed=seed)


def random_two_generators(alg: StructureAlgebra, seed: int = 0,
                          max_tries: int = 200,
                          coeff_bound: int = 10) -> tuple:
    """Seeded search for a pair (x, y) with {1, x, y} generating ``alg``;
    each try draws x, then y, from :func:`random_elements`."""
    if alg.unit is None:
        raise AlgebraValidationError("two-generator search needs a unit")
    one = alg.one()
    (x, y), tries = _search(alg, seed, max_tries, coeff_bound, 2,
                            lambda x, y: [one, x, y])
    return GeneratorSearch(element=x, tries=tries, seed=seed), y


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

"""Transformation laws: graph maps whose effect on loop spans is known.

``pullback_transform`` moves edges along per-vertex covers and
``transport_span`` moves a loop span the same way; ``specialize_transform``
applies a ``SpecializationMap``; ``scale_edges`` gives a tensor power and
``relabel_vertices`` a permutation; ``dagger_span`` is a span's
dagger-transpose. No CLI command uses them, so ``obstructor.cli`` does not
load this module.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .algebra import (
    AlgElement,
    DMatrix,
    StructureAlgebra,
    invert_element,
    linear_image,
    sparse,
    unit_multiple,
)
from .errors import CoverValidationError, GraphValidationError, MapValidationError
from .linalg import Subspace, echelonize, ratio
from .obstruction import ObstructionGraph


# -- transformation laws --------------------------------------------------------


def _map_edges(graph: ObstructionGraph, sizes: Sequence[int],
               edge: Callable[[int, int, DMatrix], DMatrix]) -> ObstructionGraph:
    """The graph over the same base with vertex ``sizes`` whose (i, j) edge
    is ``edge(i, j, m)`` for each edge m of ``graph``."""
    return ObstructionGraph(graph.base, sizes, {
        (i, j): edge(i, j, m) for (i, j), m in graph.edges.items()})


class Cover(NamedTuple):
    """Cover datum at one vertex: iota (g' x g), pi (g x g'), degree >= 1 with
    pi @ iota = degree * identity and pi proportional to dagger(iota)."""

    iota: DMatrix
    pi: DMatrix
    degree: int


def _validate_cover(cov: Cover, g: int, base: StructureAlgebra):
    if cov.iota.base is not base or cov.pi.base is not base:
        raise CoverValidationError("cover matrices over a different base")
    if cov.iota.cols != g or cov.pi.rows != g:
        raise CoverValidationError(
            f"cover shapes ({cov.iota.rows},{cov.iota.cols}) / "
            f"({cov.pi.rows},{cov.pi.cols}) do not frame size {g}")
    if cov.pi.cols != cov.iota.rows:
        raise CoverValidationError("pi and iota have incompatible shapes")
    if (not isinstance(cov.degree, int) or isinstance(cov.degree, bool)
            or cov.degree < 1):
        raise CoverValidationError("cover degree must be an int >= 1")
    prod = cov.pi @ cov.iota
    want = DMatrix.scalar(base, g, cov.degree)
    if prod.coeffs != want.coeffs:
        raise CoverValidationError("pi . iota is not degree * identity")
    # The transformation law needs pi ~ dagger(iota) (adjoint up to a nonzero
    # rational); both the identity and pure-scaling covers satisfy this. iota
    # is nonzero here, since pi . iota = degree * identity.
    if not unit_multiple(cov.pi.coeffs, cov.iota.dagger_transpose().coeffs):
        raise CoverValidationError(
            "pi must be a nonzero rational multiple of dagger_transpose(iota)")


def pullback_transform(graph: ObstructionGraph,
                       covers: Sequence[Cover]) -> ObstructionGraph:
    """Edge-wise transport along covers: the (i, j) component becomes
    iota_j @ edge @ pi_i, with new vertex sizes taken from the iotas.

    Guaranteed law: the loop span at i of the new graph equals
    span{ iota_i . e . pi_i } over a basis e of the old loop span.
    """
    covers = list(covers)
    if len(covers) != graph.r:
        raise CoverValidationError(
            f"need one cover per vertex ({graph.r}), got {len(covers)}")
    for v, cov in enumerate(covers, start=1):
        _validate_cover(cov, graph.size(v), graph.base)
    return _map_edges(graph, [cov.iota.rows for cov in covers],
                      lambda i, j, m: covers[j - 1].iota @ m @ covers[i - 1].pi)


def _span_image(f, span: Subspace, base: StructureAlgebra, rows: int, cols: int,
                ambient: int) -> Subspace:
    """span{ f(e) } for e over the basis of ``span``, each read as a
    (rows, cols) matrix over ``base``; the images live in dimension ``ambient``."""
    return echelonize([f(DMatrix.from_flat(base, rows, cols, v)).coeffs
                       for v in span.basis], ambient_dim=ambient)


def transport_span(cov: Cover, span: Subspace, g: int) -> Subspace:
    """span{ iota . e . pi } for e running over the basis of ``span``."""
    base = cov.iota.base
    return _span_image(lambda m: cov.iota @ m @ cov.pi, span, base, g, g,
                       base.dim * cov.iota.rows * cov.iota.rows)


# -- specialization -------------------------------------------------------------


class SpecializationMap:
    """Injective multiplicative map applied componentwise to a graph.

    Two flavors: a base-algebra map applied entrywise to every matrix (must
    be unital, multiplicative, involution-compatible, injective -- validated
    exhaustively on basis pairs at construction), or per-vertex conjugation
    m -> U_a m U_b^(-1) by similitudes, U^dagger U = s * identity with one
    shared nonzero rational s (which makes the map commute with the
    dagger-transpose). Then U^(-1) = U^dagger / s, over any unital base with
    involution, and the map moves edges as a pullback along the degree-1
    covers (U_v, U_v^dagger / s) does. ``apply_hom(a, b, m)`` is the image of
    a component from factor b to factor a; a base map has no ``units``.
    """

    def __init__(self, base: StructureAlgebra,
                 apply_hom: Callable[[int, int, DMatrix], DMatrix],
                 units: Optional[list], inverses: Optional[list]):
        self.base = base
        self.apply_hom = apply_hom
        self.units = units
        self.inverses = inverses

    # -- constructors --

    @classmethod
    def base_linear(cls, base: StructureAlgebra, rows) -> "SpecializationMap":
        """Entrywise map of the base given by images of the basis elements."""
        rows = tuple(tuple(ratio(c) for c in r) for r in rows)
        d = base.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise MapValidationError("map matrix must be dim x dim")
        rank = echelonize(rows, ambient_dim=d).dim
        if rank != d:
            raise MapValidationError("map is not injective")
        terms = tuple(map(sparse, rows))
        if base.unit is not None and linear_image(terms, base.unit) != base.unit:
            raise MapValidationError("map does not fix the unit")
        for i in range(d):
            for j in range(d):
                lhs = linear_image(terms, base.mul_coeffs(base.basis_vector(i),
                                                          base.basis_vector(j)))
                rhs = base.mul_coeffs(rows[i], rows[j])
                if lhs != rhs:
                    raise MapValidationError(
                        f"map is not multiplicative on basis pair ({i},{j})")
        if base.inv_terms is not None:
            for j in range(d):
                lhs = linear_image(terms, base.involution_coeffs(base.basis_vector(j)))
                rhs = base.involution_coeffs(rows[j])
                if lhs != rhs:
                    raise MapValidationError(
                        f"map does not commute with the involution on basis {j}")
        return cls(base, lambda a, b, m: DMatrix(base, m.rows, m.cols, tuple(
            x for at in range(0, len(m.coeffs), d)
            for x in linear_image(terms, m.coeffs[at:at + d]))), None, None)

    @classmethod
    def base_conjugation(cls, u: AlgElement) -> "SpecializationMap":
        """d -> u d u^(-1) for an invertible base element."""
        base = u.algebra
        u_inv = invert_element(u)
        if u_inv is None:
            raise MapValidationError("conjugating element is not invertible")
        rows = []
        for t in range(base.dim):
            img = u * base.basis_element(t) * u_inv
            rows.append(img.coeffs)
        return cls.base_linear(base, rows)

    @classmethod
    def vertex_conjugation(cls, base: StructureAlgebra,
                           units: Sequence[DMatrix]) -> "SpecializationMap":
        """m -> U_a m U_b^(-1); every U must satisfy U^dagger U = s * identity
        with one shared nonzero rational s, and U^(-1) = U^dagger / s (a left
        inverse of a square matrix over a finite-dimensional base is
        two-sided). The base may be any unital algebra with involution."""
        units = list(units)
        shared = None
        inverses = []
        for u in units:
            if u.base is not base:
                raise MapValidationError("conjugating matrix over a different base")
            if u.rows != u.cols:
                raise MapValidationError("conjugating matrices must be square")
            u_dag = u.dagger_transpose()
            gram = u_dag @ u
            # s is read off the (0, 0) entry, the first base.dim coefficients.
            s = unit_multiple(gram.coeffs[:base.dim], base.one().coeffs)
            if not s or gram != DMatrix.scalar(base, u.rows, s):
                raise MapValidationError("U^dagger U is not a nonzero rational scalar")
            if shared is None:
                shared = s
            elif s != shared:
                raise MapValidationError(
                    "conjugating matrices have different similitude scalars")
            inverses.append(u_dag * (1 / s))
        return cls(base, lambda a, b, m: units[a - 1] @ m @ inverses[b - 1],
                   units, inverses)

    # -- application --

    def apply_subspace(self, a: int, b: int, span: Subspace,
                       rows_: int, cols_: int) -> Subspace:
        return _span_image(lambda m: self.apply_hom(a, b, m), span, self.base,
                           rows_, cols_, span.ambient_dim)


def specialize_transform(graph: ObstructionGraph,
                         h: SpecializationMap) -> ObstructionGraph:
    """Edge-wise image graph under a validated specialization map.

    Law (testable downstream): the image of the loop span at i equals the
    loop span at i of the image graph.
    """
    if h.base is not graph.base:
        raise MapValidationError("map base does not match the graph base")
    if h.units is not None:
        if len(h.units) != graph.r:
            raise MapValidationError(
                f"need one conjugating matrix per vertex ({graph.r})")
        for v, u in enumerate(h.units, start=1):
            if u.rows != graph.size(v):
                raise MapValidationError(
                    f"conjugating matrix at vertex {v} has size {u.rows}, "
                    f"expected {graph.size(v)}")
    return _map_edges(graph, graph.sizes, lambda i, j, m: h.apply_hom(j, i, m))


# -- tensor powers, relabelling and the dagger of a span ------------------------


def scale_edges(graph: ObstructionGraph, m: int) -> ObstructionGraph:
    """The graph of the m-th tensor power: every component scaled by m."""
    return _map_edges(graph, graph.sizes, lambda i, j, e: e * m)


def relabel_vertices(graph: ObstructionGraph, perm: Sequence[int]) -> ObstructionGraph:
    """Relabeled graph: new vertex v plays the role of old vertex perm[v-1]."""
    if sorted(perm) != list(range(1, graph.r + 1)):
        raise GraphValidationError("perm must be a permutation of 1..r")
    sizes = [graph.size(perm[v - 1]) for v in range(1, graph.r + 1)]
    edges = {(i, j): graph.hom_map(perm[j - 1], perm[i - 1])
             for i in range(1, graph.r + 1) for j in range(i + 1, graph.r + 1)}
    return ObstructionGraph(graph.base, sizes, edges)


def dagger_span(span: Subspace, base: StructureAlgebra, g: int) -> Subspace:
    """span{ dagger_transpose(e) } for e over the basis of an End-space span."""
    return _span_image(DMatrix.dagger_transpose, span, base, g, g, span.ambient_dim)

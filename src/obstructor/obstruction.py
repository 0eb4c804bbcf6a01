"""Loop-span obstruction machinery on Hom-decorated vertex graphs.

A graph has r vertices with sizes g_1..g_r over one shared involutive base
algebra; the edge for a pair i < j is a (g_j, g_i) matrix over the base,
modeling the homomorphism component from factor i to factor j. Reverse
traversal synthesizes the dagger-transpose on the fly, so the two directions
can never disagree.

``compute_obstruction`` returns the span of all loop values based at a
vertex (loops of at least two edges; the identity is never seeded). It reads
the path-span table: cell (a, b) holds the span of all path values from b to
a. The table is the least fixed point computed by the one engine,
:func:`closure.fixed_point`, over the graph's vertices: off-diagonal cells
are seeded with the edges, and triple (a, c, b) composes cell (a, c) with
cell (c, b) under ``matrix_rule`` for the sizes (g_a, g_c, g_b), which
repeats the base's integer constants. The same engine run on one vertex is
the subrng closure; both follow the engine's two rules (factor lengths
frozen per triple, and a cell takes no products once full or once certified
at its final dimension), which fix the reported ``rounds``.

``compute_obstruction`` first tries a cheaper proof: the table's column at
the vertex under :func:`closure.full_mod_p`, whose full loop cell suffices.

``loop_oracle`` is the independent cross-check: :func:`closure.spin` builds
the paths from the vertex edge by edge and reads off the loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .algebra import (
    MAX_DIM,
    AlgElement,
    DMatrix,
    StructureAlgebra,
    invert_element,
    matrix_rule,
    rule_product,
    unit_multiple,
)
from .closure import fixed_point, full_mod_p, spin
from .errors import (
    AlgebraValidationError,
    CoverValidationError,
    DimensionMismatchError,
    GraphValidationError,
    MapValidationError,
)
from .linalg import (
    Echelon,
    Subspace,
    Vec,
    echelonize,
    primitive,
    ratio,
    solve_linear,
)

_ZERO = Fraction(0)

# The largest vertex count of a graph: the path-span table has r^2 cells and
# r^3 triples (see the README for the measured cost at the cap).
MAX_VERTICES = 64


class ObstructionGraph:
    """r vertices with sizes over a shared base; edges stored only for i < j.

    Vertices are 1-based in the public API. ``edges`` maps (i, j) with i < j
    to the component from factor i to factor j, a (g_j, g_i) matrix over the
    base. Zero edges are dropped; a missing edge reads back as the zero
    matrix. Sizes and edges are fixed at construction; the path-span table
    is computed once, on first use, and cached on the graph.
    """

    __slots__ = ("base", "sizes", "edges", "_table")

    def __init__(self, base: StructureAlgebra, sizes: Sequence[int],
                 edges: Mapping[tuple, DMatrix]):
        if base.unit is None or base.inv_terms is None:
            raise GraphValidationError("base algebra must be unital with involution")
        sizes = tuple(int(g) for g in sizes)
        if len(sizes) < 2:
            raise GraphValidationError("a graph needs at least two vertices")
        if len(sizes) > MAX_VERTICES:
            raise GraphValidationError(
                f"{len(sizes)} vertices exceed the cap {MAX_VERTICES}")
        if any(g < 1 for g in sizes):
            raise GraphValidationError("vertex sizes must be positive")
        ambient = base.dim * max(sizes) ** 2
        if ambient > MAX_DIM:
            raise GraphValidationError(
                f"hom spaces of dimension {ambient} exceed the cap {MAX_DIM}")
        clean = {}
        for (i, j), m in dict(edges).items():
            if not (1 <= i < j <= len(sizes)):
                raise GraphValidationError(
                    f"edge key ({i},{j}) must satisfy 1 <= i < j <= {len(sizes)}")
            if not isinstance(m, DMatrix) or m.base is not base:
                raise GraphValidationError(
                    f"edge ({i},{j}) is not a matrix over the graph base")
            if (m.rows, m.cols) != (sizes[j - 1], sizes[i - 1]):
                raise GraphValidationError(
                    f"edge ({i},{j}) has shape ({m.rows},{m.cols}), "
                    f"expected ({sizes[j - 1]},{sizes[i - 1]})")
            if not m.is_zero():
                clean[(i, j)] = m
        self.base = base
        self.sizes = sizes
        self.edges = clean
        self._table = None

    @property
    def r(self) -> int:
        return len(self.sizes)

    def size(self, v: int) -> int:
        self._check_vertex(v)
        return self.sizes[v - 1]

    def _check_vertex(self, v: int):
        if not (1 <= v <= self.r):
            raise GraphValidationError(f"vertex {v} out of range 1..{self.r}")

    def hom_map(self, a: int, b: int) -> DMatrix:
        """The component from factor b to factor a (shape (g_a, g_b)); the
        reverse of a stored edge is its dagger-transpose."""
        self._check_vertex(a)
        self._check_vertex(b)
        if a == b:
            raise GraphValidationError("hom_map needs two distinct vertices")
        if b < a:
            m = self.edges.get((b, a))
            if m is not None:
                return m
        else:
            m = self.edges.get((a, b))
            if m is not None:
                return m.dagger_transpose()
        return DMatrix.zero(self.base, self.size(a), self.size(b))

    def hom_ambient(self, a: int, b: int) -> int:
        return self.base.dim * self.size(a) * self.size(b)

    def __repr__(self):
        return (f"ObstructionGraph(r={self.r}, sizes={self.sizes}, "
                f"edges={sorted(self.edges)})")


@dataclass(frozen=True)
class PathSpanTable:
    """Least fixed point of the path-span iteration.

    ``spans[(a, b)]`` is the subspace of the (g_a, g_b) hom coefficient space
    spanned by all path values from b to a (diagonal cells: loops of two or
    more edges). ``rounds`` counts the passes that enlarged some cell.
    """

    spans: dict
    rounds: int


def _table(graph: ObstructionGraph, column: Optional[int] = None) -> tuple:
    """The path-span table's ``(cells, seeds, rule)``: cell (a, b) is seeded
    with the edge from b to a if nonzero, and triple (a, c, b) composes under
    ``matrix_rule``. With ``column=v`` only the cells (a, v), the paths from
    v, are kept, but every seed is."""
    verts = range(1, graph.r + 1)
    cells = {(a, b): graph.hom_ambient(a, b) for a in verts for b in verts
             if column in (None, b)}
    seeds = {(a, b): [graph.hom_map(a, b).flatten()] for a in verts for b in verts
             if (min(a, b), max(a, b)) in graph.edges}
    sizes = graph.sizes
    return cells, seeds, lambda a, c, b: matrix_rule(
        graph.base, sizes[a - 1], sizes[c - 1], sizes[b - 1])


def path_span_table(graph: ObstructionGraph) -> PathSpanTable:
    """Compute (and cache on the graph) the full path-span fixed point."""
    if graph._table is None:
        spans, rounds = fixed_point(*_table(graph))
        graph._table = PathSpanTable(spans=spans, rounds=rounds)
    return graph._table


def compute_obstruction(graph: ObstructionGraph, vertex: int) -> Subspace:
    """Span of all loop values based at ``vertex`` (canonical subspace of the
    endomorphism coefficient space, ambient dim base.dim * g_v^2).

    Reads the path-span table when the graph has it cached. Otherwise the
    table's column at ``vertex`` is tried first with
    :func:`closure.full_mod_p`: a full loop cell there proves the span full,
    and the identity basis is returned without building the table. A
    partial cell proves nothing, and the table decides.
    """
    graph._check_vertex(vertex)
    if graph._table is None and full_mod_p(*_table(graph, vertex),
                                           (vertex, vertex)):
        return Subspace.full(graph.hom_ambient(vertex, vertex))
    return path_span_table(graph).spans[(vertex, vertex)]


def loop_oracle(graph: ObstructionGraph, vertex: int, max_len: int) -> Subspace:
    """Span of the loop values at ``vertex`` with 2..max_len edges.

    :func:`closure.spin` of the table's column at ``vertex``, the edges
    being the letters: cell (a, vertex) spans the paths from ``vertex`` to
    a. Monotone in ``max_len``, and stops once the spans are stable.
    """
    graph._check_vertex(vertex)
    if max_len < 2:
        raise ValueError("max_len must be >= 2 (shortest loop has two edges)")
    cells, seeds, rule = _table(graph, vertex)
    ech, _ = spin(cells, seeds, seeds, rule, max_len)
    return ech[(vertex, vertex)].to_subspace()


# -- corner detection and verdicts --------------------------------------------


@dataclass(frozen=True)
class CornerReport:
    """Whether a subspace of a unital algebra is a corner p*A*p."""

    is_corner: bool
    idempotent: Optional[AlgElement]
    factor_dim: Optional[int]
    is_full: bool
    is_zero: bool


@dataclass(frozen=True)
class ObstructionVerdict:
    verdict: str  # OBSTRUCTED | NOT-OBSTRUCTED | INCONCLUSIVE
    reason: str
    power_note: str = ("every positive tensor power shares this verdict: "
                       "scaling components by a nonzero integer leaves the "
                       "generated span unchanged")


def corner_detect(e_span: Subspace, algebra: StructureAlgebra) -> CornerReport:
    """Decide whether ``e_span`` equals p * algebra * p for an idempotent p.

    Algorithm: the zero span is the corner of p = 0. Otherwise solve the
    linear system for a left unit e of the span; without one the span is not
    a corner. Such an e lies in the span, so it is idempotent. A corner's
    unit is two-sided, so e must also be a right unit. The two unit checks
    give v = e * v * e for every v in the span, so the span lies in
    e * algebra * e = span{e * b_k * e} over the algebra basis, and the
    dimension count alone decides equality.

    All products run on the integer kernel. ``a * b`` denotes the product
    under ``algebra.rule``, ``D = algebra.scale`` times the true one. The
    span basis vectors u_t are taken as their primitive integer rows p_t, so
    that u_t = l_t p_t with l_t > 0. For e = sum_s y_s p_s the left-unit
    system reads ``sum_s y_s (p_s * p_t) = D p_t``. Writing e = z / m with z
    integer, the right-unit check reads ``p_t * z = D m p_t``, and the
    corner is spanned by the integer vectors ``z * (b_k * z)``.
    """
    n = algebra.dim
    if e_span.ambient_dim != n:
        raise DimensionMismatchError(
            f"subspace ambient {e_span.ambient_dim} does not match algebra dim {n}")
    if algebra.unit is None:
        raise AlgebraValidationError("corner detection needs a unital algebra")
    if e_span.dim == 0:
        return CornerReport(is_corner=True, idempotent=algebra.zero(),
                            factor_dim=0, is_full=False, is_zero=True)
    if e_span.is_full():
        return CornerReport(is_corner=True, idempotent=algebra.one(),
                            factor_dim=n, is_full=True, is_zero=False)
    not_corner = CornerReport(is_corner=False, idempotent=None, factor_dim=None,
                              is_full=False, is_zero=False)
    rule = algebra.rule
    scale = algebra.scale
    basis = [primitive(v) for v in e_span.basis]
    d = len(basis)
    # Solve the left-unit system only. When a two-sided unit u exists, any
    # left unit e satisfies e = e*u = u, so verifying the right side on the
    # solution loses nothing and halves the system.
    rows = []
    rhs = []
    for v in basis:
        left = [rule_product(rule, u, v, n, 0) for u in basis]
        for c in range(n):
            rows.append(tuple(left[t][c] for t in range(d)))
            rhs.append(scale * v[c])
    sol = solve_linear(tuple(rows), tuple(rhs))
    if sol is None:
        return not_corner
    e = [_ZERO] * n
    for t, y in enumerate(sol):
        if y:
            for c, bc in enumerate(basis[t]):
                if bc:
                    e[c] += y * bc
    m = lcm(*(c.denominator for c in e))
    z = tuple(c.numerator * (m // c.denominator) for c in e)
    dm = scale * m
    if any(rule_product(rule, v, z, n, 0) != tuple(dm * x for x in v)
           for v in basis):
        return not_corner
    corner = Echelon(n)
    for k in range(n):
        bk = tuple(int(t == k) for t in range(n))
        corner.add(rule_product(rule, z, rule_product(rule, bk, z, n, 0), n, 0))
        if corner.dim > d:
            return not_corner
    # e = 1 would give the whole algebra, refused above since d < n.
    return CornerReport(is_corner=True, idempotent=AlgElement(algebra, tuple(e)),
                        factor_dim=d, is_full=False, is_zero=False)


def flag_nonliftable(report: CornerReport, base_is_ramified: bool) -> ObstructionVerdict:
    """Map a corner report to a lifting-obstruction verdict.

    OBSTRUCTED requires a nonzero corner over a ramified (supersingular-type)
    base. A non-corner span supports no conclusion either way.
    """
    if not report.is_corner:
        return ObstructionVerdict(
            verdict="INCONCLUSIVE",
            reason="span is not a corner, so the criterion does not apply")
    if report.is_zero:
        return ObstructionVerdict(
            verdict="NOT-OBSTRUCTED",
            reason="zero span corresponds to the zero factor")
    if not base_is_ramified:
        return ObstructionVerdict(
            verdict="NOT-OBSTRUCTED",
            reason="base algebra is not of ramified (supersingular) type")
    return ObstructionVerdict(
        verdict="OBSTRUCTED",
        reason="nonzero corner over a ramified base")


# -- pullback ------------------------------------------------------------------


@dataclass(frozen=True)
class Cover:
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
    if prod.flatten() != want.flatten():
        raise CoverValidationError("pi . iota is not degree * identity")
    # The transformation law needs pi ~ dagger(iota) (adjoint up to a nonzero
    # rational); both the identity and pure-scaling covers satisfy this. iota
    # is nonzero here, since pi . iota = degree * identity.
    if not unit_multiple(cov.pi.flatten(), cov.iota.dagger_transpose().flatten()):
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
    new_sizes = [cov.iota.rows for cov in covers]
    new_edges = {}
    for (i, j), m in graph.edges.items():
        new_edges[(i, j)] = covers[j - 1].iota @ m @ covers[i - 1].pi
    return ObstructionGraph(graph.base, new_sizes, new_edges)


def _span_image(f, span: Subspace, base: StructureAlgebra, rows: int, cols: int,
                ambient: int) -> Subspace:
    """span{ f(e) } for e over the basis of ``span``, each read as a
    (rows, cols) matrix over ``base``; the images live in dimension ``ambient``."""
    return echelonize([f(DMatrix.from_flat(base, rows, cols, v)).flatten()
                       for v in span.basis], ambient_dim=ambient)


def transport_span(cov: Cover, span: Subspace, g: int) -> Subspace:
    """span{ iota . e . pi } for e running over the basis of ``span``."""
    base = cov.iota.base
    return _span_image(lambda m: cov.iota @ m @ cov.pi, span, base, g, g,
                       base.dim * cov.iota.rows * cov.iota.rows)


# -- specialization -------------------------------------------------------------


def _linear_image(rows: tuple, v: Vec) -> Vec:
    """Image of ``v`` under the linear map whose row j is the image of b_j."""
    out = [_ZERO] * len(rows)
    for j, c in enumerate(v):
        if c:
            for k, rc in enumerate(rows[j]):
                if rc:
                    out[k] += c * rc
    return tuple(out)


class SpecializationMap:
    """Injective multiplicative map applied componentwise to a graph.

    Two flavors: a base-algebra map applied entrywise to every matrix (must
    be unital, multiplicative, involution-compatible, injective -- validated
    exhaustively on basis pairs at construction), or per-vertex conjugation
    m -> U_a m U_b^(-1) by similitudes, U^dagger U = s * identity with one
    shared nonzero rational s (which makes the map commute with the
    dagger-transpose). Then U^(-1) = U^dagger / s, over any unital base with
    involution.
    """

    def __init__(self, base: StructureAlgebra, kind: str, base_rows=None,
                 units=None, inverses=None):
        self.base = base
        self.kind = kind
        self.base_rows = base_rows
        self.units = units
        self.inverses = inverses

    # -- constructors --

    @classmethod
    def base_linear(cls, base: StructureAlgebra, rows) -> "SpecializationMap":
        """Entrywise map of the base given by images of the basis elements."""
        rows = tuple(tuple(ratio(c) for c in r) for r in rows)
        if len(rows) != base.dim or any(len(r) != base.dim for r in rows):
            raise MapValidationError("map matrix must be dim x dim")
        rank = echelonize(rows, ambient_dim=base.dim).dim
        if rank != base.dim:
            raise MapValidationError("map is not injective")
        if base.unit is not None and _linear_image(rows, base.unit) != base.unit:
            raise MapValidationError("map does not fix the unit")
        for i in range(base.dim):
            for j in range(base.dim):
                lhs = _linear_image(rows, base.mul_coeffs(base.basis_vector(i),
                                                          base.basis_vector(j)))
                rhs = base.mul_coeffs(rows[i], rows[j])
                if lhs != rhs:
                    raise MapValidationError(
                        f"map is not multiplicative on basis pair ({i},{j})")
        if base.inv_terms is not None:
            for j in range(base.dim):
                lhs = _linear_image(rows, base.involution_coeffs(base.basis_vector(j)))
                rhs = base.involution_coeffs(rows[j])
                if lhs != rhs:
                    raise MapValidationError(
                        f"map does not commute with the involution on basis {j}")
        return cls(base, "base", base_rows=rows)

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
        return cls(base, "vertex", units=units, inverses=inverses)

    # -- application --

    def apply_hom(self, a: int, b: int, m: DMatrix) -> DMatrix:
        """Image of a component from factor b to factor a (1-based vertices)."""
        if self.kind == "base":
            d = self.base.dim
            v = m.coeffs
            return DMatrix(self.base, m.rows, m.cols, tuple(
                x for at in range(0, len(v), d)
                for x in _linear_image(self.base_rows, v[at:at + d])))
        ua = self.units[a - 1]
        ub_inv = self.inverses[b - 1]
        return ua @ m @ ub_inv

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
    if h.kind == "vertex":
        if len(h.units) != graph.r:
            raise MapValidationError(
                f"need one conjugating matrix per vertex ({graph.r})")
        for v, u in enumerate(h.units, start=1):
            if u.rows != graph.size(v):
                raise MapValidationError(
                    f"conjugating matrix at vertex {v} has size {u.rows}, "
                    f"expected {graph.size(v)}")
    new_edges = {}
    for (i, j), m in graph.edges.items():
        new_edges[(i, j)] = h.apply_hom(j, i, m)
    return ObstructionGraph(graph.base, graph.sizes, new_edges)


# -- helpers used by tests and the CLI ------------------------------------------


def scale_edges(graph: ObstructionGraph, m: int) -> ObstructionGraph:
    """The graph of the m-th tensor power: every component scaled by m."""
    return ObstructionGraph(graph.base, graph.sizes,
                            {k: e * m for k, e in graph.edges.items()})


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

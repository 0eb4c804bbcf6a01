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

The maps that transform a graph, with their laws on loop spans, are in
:mod:`laws`.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .algebra import (
    MAX_DIM,
    DMatrix,
    Rule,
    StructureAlgebra,
    matrix_rule,
    multiplication_matrix,
    rule_product,
)
from .closure import fixed_point, full_mod_p, spin
from .errors import (
    AlgebraValidationError,
    DimensionMismatchError,
    GraphValidationError,
)
from .linalg import Subspace, Vec, integral, primitive, solve_linear

_ZERO = Fraction(0)

# The largest vertex count of a graph: the path-span table has r^2 cells and
# r^3 triples (see the README for the measured cost at the cap).
MAX_VERTICES = 64


class ObstructionGraph:
    """r vertices with sizes over a shared base; edges stored only for i < j.

    Vertices are 1-based in the public API. ``edges`` maps (i, j) with i < j
    to the component from factor i to factor j, a (g_j, g_i) matrix over the
    base. Zero edges are dropped; a missing edge reads back as the zero
    matrix. Sizes and edges are fixed at construction.
    """

    __slots__ = ("base", "sizes", "edges")

    def __init__(self, base: StructureAlgebra, sizes: Sequence[int],
                 edges: Mapping[tuple, DMatrix]):
        if base.unit is None or base.inv_terms is None:
            raise GraphValidationError("base algebra must be unital with involution")
        sizes = tuple(sizes)
        if not all(isinstance(g, int) and not isinstance(g, bool) for g in sizes):
            raise GraphValidationError("vertex sizes must be integers")
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


class PathSpanTable(NamedTuple):
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
    seeds = {(a, b): [graph.hom_map(a, b).coeffs] for a in verts for b in verts
             if (min(a, b), max(a, b)) in graph.edges}
    sizes = graph.sizes
    return cells, seeds, lambda a, c, b: matrix_rule(
        graph.base, sizes[a - 1], sizes[c - 1], sizes[b - 1])


def path_span_table(graph: ObstructionGraph) -> PathSpanTable:
    """Compute the full path-span fixed point."""
    spans, rounds = fixed_point(*_table(graph))
    return PathSpanTable(spans=spans, rounds=rounds)


def compute_obstruction(graph: ObstructionGraph, vertex: int) -> Subspace:
    """Span of all loop values based at ``vertex`` (canonical subspace of the
    endomorphism coefficient space, ambient dim base.dim * g_v^2).

    The table's column at ``vertex`` is tried first with
    :func:`closure.full_mod_p`: a full loop cell there proves the span full,
    and the identity basis is returned without building the table. A
    partial cell proves nothing, and the table decides.
    """
    graph._check_vertex(vertex)
    if full_mod_p(*_table(graph, vertex), (vertex, vertex)):
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


class CornerReport(NamedTuple):
    """Whether a span is a corner p*A*p, with the coefficients of p if so."""

    is_corner: bool
    idempotent: Optional[Vec]
    factor_dim: Optional[int]
    is_full: bool
    is_zero: bool


_NOT_CORNER = CornerReport(is_corner=False, idempotent=None, factor_dim=None,
                           is_full=False, is_zero=False)


class ObstructionVerdict(NamedTuple):
    verdict: str  # OBSTRUCTED | NOT-OBSTRUCTED | INCONCLUSIVE
    reason: str
    power_note: str = ("every positive tensor power shares this verdict: "
                       "scaling components by a nonzero integer leaves the "
                       "generated span unchanged")


def corner_detect(e_span: Subspace, rule: Union[Rule, Callable[[], Rule]],
                  scale: int, unit: Optional[Vec]) -> CornerReport:
    """Decide whether ``e_span`` equals p * A * p for an idempotent p of the
    algebra A with the integer product ``rule``, its ``scale`` and ``unit``.
    ``rule`` may also be a function of no arguments that builds the rule: it
    is called only for a partial span, the one case that takes products.

    Algorithm: the zero span is the corner of p = 0. Otherwise solve for a
    left unit e of the span on its d pivot columns alone. A corner is closed
    under products and a vector of the span is fixed by its pivot entries,
    so on a corner this d^2-row system is equivalent to the full left-unit
    system and has its unique solution, and an inconsistent one proves that
    no left unit exists. On every other span, a solution that is not a true
    two-sided unit fails the full left and right checks. A checked e lies
    in the span, so it is idempotent, and v = e * v * e for every v in the
    span, so the span lies in e * A * e. The dimension count alone decides
    equality: x -> e * x * e is idempotent, so dim(e * A * e) is its trace.

    All products run on the integer kernel. ``a * b`` denotes the product
    under ``rule``, ``D = scale`` times the true one. The span basis vectors
    u_t are taken as their primitive integer rows p_t, so that u_t = l_t p_t
    with l_t > 0. For e = sum_s y_s p_s the pivot system reads
    ``sum_s y_s (p_s * p_t)[c] = D p_t[c]`` for the pivot columns c, with
    the products taken on the sub-rule of the terms that land there. Writing
    e = z / m with z integer, the unit checks read ``z * p_t = p_t * z =
    D m p_t``, and the trace ``sum_k (z * (b_k * z))[k] = (D m)^2 dim(e * A * e)``.
    That trace needs no product: with L the matrix of left multiplication
    by z, read off the rule by :func:`algebra.multiplication_matrix` (column
    m is z * b_m), it is ``sum_k sum c z_j L[m][k]`` over the terms
    (j, m, c) of ``rule[k]``, which are the entries of right multiplication
    by z, read in the same pass and never stored.
    """
    if unit is None:
        raise AlgebraValidationError("corner detection needs a unital algebra")
    n = len(unit)
    if e_span.ambient_dim != n:
        raise DimensionMismatchError(
            f"subspace ambient {e_span.ambient_dim} does not match algebra dim {n}")
    if e_span.dim == 0:
        return CornerReport(is_corner=True, idempotent=(_ZERO,) * n,
                            factor_dim=0, is_full=False, is_zero=True)
    if e_span.is_full():
        return CornerReport(is_corner=True, idempotent=unit,
                            factor_dim=n, is_full=True, is_zero=False)
    if callable(rule):
        rule = rule()
    basis = [primitive(v) for v in e_span.basis]
    d = len(basis)
    at = {c: t for t, c in enumerate(e_span.pivots)}
    sub = tuple(tuple((j, at[k], c) for j, k, c in terms if k in at)
                for terms in rule)
    rows = []
    rhs = []
    for v in basis:
        # A row 0 = 0 says nothing; 0 = b != 0 proves there is no left unit.
        for row, c in zip(zip(*[rule_product(sub, u, v, d) for u in basis]),
                          e_span.pivots):
            b = scale * v[c]
            if b or any(row):
                rows.append(row)
                rhs.append(b)
    sol = solve_linear(tuple(rows), tuple(rhs))
    if sol is None:
        return _NOT_CORNER
    ys, m = integral(sol)
    z = [0] * n
    for t, y in enumerate(ys):
        if y:
            for c, bc in enumerate(basis[t]):
                if bc:
                    z[c] += y * bc
    dm = scale * m
    for v in basis:
        dv = tuple(dm * x for x in v)
        if rule_product(rule, z, v, n) != dv or rule_product(rule, v, z, n) != dv:
            return _NOT_CORNER
    # Column m of ``left`` is z * b_m, and b_k * z = sum c z_j b_m over the
    # terms (j, m, c) of rule[k], so (z * b_k * z)[k] sums c z_j left[m][k].
    left = multiplication_matrix(rule, z, n, n)
    trace = sum(c * z[j] * left[m][k] for k, terms in enumerate(rule)
                for j, m, c in terms if z[j])
    if trace != d * dm * dm:
        return _NOT_CORNER
    # e = 1 would give the whole algebra, refused above since d < n.
    return CornerReport(is_corner=True, idempotent=tuple(Fraction(c, m) for c in z),
                        factor_dim=d, is_full=False, is_zero=False)


def loop_corner(span: Subspace, base: StructureAlgebra, g: int) -> CornerReport:
    """:func:`corner_detect` for a loop span at a vertex of size ``g``, on
    the product rule of M_g(base) and the identity matrix, so that M_g(base)
    itself is never built. The rule is built only for a partial span whose
    dimension allows a corner: over Q, a quaternion algebra or matrices over
    either, M_g(base) is M_k(Delta) for a division algebra Delta of dimension
    1 or 4 (Artin-Wedderburn), so a corner, some M_j(Delta), has dimension
    j^2 dim(Delta), a square. corner_detect decides every other span
    exactly: on a closed span its pivot system is equivalent to the full
    one, and any other span meets the full unit checks.
    """
    d = span.dim
    root = base
    while root.matrix_base is not None:
        root = root.matrix_base
    params = root.quaternion_params
    if 0 < d < span.ambient_dim and (root.dim == 1 or params is not None):
        r = isqrt(d)
        # A definite (a, b), a, b < 0, is Delta itself: d = (2j)^2.
        if r * r != d or r % 2 and params is not None and max(params) < 0:
            return _NOT_CORNER
    return corner_detect(span, lambda: matrix_rule(base, g, g, g), base.scale,
                         DMatrix.identity(base, g).coeffs)


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

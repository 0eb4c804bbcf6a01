import random
from fractions import Fraction as F

import pytest

from obstructor.algebra import (
    AlgElement,
    DMatrix,
    matrix_algebra,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    rationals,
    reduced_norm,
)
from obstructor.closure import subrng_closure
from obstructor.errors import (
    AlgebraValidationError,
    CoverValidationError,
    DimensionMismatchError,
    GraphValidationError,
    MapValidationError,
)
from obstructor.linalg import echelonize, solve_linear
from obstructor.obstruction import (
    CornerReport,
    Cover,
    ObstructionGraph,
    SpecializationMap,
    compute_obstruction,
    corner_detect,
    dagger_span,
    flag_nonliftable,
    loop_oracle,
    path_span_table,
    pullback_transform,
    relabel_vertices,
    scale_edges,
    specialize_transform,
    transport_span,
)
from obstructor.witness import build_r3_graph

D2 = quaternion_for_prime(2)
M2Q = matrix_algebra(rationals(), 2)
HAMILTON = quaternion_algebra(-1, -1)

UNIT_ELTS = [HAMILTON.one(), HAMILTON.basis_element(1), HAMILTON.basis_element(2),
             HAMILTON.basis_element(3)]


def rand_elt(rng, base, bound=2):
    return base.element(tuple(rng.randint(-bound, bound) for _ in range(base.dim)))


def rand_graph(rng, base, r, maxg=2, density=0.8):
    sizes = [rng.randint(1, maxg) for _ in range(r)]
    edges = {}
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if rng.random() < density:
                edges[(i, j)] = DMatrix.from_entries(base, [
                    [rand_elt(rng, base) for _ in range(sizes[i - 1])]
                    for _ in range(sizes[j - 1])])
    return ObstructionGraph(base, sizes, edges)


def rand_cover(rng, base, g):
    """iota = (permutation x unit quaternion) embedding, pi = mu * dagger(iota)."""
    gp = g + rng.randint(0, 1)
    q = UNIT_ELTS[rng.randrange(len(UNIT_ELTS))] * rng.randint(1, 2)
    if rng.random() < 0.5:
        q = -q
    rows = list(range(gp))
    rng.shuffle(rows)
    ents = [[base.zero() for _ in range(g)] for _ in range(gp)]
    for c in range(g):
        ents[rows[c]][c] = q
    iota = DMatrix.from_entries(base, ents)
    s = reduced_norm(q)
    mu = rng.randint(1, 2)
    return Cover(iota=iota, pi=iota.dagger_transpose() * F(mu), degree=int(s * mu))


# -- compute_obstruction ---------------------------------------------------------


def test_zero_edge_graph_has_zero_span():
    g = ObstructionGraph(D2, (1, 1), {})
    assert compute_obstruction(g, 1).dim == 0


def test_hamilton_r3_example():
    i_el = HAMILTON.basis_element(1)
    g = ObstructionGraph(HAMILTON, (1, 1, 1), {
        (1, 2): DMatrix.from_entries(HAMILTON, [[i_el]]),
        (1, 3): DMatrix.identity(HAMILTON, 1),
        (2, 3): DMatrix.identity(HAMILTON, 1),
    })
    span = compute_obstruction(g, 1)
    # the two length-3 loops give i and -i; closing brings in i*i = -1
    assert span.contains(i_el.coeffs)
    assert span.contains(HAMILTON.one().coeffs)
    assert span.dim == 2


def test_vertex_out_of_range():
    g = ObstructionGraph(D2, (1, 1), {})
    with pytest.raises(GraphValidationError):
        compute_obstruction(g, 3)


def test_edge_shape_validation():
    with pytest.raises(GraphValidationError):
        ObstructionGraph(D2, (1, 2), {(1, 2): DMatrix.identity(D2, 1)})
    with pytest.raises(GraphValidationError):
        ObstructionGraph(D2, (1, 1), {(2, 1): DMatrix.identity(D2, 1)})


@pytest.mark.parametrize("call, exc_type", [
    (lambda: DMatrix.identity(D2, 1) @ DMatrix.identity(rationals(), 1),
     AlgebraValidationError),
    (lambda: DMatrix.identity(D2, 2) @ DMatrix.zero(D2, 3, 2),
     DimensionMismatchError),
    (lambda: ObstructionGraph(D2, (1, 1), {
        (1, 2): DMatrix.identity(quaternion_for_prime(3), 1)}),
     GraphValidationError),
    (lambda: ObstructionGraph(D2, (1, 1), {}).hom_map(1, 1), GraphValidationError),
    (lambda: corner_detect(echelonize([], ambient_dim=3), M2Q),
     DimensionMismatchError),
], ids=["compose-across-bases", "compose-shapes", "edge-over-another-base",
        "hom-map-to-itself", "corner-ambient-mismatch"])
def test_library_guards(call, exc_type):
    with pytest.raises(exc_type) as exc:
        call()
    assert type(exc.value) is exc_type


def test_path_table_certificates():
    rng = random.Random(5)
    g = rand_graph(rng, D2, 3)
    table = path_span_table(g)
    # every cell closed under composition through any middle vertex
    for a in range(1, 4):
        for b in range(1, 4):
            target = table.spans[(a, b)]
            for c in range(1, 4):
                left = table.spans[(a, c)]
                right = table.spans[(c, b)]
                for u in left.basis:
                    mu = DMatrix.from_flat(D2, g.size(a), g.size(c), u)
                    for v in right.basis:
                        mv = DMatrix.from_flat(D2, g.size(c), g.size(b), v)
                        assert target.contains((mu @ mv).flatten())
    # single edges are contained
    for a in range(1, 4):
        for b in range(1, 4):
            if a != b:
                m = g.hom_map(a, b)
                if not m.is_zero():
                    assert table.spans[(a, b)].contains(m.flatten())


def test_rule_cache_holds_one_rule_per_shape():
    graph = build_r3_graph(3, 2, 0)
    base = graph.base
    end = matrix_algebra(base, 3)
    path_span_table(graph)
    corner_detect(compute_obstruction(graph, 1), end)
    corner_detect(echelonize([matrix_unit(end, 1, 1).coeffs]), end)
    assert base._rule_cache[(3, 3, 3)] is end.rule
    for cache in (base._rule_cache, end._rule_cache):
        assert all(len(key) == 3 and all(isinstance(n, int) for n in key)
                   for key in cache)


def test_loop_oracle_equals_fixed_point_seeded():
    rng = random.Random(20)
    checked = 0
    for trial in range(12):
        g = rand_graph(rng, D2, rng.randint(2, 4))
        span = compute_obstruction(g, 1)
        found = None
        for L in range(2, 11):
            if loop_oracle(g, 1, L) == span:
                found = L
                break
        assert found is not None, trial
        checked += 1
    assert checked == 12


def test_loop_oracle_monotone_and_stable_on_small_graph():
    x = HAMILTON.element((1, 2, 0, 1))
    g = ObstructionGraph(HAMILTON, (1, 1), {
        (1, 2): DMatrix.from_entries(HAMILTON, [[x]])})
    dims = [loop_oracle(g, 1, L).dim for L in range(2, 12)]
    assert dims == sorted(dims)
    bound = 4 * sum(s * s for s in g.sizes) + 2
    assert loop_oracle(g, 1, bound) == loop_oracle(g, 1, bound + 1)


def test_loop_oracle_requires_two_edges():
    g = ObstructionGraph(D2, (1, 1), {})
    with pytest.raises(ValueError):
        loop_oracle(g, 1, 1)


# -- corner detection -------------------------------------------------------------


def test_corner_e11():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([matrix_unit(M2, 1, 1).coeffs]), M2)
    assert rep.is_corner and rep.factor_dim == 1 and not rep.is_full
    assert rep.idempotent == matrix_unit(M2, 1, 1)


def test_corner_e12_is_not():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([matrix_unit(M2, 1, 2).coeffs]), M2)
    assert not rep.is_corner and rep.idempotent is None


def test_corner_full_algebra():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([M2.basis_vector(t) for t in range(4)]), M2)
    assert rep.is_corner and rep.is_full and rep.factor_dim == 4


def test_corner_zero_span():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([], ambient_dim=4), M2)
    assert rep.is_corner and rep.is_zero and rep.factor_dim == 0
    assert rep.idempotent.is_zero()


def test_corner_unit_with_strictly_smaller_span():
    # span{1, i} in the quaternions has unit 1, but 1*D*1 = D is bigger:
    # equality is required, so this is not a corner.
    E = echelonize([HAMILTON.one().coeffs, HAMILTON.basis_element(1).coeffs])
    rep = corner_detect(E, HAMILTON)
    assert not rep.is_corner


def test_corner_two_by_two_block():
    M3 = matrix_algebra(rationals(), 3)
    vecs = [matrix_unit(M3, r, c).coeffs for r in (1, 2) for c in (1, 2)]
    rep = corner_detect(echelonize(vecs), M3)
    assert rep.is_corner and rep.factor_dim == 4 and not rep.is_full
    assert rep.idempotent == matrix_unit(M3, 1, 1) + matrix_unit(M3, 2, 2)


def test_corner_recovers_constructed_idempotents():
    # independent oracle: build p = V e11 V^(-1) by hand, span p*A*p, and the
    # detector must report a corner whose unit is exactly p
    M2 = matrix_algebra(rationals(), 2)
    rng = random.Random(24680)
    for _ in range(25):
        while True:
            a, b, c, d = (F(rng.randint(-3, 3)) for _ in range(4))
            det = a * d - b * c
            if det:
                break
        p_mat = (
            (a * d / det, -a * b / det),
            (c * d / det, -c * b / det),
        )  # V e11 V^(-1) expanded by hand
        p = M2.element((p_mat[0][0], p_mat[0][1], p_mat[1][0], p_mat[1][1]))
        assert p * p == p
        span = echelonize(
            [M2.mul_coeffs(M2.mul_coeffs(p.coeffs, M2.basis_vector(k)), p.coeffs)
             for k in range(4)], ambient_dim=4)
        rep = corner_detect(span, M2)
        assert rep.is_corner and rep.idempotent == p
        assert rep.factor_dim == span.dim


def test_corner_factor_dim_in_quaternionic_matrix_algebra():
    M2D = matrix_algebra(D2, 2)
    e11 = matrix_unit(M2D, 1, 1)
    span = echelonize(
        [M2D.mul_coeffs(M2D.mul_coeffs(e11.coeffs, M2D.basis_vector(k)), e11.coeffs)
         for k in range(16)], ambient_dim=16)
    rep = corner_detect(span, M2D)
    assert rep.is_corner and rep.idempotent == e11 and rep.factor_dim == 4


def test_flag_verdicts():
    M2 = matrix_algebra(D2, 1)
    full = corner_detect(echelonize([M2.basis_vector(t) for t in range(4)]), M2)
    assert flag_nonliftable(full, True).verdict == "OBSTRUCTED"
    assert flag_nonliftable(full, False).verdict == "NOT-OBSTRUCTED"
    zero = corner_detect(echelonize([], ambient_dim=4), M2)
    assert flag_nonliftable(zero, True).verdict == "NOT-OBSTRUCTED"
    non = CornerReport(is_corner=False, idempotent=None, factor_dim=None,
                       is_full=False, is_zero=False)
    assert flag_nonliftable(non, True).verdict == "INCONCLUSIVE"


# -- pullback ----------------------------------------------------------------------


def test_pullback_trivial_covers_fix_everything():
    rng = random.Random(8)
    g = rand_graph(rng, D2, 3)
    covers = [Cover(DMatrix.identity(D2, g.size(v)), DMatrix.identity(D2, g.size(v)), 1)
              for v in range(1, 4)]
    g2 = pullback_transform(g, covers)
    for v in range(1, 4):
        assert compute_obstruction(g2, v) == compute_obstruction(g, v)


def test_pullback_scaling_cover_keeps_span():
    rng = random.Random(9)
    g = rand_graph(rng, D2, 3)
    covers = [Cover(DMatrix.scalar(D2, g.size(v), 2), DMatrix.identity(D2, g.size(v)), 2)
              for v in range(1, 4)]
    g2 = pullback_transform(g, covers)
    for v in range(1, 4):
        assert compute_obstruction(g2, v) == compute_obstruction(g, v)


def test_pullback_law_seeded():
    rng = random.Random(31)
    for trial in range(6):
        g = rand_graph(rng, D2, rng.randint(2, 3))
        covers = [rand_cover(rng, D2, g.size(v)) for v in range(1, g.r + 1)]
        g2 = pullback_transform(g, covers)
        for v in range(1, g.r + 1):
            span = compute_obstruction(g, v)
            assert transport_span(covers[v - 1], span, g.size(v)) == \
                compute_obstruction(g2, v), (trial, v)


def test_pullback_rejects_bad_degree_identity():
    g = ObstructionGraph(D2, (1, 1), {(1, 2): DMatrix.identity(D2, 1)})
    bad = Cover(DMatrix.identity(D2, 1), DMatrix.identity(D2, 1), 2)
    with pytest.raises(CoverValidationError):
        pullback_transform(g, [bad, bad])


def test_pullback_rejects_non_adjoint_pair():
    g = ObstructionGraph(D2, (2, 2), {(1, 2): DMatrix.identity(D2, 2)})
    i_el = D2.basis_element(1)
    ident = DMatrix.identity(D2, 2)
    # pi . iota = identity but pi is not a rational multiple of dagger(iota)
    iota = DMatrix.from_entries(D2, [[D2.one(), D2.zero()], [i_el, D2.one()]])
    pi = DMatrix.from_entries(D2, [[D2.one(), D2.zero()], [-i_el, D2.one()]])
    with pytest.raises(CoverValidationError):
        pullback_transform(g, [Cover(iota, pi, 1), Cover(ident, ident, 1)])


@pytest.mark.parametrize("degree", [True, 1.0, "1", 0])
def test_pullback_rejects_non_int_degree(degree):
    g = ObstructionGraph(D2, (1, 1), {(1, 2): DMatrix.identity(D2, 1)})
    ident = DMatrix.identity(D2, 1)
    with pytest.raises(CoverValidationError):
        pullback_transform(g, [Cover(ident, ident, degree), Cover(ident, ident, 1)])


def test_pullback_shape_mismatch():
    g = ObstructionGraph(D2, (1, 2), {})
    cov1 = Cover(DMatrix.identity(D2, 1), DMatrix.identity(D2, 1), 1)
    with pytest.raises(CoverValidationError):
        pullback_transform(g, [cov1, cov1])


# -- specialization -----------------------------------------------------------------


def test_specialize_identity_map_is_fixed_point():
    rng = random.Random(17)
    g = rand_graph(rng, D2, 3)
    h = SpecializationMap.base_conjugation(D2.one())
    g2 = specialize_transform(g, h)
    for v in range(1, 4):
        assert compute_obstruction(g2, v) == compute_obstruction(g, v)


def test_specialize_conjugation_law_seeded():
    rng = random.Random(23)
    for trial in range(6):
        g = rand_graph(rng, D2, rng.randint(2, 3))
        if trial % 2 == 0:
            h = SpecializationMap.base_conjugation(rand_invertible(rng))
        else:
            h = rand_vertex_conjugation(rng, g)
        g2 = specialize_transform(g, h)
        for v in range(1, g.r + 1):
            span = compute_obstruction(g, v)
            img = h.apply_subspace(v, v, span, g.size(v), g.size(v))
            assert img == compute_obstruction(g2, v), (trial, v)


def rand_invertible(rng):
    while True:
        u = rand_elt(rng, D2, bound=3)
        if reduced_norm(u):
            return u


def rand_vertex_conjugation(rng, g, q=None):
    """Signed permutation matrices with the similitude ``q`` as entries."""
    base = g.base
    if q is None:
        q = HAMILTON_UNIT(rng)
    units = []
    for v in range(1, g.r + 1):
        n = g.size(v)
        perm = list(range(n))
        rng.shuffle(perm)
        ents = [[base.zero()] * n for _ in range(n)]
        for c in range(n):
            ents[perm[c]][c] = q if rng.random() < 0.5 else -q
        units.append(DMatrix.from_entries(base, ents))
    return SpecializationMap.vertex_conjugation(base, units)


def HAMILTON_UNIT(rng):
    return [D2.one(), D2.basis_element(1), D2.basis_element(2),
            D2.basis_element(3)][rng.randrange(4)]


def test_vertex_conjugation_over_matrix_base():
    # Over M_2(Q) the unit is e11 + e22, and rot = [[1, -1], [1, 1]] has
    # rot^T rot = 2.
    rng = random.Random(29)
    rot = M2Q.element((1, -1, 1, 1))
    for trial in range(4):
        g = rand_graph(rng, M2Q, rng.randint(2, 3))
        ident = SpecializationMap.vertex_conjugation(
            M2Q, [DMatrix.identity(M2Q, n) for n in g.sizes])
        for h in (ident, rand_vertex_conjugation(rng, g, rot)):
            g2 = specialize_transform(g, h)
            for v in range(1, g.r + 1):
                span = compute_obstruction(g, v)
                img = h.apply_subspace(v, v, span, g.size(v), g.size(v))
                assert img == compute_obstruction(g2, v), (trial, v)


def test_vertex_conjugation_rejects_idempotent_over_matrix_base():
    e11 = DMatrix.from_entries(M2Q, [[matrix_unit(M2Q, 1, 1)]])
    with pytest.raises(MapValidationError):
        SpecializationMap.vertex_conjugation(M2Q, [e11, e11])


def test_vertex_conjugation_stores_two_sided_inverses():
    rng = random.Random(37)
    rot = M2Q.element((1, -1, 1, 1))
    for base, q in ((D2, None), (M2Q, rot)):
        for _ in range(4):
            g = rand_graph(rng, base, 3, maxg=3)
            h = rand_vertex_conjugation(rng, g, q)
            for u, inv in zip(h.units, h.inverses):
                ident = DMatrix.identity(base, u.rows)
                assert u @ inv == ident and inv @ u == ident


def test_specialize_rejects_doubling():
    with pytest.raises(MapValidationError):
        SpecializationMap.base_linear(
            D2, [[2 if r == c else 0 for c in range(4)] for r in range(4)])


def test_specialize_rejects_non_injective():
    with pytest.raises(MapValidationError):
        SpecializationMap.base_linear(D2, [[0] * 4 for _ in range(4)])


def test_specialize_rejects_mixed_similitude():
    g = ObstructionGraph(D2, (1, 1), {(1, 2): DMatrix.identity(D2, 1)})
    u1 = DMatrix.from_entries(D2, [[D2.one()]])
    u2 = DMatrix.from_entries(D2, [[D2.one() * 2]])
    with pytest.raises(MapValidationError):
        SpecializationMap.vertex_conjugation(D2, [u1, u2])


# -- structural invariances ------------------------------------------------------


def test_span_is_dagger_closed():
    rng = random.Random(41)
    for _ in range(5):
        g = rand_graph(rng, D2, 3)
        span = compute_obstruction(g, 1)
        assert dagger_span(span, D2, g.size(1)) == span


def test_relabeling_fixing_base_vertex():
    rng = random.Random(43)
    for _ in range(5):
        g = rand_graph(rng, D2, 4)
        span = compute_obstruction(g, 1)
        for perm in ([1, 3, 2, 4], [1, 4, 2, 3], [1, 2, 4, 3]):
            assert compute_obstruction(relabel_vertices(g, perm), 1) == span


def test_edge_insertion_order_irrelevant():
    rng = random.Random(53)
    g1 = rand_graph(rng, D2, 3)
    forward = {k: g1.edges[k] for k in sorted(g1.edges)}
    backward = {k: g1.edges[k] for k in sorted(g1.edges, reverse=True)}
    a = ObstructionGraph(D2, g1.sizes, forward)
    b = ObstructionGraph(D2, g1.sizes, backward)
    for v in range(1, 4):
        assert compute_obstruction(a, v) == compute_obstruction(b, v)


def test_pullback_rejects_wrong_cover_count():
    g = ObstructionGraph(D2, (1, 1), {(1, 2): DMatrix.identity(D2, 1)})
    cov = Cover(DMatrix.identity(D2, 1), DMatrix.identity(D2, 1), 1)
    with pytest.raises(CoverValidationError):
        pullback_transform(g, [cov])


def test_power_scaling_invariance():
    rng = random.Random(47)
    g = rand_graph(rng, D2, 3)
    span = compute_obstruction(g, 1)
    for m in (2, 3, 7):
        assert compute_obstruction(scale_edges(g, m), 1) == span
    rep = corner_detect(span, matrix_algebra(D2, g.size(1)))
    rep_scaled = corner_detect(compute_obstruction(scale_edges(g, 5), 1),
                               matrix_algebra(D2, g.size(1)))
    assert flag_nonliftable(rep, True).verdict == \
        flag_nonliftable(rep_scaled, True).verdict


# -- corner detection against the Fraction kernel ------------------------------


def _reference_corner(e_span, algebra):
    """corner_detect computed with Fraction products and the Fraction solve:
    the two-sided unit from the left-unit system, idempotency, and equality
    with span{e * b_k * e}."""
    n = algebra.dim
    if e_span.dim == 0:
        return CornerReport(True, algebra.zero(), 0, False, True)
    if e_span.is_full():
        return CornerReport(True, algebra.one(), n, True, False)
    no = CornerReport(False, None, None, False, False)
    basis = e_span.basis
    mulc = algebra.mul_coeffs
    rows, rhs = [], []
    for v in basis:
        left = [mulc(u, v) for u in basis]
        for c in range(n):
            rows.append(tuple(col[c] for col in left))
            rhs.append(v[c])
    sol = solve_linear(tuple(rows), tuple(rhs))
    if sol is None:
        return no
    e = tuple(sum((x * u[c] for x, u in zip(sol, basis)), F(0)) for c in range(n))
    if any(mulc(v, e) != v for v in basis) or mulc(e, e) != e:
        return no
    corner = echelonize([mulc(mulc(e, algebra.basis_vector(k)), e)
                         for k in range(n)], ambient_dim=n)
    if corner != e_span:
        return no
    return CornerReport(True, AlgElement(algebra, e), e_span.dim,
                        e == algebra.unit, False)


def _scalar_matrix(alg, entries):
    """The element of M_n(base) with rational entries times the base unit."""
    base, n = alg.matrix_base, alg.matrix_size
    out = alg.zero()
    for r in range(n):
        for c in range(n):
            if entries[r][c]:
                out = out + matrix_unit(alg, r + 1, c + 1) * entries[r][c]
    return out


def _random_idempotent(rng, alg):
    """V [[I_k, X], [0, 0]] V^-1 with X over the base and V = I + N for a
    strictly lower triangular rational N, so V^-1 = sum (-N)^i exactly."""
    base, n = alg.matrix_base, alg.matrix_size
    k = rng.randint(1, n - 1) if n > 1 else 1
    p = alg.zero()
    for i in range(1, k + 1):
        p = p + matrix_unit(alg, i, i)
        for j in range(k + 1, n + 1):
            if rng.random() < 0.7:
                x = base.element(tuple(F(rng.randint(-2, 2), rng.choice((1, 2)))
                                       for _ in range(base.dim)))
                p = p + matrix_unit(alg, i, j, x)
    nil = _scalar_matrix(alg, [[F(rng.randint(-2, 2)) if c < r else 0
                                for c in range(n)] for r in range(n)])
    v, v_inv, power = alg.one() + nil, alg.one(), alg.one()
    for _ in range(n - 1):
        power = power * (-nil)
        v_inv = v_inv + power
    assert (v * v_inv).coeffs == alg.unit
    return v * p * v_inv


def _corner_cases():
    """About 200 (span, algebra) pairs: loop spans of random graphs, corners
    and one-sided ideals of random idempotents, block embeddings, zero and
    full spans, and algebras whose constants have denominators."""
    from test_closure import _rescaled

    rng = random.Random(4242)
    for p in (2, 3, 5):
        base = quaternion_for_prime(p)
        for sizes, count in (((3, 1, 1), 2), ((2, 2), 4), ((1, 2, 1), 2)):
            for _ in range(count):
                edges = {}
                for i in range(1, len(sizes) + 1):
                    for j in range(i + 1, len(sizes) + 1):
                        edges[(i, j)] = DMatrix.from_entries(base, [
                            [rand_elt(rng, base, 3) for _ in range(sizes[i - 1])]
                            for _ in range(sizes[j - 1])])
                g = ObstructionGraph(base, sizes, edges)
                for v in range(1, g.r + 1):
                    yield (compute_obstruction(g, v),
                           matrix_algebra(base, g.size(v)))
    h_rescaled = _rescaled(quaternion_algebra(1, 1), [F(1, 2), F(3, 5), 2, F(-7, 3)])
    algebras = [matrix_algebra(rationals(), 2), matrix_algebra(rationals(), 3),
                matrix_algebra(rationals(), 4), matrix_algebra(D2, 2),
                matrix_algebra(quaternion_for_prime(3), 2),
                matrix_algebra(h_rescaled, 2)]
    for alg in algebras:
        n = alg.dim
        basis = [alg.basis_vector(k) for k in range(n)]
        yield echelonize([], ambient_dim=n), alg
        yield echelonize(basis), alg
        for t in range(10):
            p = _random_idempotent(rng, alg).coeffs
            mul = alg.mul_coeffs
            yield echelonize([mul(mul(p, b), p) for b in basis]), alg
            if t % 3 == 0:
                yield echelonize([mul(p, b) for b in basis]), alg
            elif t % 3 == 1:
                yield echelonize([mul(b, p) for b in basis]), alg
            else:
                extra = [rng.randint(-1, 1) for _ in range(n)]
                yield echelonize([mul(mul(p, b), p) for b in basis] + [extra]), alg
    rescaled = _rescaled(matrix_algebra(rationals(), 3),
                         [F(1, 2), 3, F(2, 5), F(7, 3), F(-1, 6), 1, F(5, 4),
                          F(3, 7), 2])
    for t in range(12):
        gens = [rescaled.element(tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                                       for _ in range(9)))
                for _ in range(1 + t % 3)]
        yield subrng_closure(rescaled, gens).span, rescaled
        e = rescaled.element((1, 0, 0, 0, 0, 0, 0, 0, 0))
        yield echelonize([(e * rescaled.basis_element(k) * e).coeffs
                          for k in range(9)] + [g.coeffs for g in gens[:t % 2]],
                         ambient_dim=9), rescaled
    for p in (2, 3, 5, 7):
        m3 = matrix_algebra(quaternion_for_prime(p), 3)
        for skip in (3, 2):
            yield echelonize([matrix_unit(m3, r, c, quaternion_for_prime(p)
                                          .basis_element(t)).coeffs
                              for r in (1, 2, 3) for c in (1, 2, 3)
                              for t in range(4) if skip not in (r, c)]), m3
    g = ObstructionGraph(D2, (3, 3, 3), {
        k: DMatrix.from_entries(D2, [
            [m.entries[r][c] if r < 2 and c < 2 else D2.zero() for c in range(3)]
            for r in range(3)])
        for k, m in build_r3_graph(2, 2, seed=697).edges.items()})
    yield compute_obstruction(g, 1), matrix_algebra(D2, 3)


def test_corner_detect_matches_fraction_kernel_seeded():
    outcomes = []
    for t, (span, alg) in enumerate(_corner_cases()):
        rep = corner_detect(span, alg)
        assert rep == _reference_corner(span, alg), t
        outcomes.append((rep.is_corner, rep.is_zero, rep.is_full))
    assert len(outcomes) >= 200
    # Every kind of answer occurs: proper corners, non-corners, zero, full.
    assert outcomes.count((True, False, False)) >= 50
    assert outcomes.count((False, False, False)) >= 50
    assert (True, True, False) in outcomes and (True, False, True) in outcomes

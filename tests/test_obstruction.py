import json
import random
from fractions import Fraction as F
from math import isqrt

import pytest

from obstructor import obstruction
from obstructor.algebra import (
    DMatrix,
    dmatrix_to_element,
    element_to_dmatrix,
    make_algebra,
    matrix_algebra,
    matrix_rule,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    rationals,
    reduced_norm,
    split_model,
)
from obstructor.closure import stabilized_word_span, subrng_closure
from obstructor.divisor import MultiHomogPoly
from obstructor.errors import (
    AlgebraValidationError,
    CoverValidationError,
    DimensionMismatchError,
    GraphValidationError,
    InhomogeneousTermError,
    MapValidationError,
)
from obstructor.laws import (
    Cover,
    SpecializationMap,
    dagger_span,
    pullback_transform,
    relabel_vertices,
    scale_edges,
    specialize_transform,
    transport_span,
)
from obstructor.linalg import Subspace, echelonize, solve_linear
from obstructor.obstruction import (
    CornerReport,
    ObstructionGraph,
    ObstructionVerdict,
    compute_obstruction,
    corner_detect,
    flag_nonliftable,
    loop_corner,
    loop_oracle,
    path_span_table,
)
from obstructor.serialize import graph_from_json
from obstructor.witness import (
    build_r3_graph,
    build_r4_graph,
    random_rosati_generator,
    random_two_generators,
    verify_identity_chain,
)

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


_ONE_EDGE = ObstructionGraph(D2, (1, 1), {(1, 2): DMatrix.identity(D2, 1)})
_D2_COVER = Cover(DMatrix.identity(D2, 1), DMatrix.identity(D2, 1), 1)
_Q_COVER = Cover(DMatrix.identity(rationals(), 1), DMatrix.identity(rationals(), 1), 1)


@pytest.mark.parametrize("call, exc_type", [
    (lambda: DMatrix.identity(D2, 1) @ DMatrix.identity(rationals(), 1),
     AlgebraValidationError),
    (lambda: DMatrix.identity(D2, 2) @ DMatrix.zero(D2, 3, 2),
     DimensionMismatchError),
    (lambda: ObstructionGraph(D2, (1, 1), {
        (1, 2): DMatrix.identity(quaternion_for_prime(3), 1)}),
     GraphValidationError),
    (lambda: ObstructionGraph(D2, (1, 1), {}).hom_map(1, 1), GraphValidationError),
    (lambda: ObstructionGraph(D2, (2.9, 1), {}), GraphValidationError),
    (lambda: ObstructionGraph(D2, (2, True), {}), GraphValidationError),
    (lambda: ObstructionGraph(D2, (2, "1"), {}), GraphValidationError),
    (lambda: corner_detect(echelonize([], ambient_dim=3), M2Q.rule, M2Q.scale, M2Q.unit),
     DimensionMismatchError),
    (lambda: stabilized_word_span(M2Q, [M2Q.one()], max_len=0), ValueError),
    (lambda: verify_identity_chain(1), AlgebraValidationError),
    (lambda: build_r3_graph(1, 2), AlgebraValidationError),
    (lambda: build_r4_graph(0, 2), AlgebraValidationError),
    (lambda: random_rosati_generator(make_algebra(1, [[(1,)]], unit=(1,))),
     AlgebraValidationError),
    (lambda: random_two_generators(make_algebra(1, [[(1,)]], involution=((1,),))),
     AlgebraValidationError),
    (lambda: ObstructionGraph(make_algebra(1, [[(1,)]], involution=((1,),)), (1, 1), {}),
     GraphValidationError),
    (lambda: ObstructionGraph(make_algebra(1, [[(1,)]], unit=(1,)), (1, 1), {}),
     GraphValidationError),
    (lambda: pullback_transform(_ONE_EDGE, [_Q_COVER, _Q_COVER]), CoverValidationError),
    (lambda: pullback_transform(_ONE_EDGE, [
        Cover(DMatrix.zero(D2, 2, 1), DMatrix.zero(D2, 1, 3), 1), _D2_COVER]),
     CoverValidationError),
    (lambda: SpecializationMap.base_linear(D2, [[1, 0, 0]] * 4), MapValidationError),
    (lambda: SpecializationMap.base_linear(
        D2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
     MapValidationError),
    # Conjugation of M_2(Q) by [[1, 1], [0, 1]] is an automorphism, but not
    # of the transpose involution.
    (lambda: SpecializationMap.base_linear(
        M2Q, [[1, -1, 0, 0], [0, 1, 0, 0], [1, -1, 1, -1], [0, 1, 0, 1]]),
     MapValidationError),
    (lambda: SpecializationMap.base_conjugation(D2.zero()), MapValidationError),
    (lambda: SpecializationMap.vertex_conjugation(D2, [DMatrix.identity(rationals(), 1)]),
     MapValidationError),
    (lambda: SpecializationMap.vertex_conjugation(D2, [DMatrix.zero(D2, 1, 2)]),
     MapValidationError),
    (lambda: specialize_transform(_ONE_EDGE, SpecializationMap.base_conjugation(
        quaternion_for_prime(3).one())), MapValidationError),
    (lambda: specialize_transform(_ONE_EDGE, SpecializationMap.vertex_conjugation(
        D2, [DMatrix.identity(D2, 1)])), MapValidationError),
    (lambda: specialize_transform(_ONE_EDGE, SpecializationMap.vertex_conjugation(
        D2, [DMatrix.identity(D2, 1), DMatrix.identity(D2, 2)])), MapValidationError),
    (lambda: relabel_vertices(_ONE_EDGE, [1, 1]), GraphValidationError),
    (lambda: make_algebra(0, []), AlgebraValidationError),
    (lambda: make_algebra(2, {(2, 0): ((0, 1),)}), DimensionMismatchError),
    (lambda: make_algebra(2, [[(1, 0), (0, 1)]]), DimensionMismatchError),
    (lambda: make_algebra(2, [[(1, 0)], [(0, 1)]]), DimensionMismatchError),
    (lambda: make_algebra(1, [[(1,)]], involution=((1,), (1,))), DimensionMismatchError),
    (lambda: matrix_unit(D2, 1, 1), AlgebraValidationError),
    (lambda: matrix_unit(M2Q, 1, 3), DimensionMismatchError),
    (lambda: DMatrix.from_entries(D2, []), DimensionMismatchError),
    (lambda: DMatrix.from_entries(D2, [[D2.one()], [D2.one(), D2.one()]]),
     DimensionMismatchError),
    (lambda: DMatrix.from_entries(D2, [[rationals().one()]]), AlgebraValidationError),
    (lambda: element_to_dmatrix(D2.one()), AlgebraValidationError),
    (lambda: dmatrix_to_element(M2Q, DMatrix.identity(rationals(), 3)),
     AlgebraValidationError),
    (lambda: D2.one() + quaternion_for_prime(3).one(), AlgebraValidationError),
    (lambda: D2.one() ** 0, ValueError),
    (lambda: MultiHomogPoly(1, {((1, 0),): 1, ((2, 0),): 1}), InhomogeneousTermError),
    (lambda: MultiHomogPoly(1, {((1, 0),): 1}) + MultiHomogPoly(1, {((2, 0),): 1}),
     InhomogeneousTermError),
    (lambda: MultiHomogPoly.constant(1, 1) * MultiHomogPoly.constant(2, 1),
     DimensionMismatchError),
], ids=["compose-across-bases", "compose-shapes", "edge-over-another-base",
        "hom-map-to-itself", "float-size", "bool-size", "string-size",
        "corner-ambient-mismatch", "word-span-max-len-0", "chain-g1", "r3-g1",
        "r4-g0", "rosati-search-without-involution", "two-generators-without-unit",
        "graph-base-without-unit", "graph-base-without-involution",
        "cover-over-another-base", "cover-pi-iota-shapes", "base-map-not-square",
        "base-map-not-multiplicative", "base-map-breaks-involution",
        "conjugate-by-non-invertible", "vertex-unit-over-another-base",
        "vertex-unit-not-square", "specialize-another-base",
        "specialize-unit-count", "specialize-unit-size", "relabel-non-permutation",
        "algebra-dim-0", "algebra-index-out-of-range", "algebra-row-count",
        "algebra-row-length", "algebra-involution-rows", "matrix-unit-no-structure",
        "matrix-unit-position", "dmatrix-no-rows", "dmatrix-ragged-rows",
        "dmatrix-entry-outside-base", "element-to-dmatrix-no-structure",
        "dmatrix-to-element-mismatch", "elements-across-algebras", "power-0",
        "poly-inhomogeneous-terms", "poly-sum-across-degrees",
        "poly-product-across-r"])
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
                        assert target.contains((mu @ mv).coeffs)
    # single edges are contained
    for a in range(1, 4):
        for b in range(1, 4):
            if a != b:
                m = g.hom_map(a, b)
                if not m.is_zero():
                    assert table.spans[(a, b)].contains(m.coeffs)


def test_rule_cache_holds_one_rule_per_shape():
    graph = build_r3_graph(3, 2, 0)
    base = graph.base
    end = matrix_algebra(base, 3)
    path_span_table(graph)
    corner_detect(compute_obstruction(graph, 1), end.rule, end.scale, end.unit)
    corner_detect(echelonize([matrix_unit(end, 1, 1).coeffs]), end.rule, end.scale,
                  end.unit)
    assert matrix_rule(base, 3, 3, 3) is end.rule


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
    rep = corner_detect(echelonize([matrix_unit(M2, 1, 1).coeffs]), M2.rule, M2.scale,
                        M2.unit)
    assert rep.is_corner and rep.factor_dim == 1 and not rep.is_full
    assert rep.idempotent == matrix_unit(M2, 1, 1).coeffs


def test_corner_e12_is_not():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([matrix_unit(M2, 1, 2).coeffs]), M2.rule, M2.scale,
                        M2.unit)
    assert not rep.is_corner and rep.idempotent is None


def test_corner_full_algebra():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([M2.basis_vector(t) for t in range(4)]), M2.rule,
                        M2.scale, M2.unit)
    assert rep.is_corner and rep.is_full and rep.factor_dim == 4


def test_corner_zero_span():
    M2 = matrix_algebra(rationals(), 2)
    rep = corner_detect(echelonize([], ambient_dim=4), M2.rule, M2.scale, M2.unit)
    assert rep.is_corner and rep.is_zero and rep.factor_dim == 0
    assert not any(rep.idempotent)


def test_corner_unit_with_strictly_smaller_span():
    # span{1, i} in the quaternions has unit 1, but 1*D*1 = D is bigger:
    # equality is required, so this is not a corner.
    E = echelonize([HAMILTON.one().coeffs, HAMILTON.basis_element(1).coeffs])
    rep = corner_detect(E, HAMILTON.rule, HAMILTON.scale, HAMILTON.unit)
    assert not rep.is_corner


def test_corner_two_by_two_block():
    M3 = matrix_algebra(rationals(), 3)
    vecs = [matrix_unit(M3, r, c).coeffs for r in (1, 2) for c in (1, 2)]
    rep = corner_detect(echelonize(vecs), M3.rule, M3.scale, M3.unit)
    assert rep.is_corner and rep.factor_dim == 4 and not rep.is_full
    assert rep.idempotent == (matrix_unit(M3, 1, 1) + matrix_unit(M3, 2, 2)).coeffs


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
        rep = corner_detect(span, M2.rule, M2.scale, M2.unit)
        assert rep.is_corner and rep.idempotent == p.coeffs
        assert rep.factor_dim == span.dim


def test_corner_factor_dim_in_quaternionic_matrix_algebra():
    M2D = matrix_algebra(D2, 2)
    e11 = matrix_unit(M2D, 1, 1)
    span = echelonize(
        [M2D.mul_coeffs(M2D.mul_coeffs(e11.coeffs, M2D.basis_vector(k)), e11.coeffs)
         for k in range(16)], ambient_dim=16)
    rep = corner_detect(span, M2D.rule, M2D.scale, M2D.unit)
    assert rep.is_corner and rep.idempotent == e11.coeffs and rep.factor_dim == 4


def test_flag_verdicts():
    M2 = matrix_algebra(D2, 1)
    full = corner_detect(echelonize([M2.basis_vector(t) for t in range(4)]), M2.rule,
                         M2.scale, M2.unit)
    assert flag_nonliftable(full, True).verdict == "OBSTRUCTED"
    assert flag_nonliftable(full, False).verdict == "NOT-OBSTRUCTED"
    zero = corner_detect(echelonize([], ambient_dim=4), M2.rule, M2.scale, M2.unit)
    assert flag_nonliftable(zero, True).verdict == "NOT-OBSTRUCTED"
    non = CornerReport(is_corner=False, idempotent=None, factor_dim=None,
                       is_full=False, is_zero=False)
    assert flag_nonliftable(non, True).verdict == "INCONCLUSIVE"


def test_a_verdict_carries_the_power_note_by_default():
    verdict = ObstructionVerdict(verdict="INCONCLUSIVE", reason="r")
    assert verdict.power_note.startswith("every positive tensor power shares")
    assert verdict.power_note == flag_nonliftable(
        corner_detect(Subspace(4), M2Q.rule, M2Q.scale, M2Q.unit), True).power_note


def _refuse_rule(*shape):
    raise AssertionError("matrix_rule built")


def test_loop_corner_builds_the_rule_only_for_a_partial_span(monkeypatch):
    monkeypatch.setattr("obstructor.obstruction.matrix_rule", _refuse_rule)
    zero = loop_corner(Subspace(16), D2, 2)
    assert zero.is_corner and zero.is_zero and not any(zero.idempotent)
    full = loop_corner(Subspace.full(16), D2, 2)
    assert full.is_corner and full.is_full and full.factor_dim == 16
    assert full.idempotent == DMatrix.identity(D2, 2).coeffs
    # Dimension 1 is no 4 j^2, the dimension of a corner over definite D2.
    m2 = matrix_algebra(D2, 2)
    assert not loop_corner(echelonize([matrix_unit(m2, 1, 1).coeffs]), D2, 2).is_corner
    block = echelonize([matrix_unit(m2, 1, 1, D2.basis_element(t)).coeffs
                        for t in range(4)])
    with pytest.raises(AssertionError, match="matrix_rule built"):
        loop_corner(block, D2, 2)


def _leading_span(n, d):
    """The span of the first ``d`` basis vectors of an n-dimensional space."""
    return echelonize([tuple(int(k == t) for k in range(n)) for t in range(d)],
                      ambient_dim=n)


def test_loop_corner_refuses_a_non_square_dimension_without_the_rule(monkeypatch):
    monkeypatch.setattr("obstructor.obstruction.matrix_rule", _refuse_rule)
    split = quaternion_algebra(1, 1)
    # (base, g, the dimensions a corner of M_g(base) can have)
    for base, g, corner_dims in ((D2, 2, {4}), (quaternion_for_prime(3), 2, {4}),
                                 (split, 2, {1, 4, 9}), (rationals(), 4, {1, 4, 9}),
                                 (M2Q, 2, {1, 4, 9}), (split_model(1), 2, {1, 4, 9}),
                                 (matrix_algebra(D2, 1), 2, {4})):
        n = base.dim * g * g
        for d in range(1, n):
            span = _leading_span(n, d)
            if d in corner_dims:
                with pytest.raises(AssertionError, match="matrix_rule built"):
                    loop_corner(span, base, g)
            else:
                assert loop_corner(span, base, g) == (False, None, None, False, False)


def test_loop_corner_takes_no_certificate_over_a_custom_base(monkeypatch):
    monkeypatch.setattr("obstructor.obstruction.matrix_rule", _refuse_rule)
    q_times_q = make_algebra(2, {(0, 0): ((0, 1),), (1, 1): ((1, 1),)},
                             unit=(1, 1), involution=((1, 0), (0, 1)))
    basis = [HAMILTON.basis_vector(t) for t in range(4)]
    hamilton_table = make_algebra(4, [[HAMILTON.mul_coeffs(u, v) for v in basis]
                                      for u in basis],
                                  unit=HAMILTON.unit, involution=HAMILTON.involution)
    for base in (q_times_q, hamilton_table):
        n = base.dim * 4
        for d in (2, 3, 5):
            with pytest.raises(AssertionError, match="matrix_rule built"):
                loop_corner(_leading_span(n, d), base, 2)


def test_reference_corners_over_simple_bases_have_square_dimension():
    """Artin-Wedderburn, cross-checked on the seeded cases: over Q or a
    quaternion base every corner has dimension j^2, and 4 j^2 over a definite
    quaternion base; loop_corner, certificate included, agrees."""
    checked = 0
    for span, alg in _corner_cases():
        root = alg.matrix_base
        if root is None or not (root.dim == 1 or root.quaternion_params):
            continue
        ref = _reference_corner(span, alg)
        assert loop_corner(span, alg.matrix_base, alg.matrix_size) == ref
        if ref.is_corner:
            q = 4 if root.quaternion_params and max(root.quaternion_params) < 0 else 1
            assert span.dim % q == 0 and isqrt(span.dim // q) ** 2 == span.dim // q
            checked += not (ref.is_zero or ref.is_full)
    assert checked >= 40


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
    alg = matrix_algebra(D2, g.size(1))
    rep = corner_detect(span, alg.rule, alg.scale, alg.unit)
    rep_scaled = corner_detect(compute_obstruction(scale_edges(g, 5), 1),
                               alg.rule, alg.scale, alg.unit)
    assert flag_nonliftable(rep, True).verdict == \
        flag_nonliftable(rep_scaled, True).verdict


# -- corner detection against the Fraction kernel ------------------------------


def _reference_corner(e_span, algebra):
    """corner_detect computed with Fraction products and the Fraction solve:
    the two-sided unit from the left-unit system, idempotency, and equality
    with span{e * b_k * e}."""
    n = algebra.dim
    if e_span.dim == 0:
        return CornerReport(True, algebra.zero().coeffs, 0, False, True)
    if e_span.is_full():
        return CornerReport(True, algebra.unit, n, True, False)
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
    return CornerReport(True, e, e_span.dim,
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
        rep = corner_detect(span, alg.rule, alg.scale, alg.unit)
        assert rep == _reference_corner(span, alg), t
        outcomes.append((rep.is_corner, rep.is_zero, rep.is_full))
    assert len(outcomes) >= 200
    # Every kind of answer occurs: proper corners, non-corners, zero, full.
    assert outcomes.count((True, False, False)) >= 50
    assert outcomes.count((False, False, False)) >= 50
    assert (True, True, False) in outcomes and (True, False, True) in outcomes


def _decide_with_branch(span, alg):
    """corner_detect on ``span`` and the step that decided it. After the
    pivot solve the unit checks form full products in a fixed order, a left
    and a right one per basis vector of the span, so their count names the
    check that failed; the trace, which forms no product, is seen by a spy
    on the multiplication matrices it reads."""
    full, solved, traced = [], [], []
    real_product, real_solve = obstruction.rule_product, obstruction.solve_linear
    real_matrix = obstruction.multiplication_matrix

    def product(rule, u, v, out_len):
        full.append(out_len == alg.dim)
        return real_product(rule, u, v, out_len)

    def solve(a, b):
        solved.append(real_solve(a, b))
        return solved[-1]

    def matrix(*args, **kwargs):
        traced.append(True)
        return real_matrix(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obstruction, "rule_product", product)
        mp.setattr(obstruction, "solve_linear", solve)
        mp.setattr(obstruction, "multiplication_matrix", matrix)
        rep = corner_detect(span, alg.rule, alg.scale, alg.unit)
    count = sum(full)
    if solved == [None]:
        return rep, "pivot system"
    if rep.is_corner:
        return rep, "corner"
    if traced:
        assert count == 2 * span.dim  # the trace itself forms no product
        return rep, "trace"
    return rep, "left check" if count % 2 else "right check"


def _block_graph(a, b):
    """build_r3_graph(a, 2, seed=0) zero-padded into three size-b vertices:
    its loop span at vertex 1 is the corner of the top-left a x a block."""
    return ObstructionGraph(D2, (b, b, b), {
        k: DMatrix.from_entries(D2, [
            [m.entries[r][c] if r < a and c < a else D2.zero() for c in range(b)]
            for r in range(b)])
        for k, m in build_r3_graph(a, 2, seed=0).edges.items()})


def test_corner_detect_solves_no_pivot_row_reading_0_eq_0(monkeypatch):
    seen = []

    def solve(a, b):
        seen.append((a, b))
        return solve_linear(a, b)

    monkeypatch.setattr(obstruction, "solve_linear", solve)
    # On a block corner many pivot rows read 0 = 0 (128 of 256 here), and
    # none reaches the solve.
    span, alg = compute_obstruction(_block_graph(2, 3), 1), matrix_algebra(D2, 3)
    rep = corner_detect(span, alg.rule, alg.scale, alg.unit)
    assert rep.is_corner and rep == _reference_corner(span, alg)
    (a, b), = seen
    assert all(any(row) or rhs for row, rhs in zip(a, b))
    assert span.dim ** 2 == 256 and len(a) == 128, len(a)
    # e12 * e12 = 0: its one row reads 0 = D and proves there is no left unit.
    seen.clear()
    m2 = matrix_algebra(rationals(), 2)
    span = echelonize([matrix_unit(m2, 1, 2).coeffs])
    assert not corner_detect(span, m2.rule, m2.scale, m2.unit).is_corner
    assert seen == [(((0,),), (m2.scale,))]

def test_corner_detect_matches_the_reference_on_every_branch():
    from test_golden import _one_edge_graph

    m2, m3 = matrix_algebra(rationals(), 2), matrix_algebra(rationals(), 3)
    e11, e12 = matrix_unit(m2, 1, 1).coeffs, matrix_unit(m2, 1, 2).coeffs
    cases = [
        ("pivot system", echelonize([e12]), m2),
        # e11 - e12 - e22 squares to e11 + e22: the pivot entry fits, the rest not.
        ("left check", echelonize([(1, -1, 0, -1)]), m2),
        # e11 + e22 is a right unit of span{e11, e12, e21 + e31, e22}, whose
        # corner has its dimension, 4: only e * (e21 + e31) = e21 rejects it.
        ("left check", echelonize([matrix_unit(m3, r, c).coeffs
                                   for r, c in ((1, 1), (1, 2), (2, 2))]
                                  + [(0, 0, 0, 1, 0, 0, 1, 0, 0)]), m3),
        ("right check", echelonize([e11, e12]), m2),
        ("trace", echelonize([HAMILTON.unit, HAMILTON.basis_vector(1)]), HAMILTON),
    ]
    for a, b in ((2, 3), (3, 4), (3, 5)):
        cases.append(("corner", compute_obstruction(_block_graph(a, b), 1),
                      matrix_algebra(D2, b)))
    # A loop span is closed and here has a unit, but is no corner.
    for n in (4, 8):
        graph = graph_from_json(json.loads(_one_edge_graph(n)))
        cases.append(("trace", compute_obstruction(graph, 1),
                      matrix_algebra(D2, n)))
    for want, span, alg in cases:
        rep, branch = _decide_with_branch(span, alg)
        assert (branch, rep) == (want, _reference_corner(span, alg)), (want, span)


def test_the_corner_trace_holds_one_multiplication_matrix(monkeypatch):
    # The trace cases above: z's left matrix is the only one built, and the
    # entries of its right matrix are read off the rule.
    from test_golden import _one_edge_graph

    calls, real_matrix = [], obstruction.multiplication_matrix

    def matrix(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real_matrix(*args, **kwargs)

    monkeypatch.setattr(obstruction, "multiplication_matrix", matrix)
    cases = [(echelonize([HAMILTON.unit, HAMILTON.basis_vector(1)]), HAMILTON)]
    for n in (4, 8):
        graph = graph_from_json(json.loads(_one_edge_graph(n)))
        cases.append((compute_obstruction(graph, 1), matrix_algebra(D2, n)))
    for span, alg in cases:
        calls.clear()
        rep = corner_detect(span, alg.rule, alg.scale, alg.unit)
        assert rep == _reference_corner(span, alg) and not rep.is_corner
        assert calls == [(4, {})], calls

import itertools
import random
from fractions import Fraction as F

import pytest

from obstructor import algebra
from obstructor.algebra import (
    INF,
    AlgElement,
    DMatrix,
    element_to_dmatrix,
    dmatrix_to_element,
    hilbert_symbol,
    invert_element,
    make_algebra,
    matrix_algebra,
    matrix_rule,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    ramified_places,
    rationals,
    reduced_norm,
    reduced_trace,
    rule_product,
    split_model,
)
from obstructor.arith import MR_EXACT_BELOW, factorint, is_prime
from obstructor.errors import (
    AlgebraValidationError,
    AssociativityError,
    DimensionMismatchError,
    FactoringError,
    InvolutionError,
    UnitError,
)
from obstructor.linalg import integral


def test_make_algebra_rationals():
    q = make_algebra(1, [[(1,)]], unit=(1,))
    assert q.dim == 1
    assert (q.one() * q.one()).coeffs == (F(1),)


def test_make_algebra_rejects_nonassociative():
    # b0*b0 = b1, b0*b1 = b0, rest zero: (b0 b0) b0 = 0 but b0 (b0 b0) = b0.
    consts = [[(0, 1), (1, 0)], [(0, 0), (0, 0)]]
    with pytest.raises(AssociativityError) as exc:
        make_algebra(2, consts)
    assert exc.value.triple == ("b0", "b0", "b0")


def test_make_algebra_swap_involution_on_q_times_q():
    consts = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    alg = make_algebra(2, consts, unit=(1, 1), involution=((0, 1), (1, 0)))
    e1 = alg.basis_element(0)
    assert e1.dagger().coeffs == (F(0), F(1))


def test_make_algebra_rejects_false_unit():
    consts = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(UnitError):
        make_algebra(2, consts, unit=(1, 0))


def test_make_algebra_rejects_bad_involution():
    consts = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    # Not an involution: sends both idempotents to e1.
    with pytest.raises(InvolutionError):
        make_algebra(2, consts, unit=(1, 1), involution=((1, 0), (1, 0)))


def _dict_layout(alg):
    """``alg.rule`` in the sparse input layout ``{(i, j): ((k, c), ...)}``,
    divided back by ``alg.scale`` to the true constants."""
    sc = {}
    for i, bucket in enumerate(alg.rule):
        for j, k, c in bucket:
            sc[(i, j)] = sc.get((i, j), ()) + ((k, F(c, alg.scale)),)
    return sc


def test_make_algebra_rejects_non_antimultiplicative_involution():
    D = quaternion_algebra(-1, -1)
    rows = list(D.involution)
    rows[3] = (0, 0, 0, 1)  # fix k, keep i,j negated: breaks sigma(ij)
    with pytest.raises(InvolutionError):
        make_algebra(4, _dict_layout(D), unit=D.unit, involution=tuple(rows))


def test_make_algebra_dense_and_dict_layouts_give_one_rule():
    D = quaternion_algebra(F(-1, 2), -3)
    dense = [[D.mul_coeffs(D.basis_vector(i), D.basis_vector(j)) for j in range(4)]
             for i in range(4)]
    sc = _dict_layout(D)
    # The dict layout merges repeated outputs and drops zero sums.
    sc[(1, 2)] += ((0, 5), (0, -5), (3, 0))
    built = [make_algebra(4, consts, unit=D.unit, involution=D.involution)
             for consts in (dense, sc)]
    assert [sorted(b) for b in built[0].rule] == [sorted(b) for b in built[1].rule]
    assert [sorted(b) for b in built[0].rule] == [sorted(b) for b in D.rule]
    assert built[0].scale == built[1].scale == D.scale == 2
    assert built[0].involution == built[1].involution == D.involution


def test_make_algebra_rejects_out_of_range_output_index():
    for k in (-1, 5):
        with pytest.raises(DimensionMismatchError):
            make_algebra(2, {(0, 0): ((k, 1),)})


# -- the Fraction construction checks, as they ran before the integer ones ----


def _reference_mul(sc, tx, ty):
    acc = {}
    for i, xi in tx:
        for j, yj in ty:
            for k, c in sc.get((i, j), ()):
                acc[k] = acc.get(k, F(0)) + xi * yj * c
    return {k: c for k, c in acc.items() if c}


def _reference_checks(dim, sc, unit, involution, labels):
    """Associativity, the unit law and the involution axioms in Fraction
    arithmetic on the canonical sparse constants ``sc``."""
    right, left = {}, {}
    for (i, j) in sc:
        right.setdefault(i, []).append(j)
        left.setdefault(j, []).append(i)
    residue = {}
    for (i, j), terms in sc.items():
        for m, c in terms:
            for k in right.get(m, ()):
                for q, d in sc[(m, k)]:
                    residue[(i, j, k, q)] = residue.get((i, j, k, q), F(0)) + c * d
    for (j, k), terms in sc.items():
        for m, c in terms:
            for i in left.get(m, ()):
                for q, d in sc[(i, m)]:
                    residue[(i, j, k, q)] = residue.get((i, j, k, q), F(0)) - c * d
    for (i, j, k, q) in sorted(residue):
        val = residue[(i, j, k, q)]
        if val:
            raise AssociativityError(
                (labels[i], labels[j], labels[k]),
                f"(xy)z - x(yz) has coefficient {val} at {labels[q]}")
    if unit is not None:
        tu = tuple((k, c) for k, c in enumerate(unit) if c)
        for j in range(dim):
            ej = ((j, F(1)),)
            if _reference_mul(sc, tu, ej) != {j: 1} or _reference_mul(sc, ej, tu) != {j: 1}:
                raise UnitError(labels[j])
    if involution is None:
        return
    inv = tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in involution)
    for j in range(dim):
        acc = {}
        for m, c in inv[j]:
            for k, d in inv[m]:
                acc[k] = acc.get(k, F(0)) + c * d
        if {k: c for k, c in acc.items() if c} != {j: 1}:
            raise InvolutionError(labels[j], "sigma(sigma(x)) != x")
    for i in range(dim):
        for j in range(dim):
            lhs = {}
            for m, c in sc.get((i, j), ()):
                for k, d in inv[m]:
                    lhs[k] = lhs.get(k, F(0)) + c * d
            if {k: c for k, c in lhs.items() if c} != _reference_mul(sc, inv[j], inv[i]):
                raise InvolutionError((labels[i], labels[j]),
                                      "sigma(xy) != sigma(y)sigma(x)")
    if unit is not None:
        image = [F(0)] * dim
        for t, a in enumerate(unit):
            for k, c in inv[t]:
                image[k] += a * c
        if tuple(image) != tuple(unit):
            raise InvolutionError("1", "sigma(1) != 1")


def _outcome(check):
    try:
        check()
    except AlgebraValidationError as exc:
        witness = getattr(exc, "triple", getattr(exc, "label", getattr(exc, "witnesses", None)))
        return type(exc), witness, str(exc)
    return None


def _rescaled_tables(alg, scales):
    """The constants, unit and involution of ``alg`` on the basis s_t * b_t."""
    n = alg.dim
    sc = {}
    for i in range(n):
        for j in range(n):
            prod = alg.mul_coeffs(alg.basis_vector(i), alg.basis_vector(j))
            terms = tuple((k, c * scales[i] * scales[j] / scales[k])
                          for k, c in enumerate(prod) if c)
            if terms:
                sc[(i, j)] = terms
    unit = tuple(c / s for c, s in zip(alg.unit, scales))
    inv = tuple(tuple(scales[j] * c / scales[k] for k, c in enumerate(row))
                for j, row in enumerate(alg.involution))
    return sc, unit, inv


def _bump(row, k, delta):
    row = list(row)
    row[k] += delta
    return tuple(row)


def test_integer_checks_match_the_fraction_checks_seeded():
    tables = [(alg.dim, _dict_layout(alg), alg.unit, alg.involution, alg.basis_labels)
              for alg in (matrix_algebra(quaternion_algebra(F(-1, 2), -3), 2),
                          matrix_algebra(quaternion_for_prime(2), 2),
                          matrix_algebra(quaternion_for_prime(3), 2),
                          matrix_algebra(quaternion_for_prime(5), 2),
                          split_model(2))]
    q3 = matrix_algebra(rationals(), 3)
    tables.append((9, *_rescaled_tables(
        q3, [F(1, 2), 3, F(2, 5), F(7, 3), F(-1, 6), 1, F(5, 4), F(3, 7), 2]),
        q3.basis_labels))
    rng = random.Random(7)
    cases = []
    for dim, sc, unit, inv, labels in tables:
        cases.append((dim, sc, unit, inv, labels))
        fixed = [j for j, row in enumerate(inv) if [k for k, c in enumerate(row) if c] == [j]]
        for trial in range(16):
            delta = F(rng.choice((-2, -1, 1, 3)), 1 if trial % 2 else rng.choice((2, 3, 5)))
            k = rng.randrange(dim)
            kind = trial % 4
            if kind == 0:
                key = rng.choice(sorted(sc))
                dense = [F(0)] * dim
                for t, c in sc[key]:
                    dense[t] = c
                bent = dict(sc)
                bent[key] = tuple((t, c) for t, c in enumerate(_bump(dense, k, delta)) if c)
                cases.append((dim, bent, unit, inv, labels))
            elif kind == 1:
                cases.append((dim, sc, _bump(unit, k, delta), inv, labels))
            else:
                # An entry of sigma bumped, or the image of a basis element
                # that sigma fixes up to sign negated: sigma stays an
                # involution, but not anti-multiplicative.
                j = rng.randrange(dim) if kind == 2 else rng.choice(fixed)
                row = _bump(inv[j], k, delta) if kind == 2 else tuple(-c for c in inv[j])
                cases.append((dim, sc, unit, inv[:j] + (row,) + inv[j + 1:], labels))
    failures = set()
    for dim, sc, unit, inv, labels in cases:
        got = _outcome(lambda: make_algebra(dim, sc, unit=unit, involution=inv,
                                            basis_labels=labels))
        assert got == _outcome(lambda: _reference_checks(dim, sc, unit, inv, labels))
        if got is not None:
            failures.add(got[0])
    assert failures == {AssociativityError, UnitError, InvolutionError}


def test_quaternion_hamilton_table():
    D = quaternion_algebra(-1, -1)
    one, i, j, k = (D.basis_element(t) for t in range(4))
    assert (k * k).coeffs == (F(-1), 0, 0, 0)
    assert (i * j) == k and (j * i) == -k
    assert (D.element((1, 1, 0, 0)) * D.element((1, -1, 0, 0))).coeffs == (F(2), 0, 0, 0)


def test_quaternion_rejects_zero_parameter():
    with pytest.raises(AlgebraValidationError):
        quaternion_algebra(0, -1)


def test_quaternion_main_involution_and_trace():
    D = quaternion_algebra(-1, -1)
    x = D.element((5, 1, 2, 3))
    assert x.dagger().coeffs == (F(5), F(-1), F(-2), F(-3))
    assert reduced_trace(x) == 10
    # dagger is Trd(x) - x
    assert x.dagger() == D.one() * reduced_trace(x) - x


def test_quaternion_reduced_norm_by_expansion():
    D = quaternion_algebra(-1, -1)
    x = D.element((1, 1, 1, 1))
    prod = x * x.dagger()
    assert prod.coeffs == (F(4), 0, 0, 0)
    assert reduced_norm(x) == 4


def test_quaternion_inverse():
    D = quaternion_algebra(-1, -1)
    x = D.element((1, 2, 0, -1))
    inv = invert_element(x)
    assert (x * inv) == D.one() and (inv * x) == D.one()
    assert invert_element(D.zero()) is None


@pytest.mark.parametrize("base", [
    quaternion_for_prime(2), quaternion_for_prime(3), quaternion_for_prime(5),
    quaternion_algebra(F(-1, 2), -3), rationals()],
    ids=["D2", "D3", "D5", "(-1/2,-3)", "Q"])
def test_invert_element_is_two_sided_seeded(base):
    rng = random.Random(17)
    one = base.one()
    for _ in range(20):
        x = base.element(tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(base.dim)))
        inv = invert_element(x)
        if x.is_zero():
            assert inv is None
            continue
        assert x * inv == one and inv * x == one


def test_invert_element_needs_a_unit():
    no_unit = make_algebra(1, [[[0]]], involution=((1,),))
    with pytest.raises(AlgebraValidationError):
        invert_element(no_unit.element((1,)))


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    for ell in (3, 5, 7, 11):
        assert hilbert_symbol(-1, -1, ell) == 1
    for place in (2, 3, 5, INF):
        assert hilbert_symbol(1, -7, place) == 1


def test_hilbert_symbol_rejects_zero_and_bad_place():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 4)


def test_hilbert_product_formula_seeded():
    rng = random.Random(11)
    for _ in range(50):
        a = F(rng.choice([n for n in range(-30, 31) if n]))
        b = F(rng.choice([n for n in range(-30, 31) if n]),
              rng.choice([n for n in range(1, 12)]))
        places = set([2, INF])
        for q in (a, b):
            for n in (q.numerator, q.denominator):
                n = abs(n)
                f = 2
                while f * f <= n:
                    while n % f == 0:
                        places.add(f)
                        n //= f
                    f += 1
                if n > 1:
                    places.add(n)
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_factorint_within_the_pollard_rho_budget():
    assert factorint(-8 * 9999991 * 9999973 * 10000019) == {
        2: 3, 9999991: 1, 9999973: 1, 10000019: 1}
    # (10^24 + 7)(3 * 10^24 + 7): each factor needs about 10^12 rho steps.
    with pytest.raises(FactoringError):
        factorint(3000000000000000000000028000000000000000000000049)


def test_is_prime_exact_below_the_base_41_bound():
    # The least strong pseudoprime to the bases 2..37 (Sorenson & Webster).
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(41) and not is_prime(41 * 43)
    assert factorint(2 ** 61 - 1) == {2 ** 61 - 1: 1}
    # The least one to the bases 2..41 passes, so it bounds exactness: at and
    # above it a pass is no proof, while a failure still is.
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))
    for n in (MR_EXACT_BELOW, 2 ** 89 - 1):
        with pytest.raises(FactoringError, match="cannot prove"):
            is_prime(n)
        with pytest.raises(FactoringError, match="cannot prove"):
            hilbert_symbol(1, 1, n)
    for n in (MR_EXACT_BELOW, 2 ** 89 - 1, 6 * (2 ** 89 - 1)):
        with pytest.raises(FactoringError, match="cannot prove"):
            factorint(n)


# 73 is the smallest prime = 1 mod 8 at which q walks past 3 (to 7).
@pytest.mark.parametrize("p,params", [
    (2, (-1, -1)), (3, (-1, -3)), (5, (-2, -5)), (73, (-7, -73)),
])
def test_quaternion_for_prime_standard_parameters(p, params):
    alg = quaternion_for_prime(p)
    assert alg.quaternion_params == (F(params[0]), F(params[1]))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 73])
def test_quaternion_for_prime_ramified_exactly_there(p):
    alg = quaternion_for_prime(p)
    a, b = alg.quaternion_params
    assert ramified_places(a, b) == [p, INF]


def test_quaternion_for_prime_rejects_composite():
    with pytest.raises(ValueError):
        quaternion_for_prime(6)


def test_matrix_algebra_m1_is_base():
    D = quaternion_algebra(-1, -1)
    M1 = matrix_algebra(D, 1)
    assert M1.dim == 4
    x = M1.element((1, 2, 3, 4))
    y = M1.element((0, 1, 0, 0))
    assert (x * y).coeffs == D.mul_coeffs((1, 2, 3, 4), (0, 1, 0, 0))
    assert x.dagger().coeffs == (F(1), F(-2), F(-3), F(-4))


def test_matrix_algebra_transpose_involution_over_q():
    M2 = matrix_algebra(rationals(), 2)
    e12 = matrix_unit(M2, 1, 2)
    assert e12.dagger() == matrix_unit(M2, 2, 1)


def test_matrix_algebra_dimension():
    D = quaternion_for_prime(2)
    assert matrix_algebra(D, 3).dim == 36


def test_matrix_algebras_share_one_rule_per_shape():
    for base in (quaternion_for_prime(3), quaternion_algebra(F(-1, 2), -3)):
        for g in (1, 2, 3):
            M = matrix_algebra(base, g)
            assert M.rule is matrix_rule(base, g, g, g)
            assert M.scale == base.scale
    for g in (1, 2, 3):
        assert split_model(g).rule is matrix_algebra(rationals(), 2 * g).rule


def test_constructors_build_each_algebra_once():
    # Algebras compare by identity, so a repeat call must return the same
    # object, whatever spelling its arguments have.
    D = quaternion_for_prime(2)
    assert rationals() is rationals()
    assert quaternion_algebra("-1", "-1") is quaternion_algebra(-1, F(-1)) is D
    assert matrix_algebra(D, 2) is matrix_algebra(D, 2)
    assert split_model(2) is split_model(2)
    assert matrix_rule(D, 1, 2, 3) is matrix_rule(D, 1, 2, 3)
    # A keyword call would key a second copy.
    for call in (lambda: matrix_algebra(D, g=2), lambda: split_model(g=2),
                 lambda: matrix_rule(D, 1, 2, gb=3)):
        with pytest.raises(TypeError):
            call()
    # A failed construction is not remembered.
    for _ in range(2):
        with pytest.raises(AlgebraValidationError):
            matrix_algebra(D, 0)
        with pytest.raises(AlgebraValidationError):
            split_model(0)


def test_matrix_algebra_requires_involution():
    bare = make_algebra(1, [[(1,)]], unit=(1,))
    with pytest.raises(AlgebraValidationError):
        matrix_algebra(bare, 2)


def test_split_model_g1_involution_formula():
    M = split_model(1)
    m = M.element((1, 2, 3, 4))  # (a b; c d) row-major
    assert m.dagger().coeffs == (F(4), F(-2), F(-3), F(1))
    # x + dagger(x) is the trace scalar
    assert (m + m.dagger()) == M.one() * 5


def test_split_model_builds_no_matrix_algebra(monkeypatch):
    def refuse(*args):
        raise AssertionError("split_model built M_2g(Q)")

    cached = split_model(3)
    monkeypatch.setattr(algebra, "matrix_algebra", refuse)
    fresh = split_model.__wrapped__(3)
    assert fresh is not cached
    for name in ("dim", "basis_labels", "rule", "scale", "unit", "inv_terms",
                 "matrix_base", "matrix_size", "is_split_model"):
        assert getattr(fresh, name) == getattr(cached, name), name
    # Above the cap it refuses before building any product rule.
    monkeypatch.setattr(algebra, "matrix_rule", refuse)
    with pytest.raises(AlgebraValidationError, match="dimension 1156, above the cap"):
        split_model.__wrapped__(17)


def test_split_model_involution_properties_random():
    rng = random.Random(3)
    M = split_model(2)
    for _ in range(10):
        x = M.element(tuple(rng.randint(-4, 4) for _ in range(16)))
        y = M.element(tuple(rng.randint(-4, 4) for _ in range(16)))
        assert x.dagger().dagger() == x
        assert (x * y).dagger() == y.dagger() * x.dagger()


def test_dmatrix_dagger_transpose_examples():
    D = quaternion_algebra(-1, -1)
    ident = DMatrix.identity(D, 3)
    assert ident.dagger_transpose().coeffs == ident.coeffs
    i, j = D.basis_element(1), D.basis_element(2)
    m = DMatrix.from_entries(D, [[i, D.zero()], [j, D.zero()]])
    md = m.dagger_transpose()
    assert md.entries[0][0] == -i and md.entries[0][1] == -j
    assert md.entries[1][0].is_zero() and md.entries[1][1].is_zero()
    assert md.dagger_transpose().coeffs == m.coeffs


def test_dmatrix_flatten_roundtrip():
    D = quaternion_for_prime(3)
    rng = random.Random(5)
    m = DMatrix.from_entries(D, [
        [D.element(tuple(rng.randint(-3, 3) for _ in range(4))) for _ in range(3)]
        for _ in range(2)])
    again = DMatrix.from_flat(D, 2, 3, m.coeffs)
    assert again.coeffs == m.coeffs
    assert (m.rows, m.cols) == (2, 3)


def test_element_dmatrix_reshape_consistency():
    bases = [quaternion_for_prime(p) for p in (2, 3, 5)]
    bases += [quaternion_algebra(F(-1, 2), -3), matrix_algebra(quaternion_for_prime(3), 2)]
    rng = random.Random(1)
    for base, g in itertools.product(bases, (1, 2, 3)):
        M = matrix_algebra(base, g)
        x = M.element(tuple(rng.randint(-3, 3) for _ in range(M.dim)))
        y = M.element(tuple(rng.randint(-3, 3) for _ in range(M.dim)))
        # algebra product and matrix composition agree entry for entry
        assert (x * y).coeffs == (element_to_dmatrix(x) @ element_to_dmatrix(y)).coeffs
        assert dmatrix_to_element(M, element_to_dmatrix(x)) == x
        # the matrix-algebra involution is the dagger-transpose, on every
        # basis element and on a random element
        for e in [M.basis_element(t) for t in range(M.dim)] + [x]:
            assert e.dagger().coeffs == element_to_dmatrix(e).dagger_transpose().coeffs


def test_elements_compare_by_algebra_identity_and_coefficients():
    D = quaternion_for_prime(3)
    x, y = D.element((1, 2, 0, -1)), D.element((1, 2, 0, -1))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != D.element((1, 2, 0, 1))
    # The same coefficients in another algebra of the same dimension differ,
    # even when both algebras have the same constants.
    assert x != quaternion_for_prime(2).element((1, 2, 0, -1))
    q1, q2 = (make_algebra(1, [[(1,)]], unit=(1,)) for _ in range(2))
    assert q1 is not q2 and q1.one() != q2.one()
    assert (x == x.coeffs) is False and (x == 1) is False


def test_dmatrices_compare_by_value():
    D = quaternion_for_prime(3)
    m = DMatrix.from_flat(D, 1, 2, range(8))
    assert m == DMatrix.from_flat(D, 1, 2, range(8))
    assert hash(m) == hash(DMatrix.from_flat(D, 1, 2, range(8)))
    assert m != DMatrix.from_flat(D, 2, 1, range(8))
    assert m * 2 == DMatrix.from_flat(D, 1, 2, range(0, 16, 2))
    assert m != m.coeffs
    assert repr(m) == "DMatrix(rows=1, cols=2, base_dim=4)"


@pytest.mark.parametrize("value", [
    lambda D: D.element((1, 0, 0, 0)),
    lambda D: DMatrix.identity(D, 2),
    lambda D: matrix_algebra(D, 2),
])
def test_elements_and_dmatrices_refuse_assignment(value):
    D = quaternion_for_prime(3)
    v = value(D)
    for name in v.__slots__:
        with pytest.raises(AttributeError):
            setattr(v, name, getattr(v, name))
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1


def test_wrong_coefficient_counts_are_refused():
    D = quaternion_for_prime(3)
    with pytest.raises(DimensionMismatchError):
        AlgElement(D, (F(1),) * 3)
    with pytest.raises(DimensionMismatchError):
        DMatrix(D, 2, 2, (F(0),) * 15)
    with pytest.raises(DimensionMismatchError):
        DMatrix(D, 0, 2, ())


def test_rectangular_compose_matches_entrywise_product():
    # DMatrix.compose and the fixed-point engine share matrix_rule, so check
    # every rectangular shape against products taken entry by entry.
    D = quaternion_for_prime(3)
    d = D.dim
    rng = random.Random(11)
    for a, c, b in itertools.product((1, 2, 3), repeat=3):
        m = DMatrix.from_flat(D, a, c, [rng.randint(-3, 3) for _ in range(a * c * d)])
        n = DMatrix.from_flat(D, c, b, [rng.randint(-3, 3) for _ in range(c * b * d)])
        mv, nv = m.coeffs, n.coeffs
        want = []
        for r in range(a):
            for col in range(b):
                acc = [F(0)] * d
                for k in range(c):
                    at, bt = (r * c + k) * d, (k * b + col) * d
                    prod = D.mul_coeffs(mv[at:at + d], nv[bt:bt + d])
                    acc = [x + y for x, y in zip(acc, prod)]
                want.extend(acc)
        assert (m @ n).coeffs == tuple(want), (a, c, b)


def _dict_rule_product(rule, u, v, out_len, zero=F(0)):
    """The earlier rule_product, which summed into a dict and kept
    ``zero`` in every entry whose terms cancel: the reference."""
    acc = {}
    for i, a in enumerate(u):
        if not a:
            continue
        for j, k, c in rule[i]:
            b = v[j]
            if b:
                acc[k] = acc.get(k, zero) + a * b * c
    res = [zero] * out_len
    for k, c in acc.items():
        if c:
            res[k] = c
    return tuple(res)


def test_rule_product_matches_the_dict_kernel_seeded():
    rng = random.Random(83)
    q = quaternion_for_prime(2)
    shapes = [(matrix_rule(rationals(), 1, 2, 1), 2, 2, 1),
              (matrix_rule(rationals(), 2, 3, 2), 6, 6, 4),
              (matrix_rule(q, 1, 2, 2), 8, 16, 8),
              (matrix_rule(q, 2, 2, 2), 16, 16, 16),
              (split_model(2).rule, 16, 16, 16)]

    def draw(length, kind, fraction):
        if kind == "zero":
            return (0,) * length
        if kind == "signs":  # +-1 entries, whose sums often cancel
            xs = [rng.choice((-1, 1)) for _ in range(length)]
        else:
            share = 1.0 if kind == "dense" else 0.2
            xs = [rng.randint(-10**6, 10**6) if rng.random() < share else 0
                  for _ in range(length)]
        return tuple(F(x, rng.randint(1, 9)) if fraction and x else x for x in xs)

    cancelled = 0
    for rule, len_u, len_v, out_len in shapes:
        assert len(rule) == len_u
        for _ in range(40):
            fraction = rng.random() < 0.5
            u = integral(draw(len_u, rng.choice(("dense", "sparse", "zero", "signs")),
                              fraction))[0]
            v = integral(draw(len_v, rng.choice(("dense", "sparse", "signs")),
                              fraction))[0]
            got = rule_product(rule, u, v, out_len)
            want = _dict_rule_product(rule, u, v, out_len, 0)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
            terms = {k for i, a in enumerate(u) if a
                     for j, k, _ in rule[i] if v[j]}
            cancelled += sum(1 for k in terms if not want[k])
    assert cancelled >= 20, cancelled


def test_rational_products_match_the_fraction_kernel_seeded():
    # mul_coeffs and DMatrix @ clear each factor's denominators once and run
    # the integer kernel: the reference is the Fraction kernel over the scale.
    rng = random.Random(84)

    def composition(base, a, c, b):
        def mul(u, v):
            m, n = DMatrix.from_flat(base, a, c, u), DMatrix.from_flat(base, c, b, v)
            return (m @ n).coeffs

        d = base.dim
        return matrix_rule(base, a, c, b), base.scale, a * c * d, c * b * d, a * b * d, mul

    def multiplication(alg):
        return alg.rule, alg.scale, alg.dim, alg.dim, alg.dim, alg.mul_coeffs

    q = quaternion_for_prime(2)
    half = quaternion_algebra(F(-1, 2), -3)
    assert half.scale == 2
    cases = [composition(rationals(), 1, 2, 1), composition(rationals(), 2, 3, 2),
             composition(q, 1, 2, 2), composition(q, 2, 2, 2),
             multiplication(matrix_algebra(q, 2)), multiplication(split_model(2)),
             composition(half, 2, 1, 2), multiplication(half)]

    def draw(length, kind):
        if kind == "zero":
            return (F(0),) * length
        if kind == "signs":  # +-1 over one denominator: sums often cancel
            den = rng.randint(1, 10**12)
            return tuple(F(rng.choice((-1, 1)), den) for _ in range(length))
        share = 1.0 if kind == "dense" else 0.2
        return tuple(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**12))
                     if rng.random() < share else F(0) for _ in range(length))

    cancelled = 0
    for rule, scale, len_u, len_v, out_len, mul in cases:
        for _ in range(40):
            u = draw(len_u, rng.choice(("dense", "sparse", "zero", "signs")))
            v = draw(len_v, rng.choice(("dense", "sparse", "signs")))
            want = tuple(x / scale for x in _dict_rule_product(rule, u, v, out_len))
            got = mul(u, v)
            assert got == want
            assert all(type(x) is F for x in got)
            terms = {k for i, x in enumerate(u) if x for j, k, _ in rule[i] if v[j]}
            cancelled += sum(1 for k in terms if not want[k])
    assert cancelled >= 20, cancelled
